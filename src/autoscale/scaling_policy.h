// Scaling policies for the fleet control plane (src/autoscale/).
//
// The paper's production study (Section 3) shows a 13-model fleet idling at
// ~27% mean utilization against a diurnal curve whose peak is ~1.38x the
// mean: a statically peak-provisioned pool burns GPU-hours and joules all
// night serving trough traffic. DemandGpuMsPerSec converts the fleet's demand
// telemetry into the GPU-ms/s of capacity the pool should provision for the
// next control period; the FleetController turns that into node lifecycle
// and migration actions. Three policies span the spectrum:
//
//   * static-peak — provision the whole pool permanently (the PR-1 baseline:
//                   what a fleet without a control plane does),
//   * reactive    — follow what actually arrived last period plus the
//                   current backlog; lags the curve by one control period,
//   * predictive  — feed FleetTelemetry::NormalizedRps forward by one
//                   control period, so capacity is already there when the
//                   morning ramp hits.
#ifndef LITHOS_AUTOSCALE_SCALING_POLICY_H_
#define LITHOS_AUTOSCALE_SCALING_POLICY_H_

#include <string>
#include <vector>

#include "src/common/time.h"

namespace lithos {

enum class ScalingPolicyKind {
  kStaticPeak,
  kReactive,
  kPredictive,
};

std::string ScalingPolicyName(ScalingPolicyKind kind);
// All policies, baseline first.
std::vector<ScalingPolicyKind> AllScalingPolicies();

// What the controller shows the demand function once per control period.
// All loads are GPU-ms of request work per wall-second.
struct FleetSnapshot {
  TimeNs now = 0;
  DurationNs control_period = 0;
  int powered_on = 0;                       // nodes currently drawing full idle power
  int total_nodes = 0;                      // pool size ceiling
  double node_capacity_ms_per_s = 0;        // affinity_target_util * 1000 per node
  double offered_now_ms_per_s = 0;          // instantaneous diurnal offered load
  double predicted_next_ms_per_s = 0;       // offered load one control period ahead
  double measured_last_period_ms_per_s = 0; // what actually arrived last period
  double backlog_ms = 0;                    // queued-but-unfinished GPU-ms, all nodes
  double peak_ms_per_s = 0;                 // diurnal peak of the offered load
};

// GPU-ms/s of demand the pool should be provisioned for over the next
// control period under policy `kind`. The controller divides by per-node
// capacity and clamps to [min_nodes, total_nodes] to get the powered-on
// node target.
double DemandGpuMsPerSec(ScalingPolicyKind kind, const FleetSnapshot& snap);

}  // namespace lithos

#endif  // LITHOS_AUTOSCALE_SCALING_POLICY_H_
