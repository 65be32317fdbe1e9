#include "src/autoscale/scaling_policy.h"

#include <algorithm>

#include "src/common/time.h"

namespace lithos {

std::string ScalingPolicyName(ScalingPolicyKind kind) {
  switch (kind) {
    case ScalingPolicyKind::kStaticPeak:
      return "static-peak";
    case ScalingPolicyKind::kReactive:
      return "reactive";
    case ScalingPolicyKind::kPredictive:
      return "predictive";
  }
  return "?";
}

std::vector<ScalingPolicyKind> AllScalingPolicies() {
  return {ScalingPolicyKind::kStaticPeak, ScalingPolicyKind::kReactive,
          ScalingPolicyKind::kPredictive};
}

namespace {

// Catch-up term shared by the closed-loop policies: backlog must be worked
// off within the next control period on top of the arriving load, so a queue
// left by an under-provisioned period forces extra capacity.
double BacklogPerSecond(const FleetSnapshot& snap) {
  const double period_s = ToSeconds(snap.control_period);
  return period_s > 0 ? snap.backlog_ms / period_s : 0.0;
}

}  // namespace

double DemandGpuMsPerSec(ScalingPolicyKind kind, const FleetSnapshot& snap) {
  switch (kind) {
    case ScalingPolicyKind::kStaticPeak:
      // Provision every node in the pool, forever: the dispatcher's behavior
      // before the control plane existed. Demands the whole pool's capacity
      // so the controller never drains anything.
      return static_cast<double>(snap.total_nodes) * snap.node_capacity_ms_per_s;
    case ScalingPolicyKind::kReactive:
      // Follow what actually arrived last period. Purely trailing telemetry:
      // on the morning ramp the estimate is one period stale, so the pool
      // scales up only after queues have already built (the backlog term is
      // its catch-up).
      return snap.measured_last_period_ms_per_s + BacklogPerSecond(snap);
    case ScalingPolicyKind::kPredictive:
      // Feed the diurnal curve forward one control period: capacity for the
      // ramp is powered on before the ramp arrives, and the trough is shed
      // on schedule. Never provision below what is already arriving: the
      // forecast is for growth, the floor handles forecast error on the
      // down-slope.
      return std::max(snap.predicted_next_ms_per_s, snap.offered_now_ms_per_s) +
             BacklogPerSecond(snap);
  }
  return 0.0;
}

}  // namespace lithos
