// Fleet control plane: diurnal autoscaling and live model migration.
//
// The FleetController is the OS-level layer above the ClusterDispatcher: a
// periodic control loop on the shared simulator clock that observes per-node
// telemetry (outstanding GPU-ms, offered load, placement) and issues two
// kinds of actions:
//
//   * node lifecycle — Active -> Draining -> PoweredOff -> Active. A node
//     marked Draining leaves the placement rotation but finishes its queued
//     work; once empty it is power-gated (idle draw falls to the GPU spec's
//     gated_power_w) until the curve climbs back.
//   * replica changes — one ClusterDispatcher::MoveReplica call per move,
//     clone (from = -1) or retire (to = -1): arrivals redirect immediately,
//     a memory-bound checkpoint kernel drains behind the replica's
//     in-flight requests on the source, and a restore kernel serialises
//     ahead of the first redirected request on the destination
//     (PhoenixOS-style checkpoint/transfer/restore; see docs/autoscale.md).
//
// Each control period DemandGpuMsPerSec, under the configured scaling
// policy, turns demand telemetry into a powered-on node target; the
// controller then drains or wakes nodes so the active set is the first
// `target` *healthy* nodes in index order
// (with no failures this is the pool prefix [0, target)), and — under the
// model-affinity placement policy — re-packs the fleet's replica sets over
// the active set (first-fit decreasing at the estimated demand; at region
// scale over the zone-interleaved node order, keeping hot models spread
// across failure domains), issuing the migrations that diff requires,
// capped per period. Rebalancing only runs when the active set changes or
// replicas are stranded on non-active nodes, so a steady pool never churns.
//
// The controller also owns failure recovery (the cluster-OS framing: the
// control plane, not the application, handles faults). A node crashed by
// src/fault/ drops out of the placement rotation immediately; at the next
// tick the controller drains it from its books and the rebalance diff
// re-places every replica stranded on it onto survivors. The controller
// issues the same MoveReplica as for any move; the dispatcher sees the
// unreachable source and charges only the restore half, since a dead node
// cannot execute its checkpoint half. These recovery moves are forced
// (never budget-capped).
// A repaired node rejoins exactly like a trough-gated one: powered off and
// out of rotation until demand wants it back.
#ifndef LITHOS_AUTOSCALE_FLEET_CONTROLLER_H_
#define LITHOS_AUTOSCALE_FLEET_CONTROLLER_H_

#include <vector>

#include "src/autoscale/scaling_policy.h"
#include "src/cluster/cluster.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace lithos {

// Lifecycle state the controller tracks per node.
enum class NodePower {
  kActive,     // in rotation, full idle power
  kDraining,   // out of rotation, finishing queued work
  kPoweredOff, // drained and power-gated
};

struct AutoscaleConfig {
  // The underlying pool and traffic. `cluster.num_nodes` is the pool
  // ceiling; `cluster.policy` should be kModelAffinity for migrations to be
  // meaningful (the load-oblivious policies replicate every model
  // everywhere, so only node lifecycle applies). The controller plans and
  // re-packs to the dispatcher's `affinity_target_util`: a powered-on node
  // is planned to carry affinity_target_util * 1000 GPU-ms of request work
  // per second, the budget the placer packed to at construction.
  ClusterConfig cluster;

  ScalingPolicyKind scaling = ScalingPolicyKind::kPredictive;
  DurationNs control_period = FromMillis(250);

  int min_nodes = 1;

  // Rebalance migrations per control period. Forced moves — replicas
  // stranded on draining nodes — always complete regardless of the cap, so
  // a drain can finish.
  int max_migrations_per_period = 4;
};

class FleetController {
 public:
  // Scale-down hysteresis: the demand estimate must call for fewer nodes
  // for this many consecutive ticks before any node drains. Scale-up is
  // immediate — growing fast and shedding slowly damps the oscillation a
  // lagging (reactive) signal otherwise rings with.
  static constexpr int kScaleDownPatience = 2;

  FleetController(Simulator* sim, ClusterDispatcher* dispatcher, const AutoscaleConfig& config);
  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  // Runs the first control tick now and re-arms every control_period until
  // the next tick would land at or beyond `until`.
  void Start(TimeNs until);

  // Discards the power/lifecycle accounting accumulated so far (warm-up);
  // the powered-on integral and cycle counters restart from now.
  void ResetAccounting();

  NodePower node_power(int node) const { return states_[node]; }
  int powered_on_nodes() const;

  // Time integral of the powered-on node count (GPU-seconds of provisioned
  // capacity) since the last ResetAccounting, including the current partial
  // interval.
  double PoweredOnNodeSeconds() const;

  uint64_t power_ons() const { return power_ons_; }
  uint64_t power_offs() const { return power_offs_; }
  uint64_t ticks() const { return ticks_; }

  // Attaches a binary trace recorder (nullptr detaches): every scaling
  // decision (desired vs provisioned nodes), drain begin, and power
  // off/on appends a TraceLayer::kControl record.
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }

  // --- Remediation hooks (src/remediate/) ----------------------------------

  // Holds a node out of the active set: at the next tick it drains (replicas
  // are forced off by the rebalance diff, queued work finishes) and then
  // power-gates, exactly like a scale-down drain — until ReleaseDrain lifts
  // the hold and the scaling target wants it back. Idempotent.
  void RequestDrain(int node);
  void ReleaseDrain(int node);
  bool DrainHeld(int node) const;

  // Forces a full rebalance pass at the next tick even though the active set
  // is stable — the remediation controller's lever for re-spreading replicas
  // off herded survivors after a crash or partition heals (the per-tick
  // migration budget still applies, so a storm cannot thrash placement).
  void RequestRebalance() { force_rebalance_ = true; }

  const AutoscaleConfig& config() const { return config_; }

 private:
  void Tick(TimeNs until);
  FleetSnapshot BuildSnapshot() const;
  // Drives the lifecycle toward an active set of the first `desired`
  // healthy nodes in index order (the pool prefix when nothing is failed);
  // crashed nodes are forced out of the active set. Returns whether any
  // node changed state.
  bool ApplyLifecycle(int desired);
  // Re-packs replica sets over the current active set and issues the
  // MoveReplica calls the diff requires, moves off non-active nodes first
  // and uncapped.
  void Rebalance(double demand_ms_per_s);
  void CompleteDrains();
  bool HasStrandedReplicas() const;
  void IntegratePoweredOn();

  Simulator* sim_;
  ClusterDispatcher* dispatcher_;
  AutoscaleConfig config_;

  std::vector<NodePower> states_;
  std::vector<uint8_t> remediation_hold_;  // nodes held out by RequestDrain
  bool force_rebalance_ = false;           // one-shot RequestRebalance latch
  double mean_offered_ms_per_s_ = 0;  // offered load at the diurnal mean
  double peak_offered_ms_per_s_ = 0;  // offered load at the diurnal peak

  bool first_tick_ = true;
  double last_dispatched_ms_ = 0;  // dispatched_request_ms at previous tick
  int below_ticks_ = 0;            // consecutive ticks demand called for fewer nodes

  TimeNs last_integrate_ = 0;
  double powered_on_seconds_ = 0;
  uint64_t power_ons_ = 0;
  uint64_t power_offs_ = 0;
  uint64_t ticks_ = 0;
  TraceRecorder* trace_ = nullptr;
};

// --- Headline experiment ------------------------------------------------------

struct AutoscaleResult {
  ScalingPolicyKind scaling = ScalingPolicyKind::kStaticPeak;
  ClusterResult cluster;            // measurement-window fleet metrics
  SimCounters sim;                  // event-core work done by the whole run

  double days = 0;                  // fleet-days covered by the window
  double mean_powered_on = 0;       // time-averaged powered-on node count
  double gpu_hours_per_day = 0;     // provisioned GPU-hours per fleet-day
  double joules_per_day = 0;        // fleet energy per fleet-day
  // Request GPU-ms served per powered-on GPU-ms: the utilization of what
  // the fleet actually paid for. The autoscaler's reason to exist — the
  // paper's 27%-idle fleet raised by shedding the trough.
  double provisioned_utilization = 0;
  uint64_t power_ons = 0;
  uint64_t power_offs = 0;
};

// Builds the cluster + controller stack, runs warmup + duration, and
// collects fleet metrics over the post-warm-up window. Deterministic for a
// given config.
AutoscaleResult RunClusterAutoscale(const AutoscaleConfig& config);

}  // namespace lithos

#endif  // LITHOS_AUTOSCALE_FLEET_CONTROLLER_H_
