// Multi-GPU fleet serving layer.
//
// The ClusterDispatcher instantiates N GpuNodes — each a complete single-GPU
// LithOS (or baseline) stack, the same unit the experiment harness runs
// alone (src/experiments/harness.h) — on the shared discrete-event
// Simulator, so an entire fleet advances on one clock. It routes the
// thirteen-model diurnal traffic of FleetTelemetry (Section 3's production
// study) through a pluggable placement policy (src/cluster/placement.h).
//
// Serving model: each fleet model gets one client + one stream per node it
// lands on (a tenant per model, CUDA stream semantics per node), and one
// record of synthetic kernels — request, model switch, checkpoint, restore —
// built once from its per-request cost and size. Routing a request to a node
// whose previous request was for a different model charges the switch
// kernel (weight load / cache refill) before the request kernel — the cost
// that makes consolidation a placement problem rather than a free-for-all,
// and the reason model-affinity packing beats load-oblivious spraying.
//
// At region scale the pool splits into contiguous failure-domain zones
// (ClusterConfig::num_zones, described by one ZoneTopology that the placer
// owns). The fault hooks below are per node; src/fault/ injects crashes,
// stragglers, power caps, and whole-zone outages and partitions through
// them. Replica sets change through one call, MoveReplica: the dispatcher,
// which owns node state, decides from the source's reachability whether a
// move is a live migration or a crash recovery. See docs/fleet.md for the
// hierarchy, failure model, and recovery semantics.
#ifndef LITHOS_CLUSTER_CLUSTER_H_
#define LITHOS_CLUSTER_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/placement.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/config.h"
#include "src/driver/driver.h"
#include "src/experiments/harness.h"
#include "src/gpu/execution_engine.h"
#include "src/gpu/gpu_spec.h"
#include "src/obs/detect.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/workloads/fleet.h"

namespace lithos {

class SpanBuilder;

// --- Cluster serving ---------------------------------------------------------

// Request-level resilience policies for the request lifecycle
// (docs/resilience.md). Disabled by default, which selects write-off: the
// one-attempt policy with no timeout, hedge, shed or breaker. It schedules no
// extra events and draws no extra randomness.
struct ResilienceConfig {
  // When false, the dispatcher replaces the knobs below with write-off.
  bool enabled = false;

  // Sequential attempts per request (first dispatch + retries). A retry is
  // scheduled when an attempt is orphaned by a crash, deferred behind a
  // partition past its timeout, or times out — with capped exponential
  // backoff: min(backoff_cap, backoff_base << (attempt - 1)).
  int max_attempts = 3;
  DurationNs attempt_timeout = FromMillis(250);
  DurationNs backoff_base = FromMillis(20);
  DurationNs backoff_cap = FromMillis(160);

  // Gray-node breaker: after an attempt times out on a node, new attempts
  // for that model steer around the (model, node) pair for this window; a
  // successful completion there clears it early. Queue-depth admission
  // alone cannot see a node whose drain rate silently degraded (stream
  // interference, switch-kernel churn) — the breaker closes the loop with
  // observed timeouts. 0 disables.
  DurationNs quarantine = FromMillis(500);

  // Hedged dispatch: if the first attempt has not completed after
  // hedge_delay, launch one duplicate on a distinct healthy node; first
  // completion wins and the loser is cancelled through the driver/engine
  // abort path.
  bool hedge = false;
  DurationNs hedge_delay = FromMillis(75);

  // Admission control: shed (reject at arrival) when fleet-wide outstanding
  // GPU-ms exceeds watermark * active nodes. 0 disables shedding.
  double shed_watermark_ms = 0.0;
};

struct ClusterConfig {
  int num_nodes = 4;
  // Failure domains: nodes are split into this many contiguous, equal-sized
  // zones (num_nodes must divide evenly when > 1). Model-affinity routing is
  // zone-first and its packing spreads hot models across zones; 1 is the
  // flat fleet.
  int num_zones = 1;
  // Sub-zone failure domains: each zone splits into this many contiguous,
  // equal-sized racks (zone_size must divide evenly). Racks only matter to
  // the fault layer (rack-correlated crash groups); placement stays
  // zone-granular. 1 keeps the pre-rack topology.
  int racks_per_zone = 1;
  GpuSpec spec = GpuSpec::A100();
  // Per-node scheduling backend; any of the nine systems works.
  SystemKind system = SystemKind::kLithos;
  LithosConfig lithos;
  PlacementPolicy policy = PlacementPolicy::kLeastLoaded;

  // Fleet-wide mean request rate, split across the thirteen models by their
  // popularity shares (Fig. 5's several-hundred-x spread).
  double aggregate_rps = 800.0;
  // Per-node GPU-time budget the model-affinity packer fills to; kept well
  // under 1.0 so packed nodes ride out the diurnal peak (~1.38x the mean).
  // The fleet controller plans capacity and re-packs to the same budget;
  // the headroom absorbs burstiness within a control period plus the
  // model-switch overhead consolidation induces, so pushing this much past
  // 0.5 trades tail latency for GPU-hours.
  double affinity_target_util = 0.5;
  // Diurnal compression: simulated seconds per fleet "day"; traffic follows
  // FleetTelemetry::NormalizedRps over that compressed day. 0 = flat traffic
  // at the mean rate.
  double seconds_per_day = 0.0;

  DurationNs warmup = FromSeconds(1);
  DurationNs duration = FromSeconds(8);
  uint64_t seed = 42;

  // Request-level resilience (retry / hedge / shed); off by default.
  ResilienceConfig resilience;
};

// Fleet totals over the post-warm-up measurement window opened by
// BeginMeasurement(); without that call the window is the full run.
struct ClusterResult {
  PlacementPolicy policy = PlacementPolicy::kRoundRobin;
  int num_nodes = 0;

  // Requests routed/finished inside the measurement window.
  uint64_t dispatched = 0;
  uint64_t completed = 0;
  double throughput_rps = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;

  // Utilization over the whole pool and over only the nodes that received
  // work; consolidation raises the latter while shrinking nodes_used.
  double fleet_utilization = 0;
  double used_utilization = 0;
  // Goodput utilization: GPU-ms of *request* work served per GPU-second of
  // the used nodes. Excludes model-switch overhead, so churny policies do
  // not get credit for busy-but-wasted TPC time.
  double goodput_utilization = 0;
  // Raw numerator of the goodput ratio: request GPU-ms completed inside the
  // measurement window (the autoscale layer re-divides it by powered-on
  // GPU-time rather than ever-used GPU-time).
  double completed_request_gpu_ms = 0;
  int nodes_used = 0;
  // Versus the dedicated deployment the paper's fleet study describes: one
  // GPU per model (13 for the production fleet's model set).
  int gpus_saved_vs_dedicated = 0;
  double mean_models_per_node = 0;  // over used nodes
  uint64_t total_model_switches = 0;  // switch/load kernels (incl. cold starts)
  double energy_joules = 0;           // drawn by every node's engine

  // Live-migration traffic (autoscale control plane).
  uint64_t migrations = 0;           // replica re-homings (checkpoint + restore)
  double migration_gpu_ms = 0;       // GPU-ms charged for checkpoint/restore kernels

  // Fault traffic (src/fault/ injection): requests lost because their node
  // crashed before completion, and replicas re-placed off dead nodes via the
  // restore-only recovery path.
  uint64_t failed = 0;
  uint64_t recoveries = 0;
};

class ClusterDispatcher {
 public:
  // Model-switch cost in GPU ms per unit of (normalized) model size, charged
  // when a node's previously served model differs from the incoming one.
  static constexpr double kSwitchCostMsPerSize = 0.8;

  // Per-model retry budget: retries for a model are allowed while
  // lifetime_retries(m) < kRetryBudgetFraction * lifetime_dispatched(m)
  //                      + kRetryBudgetFloor.
  // Caps retry storms during correlated failures (a meltdown cannot more
  // than ~1.2x the offered load) while leaving isolated faults fully
  // retryable.
  static constexpr double kRetryBudgetFraction = 0.2;
  static constexpr uint64_t kRetryBudgetFloor = 32;

  // One model's synthetic kernels (hidden ground-truth timing built from the
  // fleet study's per-request cost and model size) and the GPU-ms each
  // charges to a node's outstanding work. Checkpoint and restore differ only
  // in name, which LithOS's predictor keys on.
  struct ModelKernels {
    KernelDesc request;
    KernelDesc load;        // model switch: weight load / cache refill
    KernelDesc checkpoint;  // migration half on the source
    KernelDesc restore;     // migration half on the destination
    double switch_ms = 0;
    double half_migration_ms = 0;
  };

  ClusterDispatcher(Simulator* sim, const ClusterConfig& config);

  const std::vector<FleetModel>& models() const { return fleet_.models(); }
  const ModelKernels& model_kernels(int model_index) const {
    return model_kernels_[model_index];
  }
  const std::vector<std::unique_ptr<GpuNode>>& nodes() const { return nodes_; }
  // Read-only: replica sets change only through MoveReplica.
  const Placer& placer() const { return placer_; }
  const ClusterConfig& config() const { return config_; }
  const FleetTelemetry& fleet() const { return fleet_; }

  // Starts per-model Poisson arrival processes running until `until`.
  void StartArrivals(TimeNs until);

  // Admits one request for models()[model_index] arriving now into the
  // request lifecycle. Returns the node of its first attempt, or -1 when it
  // was shed or no reachable node could take it.
  int Dispatch(int model_index);

  // Live estimate of queued-but-unfinished GPU ms per node (what the
  // placement policies see).
  const std::vector<double>& outstanding_ms() const { return outstanding_ms_; }

  uint64_t dispatched() const { return ctr_dispatched_->value(); }
  uint64_t completed() const { return ctr_completed_->value(); }
  uint64_t dispatched_to(int node) const { return node_state_[node].dispatched; }

  // Pre-arms the warm-up cutoff: samples and counters for requests arriving
  // before `t` are excluded even while the clock is still short of `t`.
  void SetWarmupEnd(TimeNs t) { warmup_end_ = t; }

  // Opens the measurement window at the current simulated time: discards
  // every accumulated statistic (latency digest, window counters, every node
  // engine's stats) and clears the per-node model sets, so every
  // ClusterResult field covers one window. Call at warm-up end.
  void BeginMeasurement();

  // Snapshots fleet metrics; `measured` is the post-warm-up window length.
  ClusterResult Collect(DurationNs measured);

  // --- Autoscale control-plane hooks ---------------------------------------

  // Expected offered load — GPU-ms of request work arriving per wall-second
  // — at simulated time `t`: the diurnal curve's mean rate, a pure function
  // of the config and `t`. This is the arrival process's *intensity*, not a
  // measurement: realized arrivals are the (thinned) Poisson process around
  // it, and the value is unaffected by capacity, node failures, or what was
  // actually dispatched. The scaling policies' demand oracle — predictive
  // scaling evaluates it one control period ahead; the reactive policy
  // instead differences dispatched_request_ms() to see realized traffic.
  double OfferedLoadAt(TimeNs t) const;

  // Offered load at the diurnal mean (no curve factor applied).
  double MeanOfferedLoad() const;

  // Peak of the diurnal curve (the arrival process's thinning envelope,
  // including its margin for the weekly drift term); 1 for flat traffic.
  double PeakNormalizedRps() const { return peak_norm_; }

  // Cumulative GPU-ms of request work dispatched since construction,
  // arrival-weighted. The reactive policy differences this between control
  // periods to estimate what actually arrived.
  double dispatched_request_ms() const { return g_dispatched_request_ms_->value(); }

  // Takes a node out of (or back into) the placement rotation. An inactive
  // node receives no new arrivals but keeps draining queued work.
  void SetNodeActive(int node, bool active);
  bool NodeActive(int node) const;

  // Power-gates a drained node's engine (idle draw falls to
  // spec.gated_power_w). The caller must have drained it first: gating with
  // work on the device is a checked error.
  void PowerGateNode(int node, bool gated);
  bool NodeGated(int node) const;

  // The one replica-set change: re-homes one replica of the model from
  // `from` to `to`, where -1 means "no node" (`from = -1` clones a replica
  // onto `to`, `to = -1` retires the one on `from`). Arrivals redirect
  // immediately — the placer routes by the new set from this instant — and
  // the cost is charged as kernels, PhoenixOS-style: a checkpoint on the
  // source stream (FIFO-ordered behind the replica's in-flight requests,
  // i.e. the drain) and a restore on the destination stream (serialising
  // before the first redirected request). The source's state picks what
  // runs:
  //
  //   * reachable source, node -> node: live migration — checkpoint, then
  //     restore; counts fleet/migrations (inside the measurement window)
  //     and traces kMigration;
  //   * crashed or partitioned source, node -> node: recovery — restore
  //     only (the unreachable node cannot run its checkpoint half; the
  //     replica restores from its last image); counts fleet/recoveries,
  //     traces kRecoverReplica and logs `recover`;
  //   * -1 -> node: clone — restore only;
  //   * reachable source, node -> -1: retire — checkpoint only;
  //   * crashed or partitioned source, node -> -1: drop the lost copy — no
  //     kernel; traces kDropLostReplica and logs `drop`.
  //
  // Returns false, charging nothing, if the placer refuses the change (see
  // Placer::MoveReplica). A restore onto a crashed or partitioned `to` is a
  // checked error.
  bool MoveReplica(int model_index, int from, int to);

  uint64_t migrations() const { return ctr_migrations_->value(); }

  // --- Zone topology (region-scale hierarchy) -------------------------------

  int num_zones() const { return zone_topology().num_zones; }
  int ZoneOfNode(int node) const { return zone_topology().ZoneOf(node); }
  const ZoneTopology& zone_topology() const { return placer_.zone_topology(); }

  // Incrementally maintained per-zone sum of outstanding_ms(): the fleet
  // root's zone-selection signal, updated O(1) per dispatch/completion.
  const std::vector<double>& zone_outstanding_ms() const { return zone_outstanding_ms_; }

  // --- Fault hooks (src/fault/ injection) -----------------------------------

  // Crashes a node: it leaves the placement rotation, its queued work is
  // written off (outstanding drops to zero, and every in-flight request's
  // completion is discounted as *failed* — no latency sample, no goodput
  // credit), and its device memory is forgotten (last-served model resets,
  // so a revived node cold-starts). Kernels already on the simulated device
  // still burn to completion — the simulation discards their results rather
  // than rewriting engine history. Idempotent.
  void FailNode(int node);

  // Repairs a crashed node. It returns *out of rotation* (and typically
  // power-gated by then): the control plane decides when to re-activate it,
  // exactly as it does for a node woken from the diurnal trough.
  void ReviveNode(int node);

  bool NodeFailed(int node) const;
  int failed_node_count() const { return failed_node_count_; }

  // Gray failure: partitions a node off the network. Unlike a crash the
  // node keeps computing — queued work drains and kernels finish — but it
  // is unreachable: it leaves the placement rotation, new attempts steer
  // around it, and completions that finish behind the partition are
  // *deferred* — buffered on the node and delivered (or orphaned, if the
  // node crashes first or a retry/hedge already settled the request) when
  // the partition heals. Idempotent.
  void PartitionNode(int node);

  // Heals a partitioned node: deferred completions are delivered in finish
  // order, then the node rejoins *out of rotation* (the control plane
  // re-activates it, as after a crash repair).
  void HealNode(int node);

  bool NodePartitioned(int node) const;
  int partitioned_node_count() const { return partitioned_node_count_; }

  // Requests lost to crashes (lifetime; per-window counts come via Collect).
  uint64_t failed() const { return ctr_failed_->value(); }

  uint64_t recoveries() const { return ctr_recoveries_->value(); }

  // --- Remediation hooks (src/remediate/) -----------------------------------

  // Fleet-level node quarantine: new attempts steer around the node for
  // *every* model until `until` — the whole-node extension of the
  // per-(model, node) breaker, same doomed() avoidance tier, so a fleet with
  // no healthy alternative still serves rather than refusing. Issued by the
  // remediation controller on a gray verdict; extending is monotone, early
  // lift only via UnquarantineNode (rollback).
  void QuarantineNode(int node, TimeNs until);
  void UnquarantineNode(int node);
  bool NodeQuarantined(int node) const;
  uint64_t node_quarantines() const { return ctr_node_quarantines_->value(); }

  // Herd imbalance: the max over in-rotation healthy nodes of outstanding
  // GPU-ms divided by their mean (>= 1 under load, 0 for an idle fleet). A
  // post-heal herd — survivors holding the load of nodes that just rejoined
  // empty — shows up as a high max/mean ratio; the remediation controller's
  // load-aware rebalancing keys on it (docs/remediation.md).
  double HerdImbalance() const;

  // Append-only, deterministically formatted record of every recovery
  // action (MoveReplica off an unreachable source: `recover` or `drop`)
  // since construction; the fault-replay tests compare it byte-for-byte
  // across runs.
  const std::vector<std::string>& recovery_log() const { return recovery_log_; }

  // --- Observability --------------------------------------------------------

  // The registry behind every fleet-level count above: dispatch/complete/
  // fail/recovery counters, request-GPU-ms gauges, and the latency histogram
  // all live here as named instruments (the accessors read through cached
  // pointers). Scenario drivers bracket measurement windows with
  // BeginPhase()/EndPhase() to get per-phase snapshots, and benches can emit
  // Rows() straight into JsonEmitter.
  MetricsRegistry& metrics() { return metrics_; }

  // Attaches a binary trace recorder (nullptr detaches) to the dispatcher
  // and to every node's engine (tagged with its node/zone ids): crashes,
  // partitions, recoveries, migrations, resilience actions, and each
  // request's lifecycle (TraceKind 60+) append TraceLayer::kCluster records.
  // See docs/observability.md.
  void SetTrace(TraceRecorder* trace);

  // Attaches a span sink (nullptr detaches): every request-correlation
  // record (TraceKind 60+) the dispatcher emits is also fed to the sink at
  // the same instant, so online span assembly sees exactly the records an
  // offline trace replay would — identical by construction. Works with or
  // without a trace recorder attached.
  void SetSpanSink(SpanBuilder* sink) { span_sink_ = sink; }

  // Cumulative per-node / per-(model, node) dispatch telemetry, maintained
  // for every request. The gray-failure detector diffs these window over
  // window (docs/attribution.md).
  const DetectorFeed& detector_feed() const { return feed_; }

  // Completion markers taken from the slab and not yet fired or cancelled;
  // zero once the simulation has drained.
  size_t live_markers() const { return markers_.size() - free_markers_.size(); }

 private:
  // A completion that finished while its node was partitioned, buffered for
  // delivery at heal time as a (slot, gen, attempt) handle into the request
  // slab. It is re-judged at delivery: the request may have been settled by
  // a retry or hedge in the meantime.
  struct DeferredCompletion {
    uint64_t epoch = 0;  // node epoch at launch (stale => orphaned)
    uint32_t slot = 0;
    uint32_t gen = 0;
    int attempt = -1;
  };

  struct NodeState {
    int last_model = -1;                 // model of the most recent launch
    uint64_t dispatched = 0;             // lifetime; identifies used nodes
    // Crash state: `epoch` advances on every FailNode, and completion
    // callbacks capture the epoch they were dispatched under — a stale
    // epoch at completion means the node crashed in between and the work is
    // discounted as failed.
    bool failed = false;
    uint64_t epoch = 0;
    TimeNs failed_at = 0;                // crash instant (for down-span traces)
    // Gray-failure state: a partitioned node computes but cannot deliver.
    bool partitioned = false;
    TimeNs partitioned_at = 0;
    std::vector<DeferredCompletion> deferred;  // finish-order buffer
    uint64_t models_seen = 0;  // bit m: model m landed here in the window
    // Lazily created client/stream per model; index by model, null until
    // the first request for that model lands here.
    std::vector<Stream*> model_streams;
  };

  // One dispatch attempt of a request. `open` means the attempt can still
  // deliver: its completion marker is queued or its node is partitioned with
  // the completion deferred.
  struct AttemptState {
    int node = -1;
    Stream* stream = nullptr;
    uint64_t kernel_id = 0;   // request-kernel launch id (cancellation)
    uint64_t marker_id = 0;   // completion-marker launch id
    uint32_t marker = 0;      // its state in markers_ while it is queued
    double cost_ms = 0;       // GPU-ms the marker releases (+ switch if uncancellable)
    uint64_t epoch = 0;       // node epoch at launch
    TimeNs launch = 0;        // launch instant (detector latency samples)
    bool open = false;
    bool hedge = false;       // the hedged duplicate (for hedge-win stats)
  };

  // What an attempt's completion marker needs when it fires, even after
  // its request settled and the slot was recycled. It lives in a slab so
  // the marker's closure is `[this, index]`, which fits std::function's
  // local buffer: launching an attempt allocates nothing.
  struct AttemptMarker {
    uint32_t slot = 0;
    uint32_t gen = 0;
    int attempt = -1;
    int node = -1;
    double cost_ms = 0;
    uint64_t epoch = 0;
    uint64_t req_id = 0;
  };

  // Slab entry for an in-flight request. Slots are recycled
  // (free-list); `gen` guards stale closures exactly like node epochs.
  struct RequestState {
    uint32_t gen = 0;
    bool in_use = false;
    bool hedged = false;      // hedge attempt launched (or skipped)
    int model = -1;
    uint64_t req_id = 0;      // request-correlation id (span records)
    TimeNs arrival = 0;
    int attempts = 0;         // sequential attempts launched (excl. hedge)
    EventId timer_event = 0;  // backoff or timeout timer (one at a time)
    bool timer_armed = false;
    EventId hedge_event = 0;
    bool hedge_armed = false;
    std::vector<AttemptState> tries;
  };

  void ScheduleNextArrival(int model_index, TimeNs until);
  double RateNow(int model_index) const;
  Stream* StreamFor(int node, int model_index);
  // Launches one half of a migration (checkpoint or restore kernel) on the
  // node's stream for the model and tracks its outstanding GPU time.
  void ChargeMigrationKernel(int node, int model_index, const KernelDesc* kernel);
  // Launches `kernel` on `stream` and counts `ms` as outstanding on `node`
  // until a marker queued behind it fires (AddReleaseMarker).
  void LaunchTracked(int node, Stream* stream, const KernelDesc* kernel, double ms);
  // Queues on `stream` a marker that takes `ms` off `node`'s outstanding work
  // when it fires, unless the node crashed (its epoch moved) in between:
  // FailNode already wrote the work off.
  void AddReleaseMarker(int node, Stream* stream, double ms);
  // Adjusts a node's outstanding-work estimate (clamped at zero) and keeps
  // the per-zone and fleet-total aggregates in sync.
  void AddOutstanding(int node, double delta_ms);
  void AppendRecoveryLog(const char* action, int model_index, int from, int to);
  // Emits one request-correlation record (trace + span sink). `req_id` rides
  // in the payload; `arg` is kind-specific (see TraceKind 60+).
  void EmitReq(TraceKind kind, int node, int zone, int32_t arg, uint64_t req_id);

  // --- Request lifecycle (request_lifecycle.cc) ------------------------------
  // Dispatch admits (or sheds) the request, allocates a slab slot, and
  // launches attempt 1; each attempt's completion marker routes to
  // OnAttemptComplete (node reachable), the deferred buffer (node
  // partitioned), or OnAttemptOrphaned (node crashed — stale epoch). The
  // request settles on first completion (losers cancelled) or fails after
  // max_attempts / budget exhaustion.
  //
  // Picks a healthy target for the next attempt; prefers the placer's
  // choice, falls back to a least-outstanding scan of the model's eligible
  // nodes, then to one ranked scan of the whole fleet. A hedge stops after
  // the eligible scan (it needs a viable untried node). Returns -1 when
  // none qualifies.
  int PickAttemptNode(int model_index, const RequestState& req, bool hedge);
  // Launches one attempt (switch kernel if needed + request kernel +
  // completion marker) on `node`; the switch gets its own marker only when
  // the policy can cancel attempts. `is_hedge` marks the duplicate.
  void LaunchAttempt(uint32_t slot, int node, bool is_hedge);
  // Runs (and frees) a completion marker: completes the attempt, defers it
  // (partitioned node) or orphans it (crashed node).
  void OnAttemptMarker(uint32_t marker);
  void OnAttemptComplete(uint32_t slot, uint32_t gen, int attempt, bool deferred);
  void OnAttemptOrphaned(uint32_t slot, uint32_t gen, int attempt);
  void OnAttemptTimeout(uint32_t slot, uint32_t gen);
  // Cancels an open attempt through the driver (marker first, then kernel;
  // in-flight heads abort through the engine). False when the attempt's
  // node crashed/partitioned or the work cannot be clawed back.
  bool TryCancelAttempt(uint32_t slot, int attempt);
  // Schedules a backoff retry if attempts and budget allow, else fails the
  // request. No-op while another attempt is still open.
  void TryRetryOrFail(uint32_t slot);
  void FailRequest(uint32_t slot);
  bool RetryBudgetAllows(int model_index) const;
  void ArmAttemptTimer(uint32_t slot);
  void DisarmTimers(uint32_t slot);
  void FreeRequestSlot(uint32_t slot);

  Simulator* sim_;
  ClusterConfig config_;
  // Constant-delay timer lanes of the hedge and attempt-timeout timers
  // (valid only when the policy arms them).
  TimerLaneId hedge_lane_ = 0;
  TimerLaneId timeout_lane_ = 0;
  FleetTelemetry fleet_;
  std::vector<std::unique_ptr<GpuNode>> nodes_;
  Placer placer_;

  std::vector<ModelKernels> model_kernels_;  // index by model
  std::vector<double> model_share_;      // popularity share, sums to 1

  std::vector<NodeState> node_state_;
  std::vector<double> outstanding_ms_;
  std::vector<double> zone_outstanding_ms_;  // zone -> sum of outstanding_ms_
  std::vector<Rng> arrival_rng_;         // one deterministic stream per model
  double peak_norm_ = 1.0;               // diurnal peak, thinning envelope

  // Fleet-level accounting lives in the registry as named instruments; the
  // pointers below are the cached hot-path handles (stable for the
  // registry's lifetime). dispatched/completed/failed and
  // dispatched_request_ms are lifetime; the rest reset when
  // BeginMeasurement() opens a window.
  MetricsRegistry metrics_;
  Counter* ctr_dispatched_ = nullptr;
  Counter* ctr_completed_ = nullptr;
  Counter* ctr_failed_ = nullptr;      // requests lost to node crashes
  Counter* ctr_recoveries_ = nullptr;  // replica recoveries in the window
  Counter* ctr_migrations_ = nullptr;
  // Resilience counters (lifetime; per-phase deltas come via the registry's
  // phase snapshots).
  Counter* ctr_retries_ = nullptr;
  Counter* ctr_hedges_ = nullptr;
  Counter* ctr_hedge_wins_ = nullptr;
  Counter* ctr_timeouts_ = nullptr;
  Counter* ctr_shed_ = nullptr;
  Counter* ctr_deferred_ = nullptr;
  Counter* ctr_deferred_delivered_ = nullptr;
  Counter* ctr_deferred_orphaned_ = nullptr;
  Gauge* g_completed_request_ms_ = nullptr;   // request GPU-ms finished after warm-up
  Gauge* g_dispatched_request_ms_ = nullptr;  // cumulative arrival-weighted request GPU-ms
  Gauge* g_migration_gpu_ms_ = nullptr;
  Histogram* hist_latency_ms_ = nullptr;
  // Measurement-window totals behind ClusterResult, zeroed by
  // BeginMeasurement(); plain fields so the registry's rows stay the
  // lifetime fleet/* set. `completed` is hist_latency_ms_'s count.
  uint64_t window_dispatched_ = 0;  // requests whose first attempt launched
  uint64_t window_failed_ = 0;      // failed requests with at least one attempt
  uint64_t window_switches_ = 0;    // model-switch kernels charged
  int failed_node_count_ = 0;
  int partitioned_node_count_ = 0;
  std::vector<std::string> recovery_log_;
  TimeNs warmup_end_ = 0;
  TraceRecorder* trace_ = nullptr;
  SpanBuilder* span_sink_ = nullptr;
  uint64_t next_request_id_ = 0;  // arrival-order request-correlation ids
  DetectorFeed feed_;

  // Request slab: one entry per in-flight request.
  std::vector<RequestState> requests_;
  std::vector<uint32_t> free_request_slots_;
  // Completion-marker slab; an entry is freed when its marker fires or is
  // cancelled.
  std::vector<AttemptMarker> markers_;
  std::vector<uint32_t> free_markers_;
  // Per-model lifetime dispatch/retry counts backing the retry budget.
  std::vector<uint64_t> model_dispatched_;
  std::vector<uint64_t> model_retries_;
  // Gray-node breaker: sim time until which new attempts avoid the
  // (model, node) pair, indexed model * num_nodes + node. Tripped by an
  // attempt timeout, cleared by a completion on the pair.
  std::vector<TimeNs> quarantine_until_;
  // Fleet-level quarantine (remediation): avoid the node for every model.
  std::vector<TimeNs> node_quarantine_until_;
  Counter* ctr_node_quarantines_ = nullptr;
  // Shed signal: fleet-wide outstanding GPU-ms and in-rotation node count,
  // both maintained incrementally.
  double total_outstanding_ms_ = 0;
  int active_node_count_ = 0;
};

// Builds the full cluster stack, runs warmup + duration, and collects fleet
// metrics. Deterministic for a given config.
ClusterResult RunClusterServing(const ClusterConfig& config);

}  // namespace lithos

#endif  // LITHOS_CLUSTER_CLUSTER_H_
