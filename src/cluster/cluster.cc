#include "src/cluster/cluster.h"

#include <algorithm>
#include <bitset>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/gpu/kernel.h"
#include "src/obs/trace.h"

namespace lithos {
namespace {

// Live-migration cost in GPU ms per unit of model size, split evenly
// between a memory-bound checkpoint kernel on the source node and a
// restore kernel on the destination (PhoenixOS-style OS-level GPU
// checkpoint/transfer/restore; see docs/autoscale.md).
constexpr double kMigrationCostMsPerSize = 2.5;

// The pool's failure-domain topology: equal-sized zones of equal-sized racks.
ZoneTopology TopologyOf(const ClusterConfig& config) {
  LITHOS_CHECK_GT(config.num_nodes, 0);
  LITHOS_CHECK_GE(config.num_zones, 1);
  LITHOS_CHECK_EQ(config.num_nodes % config.num_zones, 0);
  LITHOS_CHECK_GE(config.racks_per_zone, 1);
  ZoneTopology topo;
  topo.num_zones = config.num_zones;
  topo.zone_size = config.num_nodes / config.num_zones;
  topo.racks_per_zone = config.racks_per_zone;
  LITHOS_CHECK_EQ(topo.zone_size % topo.racks_per_zone, 0);
  return topo;
}

}  // namespace

// --- ClusterDispatcher -------------------------------------------------------

ClusterDispatcher::ClusterDispatcher(Simulator* sim, const ClusterConfig& config)
    : sim_(sim),
      config_(config),
      fleet_(config.seed),
      placer_(config.policy, fleet_.models(), config.num_nodes, config.aggregate_rps,
              config.affinity_target_util, TopologyOf(config)) {
  LITHOS_CHECK_GT(config_.aggregate_rps, 0.0);
  if (!config_.resilience.enabled) {
    // Write-off: the one-attempt policy of the request lifecycle. No timer,
    // hedge, shed or breaker, so it schedules no events beyond each
    // request's kernels and completion marker.
    ResilienceConfig& rc = config_.resilience;
    rc.max_attempts = 1;
    rc.attempt_timeout = 0;
    rc.hedge = false;
    rc.shed_watermark_ms = 0;
    rc.quarantine = 0;
  }
  // Both request timers have one delay per run: arm them on FIFO lanes.
  if (config_.resilience.hedge) {
    hedge_lane_ = sim_->TimerLane(config_.resilience.hedge_delay);
  }
  if (config_.resilience.attempt_timeout > 0) {
    timeout_lane_ = sim_->TimerLane(config_.resilience.attempt_timeout);
  }

  for (int n = 0; n < config_.num_nodes; ++n) {
    nodes_.push_back(
        std::make_unique<GpuNode>(sim_, n, config_.spec, config_.system, config_.lithos));
  }
  zone_outstanding_ms_.assign(config_.num_zones, 0.0);

  const std::vector<FleetModel>& models = fleet_.models();
  LITHOS_CHECK_LE(models.size(), 64u);  // NodeState::models_seen is a 64-bit mask
  model_share_ = PopularityShares(models);
  model_kernels_.reserve(models.size());
  for (size_t i = 0; i < models.size(); ++i) {
    const FleetModel& m = models[i];
    ModelKernels& k = model_kernels_.emplace_back();
    // Request kernel: the model's mean GPU cost per request at full device,
    // with a device-filling grid — inference batches saturate the GPU they
    // run on, so concurrent requests share TPCs and a node behaves like a
    // processor-sharing queue of ~1 GPU-second of work per second.
    const uint32_t blocks = static_cast<uint32_t>(864 + 32 * m.size);
    k.request = MakeKernel("fleet/" + m.id, blocks, FromMillis(m.cost_ms), 0.92, 0.6,
                           config_.spec);
    // Switch kernel: memory-bound weight load proportional to model size;
    // weakly parallel and frequency-insensitive.
    k.switch_ms = kSwitchCostMsPerSize * m.size;
    k.load = MakeKernel("load/" + m.id, 256, FromMillis(k.switch_ms), 0.6, 0.1, config_.spec);
    // Migration halves: checkpoint on the source, restore on the destination.
    // Memory-bound like the switch kernel (weight movement dominates), each
    // carrying half of the size-proportional migration cost.
    k.half_migration_ms = 0.5 * kMigrationCostMsPerSize * m.size;
    const DurationNs half = FromMillis(k.half_migration_ms);
    k.checkpoint = MakeKernel("ckpt/" + m.id, 256, half, 0.5, 0.1, config_.spec);
    k.restore = MakeKernel("restore/" + m.id, 256, half, 0.5, 0.1, config_.spec);
    arrival_rng_.emplace_back(config_.seed * 1315423911u + i * 2654435761u + 17);
  }

  node_state_.resize(config_.num_nodes);
  for (NodeState& state : node_state_) {
    state.model_streams.assign(models.size(), nullptr);
  }
  outstanding_ms_.assign(config_.num_nodes, 0.0);

  feed_.node_attempts.assign(config_.num_nodes, 0);
  feed_.node_completions.assign(config_.num_nodes, 0);
  feed_.node_timeouts.assign(config_.num_nodes, 0);
  feed_.pair_completions.assign(models.size() * static_cast<size_t>(config_.num_nodes), 0);
  feed_.pair_latency_ns.assign(models.size() * static_cast<size_t>(config_.num_nodes), 0);

  // Fleet-level accounting as named registry instruments; cache the pointers
  // once so the dispatch/completion hot paths are plain increments.
  ctr_dispatched_ = &metrics_.counter("fleet/dispatched");
  ctr_completed_ = &metrics_.counter("fleet/completed");
  ctr_failed_ = &metrics_.counter("fleet/failed");
  ctr_recoveries_ = &metrics_.counter("fleet/recoveries");
  ctr_migrations_ = &metrics_.counter("fleet/migrations");
  ctr_retries_ = &metrics_.counter("fleet/retries");
  ctr_hedges_ = &metrics_.counter("fleet/hedges");
  ctr_hedge_wins_ = &metrics_.counter("fleet/hedge_wins");
  ctr_timeouts_ = &metrics_.counter("fleet/timeouts");
  ctr_shed_ = &metrics_.counter("fleet/shed");
  ctr_deferred_ = &metrics_.counter("fleet/deferred");
  ctr_deferred_delivered_ = &metrics_.counter("fleet/deferred_delivered");
  ctr_deferred_orphaned_ = &metrics_.counter("fleet/deferred_orphaned");
  g_completed_request_ms_ = &metrics_.gauge("fleet/completed_request_ms");
  g_dispatched_request_ms_ = &metrics_.gauge("fleet/dispatched_request_ms");
  g_migration_gpu_ms_ = &metrics_.gauge("fleet/migration_gpu_ms");
  hist_latency_ms_ = &metrics_.histogram("fleet/latency_ms");

  model_dispatched_.assign(models.size(), 0);
  model_retries_.assign(models.size(), 0);
  quarantine_until_.assign(models.size() * static_cast<size_t>(config_.num_nodes), 0);
  node_quarantine_until_.assign(static_cast<size_t>(config_.num_nodes), 0);
  ctr_node_quarantines_ = &metrics_.counter("fleet/node_quarantines");
  active_node_count_ = config_.num_nodes;  // every node starts in rotation

  // Peak of the diurnal curve, used as the thinning envelope for arrivals.
  peak_norm_ = 1.0;
  if (config_.seconds_per_day > 0) {
    for (double day = 0; day < 1.0; day += 1.0 / 288.0) {
      peak_norm_ = std::max(peak_norm_, fleet_.NormalizedRps(day));
    }
    peak_norm_ *= 1.05;  // margin for the weekly drift term
  }
}

Stream* ClusterDispatcher::StreamFor(int node, int model_index) {
  NodeState& state = node_state_[node];
  Stream*& stream = state.model_streams[model_index];
  if (stream == nullptr) {
    const FleetModel& m = fleet_.models()[model_index];
    Client* client = nodes_[node]->driver()->CuCtxCreate(
        "fleet/" + m.id, PriorityClass::kHighPriority, /*tpc_quota=*/0, m.size);
    stream = nodes_[node]->driver()->CuStreamCreate(client);
  }
  return stream;
}

double ClusterDispatcher::RateNow(int model_index) const {
  double rate = config_.aggregate_rps * model_share_[model_index];
  if (config_.seconds_per_day > 0) {
    const double day = ToSeconds(sim_->Now()) / config_.seconds_per_day;
    rate *= fleet_.NormalizedRps(day);
  }
  return rate;
}

double ClusterDispatcher::MeanOfferedLoad() const {
  double total = 0;
  const std::vector<FleetModel>& models = fleet_.models();
  for (size_t i = 0; i < models.size(); ++i) {
    total += config_.aggregate_rps * model_share_[i] * models[i].cost_ms;
  }
  return total;
}

double ClusterDispatcher::OfferedLoadAt(TimeNs t) const {
  double total = MeanOfferedLoad();
  if (config_.seconds_per_day > 0) {
    total *= fleet_.NormalizedRps(ToSeconds(t) / config_.seconds_per_day);
  }
  return total;
}

void ClusterDispatcher::ScheduleNextArrival(int model_index, TimeNs until) {
  // Non-homogeneous Poisson arrivals by Lewis thinning: draw gaps at the
  // model's peak rate, then accept each candidate with probability
  // rate(now) / peak so per-model traffic tracks the diurnal curve exactly
  // (a gap drawn at trough rate can no longer persist through the peak).
  const double peak_rate = config_.aggregate_rps * model_share_[model_index] * peak_norm_;
  if (peak_rate <= 0) {
    return;
  }
  const DurationNs gap = FromSeconds(arrival_rng_[model_index].Exponential(1.0 / peak_rate));
  const TimeNs at = sim_->Now() + std::max<DurationNs>(gap, 1);
  if (at >= until) {
    return;
  }
  sim_->ScheduleAt(at, [this, model_index, until, peak_rate] {
    if (arrival_rng_[model_index].NextDouble() * peak_rate <= RateNow(model_index)) {
      Dispatch(model_index);
    }
    ScheduleNextArrival(model_index, until);
  });
}

void ClusterDispatcher::StartArrivals(TimeNs until) {
  for (size_t i = 0; i < fleet_.models().size(); ++i) {
    ScheduleNextArrival(static_cast<int>(i), until);
  }
}

void ClusterDispatcher::BeginMeasurement() {
  // The window opens now for every reported statistic: in-flight requests
  // that arrived earlier stay excluded (their completion callbacks compare
  // against warmup_end_), and everything already accumulated — the engines'
  // busy/energy/elapsed integrals included — is discarded.
  warmup_end_ = sim_->Now();
  hist_latency_ms_->Clear();
  g_completed_request_ms_->Reset();
  ctr_migrations_->Reset();
  g_migration_gpu_ms_->Reset();
  ctr_recoveries_->Reset();
  window_dispatched_ = 0;
  window_failed_ = 0;
  window_switches_ = 0;
  for (int n = 0; n < config_.num_nodes; ++n) {
    node_state_[n].models_seen = 0;
    nodes_[n]->engine()->ResetStats();
  }
}

void ClusterDispatcher::SetNodeActive(int node, bool active) {
  if (placer_.NodeEnabled(node) != active) {
    active_node_count_ += active ? 1 : -1;
  }
  placer_.SetNodeEnabled(node, active);
}

bool ClusterDispatcher::NodeActive(int node) const { return placer_.NodeEnabled(node); }

void ClusterDispatcher::PowerGateNode(int node, bool gated) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  nodes_[node]->engine()->SetPowerGated(gated);
}

bool ClusterDispatcher::NodeGated(int node) const {
  return nodes_[node]->engine()->power_gated();
}

void ClusterDispatcher::LaunchTracked(int node, Stream* stream, const KernelDesc* kernel,
                                      double ms) {
  nodes_[node]->driver()->CuLaunchKernel(stream, kernel);
  AddOutstanding(node, ms);
  AddReleaseMarker(node, stream, ms);
}

void ClusterDispatcher::AddReleaseMarker(int node, Stream* stream, double ms) {
  const uint64_t epoch = node_state_[node].epoch;
  nodes_[node]->driver()->CuStreamAddCallback(stream, [this, node, ms, epoch] {
    if (node_state_[node].epoch == epoch) {
      AddOutstanding(node, -ms);
    }
  });
}

void ClusterDispatcher::ChargeMigrationKernel(int node, int model_index,
                                              const KernelDesc* kernel) {
  // Migration kernels only ever target live, reachable nodes: MoveReplica
  // charges no checkpoint on an unreachable source, and a restore must land
  // on a survivor.
  LITHOS_CHECK(!node_state_[node].failed);
  LITHOS_CHECK(!node_state_[node].partitioned);
  const double half_ms = model_kernels_[model_index].half_migration_ms;
  LaunchTracked(node, StreamFor(node, model_index), kernel, half_ms);
  if (sim_->Now() >= warmup_end_) {
    g_migration_gpu_ms_->Add(half_ms);
  }
}

bool ClusterDispatcher::MoveReplica(int model_index, int from, int to) {
  if (!placer_.MoveReplica(model_index, from, to)) {
    return false;
  }
  // A source the dispatcher cannot reach — crashed, or partitioned away —
  // cannot run its checkpoint half: the replica restores from its latest
  // checkpoint image instead (PhoenixOS), and a retire forgets the copy.
  const bool lost = from >= 0 && (node_state_[from].failed || node_state_[from].partitioned);
  if (from >= 0 && to >= 0) {
    if (lost) {
      ctr_recoveries_->Inc();
    } else if (sim_->Now() >= warmup_end_) {
      ctr_migrations_->Inc();
    }
    if (trace_ != nullptr) {
      trace_->Append(sim_->Now(), TraceLayer::kCluster,
                     lost ? TraceKind::kRecoverReplica : TraceKind::kMigration, to,
                     ZoneOfNode(to), model_index, from);
    }
  } else if (lost && trace_ != nullptr) {
    trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kDropLostReplica, from,
                   ZoneOfNode(from), model_index, 0);
  }
  if (from >= 0 && !lost) {
    ChargeMigrationKernel(from, model_index, &model_kernels_[model_index].checkpoint);
  }
  if (to >= 0) {
    ChargeMigrationKernel(to, model_index, &model_kernels_[model_index].restore);
  }
  if (lost) {
    AppendRecoveryLog(to >= 0 ? "recover" : "drop", model_index, from, to >= 0 ? to : from);
  }
  return true;
}

// --- Fault hooks -------------------------------------------------------------

void ClusterDispatcher::FailNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  NodeState& state = node_state_[node];
  if (state.failed) {
    return;
  }
  state.failed = true;
  ++state.epoch;  // orphans every in-flight completion callback
  state.failed_at = sim_->Now();
  ++failed_node_count_;
  if (trace_ != nullptr) {
    // payload = queued GPU-time written off, in ns.
    trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kNodeCrash,
                   node, ZoneOfNode(node), -1,
                   static_cast<int64_t>(outstanding_ms_[node] * 1e6));
  }
  // Device memory dies with the host: a revived node cold-starts its first
  // request (model-switch charge) like any fresh placement.
  state.last_model = -1;
  SetNodeActive(node, false);
  AddOutstanding(node, -outstanding_ms_[node]);  // queued work is lost
}

void ClusterDispatcher::ReviveNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  NodeState& state = node_state_[node];
  if (!state.failed) {
    return;
  }
  state.failed = false;
  --failed_node_count_;
  if (trace_ != nullptr) {
    // payload = how long the node was down, closing the crash span.
    trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kNodeRevive,
                   node, ZoneOfNode(node), -1,
                   sim_->Now() - state.failed_at);
  }
  // Deliberately *not* re-activated here: the repaired host rejoins the
  // pool the same way a trough-gated node does — when the control plane
  // decides it is needed.
}

bool ClusterDispatcher::NodeFailed(int node) const {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  return node_state_[node].failed;
}

void ClusterDispatcher::PartitionNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  NodeState& state = node_state_[node];
  if (state.partitioned) {
    return;
  }
  state.partitioned = true;
  state.partitioned_at = sim_->Now();
  ++partitioned_node_count_;
  if (trace_ != nullptr) {
    // payload = GPU work the node keeps computing behind the partition, ns.
    trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kNodePartition,
                   node, ZoneOfNode(node), -1,
                   static_cast<int64_t>(outstanding_ms_[node] * 1e6));
  }
  // Unreachable nodes leave the rotation, but — unlike FailNode — keep their
  // epoch, queued work, and device memory: the GPU is healthy, only the
  // network path died.
  SetNodeActive(node, false);
}

void ClusterDispatcher::HealNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  NodeState& state = node_state_[node];
  if (!state.partitioned) {
    return;
  }
  state.partitioned = false;
  --partitioned_node_count_;
  if (trace_ != nullptr) {
    // payload = partition duration, closing the partitioned span.
    trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kNodeHeal,
                   node, ZoneOfNode(node), -1,
                   sim_->Now() - state.partitioned_at);
  }
  // Deliver the buffered completions in finish order. A crash behind the
  // partition (stale epoch) lost the buffered result: the attempt is
  // orphaned. A request may have been settled by a retry or hedge in the
  // meantime (stale gen), in which case the delivery is a duplicate.
  std::vector<DeferredCompletion> deferred;
  deferred.swap(state.deferred);
  for (const DeferredCompletion& d : deferred) {
    const bool live = d.slot < requests_.size() && requests_[d.slot].in_use &&
                      requests_[d.slot].gen == d.gen;
    if (node_state_[node].epoch != d.epoch) {
      if (live) {
        OnAttemptOrphaned(d.slot, d.gen, d.attempt);
      }
      continue;
    }
    if (!live) {
      // A retry or hedge already settled the request: duplicate result.
      ctr_deferred_orphaned_->Inc();
      if (trace_ != nullptr) {
        trace_->Append(sim_->Now(), TraceLayer::kCluster,
                       TraceKind::kDeferredOrphaned, node,
                       ZoneOfNode(node), -1, 0);
      }
      continue;
    }
    OnAttemptComplete(d.slot, d.gen, d.attempt, /*deferred=*/true);
  }
  // Like ReviveNode, deliberately *not* re-activated here: the control plane
  // folds the healed node back into rotation at its next tick.
}

bool ClusterDispatcher::NodePartitioned(int node) const {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  return node_state_[node].partitioned;
}

void ClusterDispatcher::QuarantineNode(int node, TimeNs until) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  TimeNs& q = node_quarantine_until_[static_cast<size_t>(node)];
  if (until > q) {
    q = until;
  }
  ctr_node_quarantines_->Inc();
}

void ClusterDispatcher::UnquarantineNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  node_quarantine_until_[static_cast<size_t>(node)] = 0;
}

bool ClusterDispatcher::NodeQuarantined(int node) const {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  return node_quarantine_until_[static_cast<size_t>(node)] > sim_->Now();
}

double ClusterDispatcher::HerdImbalance() const {
  double sum = 0;
  double worst = 0;
  int in_rotation = 0;
  for (int n = 0; n < config_.num_nodes; ++n) {
    const NodeState& state = node_state_[n];
    if (state.failed || state.partitioned || nodes_[n]->engine()->power_gated()) {
      continue;
    }
    const double queued = outstanding_ms_[n];
    sum += queued;
    worst = std::max(worst, queued);
    ++in_rotation;
  }
  if (in_rotation == 0 || sum <= 0) {
    return 0;
  }
  return worst / (sum / in_rotation);
}

void ClusterDispatcher::AppendRecoveryLog(const char* action, int model_index, int from, int to) {
  char line[96];
  std::snprintf(line, sizeof(line), "t=%lldns %s model=%s %d->%d",
                static_cast<long long>(sim_->Now()), action,
                fleet_.models()[model_index].id.c_str(), from, to);
  recovery_log_.push_back(line);
}

ClusterResult ClusterDispatcher::Collect(DurationNs measured) {
  ClusterResult result;
  result.policy = config_.policy;
  result.num_nodes = config_.num_nodes;
  PercentileDigest& latency_ms = hist_latency_ms_->digest();
  result.mean_ms = latency_ms.Mean();
  latency_ms.Finalize();
  result.p50_ms = latency_ms.Percentile(50);
  result.p99_ms = latency_ms.P99();
  result.completed = latency_ms.count();
  result.dispatched = window_dispatched_;
  result.failed = window_failed_;
  result.total_model_switches = window_switches_;
  const double secs = ToSeconds(measured);
  result.throughput_rps = secs > 0 ? static_cast<double>(result.completed) / secs : 0.0;

  double busy_total = 0;
  double capacity_total = 0;
  double busy_used = 0;
  double capacity_used = 0;
  double models_on_used = 0;
  for (int n = 0; n < config_.num_nodes; ++n) {
    const EngineStats& engine = nodes_[n]->engine()->Stats();
    const double capacity = engine.elapsed_seconds * config_.spec.TotalTpcs();
    result.energy_joules += engine.energy_joules;
    busy_total += engine.busy_tpc_seconds;
    capacity_total += capacity;
    // A node counts as used if the policy ever routed to it (lifetime), so
    // warm-up-only traffic still marks a GPU as occupied.
    if (node_state_[n].dispatched > 0) {
      ++result.nodes_used;
      busy_used += engine.busy_tpc_seconds;
      capacity_used += capacity;
      models_on_used += std::bitset<64>(node_state_[n].models_seen).count();
    }
  }
  result.recoveries = ctr_recoveries_->value();
  result.fleet_utilization = capacity_total > 0 ? busy_total / capacity_total : 0.0;
  result.used_utilization = capacity_used > 0 ? busy_used / capacity_used : 0.0;
  // Serial-equivalent request GPU-ms over the used pool's GPU-ms.
  const double completed_request_ms = g_completed_request_ms_->value();
  const double used_gpu_ms = result.nodes_used * secs * 1000.0;
  result.goodput_utilization = used_gpu_ms > 0 ? completed_request_ms / used_gpu_ms : 0.0;
  result.completed_request_gpu_ms = completed_request_ms;
  result.gpus_saved_vs_dedicated =
      static_cast<int>(fleet_.models().size()) - result.nodes_used;
  result.mean_models_per_node =
      result.nodes_used > 0 ? models_on_used / result.nodes_used : 0.0;
  result.migrations = ctr_migrations_->value();
  result.migration_gpu_ms = g_migration_gpu_ms_->value();
  return result;
}

void ClusterDispatcher::SetTrace(TraceRecorder* trace) {
  trace_ = trace;
  for (int n = 0; n < config_.num_nodes; ++n) {
    nodes_[n]->engine()->SetTrace(trace, n, ZoneOfNode(n));
  }
}

ClusterResult RunClusterServing(const ClusterConfig& config) {
  Simulator sim;
  ClusterDispatcher dispatcher(&sim, config);
  const TimeNs horizon = config.warmup + config.duration;
  dispatcher.SetWarmupEnd(config.warmup);
  dispatcher.StartArrivals(horizon);
  sim.ScheduleAt(config.warmup, [&dispatcher] { dispatcher.BeginMeasurement(); });
  sim.RunUntil(horizon);
  return dispatcher.Collect(config.duration);
}

}  // namespace lithos
