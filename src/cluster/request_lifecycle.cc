// The request lifecycle: every request ClusterDispatcher admits runs through
// one generation-counted slab, whatever its ResilienceConfig.
//
//   Dispatch -> PickAttemptNode -> LaunchAttempt -> completion marker
//     -> OnAttemptComplete     (node reachable)
//     -> deferred buffer       (node partitioned; re-judged in HealNode)
//     -> OnAttemptOrphaned     (node crashed: stale epoch)
//   -> TryRetryOrFail -> FailRequest
//
// Write-off is the one-attempt policy the constructor normalises a disabled
// ResilienceConfig to: no retry, timer, hedge, shed or breaker, so the
// lifecycle schedules no events beyond each request's kernels and marker.
#include <algorithm>

#include "src/cluster/cluster.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"

namespace lithos {

void ClusterDispatcher::EmitReq(TraceKind kind, int node, int zone, int32_t arg,
                                uint64_t req_id) {
  if (trace_ == nullptr && span_sink_ == nullptr) {
    return;
  }
  TraceRecord r;
  r.time_ns = sim_->Now();
  r.layer = static_cast<uint8_t>(TraceLayer::kCluster);
  r.kind = static_cast<uint8_t>(kind);
  r.reserved = 0;
  r.node = node;
  r.zone = zone;
  r.arg = arg;
  r.payload = static_cast<int64_t>(req_id);
  if (trace_ != nullptr) {
    trace_->Append(r.time_ns, TraceLayer::kCluster, kind, r.node, r.zone, r.arg,
                   r.payload);
  }
  if (span_sink_ != nullptr) {
    // The sink sees exactly the record the trace got — online span assembly
    // and offline replay are identical by construction.
    span_sink_->Observe(r);
  }
}

// Defined beside its per-attempt callers so they can inline it.
void ClusterDispatcher::AddOutstanding(int node, double delta_ms) {
  double& outstanding = outstanding_ms_[node];
  const double before = outstanding;
  outstanding = std::max(0.0, outstanding + delta_ms);
  zone_outstanding_ms_[ZoneOfNode(node)] += outstanding - before;
  total_outstanding_ms_ += outstanding - before;
}

int ClusterDispatcher::Dispatch(int model_index) {
  const ResilienceConfig& rc = config_.resilience;
  const FleetModel& model = fleet_.models()[model_index];
  ctr_dispatched_->Inc();
  g_dispatched_request_ms_->Add(model.cost_ms);
  ++model_dispatched_[model_index];
  const uint64_t rid = next_request_id_++;
  EmitReq(TraceKind::kReqArrival, -1, -1, model_index, rid);

  // Admission control: above the outstanding-work watermark the fleet is
  // melting down — reject now (cheap, bounded latency for what is admitted)
  // rather than queue into the collapse.
  if (rc.shed_watermark_ms > 0) {
    const double watermark = rc.shed_watermark_ms * std::max(1, active_node_count_);
    if (total_outstanding_ms_ > watermark) {
      ctr_shed_->Inc();
      EmitReq(TraceKind::kReqShed, -1, -1, model_index, rid);
      return -1;
    }
  }

  uint32_t slot;
  if (!free_request_slots_.empty()) {
    slot = free_request_slots_.back();
    free_request_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(requests_.size());
    requests_.emplace_back();
  }
  RequestState& req = requests_[slot];
  ++req.gen;
  req.in_use = true;
  req.hedged = !rc.hedge;  // hedging disabled == already hedged
  req.model = model_index;
  req.req_id = rid;
  req.arrival = sim_->Now();
  req.attempts = 0;
  req.timer_armed = false;
  req.hedge_armed = false;
  req.tries.clear();

  const int node = PickAttemptNode(model_index, req, /*hedge=*/false);
  if (node < 0) {
    // Every eligible node is crashed or partitioned: treat like a dead
    // attempt and go straight to the backoff/retry path (write-off fails
    // the request here, at admission).
    ++req.attempts;
    TryRetryOrFail(slot);
    return -1;
  }
  LaunchAttempt(slot, node, /*is_hedge=*/false);
  if (rc.hedge) {
    const uint32_t gen = req.gen;
    req.hedge_event = sim_->ScheduleOnLane(hedge_lane_, [this, slot, gen] {
      if (slot >= requests_.size() || !requests_[slot].in_use ||
          requests_[slot].gen != gen) {
        return;
      }
      RequestState& r = requests_[slot];
      r.hedge_armed = false;
      if (r.hedged) {
        return;
      }
      r.hedged = true;
      const int target = PickAttemptNode(r.model, r, /*hedge=*/true);
      if (target < 0) {
        return;  // no distinct healthy node to hedge onto
      }
      ctr_hedges_->Inc();
      LaunchAttempt(slot, target, /*is_hedge=*/true);
    });
    req.hedge_armed = true;
  }
  return node;
}

int ClusterDispatcher::PickAttemptNode(int model_index, const RequestState& req, bool hedge) {
  auto tried = [&req](int n) {
    for (const AttemptState& a : req.tries) {
      if (a.node == n) {
        return true;
      }
    }
    return false;
  };
  auto healthy = [this](int n) {
    // Gate check matters for repaired hosts: between ReviveNode and the next
    // control tick re-activating them, the node looks fine in node_state_
    // but its engine is still powered dark and cannot accept a launch.
    return !node_state_[n].failed && !node_state_[n].partitioned &&
           !nodes_[n]->engine()->power_gated();
  };
  // A node whose queued work plus this request's cost already exceeds the
  // attempt timeout is a black hole: the attempt is guaranteed to time out,
  // burn its slot, and retry — which is exactly how a backlogged survivor
  // stays backlogged forever after recovery (every completion it produces
  // belongs to a request that already gave up on it). Steer around such
  // nodes while any unsaturated candidate exists.
  const double timeout_ms =
      static_cast<double>(config_.resilience.attempt_timeout) / 1e6;
  const FleetModel& model = fleet_.models()[model_index];
  const double switch_ms = model_kernels_[model_index].switch_ms;
  auto doomed = [&](int n) {
    if (node_quarantine_until_[static_cast<size_t>(n)] > sim_->Now()) {
      return true;  // remediation quarantined the whole node
    }
    const size_t pair = static_cast<size_t>(model_index) * config_.num_nodes + n;
    if (quarantine_until_[pair] > sim_->Now()) {
      return true;  // breaker open: a recent attempt timed out on this pair
    }
    const double queued = outstanding_ms_[n] + model.cost_ms +
                          (node_state_[n].last_model == model_index ? 0.0 : switch_ms);
    return timeout_ms > 0 && queued >= timeout_ms;
  };
  // The placer's pick is the common case; it only needs overriding when its
  // last-resort fallback lands on an unreachable or saturated node, or when
  // the request already tried it — a retry after a timeout must not re-join
  // the same backlog, and a hedge needs a node distinct from every prior
  // attempt.
  const int placed = placer_.Place(model_index, outstanding_ms_, zone_outstanding_ms_);
  if (placed >= 0 && placed < config_.num_nodes && healthy(placed) && !tried(placed) &&
      !doomed(placed)) {
    return placed;
  }
  // Tier 0: least-outstanding healthy untried undoomed node among the
  // model's eligible set (ties break to the lowest node id — EligibleNodes
  // is sorted and the comparison is strict).
  const std::vector<int> eligible = placer_.EligibleNodes(model_index);
  int best = -1;
  for (const int n : eligible) {
    if (healthy(n) && !tried(n) && !doomed(n) &&
        (best < 0 || outstanding_ms_[n] < outstanding_ms_[best])) {
      best = n;
    }
  }
  if (best >= 0 || hedge) {
    return best;  // a hedge without a viable distinct target is skipped
  }
  // Every replica was already tried, is unreachable, or is saturated past the
  // timeout. Escaping to a fresh node matters more than model affinity, and
  // serving with a likely timeout beats refusing, so rank every healthy node:
  //   1  untried and undoomed (pays the model switch on a fresh node)
  //   2  untried but doomed (accept the likely timeout)
  //   3  tried, but one of the model's eligible nodes (reuse a replica)
  //   4  tried
  // and take the least (tier, outstanding, node id). Returns -1 only when no
  // node is healthy.
  int best_tier = 5;
  size_t next_eligible = 0;
  for (int n = 0; n < config_.num_nodes; ++n) {
    while (next_eligible < eligible.size() && eligible[next_eligible] < n) {
      ++next_eligible;
    }
    if (!healthy(n)) {
      continue;
    }
    const bool is_eligible = next_eligible < eligible.size() && eligible[next_eligible] == n;
    const int tier = !tried(n) ? (doomed(n) ? 2 : 1) : (is_eligible ? 3 : 4);
    if (tier < best_tier ||
        (tier == best_tier && outstanding_ms_[n] < outstanding_ms_[best])) {
      best = n;
      best_tier = tier;
    }
  }
  return best;
}

void ClusterDispatcher::LaunchAttempt(uint32_t slot, int node, bool is_hedge) {
  RequestState& req = requests_[slot];
  NodeState& state = node_state_[node];
  const FleetModel& model = fleet_.models()[req.model];
  const bool measured = sim_->Now() >= warmup_end_;
  ++state.dispatched;  // every attempt marks the node used
  if (req.tries.empty() && measured) {
    ++window_dispatched_;  // the request itself counts once
  }
  state.models_seen |= uint64_t{1} << req.model;

  Stream* stream = StreamFor(node, req.model);
  Driver* driver = nodes_[node]->driver();

  // The switch kernel is not cancellable work — once the weights start
  // loading the node pays for them regardless of how the request ends. When
  // the policy can cancel attempts (a timeout or a hedge), the switch tracks
  // its outstanding time through its own marker instead of riding on the
  // attempt's (clawed back at cancellation) cost. Otherwise it rides on the
  // attempt: a marker resets the stream's batch ordinal, which LithOS's
  // predictor keys on, and takes a launch id.
  const ResilienceConfig& rc = config_.resilience;
  const ModelKernels& kernels = model_kernels_[req.model];
  double cost_ms = model.cost_ms;
  if (state.last_model != req.model) {
    if (rc.attempt_timeout > 0 || rc.hedge) {
      LaunchTracked(node, stream, &kernels.load, kernels.switch_ms);
    } else {
      driver->CuLaunchKernel(stream, &kernels.load);
      cost_ms += kernels.switch_ms;
    }
    if (measured) {
      ++window_switches_;
    }
    state.last_model = req.model;
  }

  AttemptState attempt;
  attempt.node = node;
  attempt.stream = stream;
  attempt.kernel_id = driver->CuLaunchKernel(stream, &kernels.request);
  attempt.cost_ms = cost_ms;
  attempt.epoch = state.epoch;
  attempt.launch = sim_->Now();
  attempt.open = true;
  attempt.hedge = is_hedge;
  AddOutstanding(node, cost_ms);

  const int attempt_idx = static_cast<int>(req.tries.size());
  req.tries.push_back(attempt);
  EmitReq(TraceKind::kReqAttemptLaunch, node, ZoneOfNode(node),
          ReqArg(attempt_idx, is_hedge), req.req_id);
  ++feed_.node_attempts[node];
  uint32_t marker;
  if (!free_markers_.empty()) {
    marker = free_markers_.back();
    free_markers_.pop_back();
  } else {
    marker = static_cast<uint32_t>(markers_.size());
    markers_.emplace_back();
  }
  markers_[marker] = {slot, req.gen, attempt_idx, node, cost_ms, state.epoch, req.req_id};
  req.tries[attempt_idx].marker = marker;
  req.tries[attempt_idx].marker_id =
      driver->CuStreamAddCallback(stream, [this, marker] { OnAttemptMarker(marker); });
  if (!is_hedge) {
    ++req.attempts;
    ArmAttemptTimer(slot);
  }
}

void ClusterDispatcher::OnAttemptMarker(uint32_t marker) {
  const AttemptMarker m = markers_[marker];
  free_markers_.push_back(marker);
  NodeState& ns = node_state_[m.node];
  if (ns.epoch != m.epoch) {
    // Node crashed under the attempt; FailNode already wrote off the
    // outstanding work.
    OnAttemptOrphaned(m.slot, m.gen, m.attempt);
    return;
  }
  AddOutstanding(m.node, -m.cost_ms);
  if (ns.partitioned) {
    // The node finished the work but cannot deliver the result: buffer it
    // for heal-time delivery (or orphaning, if the node crashes first).
    ctr_deferred_->Inc();
    EmitReq(TraceKind::kReqDeferredFinish, m.node, ZoneOfNode(m.node),
            ReqArg(m.attempt, false), m.req_id);
    ns.deferred.push_back({m.epoch, m.slot, m.gen, m.attempt});
    return;
  }
  OnAttemptComplete(m.slot, m.gen, m.attempt, /*deferred=*/false);
}

void ClusterDispatcher::ArmAttemptTimer(uint32_t slot) {
  RequestState& req = requests_[slot];
  if (req.timer_armed) {
    sim_->Cancel(req.timer_event);
    req.timer_armed = false;
  }
  if (config_.resilience.attempt_timeout <= 0) {
    return;  // 0 disables per-attempt timeouts
  }
  const uint32_t gen = req.gen;
  req.timer_event =
      sim_->ScheduleOnLane(timeout_lane_, [this, slot, gen] { OnAttemptTimeout(slot, gen); });
  req.timer_armed = true;
}

void ClusterDispatcher::OnAttemptTimeout(uint32_t slot, uint32_t gen) {
  if (slot >= requests_.size() || !requests_[slot].in_use || requests_[slot].gen != gen) {
    return;
  }
  RequestState& req = requests_[slot];
  req.timer_armed = false;
  ctr_timeouts_->Inc();
  if (!req.tries.empty() && config_.resilience.quarantine > 0) {
    const int node = req.tries.back().node;
    quarantine_until_[static_cast<size_t>(req.model) * config_.num_nodes + node] =
        sim_->Now() + config_.resilience.quarantine;
  }
  if (!req.tries.empty()) {
    const int last = static_cast<int>(req.tries.size()) - 1;
    const int node = req.tries[last].node;
    ++feed_.node_timeouts[node];
    EmitReq(TraceKind::kReqAttemptTimeout, node, ZoneOfNode(node),
            ReqArg(last, false), req.req_id);
  }
  // Claw back whatever can be clawed back; attempts that cannot be cancelled
  // (crashed or partitioned nodes) stay open and race the retry — first
  // completion still wins.
  for (int i = 0; i < static_cast<int>(req.tries.size()); ++i) {
    if (req.tries[i].open) {
      TryCancelAttempt(slot, i);
    }
  }
  TryRetryOrFail(slot);
}

bool ClusterDispatcher::TryCancelAttempt(uint32_t slot, int attempt) {
  RequestState& req = requests_[slot];
  AttemptState& a = req.tries[attempt];
  if (!a.open) {
    return false;
  }
  NodeState& ns = node_state_[a.node];
  if (ns.epoch != a.epoch || ns.failed || ns.partitioned) {
    return false;  // unreachable: nothing to send the cancel to
  }
  Driver* driver = nodes_[a.node]->driver();
  // Marker first: cancelling an in-flight head pops it, which drains queued
  // markers — the completion callback must already be gone by then.
  if (!driver->CancelLaunch(a.stream, a.marker_id)) {
    return false;  // completion already delivered (or about to be)
  }
  free_markers_.push_back(a.marker);  // the marker never runs
  if (driver->CancelLaunch(a.stream, a.kernel_id)) {
    AddOutstanding(a.node, -a.cost_ms);  // clawed back before it ran
  } else {
    // The kernel is on the device and this backend cannot abort it: the work
    // burns to completion. Track its outstanding time with a replacement
    // decrement-only marker (the result is discarded either way); the guard
    // above makes a.epoch the node's current epoch.
    AddReleaseMarker(a.node, a.stream, a.cost_ms);
  }
  a.open = false;
  EmitReq(TraceKind::kReqAttemptCancel, a.node, ZoneOfNode(a.node),
          ReqArg(attempt, a.hedge), req.req_id);
  return true;
}

bool ClusterDispatcher::RetryBudgetAllows(int model_index) const {
  const double budget =
      kRetryBudgetFraction * static_cast<double>(model_dispatched_[model_index]) +
      static_cast<double>(kRetryBudgetFloor);
  return static_cast<double>(model_retries_[model_index]) < budget;
}

void ClusterDispatcher::TryRetryOrFail(uint32_t slot) {
  RequestState& req = requests_[slot];
  const ResilienceConfig& rc = config_.resilience;
  if (req.timer_armed) {
    sim_->Cancel(req.timer_event);
    req.timer_armed = false;
  }
  if (req.attempts < rc.max_attempts && RetryBudgetAllows(req.model)) {
    const int shift = std::min(std::max(req.attempts - 1, 0), 30);
    const DurationNs backoff =
        std::min<DurationNs>(rc.backoff_cap, rc.backoff_base << shift);
    const uint32_t gen = req.gen;
    req.timer_event = sim_->ScheduleAfter(backoff, [this, slot, gen] {
      if (slot >= requests_.size() || !requests_[slot].in_use ||
          requests_[slot].gen != gen) {
        return;
      }
      RequestState& r = requests_[slot];
      r.timer_armed = false;
      const int node = PickAttemptNode(r.model, r, /*hedge=*/false);
      if (node < 0) {
        ++r.attempts;  // consumed: nowhere to go this round
        TryRetryOrFail(slot);
        return;
      }
      ++model_retries_[r.model];
      ctr_retries_->Inc();
      LaunchAttempt(slot, node, /*is_hedge=*/false);
    });
    req.timer_armed = true;
    return;
  }
  for (const AttemptState& a : req.tries) {
    if (a.open) {
      return;  // an uncancellable attempt may still deliver (e.g. at heal)
    }
  }
  FailRequest(slot);
}

void ClusterDispatcher::OnAttemptOrphaned(uint32_t slot, uint32_t gen, int attempt) {
  if (slot >= requests_.size() || !requests_[slot].in_use || requests_[slot].gen != gen) {
    return;  // the request already settled; nothing left to do
  }
  RequestState& req = requests_[slot];
  AttemptState& a = req.tries[attempt];
  if (!a.open) {
    return;
  }
  a.open = false;
  EmitReq(TraceKind::kReqAttemptOrphan, a.node, ZoneOfNode(a.node),
          ReqArg(attempt, a.hedge), req.req_id);
  for (const AttemptState& other : req.tries) {
    if (other.open) {
      return;  // another attempt is still racing; the timeout covers it
    }
  }
  TryRetryOrFail(slot);
}

void ClusterDispatcher::OnAttemptComplete(uint32_t slot, uint32_t gen, int attempt,
                                          bool deferred) {
  if (slot >= requests_.size() || !requests_[slot].in_use || requests_[slot].gen != gen) {
    return;  // duplicate completion after the request settled
  }
  RequestState& req = requests_[slot];
  AttemptState& a = req.tries[attempt];
  if (!a.open) {
    return;
  }
  a.open = false;
  DisarmTimers(slot);
  ctr_completed_->Inc();
  ++feed_.node_completions[a.node];
  if (!deferred) {
    // Deferred deliveries carry no latency sample: the heal-time burst would
    // poison the pair baseline and mask the partition's silence.
    const size_t pair = static_cast<size_t>(req.model) * config_.num_nodes + a.node;
    ++feed_.pair_completions[pair];
    feed_.pair_latency_ns[pair] += sim_->Now() - a.launch;
  }
  quarantine_until_[static_cast<size_t>(req.model) * config_.num_nodes + a.node] = 0;
  if (a.hedge) {
    ctr_hedge_wins_->Inc();
  }
  if (deferred) {
    ctr_deferred_delivered_->Inc();
  }
  EmitReq(TraceKind::kReqComplete, a.node, ZoneOfNode(a.node),
          ReqArg(attempt, deferred), req.req_id);
  if (req.arrival >= warmup_end_) {
    hist_latency_ms_->Add(ToMillis(sim_->Now() - req.arrival));
    g_completed_request_ms_->Add(fleet_.models()[req.model].cost_ms);
  }
  // First completion wins: cancel what can still be cancelled. Losers that
  // cannot be reached deliver into a freed slot later and are dropped (or
  // orphaned at heal) by the gen check above.
  for (int i = 0; i < static_cast<int>(req.tries.size()); ++i) {
    if (i != attempt && req.tries[i].open) {
      TryCancelAttempt(slot, i);
    }
  }
  FreeRequestSlot(slot);
}

void ClusterDispatcher::FailRequest(uint32_t slot) {
  RequestState& req = requests_[slot];
  DisarmTimers(slot);
  ctr_failed_->Inc();
  const int node = req.tries.empty() ? -1 : req.tries.back().node;
  if (node >= 0 && sim_->Now() >= warmup_end_) {
    ++window_failed_;
  }
  EmitReq(TraceKind::kReqFail, node, node >= 0 ? ZoneOfNode(node) : -1,
          req.model, req.req_id);
  FreeRequestSlot(slot);
}

void ClusterDispatcher::DisarmTimers(uint32_t slot) {
  RequestState& req = requests_[slot];
  if (req.timer_armed) {
    sim_->Cancel(req.timer_event);
    req.timer_armed = false;
  }
  if (req.hedge_armed) {
    sim_->Cancel(req.hedge_event);
    req.hedge_armed = false;
  }
}

void ClusterDispatcher::FreeRequestSlot(uint32_t slot) {
  RequestState& req = requests_[slot];
  req.in_use = false;
  req.tries.clear();
  free_request_slots_.push_back(slot);
}

}  // namespace lithos
