#include "src/remediate/remediation_controller.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/check.h"

namespace lithos {
namespace {

// Detector ticks a node serves under probation after its quarantine lifts.
// The decision is taken at the boundary, not on the first re-flag: the
// detector needs two windows of health to re-arm, so a one-window
// re-admission transient self-clears before judgment.
constexpr int kProbationWindows = 4;
// Verdict strikes on one node within strike_window that escalate the next
// action to a forced restart.
constexpr int kRestartStrikes = 3;
constexpr DurationNs kRestartDuration = FromMillis(400);  // simulated power cycle
// Deferred actions older than this are dropped (the episode they answered
// is stale).
constexpr DurationNs kDeferTtl = FromSeconds(6);
// After the k-th rollback on a node, verdicts on it are ignored for
// min(cap, base << (k-1)) — exponential re-arm backoff. The base spans
// several detector windows so the re-admission burst a lifted quarantine
// attracts (the placer floods the coldest node) cannot re-flag it.
constexpr DurationNs kRearmBackoffBase = FromMillis(2000);
constexpr DurationNs kRearmBackoffCap = FromSeconds(8);
// An announced repair/heal opens a recovery window this many ticks long;
// inside it, any tick whose in-rotation queue imbalance (max/mean,
// ClusterDispatcher::HerdImbalance) is at or above the threshold forces a
// controller rebalance pass (budget-capped, so placement cannot thrash).
constexpr int kRecoveryWindowTicks = 12;
constexpr double kHerdImbalanceThreshold = 1.5;

}  // namespace

const char* RemedyActionName(RemedyAction action) {
  switch (action) {
    case RemedyAction::kQuarantine: return "quarantine";
    case RemedyAction::kDrain: return "drain";
    case RemedyAction::kRestart: return "restart";
    case RemedyAction::kRebalance: return "rebalance";
    case RemedyAction::kRollback: return "rollback";
    case RemedyAction::kDefer: return "defer";
  }
  return "?";
}

RemediationController::RemediationController(Simulator* sim,
                                             ClusterDispatcher* dispatcher,
                                             FleetController* controller,
                                             GrayNodeDetector* detector,
                                             const RemediationConfig& config)
    : sim_(sim),
      dispatcher_(dispatcher),
      controller_(controller),
      detector_(detector),
      cfg_(config) {
  nodes_.resize(static_cast<size_t>(dispatcher_->config().num_nodes));
  detector_->SetVerdictSink(this);
}

void RemediationController::OnVerdict(size_t index, const Verdict& verdict) {
  PendingVerdict pending;
  pending.index = index;
  pending.verdict = verdict;
  pending.synthetic = false;
  queue_.push_back(pending);
  Trace(verdict.at, TraceKind::kRemedyVerdict, verdict.node, verdict.zone,
        static_cast<int32_t>(verdict.kind),
        static_cast<int64_t>(verdict.score * 1e6));
}

void RemediationController::Tick(TimeNs now) {
  ++ticks_;

  // 1. Deliver due synthetic false positives (config order), ahead of the
  // real verdicts the detector just emitted — they are scripted inputs, not
  // reactions to this window.
  std::vector<PendingVerdict> work;
  while (next_injection_ < cfg_.inject.size() &&
         cfg_.inject[next_injection_].at <= now) {
    const RemediationConfig::InjectedVerdict& inj = cfg_.inject[next_injection_];
    PendingVerdict pending;
    pending.index = SIZE_MAX;
    pending.verdict.at = now;
    pending.verdict.kind = Verdict::Kind::kStraggler;
    pending.verdict.node = inj.node;
    pending.verdict.zone = dispatcher_->ZoneOfNode(inj.node);
    pending.verdict.score = inj.score;
    pending.synthetic = true;
    work.push_back(pending);
    ++next_injection_;
    Trace(now, TraceKind::kRemedyVerdict, inj.node, pending.verdict.zone,
          static_cast<int32_t>(Verdict::Kind::kStraggler),
          static_cast<int64_t>(inj.score * 1e6));
  }
  work.insert(work.end(), queue_.begin(), queue_.end());
  queue_.clear();

  // 2. Per-node phase machines advance (node order) before new verdicts are
  // judged, so a quarantine that lifts this tick starts probation now and a
  // re-flag arriving this same tick escalates.
  AdvancePhases(now);

  // 3. New verdicts, in delivery order.
  for (const PendingVerdict& pending : work) {
    HandleVerdict(now, pending);
  }

  // 4. Governor-deferred actions retry in FIFO order.
  RetryDeferred(now);

  // 5. Load-aware post-recovery rebalancing.
  HerdRebalance(now);
}

void RemediationController::HandleVerdict(TimeNs now,
                                          const PendingVerdict& pending) {
  const Verdict& v = pending.verdict;
  if (v.kind == Verdict::Kind::kPartition) {
    // Zone partitions are already routed around by the dispatch path (the
    // dispatcher knows partitioned state); the remediation response is the
    // post-heal re-spread, driven by the recovery window in HerdRebalance.
    return;
  }
  if (v.node < 0 || v.node >= static_cast<int>(nodes_.size())) {
    return;
  }
  NodeRemedy& state = nodes_[static_cast<size_t>(v.node)];

  // Hard-down nodes are the fault injector's / controller's problem, not a
  // gray signal worth acting on.
  if (dispatcher_->NodeFailed(v.node) || dispatcher_->NodePartitioned(v.node)) {
    return;
  }
  // Flap damping: a node that just rolled back is ignored until re-armed.
  if (now < state.rearm_until) {
    return;
  }

  if (now - state.last_strike <= cfg_.strike_window) {
    ++state.strikes;
  } else {
    state.strikes = 1;
  }
  state.last_strike = now;

  switch (state.phase) {
    case Phase::kIdle: {
      // Immediate, ungoverned mitigation first: steer new attempts off the
      // node right away (placement untouched, trivially reversible).
      dispatcher_->QuarantineNode(v.node, now + cfg_.quarantine_window);
      state.phase = Phase::kQuarantined;
      state.phase_began = now;
      state.phase_until = now + cfg_.quarantine_window;
      state.verdict = pending.index;
      state.synthetic = pending.synthetic;
      ++counts_.quarantines;
      Record(now, RemedyAction::kQuarantine, v.node, v.zone, v.kind,
             pending.synthetic, v.score);
      Trace(now, TraceKind::kRemedyQuarantine, v.node, v.zone, 0,
            cfg_.quarantine_window);
      // Confirmed-enough verdicts additionally take a governed capacity
      // action; when the governor defers it, the quarantine covers the gap
      // and the deferral queue owns the escalation.
      if (state.strikes >= kRestartStrikes) {
        TryCapacityAction(now, v.node, RemedyAction::kRestart, pending.index,
                          pending.synthetic, v.kind, v.score,
                          /*enqueue_on_block=*/true);
      } else if (v.score >= cfg_.drain_score || state.strikes >= 2) {
        TryCapacityAction(now, v.node, RemedyAction::kDrain, pending.index,
                          pending.synthetic, v.kind, v.score,
                          /*enqueue_on_block=*/true);
      }
      break;
    }
    case Phase::kProbation:
    case Phase::kQuarantined:
    case Phase::kDraining:
    case Phase::kRestarting:
      // Already being acted on or watched; the strike was recorded and
      // informs the decision at the probation boundary. Escalation happens
      // only on a flag still held at probation end — a single-window
      // transient (the re-admission burst a lifted quarantine attracts)
      // must not confirm a verdict.
      break;
  }
}

bool RemediationController::TryCapacityAction(TimeNs now, int node,
                                              RemedyAction rung, size_t verdict,
                                              bool synthetic,
                                              Verdict::Kind kind, double score,
                                              bool enqueue_on_block) {
  NodeRemedy& state = nodes_[static_cast<size_t>(node)];
  RemedyDeferReason reason = RemedyDeferReason::kFleetCap;
  if (!GovernorAllows(node, &reason)) {
    if (enqueue_on_block) {
      DeferredAction deferred;
      deferred.since = now;
      deferred.node = node;
      deferred.rung = rung;
      deferred.verdict = verdict;
      deferred.synthetic = synthetic;
      deferred.kind = kind;
      deferred.score = score;
      deferred_.push_back(deferred);
      ++counts_.deferrals;
      Record(now, RemedyAction::kDefer, node, dispatcher_->ZoneOfNode(node),
             kind, synthetic, static_cast<double>(reason));
      Trace(now, TraceKind::kRemedyGovernorDefer, node,
            dispatcher_->ZoneOfNode(node), static_cast<int32_t>(reason), 0);
    }
    return false;
  }

  const int zone = dispatcher_->ZoneOfNode(node);
  state.verdict = verdict;
  state.synthetic = synthetic;
  state.phase_began = now;
  if (rung == RemedyAction::kRestart) {
    dispatcher_->FailNode(node);
    state.phase = Phase::kRestarting;
    state.phase_until = now + kRestartDuration;
    ++counts_.restarts;
    Record(now, RemedyAction::kRestart, node, zone, kind, synthetic, score);
    Trace(now, TraceKind::kRemedyDrainStart, node, zone, 1, 0);
  } else {
    controller_->RequestDrain(node);
    state.phase = Phase::kDraining;
    state.phase_until = now + kDrainHold;
    ++counts_.drains;
    Record(now, RemedyAction::kDrain, node, zone, kind, synthetic, score);
    Trace(now, TraceKind::kRemedyDrainStart, node, zone, 0, 0);
  }

  const int fleet_now = ConcurrentDrains(-1);
  counts_.peak_fleet_drains = std::max(counts_.peak_fleet_drains, fleet_now);
  counts_.peak_zone_drains = std::max(counts_.peak_zone_drains, ConcurrentDrains(zone));
  return true;
}

void RemediationController::AdvancePhases(TimeNs now) {
  for (size_t n = 0; n < nodes_.size(); ++n) {
    NodeRemedy& state = nodes_[n];
    const int node = static_cast<int>(n);
    switch (state.phase) {
      case Phase::kIdle:
        break;
      case Phase::kQuarantined: {
        if (now >= state.phase_until) {
          // Quarantine lifted (the dispatcher's window expired on its own);
          // the node serves again while we watch for a re-flag.
          state.phase = Phase::kProbation;
          state.probation_left = kProbationWindows;
        }
        break;
      }
      case Phase::kProbation: {
        if (--state.probation_left > 0) {
          break;
        }
        if (detector_->node_flagged(node)) {
          // The detector never cleared the episode: the node came back into
          // rotation and still looks gray — confirmed, escalate. On a
          // governor defer the deferral queue owns the action.
          const RemedyAction rung = state.strikes >= kRestartStrikes
                                        ? RemedyAction::kRestart
                                        : RemedyAction::kDrain;
          if (!TryCapacityAction(now, node, rung, state.verdict,
                                 state.synthetic, Verdict::Kind::kStraggler, 0,
                                 /*enqueue_on_block=*/true)) {
            state.phase = Phase::kIdle;
          }
        } else {
          Rollback(now, node);
        }
        break;
      }
      case Phase::kDraining: {
        if (now >= state.phase_until) {
          dispatcher_->UnquarantineNode(node);  // interim-quarantine residue
          controller_->ReleaseDrain(node);
          Trace(now, TraceKind::kRemedyDrainDone, node,
                dispatcher_->ZoneOfNode(node), 0, now - state.phase_began);
          state.phase = Phase::kIdle;
          state.verdict = SIZE_MAX;
          state.synthetic = false;
        }
        break;
      }
      case Phase::kRestarting: {
        if (now >= state.phase_until) {
          // Guard: only revive what we failed — the injector may have
          // crashed and repaired it independently in between.
          if (dispatcher_->NodeFailed(node)) {
            dispatcher_->ReviveNode(node);
          }
          dispatcher_->UnquarantineNode(node);  // interim-quarantine residue
          Trace(now, TraceKind::kRemedyDrainDone, node,
                dispatcher_->ZoneOfNode(node), 1, now - state.phase_began);
          state.phase = Phase::kIdle;
          state.verdict = SIZE_MAX;
          state.synthetic = false;
        }
        break;
      }
    }
  }
}

void RemediationController::Rollback(TimeNs now, int node) {
  NodeRemedy& state = nodes_[static_cast<size_t>(node)];
  // The quarantine already expired; make the un-quarantine explicit so the
  // dispatcher's books carry no residue of the retracted action.
  dispatcher_->UnquarantineNode(node);
  int32_t demoted_index = -1;
  if (state.verdict != SIZE_MAX) {
    detector_->Demote(state.verdict);
    demoted_index = static_cast<int32_t>(state.verdict);
  }
  ++counts_.rollbacks;
  if (state.synthetic) {
    ++counts_.synthetic_rollbacks;
  }
  ++state.rollback_count;
  const int shift = std::min(state.rollback_count - 1, 20);
  const DurationNs backoff =
      std::min(kRearmBackoffCap, kRearmBackoffBase << shift);
  state.rearm_until = now + backoff;
  Record(now, RemedyAction::kRollback, node, dispatcher_->ZoneOfNode(node),
         Verdict::Kind::kStraggler, state.synthetic,
         static_cast<double>(demoted_index));
  Trace(now, TraceKind::kRemedyRollback, node, dispatcher_->ZoneOfNode(node),
        demoted_index, backoff);
  state.phase = Phase::kIdle;
  state.verdict = SIZE_MAX;
  state.synthetic = false;
  state.strikes = 0;
}

void RemediationController::RetryDeferred(TimeNs now) {
  std::deque<DeferredAction> keep;
  while (!deferred_.empty()) {
    DeferredAction deferred = deferred_.front();
    deferred_.pop_front();
    if (now - deferred.since > kDeferTtl) {
      continue;  // stale episode; drop
    }
    NodeRemedy& state = nodes_[static_cast<size_t>(deferred.node)];
    if (state.phase == Phase::kDraining || state.phase == Phase::kRestarting) {
      continue;  // a later attempt already landed
    }
    if (dispatcher_->NodeFailed(deferred.node) ||
        dispatcher_->NodePartitioned(deferred.node)) {
      continue;  // went hard-down while deferred
    }
    if (now < state.rearm_until) {
      continue;  // rolled back while deferred — the episode was retracted
    }
    if (!deferred.synthetic && !detector_->node_flagged(deferred.node)) {
      continue;  // episode cleared while deferred — the quarantine covered it
    }
    if (!TryCapacityAction(now, deferred.node, deferred.rung, deferred.verdict,
                           deferred.synthetic, deferred.kind, deferred.score,
                           /*enqueue_on_block=*/false)) {
      keep.push_back(deferred);
    }
  }
  deferred_ = std::move(keep);
}

void RemediationController::HerdRebalance(TimeNs now) {
  const int failed = dispatcher_->failed_node_count();
  const int partitioned = dispatcher_->partitioned_node_count();
  // An announced repair or heal opens (or re-opens) the recovery window.
  if (failed < prev_failed_ || partitioned < prev_partitioned_) {
    recovery_ticks_left_ = kRecoveryWindowTicks;
  }
  prev_failed_ = failed;
  prev_partitioned_ = partitioned;
  if (recovery_ticks_left_ <= 0) {
    return;
  }
  --recovery_ticks_left_;
  const double imbalance = dispatcher_->HerdImbalance();
  if (imbalance < kHerdImbalanceThreshold) {
    return;
  }
  controller_->RequestRebalance();
  ++counts_.rebalances;
  Record(now, RemedyAction::kRebalance, -1, -1, Verdict::Kind::kPartition,
         false, imbalance);
  Trace(now, TraceKind::kRemedyRebalanceMove, -1, -1, 0,
        static_cast<int64_t>(imbalance * 1e6));
}

bool RemediationController::GovernorAllows(int node,
                                           RemedyDeferReason* reason) const {
  const int zone = dispatcher_->ZoneOfNode(node);
  if (ConcurrentDrains(zone) >= cfg_.max_drains_per_zone) {
    *reason = RemedyDeferReason::kZoneCap;
    return false;
  }
  if (ConcurrentDrains(-1) >= cfg_.max_drains_fleet) {
    *reason = RemedyDeferReason::kFleetCap;
    return false;
  }
  // Min-healthy-capacity floor: after taking this node out, the remaining
  // in-rotation, unquarantined, healthy capacity must still cover the
  // currently offered load with margin.
  const int num_nodes = dispatcher_->config().num_nodes;
  int available = 0;
  for (int n = 0; n < num_nodes; ++n) {
    if (n == node) continue;
    if (dispatcher_->NodeFailed(n) || dispatcher_->NodePartitioned(n)) continue;
    if (dispatcher_->NodeQuarantined(n)) continue;
    if (controller_->node_power(n) != NodePower::kActive) continue;
    if (controller_->DrainHeld(n)) continue;
    const Phase phase = nodes_[static_cast<size_t>(n)].phase;
    if (phase == Phase::kDraining || phase == Phase::kRestarting) continue;
    ++available;
  }
  // Raw serving capacity: a node executes 1000 GPU-ms of request work per
  // second flat out. (Not scaled by affinity_target_util — that is planning
  // headroom; the floor guards against actually running out of machine.)
  const double capacity = static_cast<double>(available) * 1000.0;
  const double offered = dispatcher_->OfferedLoadAt(sim_->Now());
  if (capacity < cfg_.min_capacity_factor * offered) {
    *reason = RemedyDeferReason::kCapacityFloor;
    return false;
  }
  return true;
}

int RemediationController::ConcurrentDrains(int zone_or_minus1) const {
  int count = 0;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const Phase phase = nodes_[n].phase;
    if (phase != Phase::kDraining && phase != Phase::kRestarting) continue;
    if (zone_or_minus1 >= 0 &&
        dispatcher_->ZoneOfNode(static_cast<int>(n)) != zone_or_minus1) {
      continue;
    }
    ++count;
  }
  return count;
}

void RemediationController::Record(TimeNs now, RemedyAction action, int node,
                                   int zone, Verdict::Kind kind, bool synthetic,
                                   double detail) {
  RemedyEvent event;
  event.at = now;
  event.action = action;
  event.node = node;
  event.zone = zone;
  event.kind = kind;
  event.synthetic = synthetic;
  event.detail = detail;
  events_.push_back(event);
}

void RemediationController::Trace(TimeNs now, TraceKind kind, int node,
                                  int zone, int32_t arg, int64_t payload) {
  if (trace_ == nullptr) {
    return;
  }
  trace_->Append(now, TraceLayer::kControl, kind, node, zone, arg, payload);
}

std::vector<std::string> RemediationController::Lines() const {
  std::vector<std::string> lines;
  lines.reserve(events_.size());
  char buf[160];
  for (const RemedyEvent& e : events_) {
    std::snprintf(buf, sizeof(buf),
                  "t=%9.3fms %-10s zone=%2d node=%4d %-10s%s detail=%.2f",
                  ToMillis(e.at), RemedyActionName(e.action), e.zone, e.node,
                  VerdictKindName(e.kind), e.synthetic ? " [injected]" : "",
                  e.detail);
    lines.emplace_back(buf);
  }
  return lines;
}

}  // namespace lithos
