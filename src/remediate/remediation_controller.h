// Self-healing control plane: detector-driven remediation with blast-radius
// governors and load-aware rebalancing.
//
// The RemediationController closes the gray-failure loop (docs/remediation.md):
// it subscribes to GrayNodeDetector verdicts (as the detector's VerdictSink)
// and converts them into graded actions through the existing control plane,
// strictly at detector-tick boundaries on the simulator clock:
//
//   rung 1 — quarantine: ClusterDispatcher::QuarantineNode steers new
//            attempts around the whole node (the fleet-level extension of
//            the per-(model, node) breaker). Cheap and reversible: placement
//            is untouched and the node keeps draining its queue.
//   rung 2 — drain + re-spread: FleetController::RequestDrain holds the
//            node out of the active set; the controller's next rebalance
//            forcibly re-homes its replicas onto survivors (the same
//            checkpoint/restore migration path scale-downs use).
//   rung 3 — forced restart: ClusterDispatcher::FailNode (queued work
//            written off — the price of a power cycle) and ReviveNode after
//            the restart window; reserved for confirmed repeat offenders.
//
// Escalation is evidence-driven: a first verdict earns quarantine; when the
// quarantine lifts the node enters *probation*, and only a re-flag during
// probation (or a strike streak) escalates. A clean probation means the
// verdict could not be reconfirmed: the action rolls back — un-quarantine,
// Demote() the verdict in the detector, and exponentially back off re-arming
// the node — so a misfiring detector degrades to PR 8's dispatch-only
// behavior instead of feeding a remediation storm.
//
// Safety is the point. A blast-radius governor bounds concurrent
// drains/restarts per zone and fleet-wide and refuses any capacity-removing
// action that would push healthy in-rotation capacity below a floor computed
// from the current offered load; blocked actions are *deferred* into a FIFO
// retried each tick, never dropped silently. Load-aware post-recovery
// rebalancing watches for announced repairs/heals and, while the recovery
// window is open and the dispatch queues are herded onto survivors
// (ClusterDispatcher::HerdImbalance), forces FleetController rebalance
// passes until the packer has re-spread replicas — closing the ROADMAP item
// that previously left the breaker to absorb post-heal herds.
//
// Determinism: every decision is a pure function of (verdict queue, sim
// time, dispatcher/controller state) evaluated at tick boundaries; the
// deferral queue is FIFO and per-node state advances in node order. Action
// logs, trace records, and counters are byte-identical across runs and
// --jobs, like every simulation output.
#ifndef LITHOS_REMEDIATE_REMEDIATION_CONTROLLER_H_
#define LITHOS_REMEDIATE_REMEDIATION_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/autoscale/fleet_controller.h"
#include "src/cluster/cluster.h"
#include "src/common/time.h"
#include "src/obs/detect.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace lithos {

struct RemediationConfig {
  // --- Action ladder --------------------------------------------------------
  // Rung-1 quarantine length. When it lifts, the node serves again under
  // probation for a fixed number of detector ticks (kProbationWindows in
  // remediation_controller.cc); at the boundary a still-flagged node
  // escalates, a clean one rolls the action back as a false positive.
  DurationNs quarantine_window = FromMillis(1000);
  // Straggler verdicts at/above this score are confirmed enough to skip the
  // quarantine rung and drain immediately.
  double drain_score = 2.5;
  // Window in which kRestartStrikes (3) verdict strikes on one node escalate
  // the next action to a forced restart.
  DurationNs strike_window = FromSeconds(6);

  // --- Blast-radius governor ------------------------------------------------
  // Concurrent capacity-removing actions (drains + restarts) allowed per
  // zone and fleet-wide; excess actions defer, in FIFO order.
  int max_drains_per_zone = 1;
  int max_drains_fleet = 4;
  // Healthy in-rotation capacity after a capacity-removing action (counting
  // quarantines as removed too) must stay at or above this multiple of the
  // current offered load, else the action defers.
  double min_capacity_factor = 1.1;

  // --- False-positive injection (rollback demonstration) --------------------
  // Synthetic straggler verdicts delivered at the first tick at or after
  // `at`. They exercise the full quarantine -> probation -> rollback path;
  // they never enter the detector's verdict log (nothing to demote), and
  // actions they trigger are tagged synthetic for scoring.
  struct InjectedVerdict {
    TimeNs at = 0;
    int node = 0;
    double score = 1.5;
  };
  std::vector<InjectedVerdict> inject;
};

// What the controller did (RemedyEvent::action).
enum class RemedyAction : uint8_t {
  kQuarantine = 0,
  kDrain = 1,
  kRestart = 2,
  kRebalance = 3,
  kRollback = 4,
  kDefer = 5,
};
const char* RemedyActionName(RemedyAction action);

// Why the governor deferred an action (RemedyEvent::detail, traced arg).
enum class RemedyDeferReason : uint8_t {
  kZoneCap = 0,       // max_drains_per_zone reached in the node's zone
  kFleetCap = 1,      // max_drains_fleet reached
  kCapacityFloor = 2, // healthy capacity would drop below the load floor
};

// One remediation decision, in issue order. `synthetic` marks actions (and
// their rollbacks) triggered by injected false positives.
struct RemedyEvent {
  TimeNs at = 0;
  RemedyAction action = RemedyAction::kQuarantine;
  int node = -1;
  int zone = -1;
  Verdict::Kind kind = Verdict::Kind::kStraggler;
  bool synthetic = false;
  double detail = 0;  // verdict score / herd imbalance / defer reason code
};

// What the controller has done so far: action counters and the governor's
// high-water marks.
struct RemedyCounts {
  uint64_t quarantines = 0;
  uint64_t drains = 0;
  uint64_t restarts = 0;
  uint64_t rebalances = 0;
  uint64_t rollbacks = 0;
  uint64_t synthetic_rollbacks = 0;  // rollbacks of injected false positives
  uint64_t deferrals = 0;
  // Peak concurrent drains+restarts observed fleet-wide and in any single
  // zone (<= the configured caps, always).
  int peak_fleet_drains = 0;
  int peak_zone_drains = 0;

  // Actions triggered by gray verdicts only (quarantine/drain/restart);
  // rebalances, rollbacks, and deferrals are not "actions" for scoring.
  uint64_t actions() const { return quarantines + drains + restarts; }
};

class RemediationController : public VerdictSink {
 public:
  // How long a drained node is held out before re-admission.
  static constexpr DurationNs kDrainHold = FromSeconds(2);

  // Registers itself as `detector`'s verdict sink. All four collaborators
  // must outlive the controller and share one simulator clock.
  RemediationController(Simulator* sim, ClusterDispatcher* dispatcher,
                        FleetController* controller, GrayNodeDetector* detector,
                        const RemediationConfig& config);
  RemediationController(const RemediationController&) = delete;
  RemediationController& operator=(const RemediationController&) = delete;

  // VerdictSink: enqueues the verdict for the tick that follows (the
  // detector calls this synchronously from Tick(), immediately before the
  // scenario driver ticks the remediation controller at the same instant).
  void OnVerdict(size_t index, const Verdict& verdict) override;

  // One remediation step at `now` — call right after the detector tick.
  void Tick(TimeNs now);

  // Issue-ordered action log and its deterministic text rendering.
  const std::vector<RemedyEvent>& events() const { return events_; }
  std::vector<std::string> Lines() const;

  const RemedyCounts& counts() const { return counts_; }
  uint64_t actions() const { return counts_.actions(); }
  uint64_t rollbacks() const { return counts_.rollbacks; }
  uint64_t deferrals() const { return counts_.deferrals; }
  int ticks() const { return ticks_; }

  // Attaches a binary trace recorder (nullptr detaches): the action
  // lifecycle appends TraceLayer::kControl records, kinds 70-76.
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }

 private:
  // Per-node remediation state machine.
  enum class Phase : uint8_t {
    kIdle = 0,
    kQuarantined,  // rung 1 active; lifts into probation
    kProbation,    // serving again; re-flag escalates, clean run rolls back
    kDraining,     // held out by RequestDrain until kDrainHold elapses
    kRestarting,   // failed for kRestartDuration, then revived
  };
  struct NodeRemedy {
    Phase phase = Phase::kIdle;
    TimeNs phase_until = 0;    // quarantine / hold / restart deadline
    TimeNs phase_began = 0;
    int probation_left = 0;
    size_t verdict = SIZE_MAX; // detector verdict behind the action
    bool synthetic = false;
    int strikes = 0;
    TimeNs last_strike = 0;
    int rollback_count = 0;    // re-arm backoff exponent
    TimeNs rearm_until = 0;    // flap damping: ignore verdicts until then
  };
  struct PendingVerdict {
    size_t index = SIZE_MAX;   // SIZE_MAX for synthetic injections
    Verdict verdict;
    bool synthetic = false;
  };
  struct DeferredAction {
    TimeNs since = 0;
    int node = -1;
    RemedyAction rung = RemedyAction::kDrain;
    size_t verdict = SIZE_MAX;
    bool synthetic = false;
    Verdict::Kind kind = Verdict::Kind::kStraggler;
    double score = 0;
  };

  void HandleVerdict(TimeNs now, const PendingVerdict& pending);
  // Issues (or defers) a capacity-removing action on `node`. Returns true
  // when issued; `deferred_entry` controls whether a governor block appends
  // a fresh deferral (initial attempt) or leaves the queue untouched
  // (retry of an existing entry).
  bool TryCapacityAction(TimeNs now, int node, RemedyAction rung, size_t verdict,
                         bool synthetic, Verdict::Kind kind, double score,
                         bool enqueue_on_block);
  void AdvancePhases(TimeNs now);
  void RetryDeferred(TimeNs now);
  void HerdRebalance(TimeNs now);
  void Rollback(TimeNs now, int node);
  // Governor: can one more drain/restart be issued against `node` now?
  bool GovernorAllows(int node, RemedyDeferReason* reason) const;
  int ConcurrentDrains(int zone_or_minus1) const;
  void Record(TimeNs now, RemedyAction action, int node, int zone,
              Verdict::Kind kind, bool synthetic, double detail);
  void Trace(TimeNs now, TraceKind kind, int node, int zone, int32_t arg,
             int64_t payload);

  Simulator* sim_;
  ClusterDispatcher* dispatcher_;
  FleetController* controller_;
  GrayNodeDetector* detector_;
  RemediationConfig cfg_;

  std::vector<NodeRemedy> nodes_;
  std::vector<PendingVerdict> queue_;
  std::deque<DeferredAction> deferred_;
  size_t next_injection_ = 0;

  // Recovery-window bookkeeping for the herd rebalancer: announced down
  // counts from the previous tick; a decrease opens the window.
  int prev_failed_ = 0;
  int prev_partitioned_ = 0;
  int recovery_ticks_left_ = 0;

  std::vector<RemedyEvent> events_;
  RemedyCounts counts_;
  int ticks_ = 0;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace lithos

#endif  // LITHOS_REMEDIATE_REMEDIATION_CONTROLLER_H_
