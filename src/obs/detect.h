// Online gray-failure detection from dispatch telemetry alone.
//
// Gray failures — stragglers that still answer (slowly), zones silently
// partitioned from the dispatcher, nodes metastably thrashing on timeouts —
// never announce themselves the way a crash does. GrayNodeDetector infers
// them from the same per-node / per-(model,node) counters the dispatcher
// already maintains (DetectorFeed), with no access to the fault injector:
//
//   * Straggler: a node's mix-normalized latency ratio — its windowed
//     latency sum over the latency expected from fleet-wide per-model
//     baselines for the same request mix — inflates past
//     `straggler_inflation` x the fleet median of that ratio in the same
//     window. Peer comparison instead of self-history: a fleet-wide latency
//     surge lifts the median along with every node, so only true outliers
//     alarm. Nodes in a zone with an active or just-cleared partition
//     episode are exempt (post-heal backlog drain is the partition's
//     latency, not a straggler's).
//   * Partition: a zone that historically completed work goes completely
//     silent (zero completions in a window) while most of its nodes are NOT
//     known-down — crashes are announced (fail-stop), silence without an
//     announcement is a partition. The zone baseline freezes during silence.
//   * Metastable: a node whose attempts keep timing out (timeout/attempt
//     ratio above threshold for several consecutive windows) even though it
//     is nominally up — the retry-storm survivor signature. Reported but
//     not scored against ground truth (the injector has no such fault kind).
//
// One verdict per episode: a flagged node/zone stays flagged until it looks
// healthy for kClearWindows (2) consecutive windows, so a 2-second straggler
// yields one verdict, not eight.
//
// Determinism: ticks happen at fixed sim-time boundaries, all state derives
// from feed counters, and verdicts/Lines() are pure functions of that state
// — byte-identical across runs and --jobs, like every simulation output.
//
// ScoreDetector grades verdicts against injector ground truth (converted to
// neutral TruthSpans by the caller — obs does not depend on the fault
// layer): precision, recall, and median time-to-detection in windows.
#ifndef LITHOS_OBS_DETECT_H_
#define LITHOS_OBS_DETECT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/obs/metrics.h"

namespace lithos {

// Cumulative dispatch telemetry the detector diffs window over window. The
// dispatcher maintains these unconditionally (plain vector increments).
// pair_* vectors are indexed model * num_nodes + node; latency sums cover
// non-deferred deliveries only, so partition silence stays visible and
// post-heal delivery bursts do not poison the baseline.
struct DetectorFeed {
  std::vector<uint64_t> node_attempts;      // launches per node
  std::vector<uint64_t> node_completions;   // deliveries per node
  std::vector<uint64_t> node_timeouts;      // attempt timeouts per node
  std::vector<uint64_t> pair_completions;   // non-deferred, per (model, node)
  std::vector<int64_t> pair_latency_ns;     // launch->finish sums, same index
};

struct DetectorConfig {
  DurationNs window = 250 * kMillisecond;  // tick + rollup width
  // Straggler: a node's mix-normalized latency ratio >= inflation * the
  // fleet median of that ratio in the same window, with at least
  // kMinNodeCompletions deliveries. The ratio divides the node's windowed
  // latency sum by the latency expected from fleet-wide per-model baselines
  // for the same request mix — per-(model,node) pairs are far too sparse to
  // baseline at fleet scale (a ~25 rps node splits a handful of completions
  // per window across models whose healthy latencies differ by >10x), and a
  // raw node mean would alarm on mix shifts alone. Dividing by the window's
  // peer median (rather than the node's own history) makes the check immune
  // to fleet-wide surges — a partition's retry storm lifts every node and
  // the median together. The verdict's model field names the most-inflated
  // pair of the window.
  double straggler_inflation = 1.3;
  uint64_t warmup_windows = 2;
};

struct Verdict {
  enum class Kind : uint8_t { kStraggler = 0, kPartition = 1, kMetastable = 2 };
  TimeNs at = 0;       // tick time the episode was flagged
  Kind kind = Kind::kStraggler;
  int node = -1;       // -1 for zone-level verdicts
  int zone = -1;
  int model = -1;      // worst inflated pair's model (stragglers only)
  double score = 0;    // inflation / silence-baseline / timeout ratio
  // Retracted after the fact (remediation rollback of a false positive):
  // the verdict stays in the log for audit but is excluded from scoring.
  bool demoted = false;
};

const char* VerdictKindName(Verdict::Kind kind);

// Receives every verdict the instant it is flagged, inside Tick(). `index`
// is the verdict's position in verdicts() — the handle Demote() takes. The
// remediation controller is the intended consumer (docs/remediation.md).
class VerdictSink {
 public:
  virtual ~VerdictSink() = default;
  virtual void OnVerdict(size_t index, const Verdict& verdict) = 0;
};

class GrayNodeDetector {
 public:
  // node_zone maps node index -> zone index. When `registry` is non-null the
  // detector publishes per-zone completion rollups as TimeSeries instruments
  // ("detect/zone<k>/completions", window-width windows).
  GrayNodeDetector(const DetectorConfig& config, int num_nodes, int num_models,
                   int num_zones, std::vector<int> node_zone,
                   MetricsRegistry* registry = nullptr);

  // Processes one control window ending at `now`. `feed` holds cumulative
  // counters; `known_down[n]` is nonzero for nodes whose failure is already
  // announced (crash / outage) — those are excluded from gray verdicts.
  void Tick(TimeNs now, const DetectorFeed& feed,
            const std::vector<uint8_t>& known_down);

  const std::vector<Verdict>& verdicts() const { return verdicts_; }
  // Deterministic one-line-per-verdict rendering.
  std::vector<std::string> Lines() const;
  int ticks() const { return ticks_; }

  // Attaches a verdict sink (nullptr detaches); called synchronously from
  // Tick() for each new verdict.
  void SetVerdictSink(VerdictSink* sink) { sink_ = sink; }

  // Demotes a verdict (remediation rollback): marks it retracted and
  // re-arms the matching episode state, so a *real* recurrence of the same
  // fault alarms again instead of riding the stale episode flag.
  void Demote(size_t index);

  // Live episode state, for post-action probation checks.
  bool node_flagged(int node) const {
    return node_flagged_[static_cast<size_t>(node)] != 0;
  }
  bool zone_flagged(int zone) const {
    return zone_flagged_[static_cast<size_t>(zone)] != 0;
  }

 private:
  DetectorConfig cfg_;
  int num_nodes_;
  int num_models_;
  int num_zones_;
  std::vector<int> node_zone_;
  MetricsRegistry* registry_;

  DetectorFeed prev_;
  std::vector<Ewma> model_baseline_;  // fleet-wide mean latency per model
  std::vector<Ewma> zone_baseline_;   // completions per window per zone
  std::vector<uint8_t> node_flagged_;
  std::vector<int> node_healthy_streak_;
  std::vector<uint8_t> zone_flagged_;
  std::vector<int> zone_cooldown_;    // post-heal straggler exemption
  std::vector<int> metastable_streak_;
  std::vector<uint8_t> metastable_flagged_;
  std::vector<Verdict> verdicts_;
  VerdictSink* sink_ = nullptr;
  int ticks_ = 0;

  void Emit(const Verdict& verdict);
};

// Neutral ground-truth span for scoring (callers convert injector spans;
// only straggler and partition spans are scoreable).
struct TruthSpan {
  Verdict::Kind kind = Verdict::Kind::kStraggler;
  int node = -1;   // straggler spans
  int zone = -1;   // partition spans
  TimeNs start = 0;
  TimeNs end = 0;
};

struct DetectorScore {
  uint64_t scored_verdicts = 0;  // straggler + partition verdicts
  uint64_t matched_verdicts = 0;
  uint64_t truth_spans = 0;
  uint64_t detected_spans = 0;   // truth spans with >= 1 matching verdict
  double precision = 0;          // matched / scored (1.0 when no verdicts)
  double recall = 0;             // detected / truth (1.0 when no spans)
  double median_ttd_windows = 0; // over each detected span's first verdict
  // Missed-episode diagnostics: one deterministic line per undetected truth
  // span (fault kind, target, window index range) so a recall gap names its
  // misses instead of hiding them in an aggregate.
  std::vector<std::string> missed_lines;
};

// Matches verdicts to truth spans: same kind and same node (straggler) or
// zone (partition), verdict time within [start, end + grace]. Metastable
// and demoted verdicts are ignored. Time-to-detection is
// (verdict - start) / window.
DetectorScore ScoreDetector(const std::vector<Verdict>& verdicts,
                            const std::vector<TruthSpan>& truth,
                            DurationNs window, DurationNs grace);

}  // namespace lithos

#endif  // LITHOS_OBS_DETECT_H_
