// Critical-path latency attribution over request spans.
//
// LatencyAttributor decomposes each completed request's end-to-end latency
// (settle - arrival) into additive components along the causal critical
// path, with an exact-sum guarantee: the components of one request always
// total settle - arrival, to the nanosecond. The components:
//
//   queue     — time the winning attempt spent waiting behind other work on
//               its node (runtime beyond the model's best-case service time)
//   service   — the model's intrinsic compute time (per-model floor, learned
//               from the trace: min observed attempt runtime per model)
//   backoff   — dead time between sequential attempts (retry backoff and
//               admission delay) where the previous attempt timed out
//   recovery  — dead time re-dispatching after a crash orphaned the previous
//               attempt
//   hedge_wait— time from the hedge launch decision back to the first
//               launch, when the hedged duplicate won (the wasted primary
//               runtime is bounded by this window)
//   deferral  — network deferral: delivery delay of a completion that
//               finished behind a partition (settle - compute finish)
//
// Both the trace_analyze tool and bench_fleet_detect render the same tables
// through FormatAttributionTables, so their outputs are byte-identical for
// identical span sets — the determinism property CI cmp-gates.
#ifndef LITHOS_OBS_ATTRIBUTION_H_
#define LITHOS_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/obs/span.h"

namespace lithos {

// Additive latency components for one completed request (all ns).
struct Attribution {
  uint64_t id = 0;
  int model = -1;
  int zone = -1;       // winning attempt's zone
  bool interactive = false;
  int64_t total = 0;   // settle - arrival == sum of the parts below
  int64_t queue = 0;
  int64_t service = 0;
  int64_t backoff = 0;
  int64_t recovery = 0;
  int64_t hedge_wait = 0;
  int64_t deferral = 0;
};

inline constexpr int kNumAttributionComponents = 6;
// Component accessor in fixed display order: queue, service, backoff,
// recovery, hedge_wait, deferral.
int64_t AttributionComponent(const Attribution& a, int component);

// Aggregate counts for span sets (completed/failed/shed/open/partial).
struct SpanStats {
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t open = 0;
  uint64_t partial = 0;   // skipped: assembled from incomplete records
  uint64_t attributed = 0;
};

class LatencyAttributor {
 public:
  // Service time at or below this marks a model's traffic interactive; above
  // it, batch. Matches the SLO split used by the fleet benches.
  static constexpr DurationNs kInteractiveCutoff = 25 * kMillisecond;

  // Two passes over the spans: first learns per-model service floors (min
  // observed non-deferred attempt runtime), then attributes every completed,
  // non-partial span. Deterministic for a given span set.
  void Attribute(const std::vector<RequestSpan>& spans);

  const std::vector<Attribution>& attributions() const { return attributions_; }
  const SpanStats& stats() const { return stats_; }
  // Best-case observed service time per model (-1: no completed attempt).
  const std::vector<int64_t>& service_floor_ns() const { return floors_; }

 private:
  std::vector<Attribution> attributions_;
  std::vector<int64_t> floors_;
  SpanStats stats_;
};

// Renders the attribution breakdown as deterministic fixed-point text:
// a per-model table, a per-zone table, and a per-SLO-class table, each with
// mean share per component plus p50/p99 total latency. Shared verbatim by
// tools/trace_analyze and bench_fleet_detect.
std::string FormatAttributionTables(const LatencyAttributor& attributor);

}  // namespace lithos

#endif  // LITHOS_OBS_ATTRIBUTION_H_
