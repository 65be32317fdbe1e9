#include "src/obs/attribution.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace lithos {
namespace {

// Nearest-rank percentile over a sorted vector (ns).
int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) {
    rank = sorted.size() - 1;
  }
  return sorted[rank];
}

struct GroupAccum {
  uint64_t count = 0;
  int64_t component_sum[kNumAttributionComponents] = {};
  std::vector<int64_t> totals;

  void Add(const Attribution& a) {
    ++count;
    for (int c = 0; c < kNumAttributionComponents; ++c) {
      component_sum[c] += AttributionComponent(a, c);
    }
    totals.push_back(a.total);
  }
};

void AppendGroupTable(std::string& out, const char* key_header,
                      const std::map<std::string, GroupAccum>& groups) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-12s %8s %9s %9s | %8s %8s %8s %8s %8s %8s\n", key_header,
                "count", "p50_ms", "p99_ms", "queue", "service", "backoff",
                "recover", "hedge", "defer");
  out += line;
  for (const auto& [key, g] : groups) {
    std::vector<int64_t> sorted = g.totals;
    std::sort(sorted.begin(), sorted.end());
    std::snprintf(line, sizeof(line), "%-12s %8llu %9.3f %9.3f |", key.c_str(),
                  static_cast<unsigned long long>(g.count),
                  static_cast<double>(Percentile(sorted, 0.50)) / 1e6,
                  static_cast<double>(Percentile(sorted, 0.99)) / 1e6);
    out += line;
    int64_t total_sum = 0;
    for (int c = 0; c < kNumAttributionComponents; ++c) {
      total_sum += g.component_sum[c];
    }
    for (int c = 0; c < kNumAttributionComponents; ++c) {
      const double share =
          total_sum > 0 ? 100.0 * static_cast<double>(g.component_sum[c]) /
                              static_cast<double>(total_sum)
                        : 0.0;
      std::snprintf(line, sizeof(line), " %7.2f%%", share);
      out += line;
    }
    out += "\n";
  }
}

}  // namespace

int64_t AttributionComponent(const Attribution& a, int component) {
  switch (component) {
    case 0: return a.queue;
    case 1: return a.service;
    case 2: return a.backoff;
    case 3: return a.recovery;
    case 4: return a.hedge_wait;
    case 5: return a.deferral;
  }
  return 0;
}

void LatencyAttributor::Attribute(const std::vector<RequestSpan>& spans) {
  attributions_.clear();
  floors_.clear();
  stats_ = SpanStats{};

  // Pass 1: per-model service floors — the fastest any completed attempt of
  // that model ran start to compute-finish. Attempt runtime includes queueing
  // behind other work, so the minimum across the trace approaches the
  // intrinsic service time; the gap above it on any single request is queue.
  for (const RequestSpan& span : spans) {
    if (span.model < 0) {
      continue;
    }
    if (span.model >= static_cast<int>(floors_.size())) {
      floors_.resize(static_cast<size_t>(span.model) + 1, int64_t{-1});
    }
    for (const AttemptSpan& a : span.attempts) {
      if (a.outcome != AttemptOutcome::kCompleted || a.launch < 0 ||
          a.finish < a.launch) {
        continue;
      }
      const int64_t runtime = a.finish - a.launch;
      int64_t& floor = floors_[static_cast<size_t>(span.model)];
      if (floor < 0 || runtime < floor) {
        floor = runtime;
      }
    }
  }

  // Pass 2: walk each completed span's critical path. The path is the chain
  // of non-hedge attempts launched at or before the winner, plus the winner
  // itself; attempts launched after the winner (lost hedges, late retries)
  // overlap it and contribute nothing to end-to-end latency.
  for (const RequestSpan& span : spans) {
    switch (span.outcome) {
      case RequestOutcome::kFailed: ++stats_.failed; break;
      case RequestOutcome::kShed: ++stats_.shed; break;
      case RequestOutcome::kOpen: ++stats_.open; break;
      case RequestOutcome::kCompleted: ++stats_.completed; break;
    }
    if (span.partial) {
      ++stats_.partial;
    }
    if (span.outcome != RequestOutcome::kCompleted || span.partial ||
        span.arrival < 0 || span.settle < span.arrival || span.winner < 0 ||
        span.winner >= static_cast<int>(span.attempts.size())) {
      continue;
    }
    const AttemptSpan& winner = span.attempts[static_cast<size_t>(span.winner)];
    if (winner.launch < 0 || winner.finish < winner.launch) {
      continue;
    }

    std::vector<const AttemptSpan*> path;
    for (const AttemptSpan& a : span.attempts) {
      if (a.index != span.winner && !a.hedge && a.launch >= 0 &&
          a.launch <= winner.launch && a.index < span.winner) {
        path.push_back(&a);
      }
    }
    path.push_back(&winner);

    Attribution attr;
    attr.id = span.id;
    attr.model = span.model;
    attr.zone = winner.zone;
    attr.total = span.settle - span.arrival;

    // Launch-to-launch segments: segment j spans cp[j-1].launch to
    // cp[j].launch, i.e. the previous attempt's (wasted) runtime plus the
    // dead gap to the next launch. Classified by how the previous attempt
    // died — or as hedge wait when the closing attempt is the hedge winner.
    TimeNs prev = span.arrival;
    for (size_t j = 0; j < path.size(); ++j) {
      const int64_t segment = path[j]->launch - prev;
      if (j == 0) {
        attr.backoff += segment;  // admission delay; 0 in the common case
      } else if (j + 1 == path.size() && winner.hedge) {
        attr.hedge_wait += segment;
      } else if (path[j - 1]->outcome == AttemptOutcome::kOrphaned) {
        attr.recovery += segment;
      } else {
        attr.backoff += segment;
      }
      prev = path[j]->launch;
    }

    // Winner runtime splits into intrinsic service vs queueing above the
    // model's floor; anything after compute-finish is partition deferral.
    const int64_t runtime = winner.finish - winner.launch;
    const int64_t floor = span.model < static_cast<int>(floors_.size())
                              ? floors_[static_cast<size_t>(span.model)]
                              : int64_t{-1};
    attr.service = floor >= 0 ? std::min(floor, runtime) : runtime;
    attr.queue = runtime - attr.service;
    attr.deferral = span.settle - winner.finish;
    attr.interactive = floor >= 0 && floor <= kInteractiveCutoff;

    ++stats_.attributed;
    attributions_.push_back(attr);
  }
}

std::string FormatAttributionTables(const LatencyAttributor& attributor) {
  std::string out;
  const SpanStats& s = attributor.stats();
  char line[256];
  std::snprintf(line, sizeof(line),
                "spans: completed=%llu failed=%llu shed=%llu open=%llu "
                "partial=%llu attributed=%llu\n",
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.failed),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.open),
                static_cast<unsigned long long>(s.partial),
                static_cast<unsigned long long>(s.attributed));
  out += line;

  std::map<std::string, GroupAccum> by_model;
  std::map<std::string, GroupAccum> by_zone;
  std::map<std::string, GroupAccum> by_slo;
  char key[32];
  for (const Attribution& a : attributor.attributions()) {
    std::snprintf(key, sizeof(key), "model%02d", a.model);
    by_model[key].Add(a);
    std::snprintf(key, sizeof(key), "zone%02d", a.zone);
    by_zone[key].Add(a);
    by_slo[a.interactive ? "interactive" : "batch"].Add(a);
  }

  out += "\n[attribution by model]\n";
  AppendGroupTable(out, "model", by_model);
  out += "\n[attribution by zone]\n";
  AppendGroupTable(out, "zone", by_zone);
  out += "\n[attribution by slo class]\n";
  AppendGroupTable(out, "slo", by_slo);
  return out;
}

}  // namespace lithos
