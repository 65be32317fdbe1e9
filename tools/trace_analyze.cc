// trace_analyze: replay a binary LithOS trace (src/obs/trace.h) into
// request span trees and print critical-path latency attribution tables.
//
//   trace_analyze <trace.bin>            span stats + attribution tables
//   trace_analyze --spans <trace.bin>    also dump one line per request span
//
// Works from the request-correlation records (TraceKind 60..68, cluster
// layer) alone — the same records the dispatcher feeds to an online
// SpanBuilder, so offline replay reconstructs byte-identical spans (the
// span tests enforce this). Traces recorded without the cluster layer, or
// ring-buffer traces whose early records were dropped, yield partial spans;
// those are counted in the header line and excluded from attribution rather
// than skewing it. Output depends only on the trace bytes: byte-identical
// across runs and `--jobs` values of the producing bench.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/attribution.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"

namespace lithos {
namespace {

void DumpSpans(const std::vector<RequestSpan>& spans) {
  for (const RequestSpan& s : spans) {
    std::printf("req=%" PRIu64 " model=%d %s arrival=%" PRId64 "ns settle=%" PRId64
                "ns attempts=%zu winner=%d%s\n",
                s.id, s.model, RequestOutcomeName(s.outcome), s.arrival, s.settle,
                s.attempts.size(), s.winner, s.partial ? " partial" : "");
    for (const AttemptSpan& a : s.attempts) {
      std::printf("  attempt=%d node=%d zone=%d %s launch=%" PRId64 "ns finish=%" PRId64
                  "ns%s%s\n",
                  a.index, a.node, a.zone, AttemptOutcomeName(a.outcome), a.launch,
                  a.finish, a.hedge ? " hedge" : "", a.deferred ? " deferred" : "");
    }
  }
}

int Run(int argc, char** argv) {
  bool dump_spans = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spans") == 0) {
      dump_spans = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: trace_analyze <trace.bin>          # attribution tables\n"
                 "       trace_analyze --spans <trace.bin>  # also dump span trees\n");
    return 2;
  }

  TraceFile trace;
  std::string error;
  if (!ReadTraceFile(positional[0], &trace, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const TraceFileHeader& h = trace.header;
  std::printf("# lithos trace v%u: %" PRIu64 " records (%" PRIu64 " appended, %" PRIu64
              " dropped)\n",
              h.version, h.record_count, h.total, h.dropped);
  if (h.dropped > 0) {
    std::printf("# ring buffer dropped %" PRIu64
                " records; truncated requests are counted as partial\n",
                h.dropped);
  }

  SpanBuilder builder;
  const uint64_t observed = builder.ObserveAll(trace.records);
  std::printf("# request-correlation records: %" PRIu64 " of %zu\n", observed,
              trace.records.size());
  const std::vector<RequestSpan> spans = builder.Spans();
  if (dump_spans) {
    DumpSpans(spans);
  }

  LatencyAttributor attributor;
  attributor.Attribute(spans);
  std::fputs(FormatAttributionTables(attributor).c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace lithos

int main(int argc, char** argv) { return lithos::Run(argc, argv); }
