// trace_export: convert a binary LithOS trace (src/obs/trace.h) to text or
// Chrome/Perfetto trace-event JSON.
//
//   trace_export <trace.bin>                  one text line per record
//   trace_export --chrome <trace.bin> [out]   Chrome JSON (stdout by default)
//
// The Chrome export: pid = zone + 1 (0 = fleet-wide), tid = node + 1,
// complete ("X") spans reconstructed from the duration payloads of
// kGrantComplete / kNodeRevive / kNodeHeal / kRemedyDrainDone, flow events
// ("s"/"t"/"f", id = request id) for the request-correlation records so
// Perfetto draws causal arrows, instants ("i") named by TraceKindName for
// everything else, and timestamps in microseconds (Chrome's unit) at
// nanosecond precision.
// Output depends only on the trace bytes, so it is as deterministic as the
// trace itself.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace lithos {
namespace {

int ExportText(const TraceFile& trace) {
  const TraceFileHeader& h = trace.header;
  std::printf("# lithos trace v%u: %" PRIu64 " records (%" PRIu64 " appended, %" PRIu64
              " dropped)\n",
              h.version, h.record_count, h.total, h.dropped);
  for (const TraceRecord& r : trace.records) {
    std::printf("t=%" PRId64 "ns %-8s %-20s node=%d zone=%d arg=%d payload=%" PRId64 "\n",
                r.time_ns, TraceLayerName(static_cast<TraceLayer>(r.layer)),
                TraceKindName(static_cast<TraceKind>(r.kind)), r.node, r.zone, r.arg,
                r.payload);
  }
  return 0;
}

// Spans are emitted for record kinds that carry their own duration: the
// record marks the *end* of the activity and the payload its length in ns.
bool SpanDurationNs(const TraceRecord& r, int64_t* duration_ns, const char** name) {
  switch (static_cast<TraceKind>(r.kind)) {
    case TraceKind::kGrantComplete:
      *duration_ns = r.payload;
      *name = "grant";
      return true;
    case TraceKind::kNodeRevive:
      *duration_ns = r.payload;
      *name = "node-down";
      return true;
    case TraceKind::kNodeHeal:
      *duration_ns = r.payload;
      *name = "partitioned";
      return true;
    case TraceKind::kRemedyDrainDone:
      *duration_ns = r.payload;
      *name = "remedy-drain";
      return true;
    default:
      return false;
  }
}

int ExportChrome(const TraceFile& trace, std::FILE* out) {
  std::fprintf(out, "{\"traceEvents\":[");
  bool first = true;
  auto sep = [&first, out] {
    if (!first) {
      std::fputc(',', out);
    }
    first = false;
    std::fputc('\n', out);
  };

  // Track naming: one process per zone (pid 0 = fleet-wide records), one
  // thread per node (tid 0 = node-less records on that zone's track).
  int max_zone = -1;
  for (const TraceRecord& r : trace.records) {
    max_zone = r.zone > max_zone ? r.zone : max_zone;
  }
  for (int zone = -1; zone <= max_zone; ++zone) {
    sep();
    std::fprintf(out,
                 "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":\"%s%d"
                 "\"}}",
                 zone + 1, zone < 0 ? "fleet" : "zone ", zone < 0 ? 0 : zone);
  }

  for (const TraceRecord& r : trace.records) {
    const int pid = r.zone + 1;
    const int tid = r.node + 1;
    const char* kind = TraceKindName(static_cast<TraceKind>(r.kind));
    const char* layer = TraceLayerName(static_cast<TraceLayer>(r.layer));
    int64_t duration_ns = 0;
    const char* span_name = nullptr;
    // Request-correlation records become Chrome flow events so Perfetto can
    // draw each request's causal arrows across nodes and zones: the first
    // primary launch starts the flow ("s"), every later launch (retry or
    // hedge) is a step ("t"), and the completion finishes it ("f"). The flow
    // id is the request id (payload), which the recorder scopes to the run.
    // Still one JSON event per record (after the per-zone metadata events).
    const char* flow_ph = nullptr;
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kReqAttemptLaunch:
        flow_ph = ReqArgAttempt(r.arg) == 0 && !ReqArgFlag(r.arg) ? "s" : "t";
        break;
      case TraceKind::kReqComplete:
        flow_ph = "f";
        break;
      default:
        break;
    }
    sep();
    if (flow_ph != nullptr) {
      std::fprintf(out,
                   "{\"ph\":\"%s\",\"id\":%" PRId64
                   ",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,%s"
                   "\"name\":\"req\",\"cat\":\"%s\",\"args\":{\"arg\":%d,\"payload\":%" PRId64
                   "}}",
                   flow_ph, r.payload, pid, tid, r.time_ns / 1e3,
                   flow_ph[0] == 'f' ? "\"bp\":\"e\"," : "", layer, r.arg, r.payload);
    } else if (SpanDurationNs(r, &duration_ns, &span_name)) {
      const int64_t begin_ns = r.time_ns - duration_ns;
      std::fprintf(out,
                   "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"name\":\"%s\",\"cat\":\"%s\",\"args\":{\"arg\":%d,\"payload\":%" PRId64
                   "}}",
                   pid, tid, begin_ns / 1e3, duration_ns / 1e3, span_name, layer, r.arg,
                   r.payload);
    } else {
      std::fprintf(out,
                   "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\","
                   "\"name\":\"%s\",\"cat\":\"%s\",\"args\":{\"arg\":%d,\"payload\":%" PRId64
                   "}}",
                   pid, tid, r.time_ns / 1e3, kind, layer, r.arg, r.payload);
    }
  }
  std::fprintf(out, "\n]}\n");
  return 0;
}

int Run(int argc, char** argv) {
  bool chrome = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chrome") == 0) {
      chrome = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || positional.size() > 2 || (!chrome && positional.size() != 1)) {
    std::fprintf(stderr,
                 "usage: trace_export <trace.bin>            # text dump\n"
                 "       trace_export --chrome <trace.bin> [out.json]\n");
    return 2;
  }

  TraceFile trace;
  std::string error;
  if (!ReadTraceFile(positional[0], &trace, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!chrome) {
    return ExportText(trace);
  }
  std::FILE* out = stdout;
  if (positional.size() == 2) {
    out = std::fopen(positional[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", positional[1]);
      return 1;
    }
  }
  const int rc = ExportChrome(trace, out);
  if (out != stdout) {
    std::fclose(out);
  }
  return rc;
}

}  // namespace
}  // namespace lithos

int main(int argc, char** argv) { return lithos::Run(argc, argv); }
