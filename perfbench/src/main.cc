// Repo benchmark runner.
//
//   perfbench --workload <stack|region|diurnal> --seed <n> --seconds <s>
//             --trace <0|1> [--expect <hash>]
//
// Repeats the workload (set-up, horizon, drain) until `--seconds` of host
// time have passed and reports medians. --trace 0 prints the end-to-end
// metrics of untraced repetitions; --trace 1 alternates untraced and traced
// repetitions and prints the per-layer metrics. Human-readable lines come
// first; the last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// `--expect` is the recorded output hash for the seed (perfbench/run.py
// passes it for the default seed); every other check runs on any seed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/timing.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::optional<uint64_t> expect;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <stack|region|diurnal> --seed <n> "
               "--seconds <s> --trace <0|1> [--expect <hex hash>]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--expect") {
      o.expect = std::strtoull(value, nullptr, 16);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    Usage("unknown --workload");
  }
  if (!(o.seconds > 0)) {
    Usage("--seconds must be positive");
  }
  return o;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// run_s of several repetitions of one seed: for each slice of simulated
// time, the fastest repetition's host time, summed over the slices. Other
// tenants of the host only ever add time, in episodes shorter than a
// repetition; the per-slice minimum drops them where a median of whole
// repetitions keeps them (eight 30 s runs of region on a shared 4-vCPU host:
// the quartile spread fell from 0.23 to 0.05 of the median).
double SliceMinSum(const std::vector<std::vector<double>>& reps) {
  double total = 0;
  for (size_t i = 0; i < reps.front().size(); ++i) {
    double best = reps.front()[i];
    for (const std::vector<double>& slices : reps) {
      best = std::min(best, slices[i]);
    }
    total += best;
  }
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;  // empty = missing
  std::string note;             // shown beside the value; the reason when missing
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           const std::string& note = "") {
    metrics_.push_back({name, unit, value, note});
  }
  void Missing(const std::string& name, const std::string& unit, const std::string& why) {
    metrics_.push_back({name, unit, std::nullopt, why});
  }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      if (m.value) {
        std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), *m.value, m.unit.c_str(),
                    m.note.c_str());
      } else {
        std::printf("  %-34s %16s %-6s missing: %s\n", m.name.c_str(), "-", m.unit.c_str(),
                    m.note.c_str());
      }
    }
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[64];
      if (m.value) {
        std::snprintf(value, sizeof(value), "%.17g", *m.value);
      } else {
        std::snprintf(value, sizeof(value), "null");
      }
      json += (i > 0 ? ", " : "") + ("\"" + m.name + "\": {\"value\": ") + value +
              ", \"unit\": \"" + m.unit + "\"";
      if (!m.value) {
        json += ", \"missing\": \"" + m.note + "\"";
      }
      json += "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

// Checks every repetition of one invocation shares. A failing repetition
// counts all of its requests as failed.
struct Checks {
  bool ok = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Judge(const Rep& rep, uint64_t first_hash, const Options& o, const char* label) {
    const bool hash_ok = rep.hash == first_hash && (!o.expect || rep.hash == *o.expect);
    const bool rep_ok = hash_ok && rep.ledger_ok && rep.spans_ok;
    attempted += rep.requests;
    if (!rep_ok) {
      ok = false;
      failed += rep.requests;
      std::printf("FAILED %s repetition: hash %016llx (%s) ledger %s spans %s\n", label,
                  static_cast<unsigned long long>(rep.hash), hash_ok ? "ok" : "MISMATCH",
                  rep.ledger_ok ? "ok" : "BROKEN", rep.spans_ok ? "ok" : "BROKEN");
    }
  }
};

void PrintRepSummary(const Options& o, const Rep& rep, size_t reps) {
  std::printf("workload=%s seed=%llu repetitions=%zu\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), reps);
  std::printf("output hash %016llx%s\n", static_cast<unsigned long long>(rep.hash),
              !o.expect ? " (no recorded hash for this seed)"
              : rep.hash == *o.expect ? " (matches the recorded hash)"
                                      : " (DIFFERS from the recorded hash)");
  std::printf("ledger: %s [%s]\n", rep.ledger.c_str(), rep.ledger_ok ? "ok" : "BROKEN");
  if (rep.spans_checked) {
    std::printf("spans:  %s [%s]\n", rep.spans.c_str(), rep.spans_ok ? "ok" : "BROKEN");
  }
  std::printf("split-half: p99 %.3f | %.3f ms, completed %.1f | %.1f /s [%s]\n",
              rep.half_p99_ms[0], rep.half_p99_ms[1], rep.half_rate[0], rep.half_rate[1],
              rep.stationary ? "stationary" : "FLAG: window not stationary");
}

int RunUntraced(const Options& o) {
  std::vector<Rep> reps;
  std::vector<double> run_s, setup_s;
  std::vector<std::vector<double>> slices;
  const int64_t start = HostNowNs();
  Checks checks;
  do {
    reps.push_back(RunWorkload(o.workload, o.seed, nullptr));
    run_s.push_back(reps.back().run_s);
    setup_s.push_back(reps.back().setup_s);
    slices.push_back(reps.back().slice_s);
    checks.Judge(reps.back(), reps.front().hash, o, "untraced");
    // Keep only the first repetition's outputs; the rest must equal them.
    if (reps.size() > 1) {
      reps.pop_back();
    }
  } while (run_s.size() < 3 || HostSecondsSince(start) < o.seconds);
  const Rep& rep = reps.front();
  PrintRepSummary(o, rep, run_s.size());
  std::printf("run_s of whole repetitions: min %.4f median %.4f max %.4f s\n",
              *std::min_element(run_s.begin(), run_s.end()), Median(run_s),
              *std::max_element(run_s.begin(), run_s.end()));

  std::printf("latency: p50 %.4f ms, mean %.4f ms, p99 %.4f ms over %llu samples\n",
              rep.p50_ms, rep.mean_ms, rep.p99_ms,
              static_cast<unsigned long long>(rep.latency_samples));
  char samples[96];
  std::snprintf(samples, sizeof(samples), "n=%llu samples (p50 %.4f ms)",
                static_cast<unsigned long long>(rep.latency_samples), rep.p50_ms);
  char beyond[96];
  std::snprintf(beyond, sizeof(beyond), "n=%llu samples, %llu beyond",
                static_cast<unsigned long long>(rep.latency_samples),
                static_cast<unsigned long long>(rep.latency_samples / 100));
  Report report;
  report.Add("run_s", "s", SliceMinSum(slices), "sum of per-slice minimums");
  report.Add("setup_s", "s", Median(setup_s), "median of repetitions");
  report.Add("peak_rss_mb", "MB", PeakRssMb());
  report.Add("mean_ms", "ms", rep.mean_ms, samples);
  report.Add("p99_ms", "ms", rep.p99_ms, beyond);
  report.Add("slo_attainment", "fraction", rep.slo_attainment);
  report.Add("goodput_per_gpu", "work/s", rep.goodput_per_gpu,
             o.workload == "stack" ? "BE iterations/s" : "request GPU-ms per powered GPU-s");
  report.Add("joules_per_request", "J", rep.joules_per_request);
  report.Add("completed_frac", "fraction", rep.completed_frac, "1 - (failed + shed)/dispatched");
  report.Print(checks.ok, checks.attempted, checks.failed);
  return 0;
}

// Per-layer numbers of one traced repetition that are host times.
struct TracedTimes {
  double sim_self_s = 0;
  double ns_per_grant = 0;
  double dispatch_ns = 0;
  double lithos_ready_ns = 0;
  double baseline_ready_ns = 0;
  double detect_tick_us = 0;
  double remedy_tick_us = 0;
  double arm_s = 0;
  double build_s = 0;
  double unattributed = 0;
};

double MeanNs(const SiteClock::Totals& t) {
  return t.calls > 0 ? static_cast<double>(t.total_ns) / static_cast<double>(t.calls) : 0.0;
}

bool SameCounters(const lithos::SimCounters& a, const lithos::SimCounters& b) {
  return a.scheduled == b.scheduled && a.fired == b.fired && a.canceled == b.canceled &&
         a.rescheduled == b.rescheduled;
}

int RunTraced(const Options& o) {
  std::vector<std::vector<double>> untraced_slices, traced_slices;
  std::vector<TracedTimes> times;
  Checks checks;
  uint64_t first_hash = 0;
  Rep last;
  SiteClock::Totals lithos_ready, baseline_ready;
  EngineProfile engine;
  std::vector<uint64_t> layer_records(lithos::kNumTraceLayers, 0);
  bool replay_ok = true;
  bool probe_ok = true;
  const int64_t start = HostNowNs();
  do {
    const Rep plain = RunWorkload(o.workload, o.seed, nullptr);
    if (untraced_slices.empty()) {
      first_hash = plain.hash;
    }
    untraced_slices.push_back(plain.slice_s);
    checks.Judge(plain, first_hash, o, "untraced");

    Instruments inst;
    Rep rep = RunWorkload(o.workload, o.seed, &inst);
    checks.Judge(rep, first_hash, o, "traced");
    traced_slices.push_back(rep.slice_s);
    TracedTimes t;
    t.arm_s = rep.arm_s;
    t.build_s = rep.build_s;
    t.dispatch_ns = MeanNs(inst.clock.totals(Site::kDispatch));
    t.lithos_ready_ns = MeanNs(inst.clock.totals(Site::kLithosReady));
    t.baseline_ready_ns = MeanNs(inst.clock.totals(Site::kBaselineReady));
    t.detect_tick_us = MeanNs(inst.clock.totals(Site::kDetectTick)) / 1e3;
    t.remedy_tick_us = MeanNs(inst.clock.totals(Site::kRemedyTick)) / 1e3;
    t.unattributed = 1.0 - static_cast<double>(inst.clock.covered_ns()) * 1e-9 / rep.run_s;
    lithos_ready = inst.clock.totals(Site::kLithosReady);
    baseline_ready = inst.clock.totals(Site::kBaselineReady);

    const std::vector<lithos::TraceRecord> records = inst.trace.Records();
    inst.trace.Clear();
    std::fill(layer_records.begin(), layer_records.end(), 0);
    for (const lithos::TraceRecord& r : records) {
      ++layer_records[r.layer];
    }
    std::vector<double> replay_s;
    for (int i = 0; i < 3; ++i) {
      const SimReplay replay = ReplaySim(records);
      replay_ok = replay_ok && SameCounters(replay.counters, rep.sim);
      replay_s.push_back(replay.seconds);
    }
    t.sim_self_s = *std::min_element(replay_s.begin(), replay_s.end());
    engine = ProfileEngine(records);
    const GpuProbe probe = ProbeEngine(engine, lithos::GpuSpec::A100());
    probe_ok = probe_ok && probe.histogram == engine.histogram;
    t.ns_per_grant = probe.ns_per_grant;
    times.push_back(t);
    last = std::move(rep);
  } while (HostSecondsSince(start) < o.seconds);

  PrintRepSummary(o, last, times.size());
  std::printf("sim replay self-check: %s; gpu probe self-check: %s (concurrency %.2f)\n",
              replay_ok ? "counters reproduced" : "COUNTERS DIFFER",
              probe_ok ? "histogram reproduced" : "HISTOGRAM DIFFERS", engine.mean_concurrency);

  // Host times take the fastest traced repetition, like run_s.
  auto fastest = [&times](double TracedTimes::*field) {
    double best = times.front().*field;
    for (const TracedTimes& t : times) {
      best = std::min(best, t.*field);
    }
    return best;
  };
  const double untraced = SliceMinSum(untraced_slices);
  const double traced = SliceMinSum(traced_slices);
  const double requests = static_cast<double>(std::max<uint64_t>(1, last.requests));
  const lithos::SimCounters& sim = last.sim;
  const auto count = [&last](const char* name) { return last.counts.at(name); };

  Report report;
  report.Add("sim.fired", "count", static_cast<double>(sim.fired));
  report.Add("sim.scheduled", "count", static_cast<double>(sim.scheduled));
  report.Add("sim.canceled", "count", static_cast<double>(sim.canceled));
  report.Add("sim.rescheduled", "count", static_cast<double>(sim.rescheduled));
  report.Add("sim.cancel_ratio", "ratio",
             sim.scheduled > 0 ? static_cast<double>(sim.canceled) / sim.scheduled : 0.0);
  const char* replay_missing = "replay did not reproduce the traced SimCounters";
  if (replay_ok) {
    report.Add("sim.self_s", "s", fastest(&TracedTimes::sim_self_s), "bare-Simulator replay");
    report.Add("sim.share", "ratio", fastest(&TracedTimes::sim_self_s) / untraced,
               "of untraced run_s");
  } else {
    report.Missing("sim.self_s", "s", replay_missing);
    report.Missing("sim.share", "ratio", replay_missing);
  }

  report.Add("gpu.launches", "count", static_cast<double>(engine.launches));
  report.Add("gpu.aborts", "count", static_cast<double>(engine.aborts));
  report.Add("gpu.checkpoints_per_launch", "ratio",
             engine.launches > 0 ? static_cast<double>(engine.checkpoints) / engine.launches
                                 : 0.0);
  report.Add("gpu.mean_grant_tpcs", "tpcs", engine.mean_grant_tpcs);
  report.Add("gpu.dvfs_applies", "count", static_cast<double>(engine.dvfs_applies));
  report.Add("gpu.tpc_util", "ratio", count("gpu.tpc_util"), "busy TPC-s / capacity, window");
  if (probe_ok) {
    report.Add("gpu.ns_per_grant", "ns", fastest(&TracedTimes::ns_per_grant),
               "bare-engine probe");
  } else {
    report.Missing("gpu.ns_per_grant", "ns", "probe did not reproduce the grant-size histogram");
  }

  report.Add("driver.launches_per_request", "ratio", count("driver.launches_per_request"));

  report.Add("core.ready_calls", "count", static_cast<double>(lithos_ready.calls));
  report.Add("core.ready_ns", "ns", fastest(&TracedTimes::lithos_ready_ns),
             lithos_ready.calls > 0 ? "per outermost call" : "no LithOS backend calls");
  report.Add("core.atoms", "count", count("core.atoms"));
  report.Add("core.tpcs_stolen", "count", count("core.tpcs_stolen"));
  report.Add("core.mispredict_rate", "ratio", count("core.mispredict_rate"));
  report.Add("baselines.ready_calls", "count", static_cast<double>(baseline_ready.calls));
  report.Add("baselines.ready_ns", "ns", fastest(&TracedTimes::baseline_ready_ns),
             baseline_ready.calls > 0 ? "per outermost call" : "no baseline backend calls");

  report.Add("cluster.dispatch_ns", "ns", fastest(&TracedTimes::dispatch_ns),
             o.workload == "stack" ? "no dispatcher" : "per Dispatch()");
  report.Add("cluster.attempts_per_request", "ratio", count("cluster.attempts_per_request"));
  report.Add("cluster.retries", "count", count("cluster.retries"));
  report.Add("cluster.hedge_win_ratio", "ratio", count("cluster.hedge_win_ratio"));
  report.Add("cluster.timeouts", "count", count("cluster.timeouts"));
  report.Add("cluster.shed", "count", count("cluster.shed"));
  report.Add("cluster.switches_per_request", "ratio", count("cluster.switches_per_request"));
  report.Add("cluster.failed_frac", "ratio", count("cluster.failed_frac"),
             "(failed + shed) / dispatched");

  report.Add("autoscale.migrations", "count", count("autoscale.migrations"));
  report.Add("autoscale.power_cycles", "count", count("autoscale.power_cycles"));
  report.Add("autoscale.mean_powered_on", "nodes", count("autoscale.mean_powered_on"));
  report.Add("autoscale.provisioned_util", "ratio", count("autoscale.provisioned_util"));

  report.Add("fault.applied", "count", count("fault.applied"));
  report.Add("fault.arm_s", "s", fastest(&TracedTimes::arm_s));

  report.Add("obs.detect_tick_us", "us", fastest(&TracedTimes::detect_tick_us));
  report.Add("obs.verdicts", "count", count("obs.verdicts"));
  for (int layer = 0; layer < lithos::kNumTraceLayers; ++layer) {
    const char* layer_name = lithos::TraceLayerName(static_cast<lithos::TraceLayer>(layer));
    report.Add(std::string("obs.records_per_request.") + layer_name, "ratio",
               static_cast<double>(layer_records[static_cast<size_t>(layer)]) / requests);
  }
  report.Add("obs.trace_overhead", "ratio", traced / untraced - 1.0,
             "traced / untraced run_s - 1");

  report.Add("remediate.tick_us", "us", fastest(&TracedTimes::remedy_tick_us));
  report.Add("remediate.actions", "count", count("remediate.actions"));
  report.Add("remediate.rollbacks", "count", count("remediate.rollbacks"));
  report.Add("remediate.deferrals", "count", count("remediate.deferrals"));

  report.Add("workloads.requests", "count", count("workloads.requests"));
  report.Add("workloads.build_s", "s", fastest(&TracedTimes::build_s));
  std::vector<double> unattributed;
  for (const TracedTimes& t : times) {
    unattributed.push_back(t.unattributed);
  }
  report.Add("unattributed_share", "ratio", Median(unattributed),
             "traced run_s not inside a timed call");
  report.Print(checks.ok, checks.attempted, checks.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::Parse(argc, argv);
  return options.trace ? perfbench::RunTraced(options) : perfbench::RunUntraced(options);
}
