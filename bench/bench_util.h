// Shared helpers for the figure/table reproduction benches: experiment
// definitions (which models appear where), solo-baseline caching for the
// paper's normalisations, headline printing, and the grid driver the fleet
// fault-scenario benches share.
#ifndef LITHOS_BENCH_BENCH_UTIL_H_
#define LITHOS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/table.h"
#include "src/experiments/harness.h"
#include "src/experiments/sweep.h"
#include "src/fault/scenario.h"
#include "src/obs/trace.h"

namespace lithos::bench {

// --- Shared bench flags -------------------------------------------------------

// Every bench binary accepts the same flag set, parsed once up front:
//   --jobs N | --jobs=N | -j N    sweep worker count (0 = $LITHOS_JOBS / hw)
//   --trace=PATH | --trace PATH   write a binary trace (src/obs/trace.h)
//   --trace-limit=N               ring capacity in records; 0 = unbounded
//                                 segment mode (default 1M records = 32 MiB)
//   --fault-seed=N                override the fault injector's seed (fault
//                                 benches only; -1 = keep the bench default)
//   --scenario=NAME               run only grid points whose fault scenario
//                                 matches NAME (fault benches only)
//   --trace-mask=LAYERS           comma list of sim,engine,cluster,control,
//                                 fault (or `all`) selecting which layers the
//                                 recorder keeps; unset = the bench's default
// Unknown flags are ignored so benches can add their own on top.
struct BenchOptions {
  int jobs = 0;
  std::string trace_path;            // empty = tracing disabled
  long long trace_limit = 1 << 20;   // records retained in ring mode
  long long fault_seed = -1;         // -1 = bench default
  std::string scenario;              // empty = all scenarios
  uint32_t trace_mask = 0;           // 0 = bench default layer mask
};

// Parses a comma-separated layer list ("cluster,fault", "all") into a
// TraceRecorder layer mask. Returns 0 (= keep the bench default) and warns
// on any unknown layer name.
inline uint32_t ParseTraceMask(const char* flag, const std::string& value) {
  uint32_t mask = 0;
  size_t begin = 0;
  while (begin <= value.size()) {
    size_t end = value.find(',', begin);
    if (end == std::string::npos) {
      end = value.size();
    }
    const std::string name = value.substr(begin, end - begin);
    if (name == "all") {
      mask |= 0xFFFFFFFFu;  // every layer, matching the recorder's default
    } else if (name == "sim") {
      mask |= TraceRecorder::LayerBit(TraceLayer::kSim);
    } else if (name == "engine") {
      mask |= TraceRecorder::LayerBit(TraceLayer::kEngine);
    } else if (name == "cluster") {
      mask |= TraceRecorder::LayerBit(TraceLayer::kCluster);
    } else if (name == "control") {
      mask |= TraceRecorder::LayerBit(TraceLayer::kControl);
    } else if (name == "fault") {
      mask |= TraceRecorder::LayerBit(TraceLayer::kFault);
    } else {
      std::fprintf(stderr,
                   "warning: ignoring '%s %s' (unknown layer '%s'; expected a comma "
                   "list of sim,engine,cluster,control,fault or 'all')\n",
                   flag, value.c_str(), name.c_str());
      return 0;
    }
    begin = end + 1;
  }
  return mask;
}

inline BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions opts;
  opts.jobs = ParseJobsArg(argc, argv);
  auto parse_limit = [&opts](const char* flag, const char* value) {
    char* end = nullptr;
    const long long limit = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || limit < 0) {
      std::fprintf(stderr,
                   "warning: ignoring '%s %s' (expected a non-negative integer)\n",
                   flag, value);
      return;
    }
    opts.trace_limit = limit;
  };
  auto parse_seed = [&opts](const char* flag, const char* value) {
    char* end = nullptr;
    const long long seed = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || seed < 0) {
      std::fprintf(stderr,
                   "warning: ignoring '%s %s' (expected a non-negative integer)\n",
                   flag, value);
      return;
    }
    opts.fault_seed = seed;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      opts.trace_path = arg.substr(8);
    } else if (arg == "--trace" && i + 1 < argc) {
      opts.trace_path = argv[++i];
    } else if (arg.rfind("--trace-limit=", 0) == 0) {
      parse_limit("--trace-limit=", arg.c_str() + 14);
    } else if (arg == "--trace-limit" && i + 1 < argc) {
      parse_limit("--trace-limit", argv[++i]);
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      parse_seed("--fault-seed=", arg.c_str() + 13);
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      parse_seed("--fault-seed", argv[++i]);
    } else if (arg.rfind("--scenario=", 0) == 0) {
      opts.scenario = arg.substr(11);
    } else if (arg == "--scenario" && i + 1 < argc) {
      opts.scenario = argv[++i];
    } else if (arg.rfind("--trace-mask=", 0) == 0) {
      opts.trace_mask = ParseTraceMask("--trace-mask=", arg.substr(13));
    } else if (arg == "--trace-mask" && i + 1 < argc) {
      opts.trace_mask = ParseTraceMask("--trace-mask", argv[++i]);
    }
  }
  return opts;
}

// Applies the --trace-mask override to a bench's recorder; keeps the bench's
// default mask when the flag was absent (or failed to parse).
inline void ApplyTraceMask(TraceRecorder& trace, const BenchOptions& opts) {
  if (opts.trace_mask != 0) {
    trace.SetLayerMask(opts.trace_mask);
  }
}

// True when the grid point named `scenario` should run under the --scenario
// filter (empty filter = run everything).
inline bool ScenarioSelected(const BenchOptions& opts, const std::string& scenario) {
  return opts.scenario.empty() || opts.scenario == scenario;
}

// Writes the recorder to opts.trace_path with a stderr notice (stdout stays
// the byte-comparable surface). No-op when --trace was not given.
inline void WriteTraceIfRequested(const TraceRecorder& trace, const BenchOptions& opts) {
  if (opts.trace_path.empty()) {
    return;
  }
  if (trace.WriteFile(opts.trace_path)) {
    std::fprintf(stderr, "wrote %s (%zu records retained, %llu appended, %llu dropped)\n",
                 opts.trace_path.c_str(), trace.size(),
                 static_cast<unsigned long long>(trace.total()),
                 static_cast<unsigned long long>(trace.dropped()));
  } else {
    std::fprintf(stderr, "note: could not write %s\n", opts.trace_path.c_str());
  }
}

// For benches that accept the shared flags but do not record traces.
inline void NoteTraceUnsupported(const BenchOptions& opts, const char* bench) {
  if (!opts.trace_path.empty()) {
    std::fprintf(stderr, "note: %s does not record traces; --trace ignored\n", bench);
  }
}

// Measurement windows: long enough for stable percentiles, short enough that
// the full sweeps finish in minutes.
inline constexpr DurationNs kWarmup = FromSeconds(2);
inline constexpr DurationNs kDuration = FromSeconds(8);

// --- Experiment rosters (Section 6 / 7.1) -------------------------------------

// HP A candidates for inference-only stacking: ResNet, RetinaNet + the
// language models.
inline std::vector<std::string> HpACandidates() {
  return {"ResNet", "RetinaNet", "Llama 3", "GPT-J", "BERT"};
}
// HP B / BE candidates: the language models.
inline std::vector<std::string> HpBCandidates() { return {"Llama 3", "GPT-J", "BERT"}; }

// HP inference models of the hybrid experiment (Fig. 16).
inline std::vector<std::string> HybridHpModels() {
  return {"Llama 3", "RetinaNet", "GPT-J", "BERT", "YOLO"};
}

struct InferenceCombo {
  std::string hp_a;
  std::string hp_b;
  std::string be;
};

// All distinct (HP A, HP B, BE) combinations, as in Section 7.1.
inline std::vector<InferenceCombo> InferenceCombos() {
  std::vector<InferenceCombo> combos;
  for (const std::string& a : HpACandidates()) {
    for (const std::string& b : HpBCandidates()) {
      if (b == a) {
        continue;
      }
      for (const std::string& c : HpBCandidates()) {
        if (c == a || c == b) {
          continue;
        }
        combos.push_back({a, b, c});
      }
    }
  }
  return combos;
}

// --- App builders ---------------------------------------------------------------

inline AppSpec MakeHpApp(const std::string& model, AppRole role, double load_override = 0) {
  const InferenceServiceSpec svc = ServiceFor(model);
  AppSpec app;
  app.role = role;
  app.model = model;
  app.load_rps = load_override > 0 ? load_override : svc.load_rps;
  app.slo = svc.slo;
  app.max_batch = svc.max_batch;
  return app;
}

inline AppSpec MakeBeInferenceApp(const std::string& model) {
  AppSpec app;
  app.role = AppRole::kBeInference;
  app.model = model;
  app.batch_size = ServiceFor(model).max_batch;
  return app;
}

inline AppSpec MakeBeTrainingApp(const std::string& model) {
  AppSpec app;
  app.role = AppRole::kBeTraining;
  app.model = model;
  return app;
}

// --- Solo baselines ("ideal") ------------------------------------------------------

// Per-process cache of solo runs used by the figures' normalisations.
// Not thread-safe: populate it up front with Prefetch (which parallelises
// the solo runs through the sweep runner) and only call Get from the serial
// aggregation phase — never from inside a sweep point.
class SoloCache {
 public:
  const AppResult& Get(const AppSpec& app) {
    const std::string key = Key(app);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, RunSolo(app, GpuSpec::A100(), kDuration)).first;
    }
    return it->second;
  }

  // Runs the solo baselines for every distinct uncached spec in `apps`
  // across the runner's pool, inserting results in declaration order.
  void Prefetch(SweepRunner& runner, const std::vector<AppSpec>& apps) {
    std::vector<std::string> keys;
    std::vector<SweepPoint<AppResult>> points;
    for (const AppSpec& app : apps) {
      const std::string key = Key(app);
      if (cache_.count(key) > 0 ||
          std::find(keys.begin(), keys.end(), key) != keys.end()) {
        continue;
      }
      keys.push_back(key);
      points.push_back({"solo/" + key, [app] { return RunSolo(app, GpuSpec::A100(), kDuration); }});
    }
    std::vector<AppResult> results = runner.Run(points);
    for (size_t i = 0; i < keys.size(); ++i) {
      cache_.emplace(keys[i], std::move(results[i]));
    }
  }

 private:
  static std::string Key(const AppSpec& app) {
    return app.model + "/" + std::to_string(static_cast<int>(app.role)) + "/" +
           std::to_string(app.load_rps) + "/" + std::to_string(app.batch_size);
  }

  std::map<std::string, AppResult> cache_;
};

// --- Machine-readable output --------------------------------------------------

// Flat key->number emitter for the perf trajectory: each bench collects its
// headline metrics and writes bench/out/BENCH_<name>.json (override the
// directory with $LITHOS_BENCH_JSON_DIR), so CI can diff runs across commits
// instead of scraping the human-readable tables.
//
// Two metric classes, compared differently by check_bench_regression.py:
//   Metric()     — deterministic simulation outputs; byte-identical for any
//                  worker count and gated against baselines unconditionally.
//   WallMetric() — wall-clock-dependent numbers (events/sec, bench wall
//                  time); gated only when the run's recorded `jobs` matches
//                  the baseline's, so parallel runs never fail serial-era
//                  baselines.
// All status notices go to stderr: stdout is the byte-comparable surface.
class JsonEmitter {
 public:
  explicit JsonEmitter(std::string name) : name_(std::move(name)) {}

  // Records the sweep worker count (and the runner's wall clock) in the
  // emitted JSON. Benches without a sweep default to jobs = 1.
  void SetRun(int jobs, double wall_seconds) {
    jobs_ = jobs;
    wall_seconds_ = wall_seconds;
  }

  void Metric(const std::string& key, double value) {
    // Non-finite values would break downstream JSON parsers; record zero and
    // keep the run comparable.
    metrics_.emplace_back(key, std::isfinite(value) ? value : 0.0);
  }

  void WallMetric(const std::string& key, double value) {
    wall_metrics_.emplace_back(key, std::isfinite(value) ? value : 0.0);
  }

  // Writes the file; returns false (after a notice) when the path is not
  // writable so benches never fail on a read-only checkout.
  bool Write() const {
    const char* env_dir = std::getenv("LITHOS_BENCH_JSON_DIR");
    const std::string dir =
        env_dir != nullptr && env_dir[0] != '\0' ? std::string(env_dir) : "bench/out";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort; fopen reports
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "note: could not write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"jobs\": %d,\n  \"wall_seconds\": %.3f,",
                 name_.c_str(), jobs_, wall_seconds_);
    auto emit_section = [f](const char* section,
                            const std::vector<std::pair<std::string, double>>& entries,
                            const char* trailing) {
      std::fprintf(f, "\n  \"%s\": {", section);
      for (size_t i = 0; i < entries.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": %.10g", i > 0 ? "," : "", entries[i].first.c_str(),
                     entries[i].second);
      }
      std::fprintf(f, "\n  }%s", trailing);
    };
    emit_section("metrics", metrics_, ",");
    emit_section("wall_metrics", wall_metrics_, "\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  int jobs_ = 1;
  double wall_seconds_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, double>> wall_metrics_;
};

// Goodput of one fault-scenario phase: request GPU-ms served per second.
inline double PhaseGoodput(const FleetFaultResult& r, const std::string& phase) {
  return r.Rate(r.Phase(phase), "fleet/completed_request_ms");
}

// The per-phase block of one fault-scenario grid point: p99 before, during
// and after the fault, goodput before and after it, and the run's failed
// requests, each keyed `<prefix><name>`.
inline void EmitPhaseMetrics(JsonEmitter& json, const std::string& prefix,
                             const FleetFaultResult& r) {
  for (const char* phase : {"pre", "during", "post"}) {
    json.Metric(prefix + phase + "_p99_ms", r.Phase(phase).ValueOf("fleet/latency_ms/p99"));
  }
  json.Metric(prefix + "pre_goodput_ms_per_s", PhaseGoodput(r, "pre"));
  json.Metric(prefix + "post_goodput_ms_per_s", PhaseGoodput(r, "post"));
  json.Metric(prefix + "failed_requests", r.totals.ValueOf("fleet/failed"));
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==================================================================\n");
}

// --- Fleet fault-scenario benches ---------------------------------------------

// The full request-level resilience policy of the fleet benches: retries at
// the ResilienceConfig defaults, plus hedging and load shedding at a ~60 ms
// node backlog (~4x the healthy per-node backlog).
inline ResilienceConfig FullResilience() {
  ResilienceConfig rc;
  rc.enabled = true;
  rc.hedge = true;
  rc.shed_watermark_ms = 60.0;
  return rc;
}

// One grid point of a fleet bench: its sweep label, the config it runs, and
// whether it is the one point that records --trace (and feeds the span sink).
struct FleetRun {
  std::string name;
  FleetFaultConfig config;
  bool traced = false;
};

// The grid driver of the 1024-node fleet benches (faults, resilience,
// detect, remediate). A bench builds its grid, filters it with Select(),
// runs it with Run(), prints its own tables and headline checks into the
// json(), and ends with `return Finish(results)`.
class FleetBench {
 public:
  // `name` names the JSON file (bench/out/BENCH_<name>.json) and the sweep
  // summary. The recorder keeps the cluster, control and fault layers:
  // sim/engine records at 1024 nodes would flood the ring with heap churn
  // nobody reads at fleet scale (--trace-mask overrides).
  FleetBench(const std::string& name, int argc, char** argv)
      : name_(name),
        opts_(ParseBenchOptions(argc, argv)),
        runner_(opts_.jobs),
        json_(name),
        trace_(static_cast<size_t>(opts_.trace_limit)) {
    trace_.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kCluster) |
                        TraceRecorder::LayerBit(TraceLayer::kControl) |
                        TraceRecorder::LayerBit(TraceLayer::kFault));
    ApplyTraceMask(trace_, opts_);
  }

  JsonEmitter& json() { return json_; }

  // --scenario: keeps the grid points whose key(point) matches. When none
  // does, prints an error and returns false (the bench then exits 1).
  template <typename Point, typename Key>
  bool Select(std::vector<Point>& grid, Key key) const {
    grid.erase(std::remove_if(grid.begin(), grid.end(),
                              [&](const Point& p) { return !ScenarioSelected(opts_, key(p)); }),
               grid.end());
    if (grid.empty()) {
      std::fprintf(stderr, "error: --scenario '%s' matches no grid point\n",
                   opts_.scenario.c_str());
      return false;
    }
    return true;
  }

  // Runs every point through RunFleetFaultScenario on the sweep pool and
  // returns the results in declaration order. --fault-seed overrides each
  // point's injector seed. The traced point gets the recorder (when --trace
  // was given) and `spans`; one owner per sink keeps the trace bytes and
  // spans identical for any --jobs.
  std::vector<FleetFaultResult> Run(std::vector<FleetRun> runs, SpanBuilder* spans = nullptr) {
    std::vector<SweepPoint<FleetFaultResult>> points;
    for (FleetRun& run : runs) {
      FleetFaultConfig config = std::move(run.config);
      if (opts_.fault_seed >= 0) {
        config.faults.seed = static_cast<uint64_t>(opts_.fault_seed);
      }
      if (run.traced) {
        config.trace = opts_.trace_path.empty() ? nullptr : &trace_;
        config.spans = spans;
      }
      points.push_back(
          {run.name, [config = std::move(config)] { return RunFleetFaultScenario(config); }});
    }
    return runner_.Run(points);
  }

  // The closing block: simulated events across the grid (stdout and JSON),
  // the run's wall metrics, the JSON and trace files, and the sweep summary.
  int Finish(const std::vector<FleetFaultResult>& results) {
    uint64_t fired = 0;
    uint64_t scheduled = 0;
    for (const FleetFaultResult& r : results) {
      fired += r.sim.fired;
      scheduled += r.sim.scheduled;
    }
    std::printf("\nSimulated events across the grid: %llu fired / %llu scheduled\n",
                static_cast<unsigned long long>(fired),
                static_cast<unsigned long long>(scheduled));
    json_.Metric("total_events_fired", static_cast<double>(fired));
    json_.Metric("total_events_scheduled", static_cast<double>(scheduled));
    const double wall = runner_.wall_seconds();
    json_.SetRun(runner_.jobs(), wall);
    json_.WallMetric("sweep_wall_seconds", wall);
    json_.WallMetric("events_per_wall_second", wall > 0 ? fired / wall : 0.0);
    json_.Write();
    WriteTraceIfRequested(trace_, opts_);
    runner_.PrintSummary(name_);
    return 0;
  }

 private:
  std::string name_;
  BenchOptions opts_;
  SweepRunner runner_;
  JsonEmitter json_;
  TraceRecorder trace_;
};

}  // namespace lithos::bench

#endif  // LITHOS_BENCH_BENCH_UTIL_H_
