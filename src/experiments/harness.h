// Shared experiment harness: sets up the full stack (simulator -> execution
// engine -> driver -> scheduling backend -> workloads), runs stacking
// scenarios, and collects per-app metrics. Every figure bench builds on this
// so all nine systems are measured under identical conditions (Section 7's
// apples-to-apples requirement).
#ifndef LITHOS_EXPERIMENTS_HARNESS_H_
#define LITHOS_EXPERIMENTS_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/driver/backend.h"
#include "src/driver/driver.h"
#include "src/gpu/execution_engine.h"
#include "src/gpu/gpu_spec.h"
#include "src/workloads/clients.h"
#include "src/workloads/zoo.h"

namespace lithos {

// --- System registry ---------------------------------------------------------

enum class SystemKind {
  kMps,
  kTimeslice,
  kMig,
  kLimits,
  kPriority,
  kReef,
  kTgs,
  kOrion,
  kLithos,
};

std::string SystemName(SystemKind kind);
// All nine systems in the paper's presentation order.
std::vector<SystemKind> AllSystems();

std::unique_ptr<Backend> MakeBackend(SystemKind kind, Simulator* sim, ExecutionEngine* engine,
                                     const LithosConfig& lithos_config);

// --- GpuNode -----------------------------------------------------------------

// One GPU's worth of stack (engine, driver, scheduling backend) on a shared
// simulator: the unit RunStacking runs alone and ClusterDispatcher
// replicates across a fleet.
class GpuNode {
 public:
  GpuNode(Simulator* sim, int id, const GpuSpec& spec, SystemKind system,
          const LithosConfig& config);
  GpuNode(const GpuNode&) = delete;
  GpuNode& operator=(const GpuNode&) = delete;

  int id() const { return id_; }
  Simulator* sim() const { return sim_; }
  ExecutionEngine* engine() { return &engine_; }
  Driver* driver() { return &driver_; }
  Backend* backend() { return backend_.get(); }
  SystemKind system() const { return system_; }

 private:
  Simulator* sim_;
  int id_;
  SystemKind system_;
  ExecutionEngine engine_;
  Driver driver_;
  std::unique_ptr<Backend> backend_;
};

// --- App specification ----------------------------------------------------------

enum class AppRole {
  kHpLatency,      // latency-SLO inference service (HP A)
  kHpThroughput,   // throughput-SLO inference service (HP B)
  kBeInference,    // closed-loop best-effort inference
  kBeTraining,     // closed-loop best-effort training
};

struct AppSpec {
  // How long a dynamic batch waits to fill before it launches.
  static constexpr DurationNs kBatchDelay = FromMillis(2);

  AppRole role = AppRole::kHpLatency;
  std::string model;           // zoo name
  double load_rps = 0;         // open-loop roles only
  DurationNs slo = 0;          // latency constraint (0 = none)
  int max_batch = 8;           // dynamic batching cap (ignored for LLMs)
  int batch_size = 8;          // closed-loop inference batch
  int quota_tpcs = 0;          // guaranteed TPCs (LithOS) / partition (MIG, Limits)

  bool IsHighPriority() const {
    return role == AppRole::kHpLatency || role == AppRole::kHpThroughput;
  }
  bool IsOpenLoop() const { return IsHighPriority(); }
};

// --- Results ----------------------------------------------------------------------

struct AppResult {
  std::string model;
  AppRole role = AppRole::kHpLatency;
  DurationNs slo = 0;

  // Open-loop metrics.
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double throughput_rps = 0;
  double goodput_rps = 0;
  double slo_attainment = 1.0;
  uint64_t completed = 0;

  // Closed-loop metrics.
  double iterations_per_s = 0;
  double iteration_p50_ms = 0;
};

struct StackingResult {
  SystemKind system = SystemKind::kMps;
  std::vector<AppResult> apps;
  EngineStats engine;
  double measured_seconds = 0;
  SimCounters sim;  // event-core work done by the whole run

  // LithOS-only diagnostics (zero for other systems): online latency
  // predictor accuracy (§7.4) and scheduler counters.
  uint64_t predictor_predictions = 0;
  double predictor_mispred_rate = 0;
  double predictor_err_p99_us = 0;
  // Operators the predictor learned and the signature comparisons its
  // lookups made over the whole run (its index's work count).
  uint64_t predictor_operators = 0;
  uint64_t predictor_signature_compares = 0;
  uint64_t atoms_dispatched = 0;
  uint64_t tpcs_stolen = 0;
};

struct StackingConfig {
  SystemKind system = SystemKind::kMps;
  GpuSpec spec = GpuSpec::A100();
  LithosConfig lithos;              // feature toggles (ablation, right-sizing, DVFS)
  DurationNs warmup = FromSeconds(2);
  DurationNs duration = FromSeconds(10);  // measured window after warmup
  uint64_t seed = 42;

  // Optional binary trace sink: the simulator core and the engine
  // append to it (records derive only from sim state, so the bytes are
  // identical across runs and `--jobs` values for the same config).
  TraceRecorder* trace = nullptr;
};

// Runs a multi-tenant stacking scenario and returns per-app metrics.
StackingResult RunStacking(const StackingConfig& config, const std::vector<AppSpec>& apps);

// Runs one app alone on the device (native scheduling, no interference) to
// obtain the normalisation baselines the paper's figures use ("ideal").
AppResult RunSolo(const AppSpec& app, const GpuSpec& spec = GpuSpec::A100(),
                  DurationNs duration = FromSeconds(10), uint64_t seed = 42);

// --- Experiment definitions shared across benches ---------------------------------

// Table 2 inference service spec for a model name (load, SLO, batching).
InferenceServiceSpec ServiceFor(const std::string& model);

// Hybrid-experiment load (requests/s) tuned to keep the HP service near 80%
// device utilization when alone (Section 7.1, hybrid setup).
double HybridLoadRps(const std::string& model);

// Standard quota assignments from Section 7.1.
// Inference-only: HP A 75%, HP B 25% (MIG uses a 4/7-3/7 GPC split).
void AssignInferenceOnlyQuotas(SystemKind system, const GpuSpec& spec, AppSpec* hp_a,
                               AppSpec* hp_b, AppSpec* be);
// Hybrid: partitioned systems split 50/50; LithOS guarantees the HP app.
void AssignHybridQuotas(SystemKind system, const GpuSpec& spec, AppSpec* hp, AppSpec* be);

}  // namespace lithos

#endif  // LITHOS_EXPERIMENTS_HARNESS_H_
