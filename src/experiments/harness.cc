#include "src/experiments/harness.h"

#include <algorithm>

#include "src/baselines/concurrent_backends.h"
#include "src/baselines/partition_backend.h"
#include "src/baselines/timeslice_backend.h"
#include "src/common/check.h"
#include "src/core/lithos_backend.h"

namespace lithos {

std::string SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kMps:
      return "MPS";
    case SystemKind::kTimeslice:
      return "Time slicing";
    case SystemKind::kMig:
      return "MIG";
    case SystemKind::kLimits:
      return "Limits";
    case SystemKind::kPriority:
      return "Priority";
    case SystemKind::kReef:
      return "REEF";
    case SystemKind::kTgs:
      return "TGS";
    case SystemKind::kOrion:
      return "Orion";
    case SystemKind::kLithos:
      return "LithOS";
  }
  return "?";
}

std::vector<SystemKind> AllSystems() {
  return {SystemKind::kMps,    SystemKind::kTimeslice, SystemKind::kMig,
          SystemKind::kLimits, SystemKind::kPriority,  SystemKind::kReef,
          SystemKind::kTgs,    SystemKind::kOrion,     SystemKind::kLithos};
}

std::unique_ptr<Backend> MakeBackend(SystemKind kind, Simulator* sim, ExecutionEngine* engine,
                                     const LithosConfig& lithos_config) {
  switch (kind) {
    case SystemKind::kMps:
      return std::make_unique<MpsBackend>(sim, engine);
    case SystemKind::kTimeslice:
      return std::make_unique<TimesliceBackend>(sim, engine);
    case SystemKind::kMig:
      return std::make_unique<PartitionBackend>(sim, engine, PartitionBackend::Mode::kMig);
    case SystemKind::kLimits:
      return std::make_unique<PartitionBackend>(sim, engine, PartitionBackend::Mode::kLimits);
    case SystemKind::kPriority:
      return std::make_unique<PriorityBackend>(sim, engine);
    case SystemKind::kReef:
      return std::make_unique<ReefBackend>(sim, engine);
    case SystemKind::kTgs:
      return std::make_unique<TgsBackend>(sim, engine);
    case SystemKind::kOrion:
      return std::make_unique<OrionBackend>(sim, engine);
    case SystemKind::kLithos:
      return std::make_unique<LithosBackend>(sim, engine, lithos_config);
  }
  return nullptr;
}

GpuNode::GpuNode(Simulator* sim, int id, const GpuSpec& spec, SystemKind system,
                 const LithosConfig& config)
    : sim_(sim),
      id_(id),
      system_(system),
      engine_(sim, spec),
      driver_(sim, &engine_),
      backend_(MakeBackend(system, sim, &engine_, config)) {
  driver_.SetBackend(backend_.get());
}

namespace {

bool IsLlm(const std::string& model) { return model == "Llama 3" || model == "GPT-J"; }

// Builds the open-loop serving stack for an HP app; returns the arrival hook.
struct ServingApp {
  std::unique_ptr<BatchingInferenceServer> batching;
  std::unique_ptr<LlmInferenceServer> llm;
  std::unique_ptr<PoissonArrivals> arrivals;
  std::unique_ptr<RequestRecorder> recorder;
};

ServingApp MakeServingApp(Driver* driver, Client* client, const AppSpec& app, const GpuSpec& spec,
                          uint64_t seed, TimeNs horizon) {
  ServingApp serving;
  serving.recorder = std::make_unique<RequestRecorder>();
  if (IsLlm(app.model)) {
    const bool is_llama = app.model == "Llama 3";
    auto factory = [&spec, is_llama](const LlmRequestShape& shape) {
      return is_llama ? MakeLlama3Inference(spec, shape.prompt_len, shape.output_len)
                      : MakeGptJInference(spec, shape.prompt_len, shape.output_len);
    };
    serving.llm = std::make_unique<LlmInferenceServer>(driver, client, factory, seed * 7 + 1,
                                                       serving.recorder.get());
    LlmInferenceServer* server = serving.llm.get();
    serving.arrivals = std::make_unique<PoissonArrivals>(driver->sim(), app.load_rps, seed,
                                                         [server] { server->Submit(); });
  } else {
    const std::string model = app.model;
    auto factory = [&spec, model](int batch) { return MakeInferenceByName(model, spec, batch); };
    serving.batching = std::make_unique<BatchingInferenceServer>(
        driver, client, factory, app.max_batch, AppSpec::kBatchDelay, serving.recorder.get());
    BatchingInferenceServer* server = serving.batching.get();
    serving.arrivals = std::make_unique<PoissonArrivals>(driver->sim(), app.load_rps, seed,
                                                         [server] { server->Submit(); });
  }
  serving.arrivals->Start(horizon);
  return serving;
}

ModelProfileRef BeProfile(const AppSpec& app, const GpuSpec& spec) {
  if (app.role == AppRole::kBeTraining) {
    return MakeTrainingByName(app.model, spec);
  }
  // BE inference in a closed loop: LLMs use the medium trace bucket.
  if (IsLlm(app.model)) {
    return MakeInferenceByName(app.model, spec, 1);
  }
  return MakeInferenceByName(app.model, spec, app.batch_size);
}

AppResult CollectOpenLoop(const AppSpec& app, const RequestRecorder& rec, TimeNs horizon) {
  AppResult r;
  r.model = app.model;
  r.role = app.role;
  r.slo = app.slo;
  const PercentileDigest& lat = rec.latency_ms();
  if (lat.empty() && rec.issued() > 0) {
    // Total starvation: no request completed inside the window. Censor the
    // latency at the window length (a lower bound) instead of reporting 0.
    const double censored = ToMillis(horizon);
    r.p50_ms = r.p95_ms = r.p99_ms = r.mean_ms = censored;
    r.slo_attainment = 0.0;
    return r;
  }
  r.p50_ms = lat.Percentile(50);
  r.p95_ms = lat.P95();
  r.p99_ms = lat.P99();
  r.mean_ms = lat.Mean();
  r.completed = rec.completed();
  r.throughput_rps = rec.Throughput(horizon);
  r.goodput_rps = app.slo > 0 ? rec.Goodput(horizon, app.slo) : r.throughput_rps;
  r.slo_attainment = app.slo > 0 ? rec.SloAttainment(app.slo) : 1.0;
  return r;
}

}  // namespace

StackingResult RunStacking(const StackingConfig& config, const std::vector<AppSpec>& apps) {
  Simulator sim;
  sim.SetTrace(config.trace);
  const TimeNs horizon = config.warmup + config.duration;
  GpuNode node(&sim, /*id=*/0, config.spec, config.system, config.lithos);
  node.engine()->SetTrace(config.trace, /*node=*/0, /*zone=*/-1);
  Driver* driver = node.driver();

  std::vector<ServingApp> serving(apps.size());
  std::vector<std::unique_ptr<ClosedLoopRunner>> runners(apps.size());

  for (size_t i = 0; i < apps.size(); ++i) {
    const AppSpec& app = apps[i];
    Client* client = driver->CuCtxCreate(
        app.model + "/" + std::to_string(i),
        app.IsHighPriority() ? PriorityClass::kHighPriority : PriorityClass::kBestEffort,
        app.quota_tpcs);
    if (app.IsOpenLoop()) {
      serving[i] = MakeServingApp(driver, client, app, config.spec, config.seed + i * 101,
                                  horizon);
      serving[i].recorder->SetWarmupEnd(config.warmup);
    } else {
      runners[i] = std::make_unique<ClosedLoopRunner>(driver, client, BeProfile(app, config.spec));
      runners[i]->SetWarmupEnd(config.warmup);
      runners[i]->Start();
    }
  }

  // Drop warm-up effects from the engine's power/capacity integrals too.
  sim.ScheduleAt(config.warmup, [&node] { node.engine()->ResetStats(); });

  sim.RunUntil(horizon);
  // Stop closed loops so the final drain terminates.
  for (auto& runner : runners) {
    if (runner) {
      runner->Stop();
    }
  }

  StackingResult result;
  result.system = config.system;
  result.measured_seconds = ToSeconds(config.duration);
  result.engine = node.engine()->Stats();
  result.sim = sim.counters();

  if (auto* lithos = dynamic_cast<LithosBackend*>(node.backend())) {
    lithos->predictor().FinalizeStats();
    const PredictionStats& pstats = lithos->predictor().stats();
    result.predictor_predictions = pstats.predictions;
    result.predictor_mispred_rate = pstats.MispredictionRate();
    result.predictor_err_p99_us = pstats.abs_error_us.P99();
    result.predictor_operators = lithos->predictor().num_operators();
    result.predictor_signature_compares = lithos->predictor().signature_compares();
    result.atoms_dispatched = lithos->atoms_dispatched();
    result.tpcs_stolen = lithos->tpc_scheduler().stats().tpcs_stolen;
  }

  for (size_t i = 0; i < apps.size(); ++i) {
    const AppSpec& app = apps[i];
    if (app.IsOpenLoop()) {
      serving[i].recorder->Finalize();
      result.apps.push_back(CollectOpenLoop(app, *serving[i].recorder, horizon));
    } else {
      AppResult r;
      r.model = app.model;
      r.role = app.role;
      r.iterations_per_s = runners[i]->FractionalIterations() / ToSeconds(config.duration);
      runners[i]->Finalize();
      r.iteration_p50_ms = runners[i]->iteration_ms().Percentile(50);
      result.apps.push_back(r);
    }
  }
  return result;
}

AppResult RunSolo(const AppSpec& app, const GpuSpec& spec, DurationNs duration, uint64_t seed) {
  StackingConfig config;
  config.system = SystemKind::kMps;  // alone on the device = native behaviour
  config.spec = spec;
  config.duration = duration;
  config.seed = seed;
  AppSpec solo = app;
  solo.quota_tpcs = spec.TotalTpcs();
  const StackingResult result = RunStacking(config, {solo});
  return result.apps[0];
}

InferenceServiceSpec ServiceFor(const std::string& model) {
  for (const InferenceServiceSpec& s : InferenceServices()) {
    if (s.model == model) {
      return s;
    }
  }
  // YOLOv4 appears in the hybrid experiment but not Table 2.
  if (model == "YOLO") {
    return {"YOLO", "TensorRT", 20.0, FromMillis(50), 4};
  }
  LITHOS_CHECK(false);
  return {};
}

double HybridLoadRps(const std::string& model) {
  // Loads sized to keep the HP service near 80% device utilization when it
  // runs alone (Section 7.1's hybrid setup) — high enough that half-device
  // partitions cannot sustain peak HP throughput.
  if (model == "Llama 3") {
    return 0.9;
  }
  if (model == "GPT-J") {
    return 1.1;
  }
  if (model == "BERT") {
    return 500.0;
  }
  if (model == "RetinaNet") {
    return 16.0;
  }
  if (model == "YOLO") {
    return 65.0;
  }
  if (model == "ResNet") {
    return 4500.0;
  }
  LITHOS_CHECK(false);
  return 0;
}

void AssignInferenceOnlyQuotas(SystemKind system, const GpuSpec& spec, AppSpec* hp_a,
                               AppSpec* hp_b, AppSpec* be) {
  const int total = spec.TotalTpcs();
  switch (system) {
    case SystemKind::kMig:
      // 4/7-3/7 GPC split (MIG cannot express 75/25).
      hp_a->quota_tpcs = 32;  // 4 GPCs on the A100 layout
      hp_b->quota_tpcs = 22;  // 3 GPCs
      be->quota_tpcs = 0;
      break;
    case SystemKind::kLimits:
    case SystemKind::kLithos:
      hp_a->quota_tpcs = (total * 3) / 4;
      hp_b->quota_tpcs = total - (total * 3) / 4;
      be->quota_tpcs = 0;
      break;
    default:
      hp_a->quota_tpcs = 0;
      hp_b->quota_tpcs = 0;
      be->quota_tpcs = 0;
      break;
  }
}

void AssignHybridQuotas(SystemKind system, const GpuSpec& spec, AppSpec* hp, AppSpec* be) {
  const int total = spec.TotalTpcs();
  switch (system) {
    case SystemKind::kMig:
      hp->quota_tpcs = 32;  // 4 GPCs ~ half the device
      be->quota_tpcs = 22;  // remaining 3 GPCs
      break;
    case SystemKind::kLimits:
      hp->quota_tpcs = total / 2;
      be->quota_tpcs = total - total / 2;
      break;
    case SystemKind::kLithos:
      // The HP service is guaranteed the whole device when it has work;
      // training is best-effort and lives off stolen idle TPCs.
      hp->quota_tpcs = total;
      be->quota_tpcs = 0;
      break;
    default:
      hp->quota_tpcs = 0;
      be->quota_tpcs = 0;
      break;
  }
}

}  // namespace lithos
