// Figure 20: P95 latency of an HP BERT inference service collocated with
// (a) BE VGG training at growing batch sizes and (b) BE Llama 3 inference at
// growing prompt sequence lengths — REEF vs LithOS without Kernel
// Atomization vs full LithOS. Kernel durations grow with batch/seqlen, so
// this isolates the HoL-blocking effect atomization removes.
#include "bench/bench_util.h"
#include "src/workloads/zoo.h"

using namespace lithos;
using namespace lithos::bench;

namespace {

struct SystemVariant {
  std::string name;
  SystemKind kind;
  bool atomization;
};

const std::vector<SystemVariant> kVariants = {
    {"REEF", SystemKind::kReef, false},
    {"LithOS (w/o Kernel Atomization)", SystemKind::kLithos, false},
    {"LithOS", SystemKind::kLithos, true},
};

}  // namespace

int main() {
  PrintHeader("Figure 20: P95 HP latency vs BE batch size / prompt length",
              "Fig. 20 — LithOS beats REEF 6.5x / 3.9x; atomization adds 2x / 1.3x");

  AppSpec hp = MakeHpApp("BERT", AppRole::kHpLatency, HybridLoadRps("BERT"));
  SoloCache solos;
  const double solo_p95 = solos.Get(hp).p95_ms;
  std::printf("HP BERT solo P95 = %.2f ms\n", solo_p95);

  // --- (a) BE VGG training, growing batch size --------------------------------
  std::printf("\n(a) BE = VGG training, sweeping batch size\n");
  Table a({"BE batch", "REEF", "LithOS w/o KA", "LithOS", "(P95 ms)"});
  for (int batch : {32, 64, 128, 192, 256, 320}) {
    AppSpec be;
    be.role = AppRole::kBeTraining;
    be.model = "VGG";
    // Override the profile batch through a custom spec: the harness builds
    // VGG at its Table 1 batch, so emulate by scaling with a custom app.
    std::vector<std::string> row = {std::to_string(batch)};
    for (const SystemVariant& v : kVariants) {
      StackingConfig cfg;
      cfg.system = v.kind;
      cfg.lithos.enable_atomization = v.atomization;
      cfg.warmup = kWarmup;
      cfg.duration = FromSeconds(6);
      AppSpec h = hp, b = be;
      AssignHybridQuotas(cfg.system, GpuSpec::A100(), &h, &b);

      // Build the stack manually to use the custom VGG batch.
      Simulator sim;
      ExecutionEngine engine(&sim, cfg.spec);
      Driver driver(&sim, &engine);
      auto backend = MakeBackend(cfg.system, &sim, &engine, cfg.lithos);
      driver.SetBackend(backend.get());
      Client* hp_client = driver.CuCtxCreate("hp", PriorityClass::kHighPriority, h.quota_tpcs);
      Client* be_client = driver.CuCtxCreate("be", PriorityClass::kBestEffort, b.quota_tpcs);

      RequestRecorder rec;
      rec.SetWarmupEnd(cfg.warmup);
      auto factory = [&](int n) { return MakeBertLargeInference(cfg.spec, n); };
      BatchingInferenceServer server(&driver, hp_client, factory, h.max_batch,
                                     AppSpec::kBatchDelay, &rec);
      PoissonArrivals arrivals(&sim, h.load_rps, 7, [&server] { server.Submit(); });
      arrivals.Start(cfg.warmup + cfg.duration);
      ClosedLoopRunner runner(&driver, be_client, MakeVgg19Training(cfg.spec, batch));
      runner.Start();
      sim.RunUntil(cfg.warmup + cfg.duration);
      runner.Stop();
      rec.Finalize();
      row.push_back(Table::Num(rec.latency_ms().P95(), 2));
    }
    a.AddRow(row);
  }
  a.Print();

  // --- (b) BE Llama 3 inference, growing prompt length -------------------------
  std::printf("\n(b) BE = Llama 3 inference, sweeping prompt sequence length\n");
  Table bt({"BE seqlen", "REEF", "LithOS w/o KA", "LithOS", "(P95 ms)"});
  for (int seqlen : {64, 128, 256, 384, 512}) {
    std::vector<std::string> row = {std::to_string(seqlen)};
    for (const SystemVariant& v : kVariants) {
      StackingConfig cfg;
      cfg.system = v.kind;
      cfg.lithos.enable_atomization = v.atomization;
      cfg.warmup = kWarmup;
      cfg.duration = FromSeconds(6);
      AppSpec h = hp;
      AppSpec b;
      b.role = AppRole::kBeInference;
      b.model = "Llama 3";
      AssignHybridQuotas(cfg.system, GpuSpec::A100(), &h, &b);

      Simulator sim;
      ExecutionEngine engine(&sim, cfg.spec);
      Driver driver(&sim, &engine);
      auto backend = MakeBackend(cfg.system, &sim, &engine, cfg.lithos);
      driver.SetBackend(backend.get());
      Client* hp_client = driver.CuCtxCreate("hp", PriorityClass::kHighPriority, h.quota_tpcs);
      Client* be_client = driver.CuCtxCreate("be", PriorityClass::kBestEffort, b.quota_tpcs);

      RequestRecorder rec;
      rec.SetWarmupEnd(cfg.warmup);
      auto factory = [&](int n) { return MakeBertLargeInference(cfg.spec, n); };
      BatchingInferenceServer server(&driver, hp_client, factory, h.max_batch,
                                     AppSpec::kBatchDelay, &rec);
      PoissonArrivals arrivals(&sim, h.load_rps, 7, [&server] { server.Submit(); });
      arrivals.Start(cfg.warmup + cfg.duration);
      // BE: big-prefill Llama requests in a closed loop (prefill kernels grow
      // with seqlen — the HoL source).
      ClosedLoopRunner runner(&driver, be_client,
                              MakeLlama3Inference(cfg.spec, seqlen, 16));
      runner.Start();
      sim.RunUntil(cfg.warmup + cfg.duration);
      runner.Stop();
      rec.Finalize();
      row.push_back(Table::Num(rec.latency_ms().P95(), 2));
    }
    bt.AddRow(row);
  }
  bt.Print();
  std::printf("\n[paper: LithOS beats REEF by 6.5x (a) and 3.9x (b) at the largest sizes;\n");
  std::printf(" atomization contributes 2x and 1.3x; LithOS stays within 14%%/7%% of ideal]\n");
  return 0;
}
