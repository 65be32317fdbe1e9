// Extending LithOS: writing a custom scheduling backend.
//
// The Backend interface is the OS's policy boundary — LithOS itself and all
// eight baselines implement it. This example adds a tiny new policy
// ("StrictPriority": HP kernels get the whole device exclusively, BE runs
// only when no HP work exists anywhere) and races it against LithOS.
//
//   ./examples/custom_policy
#include <cstdio>
#include <deque>

#include "src/core/lithos_backend.h"
#include "src/driver/driver.h"
#include "src/workloads/clients.h"
#include "src/workloads/zoo.h"

using namespace lithos;

namespace {

// A deliberately simple policy: exclusive, strictly prioritised FIFO.
class StrictPriorityBackend : public Backend {
 public:
  StrictPriorityBackend(Simulator* sim, ExecutionEngine* engine) : Backend(sim, engine) {}
  std::string Name() const override { return "StrictPriority"; }

  void OnStreamReady(Stream* stream) override {
    Queue(stream).push_back(stream);
    Pump();
  }

 private:
  std::deque<Stream*>& Queue(Stream* stream) {
    // The driver owns each client; a backend reads its facts through the
    // stream instead of keeping a copy.
    const bool hp = stream->client().priority == PriorityClass::kHighPriority;
    return hp ? hp_queue_ : be_queue_;
  }

  void Pump() {
    if (busy_) {
      return;
    }
    Stream* next = nullptr;
    if (!hp_queue_.empty()) {
      next = hp_queue_.front();
      hp_queue_.pop_front();
    } else if (!be_queue_.empty()) {
      next = be_queue_.front();
      be_queue_.pop_front();
    }
    if (next == nullptr || !next->HasDispatchableKernel()) {
      return;
    }
    busy_ = true;
    const LaunchRecord& rec = next->BeginHead();
    WorkItem item;
    item.kernel = rec.kernel;
    item.client_id = next->client_id();
    item.on_complete = [this, next](const GrantInfo&) {
      next->CompleteHead();
      busy_ = false;
      Pump();
    };
    engine_->Launch(std::move(item), engine_->spec().AllTpcs());
  }

  std::deque<Stream*> hp_queue_, be_queue_;
  bool busy_ = false;
};

struct RunOutcome {
  double hp_p99_ms = 0;
  double be_iters = 0;
};

RunOutcome Run(Backend* backend, Driver* driver, Simulator* sim) {
  const GpuSpec& spec = driver->engine()->spec();
  Client* hp = driver->CuCtxCreate("hp", PriorityClass::kHighPriority, spec.TotalTpcs());
  Client* be = driver->CuCtxCreate("be", PriorityClass::kBestEffort, 0);
  (void)backend;

  RequestRecorder rec;
  auto factory = [&spec](int batch) { return MakeBertLargeInference(spec, batch); };
  BatchingInferenceServer server(driver, hp, factory, 16, FromMillis(2), &rec);
  PoissonArrivals arrivals(sim, 300.0, 11, [&server] { server.Submit(); });
  arrivals.Start(FromSeconds(6));

  ClosedLoopRunner trainer(driver, be, MakeResNet50Training(spec));
  trainer.Start();

  sim->RunUntil(FromSeconds(6));
  trainer.Stop();
  rec.Finalize();
  return {rec.latency_ms().P99(), trainer.FractionalIterations() / 6.0};
}

}  // namespace

int main() {
  {
    Simulator sim;
    ExecutionEngine engine(&sim, GpuSpec::A100());
    Driver driver(&sim, &engine);
    StrictPriorityBackend backend(&sim, &engine);
    driver.SetBackend(&backend);
    const RunOutcome r = Run(&backend, &driver, &sim);
    std::printf("StrictPriority : HP p99 %8.2f ms | BE %5.2f iter/s\n", r.hp_p99_ms, r.be_iters);
  }
  {
    Simulator sim;
    ExecutionEngine engine(&sim, GpuSpec::A100());
    Driver driver(&sim, &engine);
    LithosBackend backend(&sim, &engine, LithosConfig{});
    driver.SetBackend(&backend);
    const RunOutcome r = Run(&backend, &driver, &sim);
    std::printf("LithOS         : HP p99 %8.2f ms | BE %5.2f iter/s\n", r.hp_p99_ms, r.be_iters);
  }
  std::printf("\nStrictPriority wastes the device (one kernel at a time) and still eats\n");
  std::printf("HoL blocking from multi-ms training kernels; LithOS packs and atomizes.\n");
  return 0;
}
