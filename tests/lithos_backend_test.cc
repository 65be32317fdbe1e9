// End-to-end tests of the assembled LithOS backend: dispatch through the
// driver, atomization in flight, quota isolation, stealing with reclaim, the
// outstanding-work throttle, and predictor integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/lithos_backend.h"
#include "src/driver/driver.h"
#include "src/workloads/model.h"

namespace lithos {
namespace {

class LithosBackendTest : public ::testing::Test {
 protected:
  LithosBackendTest() : engine_(&sim_, GpuSpec::A100()), driver_(&sim_, &engine_) {}

  LithosBackend* Install(LithosConfig cfg = {}) {
    backend_ = std::make_unique<LithosBackend>(&sim_, &engine_, cfg);
    driver_.SetBackend(backend_.get());
    return backend_.get();
  }

  // Runs `count` back-to-back kernels on a stream and returns the total time.
  DurationNs RunKernels(Stream* stream, const KernelDesc* k, int count) {
    const TimeNs start = sim_.Now();
    for (int i = 0; i < count; ++i) {
      driver_.CuLaunchKernel(stream, k);
    }
    bool done = false;
    driver_.CuStreamAddCallback(stream, [&] { done = true; });
    sim_.RunUntil(sim_.Now() + FromSeconds(30));
    EXPECT_TRUE(done);
    return sim_.Now() - start;
  }

  Simulator sim_;
  ExecutionEngine engine_;
  Driver driver_;
  std::unique_ptr<LithosBackend> backend_;
};

TEST_F(LithosBackendTest, SingleKernelRunsToCompletion) {
  LithosBackend* backend = Install();
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  const KernelDesc k = MakeKernel("k", 4096, FromMillis(1), 0.9, 0.5, engine_.spec());

  bool done = false;
  driver_.CuLaunchKernel(s, &k);
  driver_.CuStreamAddCallback(s, [&] { done = true; });
  sim_.RunUntil(FromSeconds(1));
  EXPECT_TRUE(done);
  EXPECT_GE(backend->atoms_dispatched(), 1u);
}

TEST_F(LithosBackendTest, StreamFifoOrderPreserved) {
  Install();
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  const KernelDesc k = MakeKernel("k", 4096, FromMillis(1), 0.9, 0.5, engine_.spec());

  std::vector<int> completions;
  for (int i = 0; i < 5; ++i) {
    driver_.CuLaunchKernel(s, &k);
    driver_.CuStreamAddCallback(s, [&completions, i] { completions.push_back(i); });
  }
  sim_.RunUntil(FromSeconds(1));
  EXPECT_EQ(completions, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(LithosBackendTest, LongKernelIsAtomized) {
  LithosBackend* backend = Install();
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  // 20ms kernel with plenty of blocks: must split once the predictor knows
  // its duration (first execution runs whole).
  const KernelDesc k = MakeKernel("long", 200000, FromMillis(20), 0.98, 0.8, engine_.spec(),
                                  /*threads_per_block=*/64);

  RunKernels(s, &k, 1);
  const uint64_t after_first = backend->atoms_dispatched();
  EXPECT_EQ(after_first, 1u);  // unseen -> predicted short -> whole launch

  RunKernels(s, &k, 1);
  // Known ~20ms now: atomized into multiple pieces.
  EXPECT_GE(backend->atoms_dispatched() - after_first, 4u);
}

TEST_F(LithosBackendTest, AtomizationDisabledLaunchesWhole) {
  LithosConfig cfg;
  cfg.enable_atomization = false;
  LithosBackend* backend = Install(cfg);
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  const KernelDesc k = MakeKernel("long", 200000, FromMillis(20), 0.98, 0.8, engine_.spec(), 64);
  RunKernels(s, &k, 3);
  EXPECT_EQ(backend->atoms_dispatched(), 3u);
}

TEST_F(LithosBackendTest, QuotaIsolatesTwoClients) {
  Install();
  Client* a = driver_.CuCtxCreate("a", PriorityClass::kHighPriority, 27);
  Client* b = driver_.CuCtxCreate("b", PriorityClass::kHighPriority, 27);
  Stream* sa = driver_.CuStreamCreate(a);
  Stream* sb = driver_.CuStreamCreate(b);
  // Both clients saturate; each should get its quota's worth of progress.
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(2), 1.0, 0.5, engine_.spec(), 64);

  int done_a = 0, done_b = 0;
  for (int i = 0; i < 50; ++i) {
    driver_.CuLaunchKernel(sa, &k);
    driver_.CuStreamAddCallback(sa, [&] { ++done_a; });
    driver_.CuLaunchKernel(sb, &k);
    driver_.CuStreamAddCallback(sb, [&] { ++done_b; });
  }
  sim_.RunUntil(FromMillis(100));
  EXPECT_GT(done_a, 5);
  // Symmetric quotas, symmetric progress (within one kernel).
  EXPECT_NEAR(done_a, done_b, 2);
}

TEST_F(LithosBackendTest, BestEffortStealsIdleCapacityAndYields) {
  LithosBackend* backend = Install();
  Client* hp = driver_.CuCtxCreate("hp", PriorityClass::kHighPriority, 54);
  Client* be = driver_.CuCtxCreate("be", PriorityClass::kBestEffort, 0);
  Stream* sb = driver_.CuStreamCreate(be);
  const KernelDesc k = MakeKernel("k", 100000, FromMillis(2), 1.0, 0.5, engine_.spec(), 64);

  // HP idle: BE steals the whole device and makes progress.
  int done_be = 0;
  for (int i = 0; i < 10; ++i) {
    driver_.CuLaunchKernel(sb, &k);
    driver_.CuStreamAddCallback(sb, [&] { ++done_be; });
  }
  sim_.RunUntil(FromMillis(50));
  EXPECT_GT(done_be, 5);
  EXPECT_GT(backend->tpc_scheduler().stats().tpcs_stolen, 0u);

  // HP work arrives: it must get its full home region within ~an atom.
  Stream* sh = driver_.CuStreamCreate(hp);
  TimeNs hp_end = 0;
  const TimeNs hp_start = sim_.Now();
  driver_.CuLaunchKernel(sh, &k);
  driver_.CuStreamAddCallback(sh, [&] { hp_end = sim_.Now(); });
  sim_.RunUntil(hp_start + FromMillis(30));
  ASSERT_GT(hp_end, 0);
  // Ideal 2ms; reclaim costs at most a few atom durations.
  EXPECT_LT(hp_end - hp_start, FromMillis(15));
}

// After every event, the TPC scheduler's per-client waiting flag says whether
// the client has a parked stream: one queued on arrival (OnStreamReady) or one
// parked between two atoms of a kernel. While a high-priority client is
// parked, a best-effort client can steal nothing.
TEST_F(LithosBackendTest, WaitingFlagsTrackParkedStreams) {
  LithosBackend* backend = Install();
  Client* hp_a = driver_.CuCtxCreate("hp-a", PriorityClass::kHighPriority, 40);
  Client* hp_b = driver_.CuCtxCreate("hp-b", PriorityClass::kHighPriority, 14);
  Client* be = driver_.CuCtxCreate("be", PriorityClass::kBestEffort, 0);
  // One stream per client, so "client has a running atom" is "its stream has".
  const std::vector<Stream*> streams = {driver_.CuStreamCreate(hp_a),
                                        driver_.CuStreamCreate(hp_b),
                                        driver_.CuStreamCreate(be)};
  const KernelDesc k = MakeKernel("k", 8000, FromMillis(8), 1.0, 0.5, engine_.spec(), 64);
  // A marker after each kernel keeps it one operator, so the predictor
  // learns it and later launches atomize.
  auto launch = [this, &k](Stream* s) {
    driver_.CuLaunchKernel(s, &k);
    driver_.CuStreamAddCallback(s, [] {});
  };
  // BE work is always queued and steals the idle HP regions; sparse HP
  // arrivals then find their homes stolen, park, and make the BE head park
  // between atoms until the reclaim completes.
  for (int i = 0; i < 40; ++i) {
    launch(streams[2]);
  }
  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    Stream* s = streams[static_cast<size_t>(i % 2)];
    sim_.ScheduleAt(static_cast<TimeNs>(rng.UniformInt(0, FromMillis(300))),
                    [s, &launch] { launch(s); });
  }

  int hp_parked_on_arrival = 0;
  int parked_mid_kernel = 0;
  int hp_parked_states = 0;
  while (sim_.Now() < FromMillis(400) && sim_.Step()) {
    const std::vector<int>& running = engine_.ActiveClients();
    bool any_hp_parked = false;
    for (const Stream* s : streams) {
      const int id = s->client_id();
      const bool has_running_atom = std::find(running.begin(), running.end(), id) != running.end();
      const bool mid_kernel = s->HeadInFlight() && !has_running_atom;
      const bool parked = s->HasDispatchableKernel() || mid_kernel;
      ASSERT_EQ(backend->tpc_scheduler().IsClientWaiting(id), parked)
          << "client " << id << " at " << sim_.Now();
      parked_mid_kernel += mid_kernel ? 1 : 0;
      if (parked && id != be->id) {
        any_hp_parked = true;
        hp_parked_on_arrival += s->HasDispatchableKernel() ? 1 : 0;
      }
    }
    if (any_hp_parked) {
      ++hp_parked_states;
      // Probe a copy with every TPC released: the two quotas cover the
      // device, so a BE grant could only come from stealing, and stealing
      // must be refused.
      TpcScheduler probe = backend->tpc_scheduler();
      ASSERT_TRUE(probe.AnyHighPriorityWaiting());
      probe.Release(engine_.AllTpcs() & ~probe.FreeMask());
      ASSERT_TRUE(probe.Acquire(be->id, engine_.spec().TotalTpcs()).none());
    }
  }
  EXPECT_GT(hp_parked_on_arrival, 0);
  EXPECT_GT(parked_mid_kernel, 0);
  EXPECT_GT(hp_parked_states, 0);
  EXPECT_GT(backend->tpc_scheduler().stats().tpcs_stolen, 0u);
}

// A completion callback that creates a stream and launches on it re-enters
// the backend (OnStreamReady for a new stream id) from inside another head's
// completion, growing the per-stream table while best-effort atoms are in
// flight and parked. Every chained kernel must still run.
TEST_F(LithosBackendTest, StreamsCreatedFromCompletionCallbacksRun) {
  LithosBackend* backend = Install();
  Client* hp = driver_.CuCtxCreate("hp", PriorityClass::kHighPriority, 27);
  Client* be = driver_.CuCtxCreate("be", PriorityClass::kBestEffort, 0);
  const KernelDesc k = MakeKernel("k", 8000, FromMillis(4), 1.0, 0.5, engine_.spec(), 64);
  Stream* be_stream = driver_.CuStreamCreate(be);
  for (int i = 0; i < 20; ++i) {
    driver_.CuLaunchKernel(be_stream, &k);
    driver_.CuStreamAddCallback(be_stream, [] {});
  }
  constexpr int kChain = 40;
  int completed = 0;
  std::function<void(int)> launch_on_new_stream = [&](int depth) {
    Stream* s = driver_.CuStreamCreate(hp);
    driver_.CuLaunchKernel(s, &k);
    driver_.CuStreamAddCallback(s, [&, depth] {
      ++completed;
      if (depth < kChain) {
        launch_on_new_stream(depth + 1);
      }
    });
  };
  launch_on_new_stream(0);
  sim_.RunUntil(FromSeconds(5));
  EXPECT_EQ(completed, kChain + 1);
  EXPECT_EQ(be_stream->QueueDepth(), 0u);
  EXPECT_GE(backend->atoms_dispatched(), static_cast<uint64_t>(kChain + 21));
  for (int id = 0; id <= be->id; ++id) {
    EXPECT_FALSE(backend->tpc_scheduler().IsClientWaiting(id));
  }
}

TEST_F(LithosBackendTest, OutstandingThrottleLimitsConcurrentAtoms) {
  Install();
  // No quotas: every TPC is in the free pool, so the throttled HP streams'
  // waiting flag (which bars BE stealing) does not hold BE work back.
  Client* hp = driver_.CuCtxCreate("hp", PriorityClass::kHighPriority, 0);
  Client* be = driver_.CuCtxCreate("be", PriorityClass::kBestEffort, 0);
  // Each client gets more single-kernel streams than its limit, each kernel
  // narrow enough that TPCs are not what holds it back.
  const KernelDesc k = MakeKernel("k", 64, FromMillis(5), 0.9, 0.5, engine_.spec());
  for (int i = 0; i < LithosBackend::kMaxOutstandingHp + 2; ++i) {
    driver_.CuLaunchKernel(driver_.CuStreamCreate(hp), &k);
  }
  // Immediately after the synchronous dispatch cascade:
  EXPECT_EQ(engine_.NumRunningGrants(), LithosBackend::kMaxOutstandingHp);
  for (int i = 0; i < LithosBackend::kMaxOutstandingBe + 2; ++i) {
    driver_.CuLaunchKernel(driver_.CuStreamCreate(be), &k);
  }
  EXPECT_EQ(engine_.NumRunningGrants(),
            LithosBackend::kMaxOutstandingHp + LithosBackend::kMaxOutstandingBe);
  sim_.RunUntil(FromSeconds(1));
  EXPECT_EQ(engine_.NumRunningGrants(), 0);
}

TEST_F(LithosBackendTest, PredictorLearnsFromExecutions) {
  LithosBackend* backend = Install();
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  const KernelDesc k = MakeKernel("k", 4096, FromMillis(3), 0.9, 0.5, engine_.spec());

  RunKernels(s, &k, 1);
  OperatorKey key;
  key.queue_id = s->id();
  key.ordinal = 0;
  key.signature = k.LaunchSignature();
  EXPECT_TRUE(backend->predictor().HasSeen(key));

  ExecConditions cond;
  cond.tpcs = 54;
  cond.freq_mhz = engine_.spec().max_mhz;
  const DurationNs pred = backend->predictor().Predict(key, cond);
  const DurationNs truth = k.LatencyNs(engine_.spec(), 54, engine_.spec().max_mhz);
  EXPECT_NEAR(static_cast<double>(pred), static_cast<double>(truth),
              static_cast<double>(truth) * 0.25);
}

TEST_F(LithosBackendTest, RightSizingShrinksAllocations) {
  LithosConfig cfg;
  cfg.enable_rightsizing = true;
  Install(cfg);
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  // A kernel with a hard serial floor: l(t) = small/t + big, so right-sizing
  // should collapse the allocation to very few TPCs.
  const KernelDesc k = MakeKernel("serial", 100000, FromMillis(2), 0.2, 0.5, engine_.spec(), 64);

  // Warm up the model (full run + probe run + fitted runs).
  RunKernels(s, &k, 6);
  engine_.ResetStats();
  const double before = sim_.Now();
  RunKernels(s, &k, 4);
  const auto& stats = engine_.Stats();
  const double elapsed_s = ToSeconds(static_cast<DurationNs>(sim_.Now() - before));
  const double avg_tpcs = stats.allocated_tpc_seconds.at(c->id) / elapsed_s;
  // 80% serial: the slip bound admits a small fraction of the device.
  EXPECT_LT(avg_tpcs, 20.0);
}

TEST_F(LithosBackendTest, DvfsLowersClockForMemoryBoundStream) {
  LithosConfig cfg;
  cfg.enable_dvfs = true;
  Install(cfg);
  Client* c = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 54);
  Stream* s = driver_.CuStreamCreate(c);
  // Memory-bound kernel (sensitivity 0).
  const KernelDesc k = MakeKernel("mem", 100000, FromMillis(5), 0.9, 0.0, engine_.spec(), 64);

  // Marker-delimited batches over multiple DVFS periods. A boundary is seen
  // when the next batch starts, so the first kLearningBatches batches end
  // one boundary short of the learning period and keep f_max.
  auto run_batches = [&](int batches) {
    for (int batch = 0; batch < batches; ++batch) {
      RunKernels(s, &k, 4);
      sim_.RunUntil(sim_.Now() + FromMillis(200));
    }
  };
  run_batches(DvfsManager::kLearningBatches);
  EXPECT_EQ(engine_.CurrentFrequencyMhz(), engine_.spec().max_mhz);
  run_batches(10 - DvfsManager::kLearningBatches);
  EXPECT_LT(engine_.CurrentFrequencyMhz(), engine_.spec().max_mhz);
}

}  // namespace
}  // namespace lithos
