// Behavioural tests for the eight baseline systems: each backend's defining
// policy (immediate dispatch, gating, partitioning, time quanta, rate
// control, contention awareness) verified through the driver shim.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/baselines/concurrent_backends.h"
#include "src/baselines/partition_backend.h"
#include "src/baselines/timeslice_backend.h"
#include "src/driver/driver.h"
#include "src/obs/trace.h"

namespace lithos {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : engine_(&sim_, GpuSpec::A100()), driver_(&sim_, &engine_) {
    big_ = MakeKernel("big", 100000, FromMillis(10), 1.0, 0.8, engine_.spec(), 64);
    small_ = MakeKernel("small", 4096, FromMillis(1), 0.9, 0.8, engine_.spec());
    membound_ = MakeKernel("mem", 4096, FromMillis(1), 0.9, 0.2, engine_.spec());
  }

  Client* MakeHp(const std::string& name, int quota = 0) {
    return driver_.CuCtxCreate(name, PriorityClass::kHighPriority, quota);
  }
  Client* MakeBe(const std::string& name, int quota = 0) {
    return driver_.CuCtxCreate(name, PriorityClass::kBestEffort, quota);
  }

  Simulator sim_;
  ExecutionEngine engine_;
  Driver driver_;
  KernelDesc big_, small_, membound_;
};

TEST_F(BaselinesTest, MpsDispatchesEverythingImmediately) {
  MpsBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);
  Client* a = MakeHp("a");
  Client* b = MakeBe("b");
  Stream* sa = driver_.CuStreamCreate(a);
  Stream* sb = driver_.CuStreamCreate(b);
  driver_.CuLaunchKernel(sa, &big_);
  driver_.CuLaunchKernel(sb, &big_);
  EXPECT_EQ(engine_.NumRunningGrants(), 2);  // both resident at once
}

TEST_F(BaselinesTest, ReefGatesBestEffortBehindHp) {
  ReefBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);
  Client* hp = MakeHp("hp");
  Client* be = MakeBe("be");
  Stream* sh = driver_.CuStreamCreate(hp);
  Stream* sb = driver_.CuStreamCreate(be);

  driver_.CuLaunchKernel(sh, &big_);
  TimeNs be_end = 0;
  driver_.CuLaunchKernel(sb, &small_);
  driver_.CuStreamAddCallback(sb, [&] { be_end = sim_.Now(); });
  // HP in flight: BE held back.
  EXPECT_EQ(engine_.NumRunningGrants(), 1);
  sim_.RunUntil(FromMillis(30));
  // Gate opened when the HP kernel finished (~10ms); only then did BE run.
  EXPECT_GT(be_end, FromMillis(10));
}

TEST_F(BaselinesTest, ReefWindowCommitsMultipleBeKernels) {
  ReefBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);
  Client* hp = MakeHp("hp");
  Client* be = MakeBe("be");
  Stream* sh = driver_.CuStreamCreate(hp);
  Stream* sb = driver_.CuStreamCreate(be);

  // HP idle: the BE window opens and BE kernels flow even after HP arrives,
  // until the window (8) is spent — REEF's uninterruptible device-queue
  // window.
  int be_done = 0;
  for (int i = 0; i < 12; ++i) {
    driver_.CuLaunchKernel(sb, &small_);
    driver_.CuStreamAddCallback(sb, [&] { ++be_done; });
  }
  sim_.RunUntil(FromMicros(100));
  driver_.CuLaunchKernel(sh, &big_);  // HP arrives mid-window
  sim_.RunUntil(FromMillis(1));
  // The committed window keeps a BE kernel co-resident with the HP kernel.
  EXPECT_EQ(engine_.NumRunningGrants(), 2);
  sim_.RunUntil(FromSeconds(5));      // HP long gone; window + gate drain all
  EXPECT_EQ(be_done, 12);
}

TEST_F(BaselinesTest, PriorityBoostsHpShare) {
  PriorityBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);
  Client* hp = MakeHp("hp");
  Client* be = MakeBe("be");
  Stream* sh = driver_.CuStreamCreate(hp);
  Stream* sb = driver_.CuStreamCreate(be);

  TimeNs hp_end = 0, be_end = 0;
  driver_.CuLaunchKernel(sb, &big_);
  driver_.CuStreamAddCallback(sb, [&] { be_end = sim_.Now(); });
  driver_.CuLaunchKernel(sh, &big_);
  driver_.CuStreamAddCallback(sh, [&] { hp_end = sim_.Now(); });
  sim_.RunUntil(FromSeconds(1));
  // Same kernel, but the HP copy finishes first thanks to its boosted share.
  EXPECT_LT(hp_end, be_end);
  EXPECT_GT(hp_end, FromMillis(10));  // still slower than running alone
}

TEST_F(BaselinesTest, PartitionBackendConfinesClients) {
  PartitionBackend backend(&sim_, &engine_, PartitionBackend::Mode::kLimits);
  driver_.SetBackend(&backend);
  Client* a = MakeHp("a", 40);
  Client* b = MakeHp("b", 14);
  EXPECT_EQ(backend.PartitionOf(a->id).count(), 40u);
  EXPECT_EQ(backend.PartitionOf(b->id).count(), 14u);
  EXPECT_EQ((backend.PartitionOf(a->id) & backend.PartitionOf(b->id)).count(), 0u);

  Stream* sa = driver_.CuStreamCreate(a);
  driver_.CuLaunchKernel(sa, &big_);
  EXPECT_EQ(engine_.BusyMask().count(), 40u);
}

TEST_F(BaselinesTest, MigRoundsToGpcBoundaries) {
  PartitionBackend backend(&sim_, &engine_, PartitionBackend::Mode::kMig);
  driver_.SetBackend(&backend);
  Client* a = MakeHp("a", 32);  // exactly 4 GPCs on the A100 layout
  Client* b = MakeHp("b", 22);  // 3 GPCs
  EXPECT_EQ(backend.PartitionOf(a->id).count(), 32u);
  EXPECT_EQ(backend.PartitionOf(b->id).count(), 22u);
}

TEST_F(BaselinesTest, PartitionlessClientNeverRuns) {
  PartitionBackend backend(&sim_, &engine_, PartitionBackend::Mode::kMig);
  driver_.SetBackend(&backend);
  MakeHp("a", 32);
  Client* be = MakeBe("be", 0);  // MIG cannot host a BE tenant
  Stream* sb = driver_.CuStreamCreate(be);
  bool done = false;
  driver_.CuLaunchKernel(sb, &small_);
  driver_.CuStreamAddCallback(sb, [&] { done = true; });
  sim_.RunUntil(FromSeconds(2));
  EXPECT_FALSE(done);
}

TEST_F(BaselinesTest, TimesliceRotatesExclusiveOwnership) {
  TimesliceBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);
  Client* a = MakeHp("a");
  Client* b = MakeBe("b");
  Stream* sa = driver_.CuStreamCreate(a);
  Stream* sb = driver_.CuStreamCreate(b);

  TimeNs end_a = 0, end_b = 0;
  driver_.CuLaunchKernel(sa, &big_);
  driver_.CuStreamAddCallback(sa, [&] { end_a = sim_.Now(); });
  driver_.CuLaunchKernel(sb, &big_);
  driver_.CuStreamAddCallback(sb, [&] { end_b = sim_.Now(); });

  // Only one context runs at any time.
  EXPECT_EQ(engine_.NumRunningGrants(), 1);
  sim_.RunUntil(FromMillis(3));
  EXPECT_EQ(engine_.NumRunningGrants(), 1);
  sim_.RunUntil(FromSeconds(1));
  // Interleaved 10ms+10ms of work: both finish near 20ms, in quantum order.
  EXPECT_GT(end_a, FromMillis(15));
  EXPECT_GT(end_b, FromMillis(15));
  EXPECT_LE(std::max(end_a, end_b), FromMillis(25));
}

TEST_F(BaselinesTest, TimesliceSoleTenantKeepsDevice) {
  TimesliceBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);
  Client* a = MakeHp("a");
  Stream* sa = driver_.CuStreamCreate(a);
  TimeNs end = 0;
  driver_.CuLaunchKernel(sa, &big_);
  driver_.CuStreamAddCallback(sa, [&] { end = sim_.Now(); });
  sim_.RunUntil(FromSeconds(1));
  // No other tenant: quantum expiry must not preempt or delay.
  EXPECT_NEAR(static_cast<double>(end), static_cast<double>(FromMillis(10)),
              static_cast<double>(FromMicros(100)));
}

TEST_F(BaselinesTest, TgsThrottlesBeUnderHpPressure) {
  TgsBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);
  Client* hp = MakeHp("hp");
  Client* be = MakeBe("be");
  Stream* sh = driver_.CuStreamCreate(hp);
  Stream* sb = driver_.CuStreamCreate(be);

  int be_done = 0;
  // Sustained alternation: HP kernels keep arriving while BE queues work.
  for (int i = 0; i < 200; ++i) {
    driver_.CuLaunchKernel(sb, &small_);
    driver_.CuStreamAddCallback(sb, [&] { ++be_done; });
  }
  for (int i = 0; i < 50; ++i) {
    sim_.ScheduleAt(i * FromMillis(2), [this, sh] { driver_.CuLaunchKernel(sh, &small_); });
  }
  sim_.RunUntil(FromMillis(100));
  const int done_under_pressure = be_done;
  sim_.RunUntil(FromSeconds(3));
  // BE progressed slowly under pressure, faster after HP stopped.
  EXPECT_LT(done_under_pressure, 100);
  EXPECT_EQ(be_done, 200);
}

TEST_F(BaselinesTest, OrionBlocksContendingBeKernels) {
  OrionBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);
  Client* hp = MakeHp("hp");
  Client* be = MakeBe("be");
  Stream* sh = driver_.CuStreamCreate(hp);
  Stream* sb = driver_.CuStreamCreate(be);

  // HP compute-bound kernel in flight.
  driver_.CuLaunchKernel(sh, &big_);
  ASSERT_EQ(engine_.NumRunningGrants(), 1);

  // Compute-bound BE kernel contends -> held.
  driver_.CuLaunchKernel(sb, &small_);
  EXPECT_EQ(engine_.NumRunningGrants(), 1);

  sim_.RunUntil(FromMillis(15));  // HP done; BE launches.
  bool be_done = false;
  driver_.CuStreamAddCallback(sb, [&] { be_done = true; });
  sim_.RunUntil(FromMillis(40));
  EXPECT_TRUE(be_done);
}

TEST_F(BaselinesTest, OrionAdmitsComplementaryBeKernel) {
  OrionBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);
  Client* hp = MakeHp("hp");
  Client* be = MakeBe("be");
  Stream* sh = driver_.CuStreamCreate(hp);
  Stream* sb = driver_.CuStreamCreate(be);

  driver_.CuLaunchKernel(sh, &big_);       // compute-bound HP
  driver_.CuLaunchKernel(sb, &membound_);  // memory-bound BE: complementary
  EXPECT_EQ(engine_.NumRunningGrants(), 2);
}

TEST_F(BaselinesTest, BackendInstalledAfterClientsSeesPriorityClasses) {
  // Clients and streams exist before the backend does, as when a harness
  // installs a backend on a populated driver: the backend reads each stream's
  // class through its client, so REEF still gates BE behind HP.
  Client* hp = MakeHp("hp");
  Client* be = MakeBe("be");
  Stream* sh = driver_.CuStreamCreate(hp);
  Stream* sb = driver_.CuStreamCreate(be);
  ReefBackend backend(&sim_, &engine_);
  driver_.SetBackend(&backend);

  driver_.CuLaunchKernel(sh, &big_);
  driver_.CuLaunchKernel(sb, &small_);
  EXPECT_EQ(engine_.NumRunningGrants(), 1);  // BE held back
  TimeNs be_end = 0;
  driver_.CuStreamAddCallback(sb, [&] { be_end = sim_.Now(); });
  sim_.RunUntil(FromMillis(30));
  EXPECT_GT(be_end, FromMillis(10));
}

TEST_F(BaselinesTest, PartitionsCarvedForClientsRegisteredBeforeInstall) {
  Client* a = MakeHp("a", 40);
  Client* b = MakeBe("b", 0);
  Client* c = MakeHp("c", 14);
  PartitionBackend backend(&sim_, &engine_, PartitionBackend::Mode::kLimits);
  driver_.SetBackend(&backend);
  EXPECT_EQ(backend.PartitionOf(a->id).count(), 40u);
  EXPECT_EQ(backend.PartitionOf(b->id).count(), 0u);
  EXPECT_EQ(backend.PartitionOf(c->id).count(), 14u);
  EXPECT_EQ(backend.PartitionOf(c->id + 1).count(), 0u);  // never registered
}

enum class GatedPolicy { kReef, kTgs, kOrion, kTimeslice };

// When each of two queued BE streams drained, and how many grants completed.
struct RequeueOutcome {
  TimeNs a_done = 0;
  TimeNs b_done = 0;
  uint64_t grants = 0;
};

// Two BE streams, a then b, wait behind `policy`'s gate. With `renotify`,
// a's queued head is cancelled while it waits, so the driver hands the
// backend the same stream again (its next kernel) while it is still queued.
RequeueOutcome RunRequeued(GatedPolicy policy, bool renotify) {
  Simulator sim;
  ExecutionEngine engine(&sim, GpuSpec::A100());
  Driver driver(&sim, &engine);
  std::unique_ptr<Backend> backend;
  switch (policy) {
    case GatedPolicy::kReef:
      backend = std::make_unique<ReefBackend>(&sim, &engine);
      break;
    case GatedPolicy::kTgs:
      backend = std::make_unique<TgsBackend>(&sim, &engine);
      break;
    case GatedPolicy::kOrion:
      backend = std::make_unique<OrionBackend>(&sim, &engine);
      break;
    case GatedPolicy::kTimeslice:
      backend = std::make_unique<TimesliceBackend>(&sim, &engine);
      break;
  }
  driver.SetBackend(backend.get());
  const KernelDesc big = MakeKernel("big", 100000, FromMillis(10), 1.0, 0.8, engine.spec(), 64);
  const KernelDesc small = MakeKernel("small", 4096, FromMillis(1), 0.9, 0.8, engine.spec());
  Client* hp = driver.CuCtxCreate("hp", PriorityClass::kHighPriority);
  Client* be = driver.CuCtxCreate("be", PriorityClass::kBestEffort);

  // Close the gate. REEF and Orion hold compute-bound BE work while an HP
  // kernel runs; time slicing holds it until the HP client's slice ends. TGS
  // widens its BE launch gap when HP work arrives with BE work resident, so
  // the BE launch after that holds the queue until the gap passes.
  if (policy == GatedPolicy::kTgs) {
    driver.CuLaunchKernel(driver.CuStreamCreate(be), &small);
    driver.CuLaunchKernel(driver.CuStreamCreate(hp), &big);
    driver.CuLaunchKernel(driver.CuStreamCreate(be), &small);
  } else {
    driver.CuLaunchKernel(driver.CuStreamCreate(hp), &big);
  }
  const int gate_grants = engine.NumRunningGrants();

  Stream* a = driver.CuStreamCreate(be);
  Stream* b = driver.CuStreamCreate(be);
  if (renotify) {
    const uint64_t first = driver.CuLaunchKernel(a, &small);
    driver.CuLaunchKernel(a, &small);
    EXPECT_TRUE(driver.CancelLaunch(a, first));
  } else {
    driver.CuLaunchKernel(a, &small);
  }
  driver.CuLaunchKernel(b, &small);
  EXPECT_EQ(engine.NumRunningGrants(), gate_grants);  // a and b both wait

  RequeueOutcome out;
  driver.CuStreamAddCallback(a, [&] { out.a_done = sim.Now(); });
  driver.CuStreamAddCallback(b, [&] { out.b_done = sim.Now(); });
  sim.RunToCompletion();
  out.grants = engine.Stats().grants_completed;
  EXPECT_EQ(static_cast<int>(out.grants), gate_grants + 2);  // a and b launched once each
  return out;
}

class RequeueTest : public ::testing::TestWithParam<GatedPolicy> {};

TEST_P(RequeueTest, RenotifiedQueuedStreamKeepsItsPlaceAndLaunchesOnce) {
  // A stream re-notified while queued is queued once: the run matches one in
  // which the stream was notified only once.
  const RequeueOutcome renotified = RunRequeued(GetParam(), true);
  const RequeueOutcome once = RunRequeued(GetParam(), false);
  EXPECT_GT(renotified.a_done, 0);
  EXPECT_GT(renotified.b_done, 0);
  EXPECT_EQ(renotified.a_done, once.a_done);
  EXPECT_EQ(renotified.b_done, once.b_done);
  EXPECT_EQ(renotified.grants, once.grants);
}

INSTANTIATE_TEST_SUITE_P(GatedBaselines, RequeueTest,
                         ::testing::Values(GatedPolicy::kReef, GatedPolicy::kTgs,
                                           GatedPolicy::kOrion, GatedPolicy::kTimeslice),
                         [](const ::testing::TestParamInfo<GatedPolicy>& info) {
                           switch (info.param) {
                             case GatedPolicy::kReef:
                               return "Reef";
                             case GatedPolicy::kTgs:
                               return "Tgs";
                             case GatedPolicy::kOrion:
                               return "Orion";
                             case GatedPolicy::kTimeslice:
                               return "Timeslice";
                           }
                           return "Unknown";
                         });

// One timeslice client with two streams in flight across a preemption by a
// second client. Returns the run's engine and simulator trace bytes, which
// record the pause and resume sequence (each Pause/Resume checkpoints the
// grants it slows or speeds, and reschedules their completions).
// `heap_noise` allocations made first shift every stream's address.
std::vector<uint8_t> RunTimeslicePreemption(int heap_noise) {
  std::vector<std::unique_ptr<char[]>> noise;
  for (int i = 0; i < heap_noise; ++i) {
    noise.push_back(std::make_unique<char[]>(static_cast<size_t>(40 + 56 * i)));
  }
  Simulator sim;
  ExecutionEngine engine(&sim, GpuSpec::A100());
  Driver driver(&sim, &engine);
  TraceRecorder trace;
  sim.SetTrace(&trace);
  engine.SetTrace(&trace);
  TimesliceBackend backend(&sim, &engine);
  driver.SetBackend(&backend);
  const KernelDesc long_kernel =
      MakeKernel("long", 100000, FromMillis(10), 1.0, 0.8, engine.spec(), 64);
  const KernelDesc short_kernel =
      MakeKernel("short", 30000, FromMillis(5), 0.9, 0.6, engine.spec(), 64);
  Client* a = driver.CuCtxCreate("a", PriorityClass::kHighPriority);
  Client* b = driver.CuCtxCreate("b", PriorityClass::kBestEffort);
  Stream* a1 = driver.CuStreamCreate(a);
  Stream* a2 = driver.CuStreamCreate(a);
  Stream* b1 = driver.CuStreamCreate(b);
  driver.CuLaunchKernel(a1, &long_kernel);
  driver.CuLaunchKernel(a2, &short_kernel);
  driver.CuLaunchKernel(b1, &long_kernel);
  sim.RunUntil(FromMillis(1));
  EXPECT_EQ(backend.current_client(), a->id);
  EXPECT_EQ(engine.NumRunningGrants(), 2);  // both of a's streams in flight
  sim.RunUntil(FromMillis(3));
  EXPECT_EQ(backend.current_client(), b->id);  // a's grants paused mid-kernel
  EXPECT_EQ(engine.NumRunningGrants(), 1);
  sim.RunToCompletion();
  EXPECT_EQ(engine.NumRunningGrants(), 0);
  return trace.Serialize();
}

// Payloads (progress, ppm) of the engine checkpoint records at `t`.
std::vector<int64_t> CheckpointsAt(const std::vector<TraceRecord>& records, TimeNs t) {
  std::vector<int64_t> out;
  for (const TraceRecord& r : records) {
    if (r.time_ns == t && r.layer == static_cast<uint8_t>(TraceLayer::kEngine) &&
        r.kind == static_cast<uint8_t>(TraceKind::kGrantCheckpoint)) {
      out.push_back(r.payload);
    }
  }
  return out;
}

TEST(TimesliceDeterminismTest, PreemptedStreamsPauseAndResumeInStreamIdOrder) {
  // Paused grants resume in stream id order, never in an order that
  // depends on where the streams happen to live in memory.
  const std::vector<uint8_t> reference = RunTimeslicePreemption(0);
  for (int noise = 1; noise <= 8; ++noise) {
    EXPECT_EQ(RunTimeslicePreemption(noise), reference) << "heap noise " << noise;
  }

  // The order itself. At the 2 ms preemption the first Pause checkpoints
  // both of a's grants (slab order: a1, then a2) and the second Pause only
  // the grant still running — a2 when a1 was paused first. At the 4 ms
  // switch back, resuming the second grant checkpoints the first — a1 when
  // a1 was resumed first — after b's own pause checkpoint.
  std::vector<TraceRecord> records(
      (reference.size() - sizeof(TraceFileHeader)) / sizeof(TraceRecord));
  std::memcpy(records.data(), reference.data() + sizeof(TraceFileHeader),
              records.size() * sizeof(TraceRecord));
  const std::vector<int64_t> preempt = CheckpointsAt(records, FromMillis(2));
  ASSERT_EQ(preempt.size(), 3u);
  EXPECT_NE(preempt[0], preempt[1]);
  EXPECT_EQ(preempt[2], preempt[1]);  // a1 paused first
  const std::vector<int64_t> resume = CheckpointsAt(records, FromMillis(4));
  ASSERT_EQ(resume.size(), 2u);
  EXPECT_EQ(resume[1], preempt[0]);  // a1 resumed first
}

}  // namespace
}  // namespace lithos
