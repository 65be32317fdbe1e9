// Tests for the execution engine: grant lifecycle, sharing semantics,
// preemption variants, DVFS switching, co-residency contention, and the
// power/capacity accounting.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/gpu/execution_engine.h"
#include "src/sim/simulator.h"

namespace lithos {
namespace {

// 10ms at full device, perfectly parallel up to its occupancy bound, with no
// frequency sensitivity unless stated.
KernelDesc BigKernel(const GpuSpec& spec, double sens = 0.0) {
  KernelDesc k = MakeKernel("big", 100000, FromMillis(10), 1.0, sens, spec);
  k.serial_b_ns = 0;  // exact m/t law for easy arithmetic
  k.work_m_ns = FromMillis(10) * spec.TotalTpcs();
  return k;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(&sim_, GpuSpec::A100()) {}

  WorkItem Item(const KernelDesc* k, int client = 1,
                std::function<void(const GrantInfo&)> cb = nullptr) {
    WorkItem item;
    item.kernel = k;
    item.client_id = client;
    item.on_complete = std::move(cb);
    return item;
  }

  Simulator sim_;
  ExecutionEngine engine_;
};

TEST_F(EngineTest, ExclusiveGrantFinishesAtModelLatency) {
  const KernelDesc k = BigKernel(engine_.spec());
  GrantInfo done;
  engine_.Launch(Item(&k, 1, [&](const GrantInfo& info) { done = info; }),
                 engine_.spec().AllTpcs());
  sim_.RunToCompletion();
  EXPECT_EQ(done.end_time, FromMillis(10));
  EXPECT_EQ(done.allocated_tpcs, 54);
}

TEST_F(EngineTest, HalfDeviceTakesTwiceAsLong) {
  const KernelDesc k = BigKernel(engine_.spec());
  TimeNs end = 0;
  engine_.Launch(Item(&k, 1, [&](const GrantInfo& info) { end = info.end_time; }),
                 TpcRange(0, 27));
  sim_.RunToCompletion();
  EXPECT_EQ(end, FromMillis(20));
}

TEST_F(EngineTest, DisjointGrantsDoNotInterfere) {
  const KernelDesc k = BigKernel(engine_.spec());
  TimeNs end_a = 0, end_b = 0;
  engine_.Launch(Item(&k, 1, [&](const GrantInfo& i) { end_a = i.end_time; }), TpcRange(0, 27));
  engine_.Launch(Item(&k, 2, [&](const GrantInfo& i) { end_b = i.end_time; }), TpcRange(27, 54));
  sim_.RunToCompletion();
  EXPECT_EQ(end_a, FromMillis(20));
  EXPECT_EQ(end_b, FromMillis(20));
}

TEST_F(EngineTest, EqualWeightSharingHalvesRate) {
  // Two equal-weight device-filling kernels on the same mask: each sees 27
  // effective TPCs; with equal demand there is no co-residency asymmetry but
  // both still pay the (symmetric) contention tax — disable it here to test
  // pure sharing.
  GpuSpec spec = GpuSpec::A100();
  spec.coresidency_penalty = 0;
  ExecutionEngine engine(&sim_, spec);
  const KernelDesc k = BigKernel(spec);
  TimeNs end_a = 0, end_b = 0;
  WorkItem a = Item(&k, 1, [&](const GrantInfo& i) { end_a = i.end_time; });
  WorkItem b = Item(&k, 2, [&](const GrantInfo& i) { end_b = i.end_time; });
  engine.Launch(std::move(a), spec.AllTpcs());
  engine.Launch(std::move(b), spec.AllTpcs());
  sim_.RunToCompletion();
  EXPECT_EQ(end_a, FromMillis(20));
  EXPECT_EQ(end_b, FromMillis(20));
}

TEST_F(EngineTest, ShareWeightSkewsAllocation) {
  GpuSpec spec = GpuSpec::A100();
  spec.coresidency_penalty = 0;
  ExecutionEngine engine(&sim_, spec);
  const KernelDesc k = BigKernel(spec);
  TimeNs end_heavy = 0, end_light = 0;
  WorkItem heavy = Item(&k, 1, [&](const GrantInfo& i) { end_heavy = i.end_time; });
  heavy.share_weight = 3.0;
  WorkItem light = Item(&k, 2, [&](const GrantInfo& i) { end_light = i.end_time; });
  light.share_weight = 1.0;
  engine.Launch(std::move(heavy), spec.AllTpcs());
  engine.Launch(std::move(light), spec.AllTpcs());
  sim_.RunToCompletion();
  // Heavy gets 3/4 of the device while sharing; it finishes earlier.
  EXPECT_LT(end_heavy, end_light);
}

TEST_F(EngineTest, CompletionFreesCapacityForSurvivor) {
  GpuSpec spec = GpuSpec::A100();
  spec.coresidency_penalty = 0;
  ExecutionEngine engine(&sim_, spec);
  // One 10ms kernel alone vs one that shares for the first half.
  KernelDesc k10 = BigKernel(spec);
  KernelDesc k5 = BigKernel(spec);
  k5.work_m_ns /= 2;  // 5ms at full device
  TimeNs end_long = 0;
  engine.Launch(Item(&k10, 1, [&](const GrantInfo& i) { end_long = i.end_time; }),
                spec.AllTpcs());
  engine.Launch(Item(&k5, 2), spec.AllTpcs());
  sim_.RunToCompletion();
  // Shared until the 5ms kernel finishes at t=10ms (it runs at half rate);
  // the long kernel then speeds up: 10ms of work done 5ms worth by t=10,
  // remaining 5ms at full rate => 15ms.
  EXPECT_EQ(end_long, FromMillis(15));
}

TEST_F(EngineTest, PausePreservesProgress) {
  const KernelDesc k = BigKernel(engine_.spec());
  TimeNs end = 0;
  const GrantId id = engine_.Launch(
      Item(&k, 1, [&](const GrantInfo& i) { end = i.end_time; }), engine_.spec().AllTpcs());
  sim_.ScheduleAt(FromMillis(4), [&] { engine_.Pause(id); });
  sim_.ScheduleAt(FromMillis(9), [&] { engine_.Resume(id, engine_.spec().AllTpcs()); });
  sim_.RunToCompletion();
  // 4ms run + 5ms paused + 6ms remaining = 15ms.
  EXPECT_EQ(end, FromMillis(15));
}

TEST_F(EngineTest, PausedGrantHoldsNoTpcs) {
  const KernelDesc k = BigKernel(engine_.spec());
  const GrantId id = engine_.Launch(Item(&k, 1), engine_.spec().AllTpcs());
  sim_.ScheduleAt(FromMillis(1), [&] {
    engine_.Pause(id);
    EXPECT_EQ(engine_.BusyMask().count(), 0u);
    EXPECT_EQ(engine_.NumRunningGrants(), 0);
    EXPECT_TRUE(engine_.IsActive(id));
  });
  sim_.RunUntil(FromMillis(2));
}

TEST_F(EngineTest, AbortDiscardsProgressAndSkipsCallback) {
  const KernelDesc k = BigKernel(engine_.spec());
  bool called = false;
  const GrantId id = engine_.Launch(
      Item(&k, 1, [&](const GrantInfo&) { called = true; }), engine_.spec().AllTpcs());
  sim_.ScheduleAt(FromMillis(5), [&] {
    const WorkItem recovered = engine_.Abort(id);
    EXPECT_EQ(recovered.kernel, &k);
    EXPECT_FALSE(engine_.IsActive(id));
  });
  sim_.RunToCompletion();
  EXPECT_FALSE(called);
  // ResetStats-style accounting: the abort is counted.
  EXPECT_EQ(engine_.Stats().grants_aborted, 1u);
  EXPECT_EQ(engine_.Stats().grants_completed, 0u);
}

TEST_F(EngineTest, FrequencySwitchTakesLatencyAndSlowsComputeBound) {
  const GpuSpec& spec = engine_.spec();
  const KernelDesc k = BigKernel(spec, /*sens=*/1.0);
  TimeNs end = 0;
  engine_.Launch(Item(&k, 1, [&](const GrantInfo& i) { end = i.end_time; }), spec.AllTpcs());
  engine_.RequestFrequencyMhz(spec.max_mhz / 2);
  EXPECT_EQ(engine_.CurrentFrequencyMhz(), spec.max_mhz);  // not yet applied
  sim_.RunToCompletion();
  // Switch lands at 50ms >> kernel end; kernel unaffected.
  EXPECT_EQ(end, FromMillis(10));
  EXPECT_EQ(engine_.CurrentFrequencyMhz(), spec.ClampFrequency(spec.max_mhz / 2));
}

TEST_F(EngineTest, LowFrequencySlowsSensitiveKernelOnly) {
  const GpuSpec& spec = engine_.spec();
  engine_.RequestFrequencyMhz(705);
  sim_.RunUntil(FromMillis(60));  // let the switch land
  ASSERT_EQ(engine_.CurrentFrequencyMhz(), 705);

  const KernelDesc compute = BigKernel(spec, 1.0);
  const KernelDesc memory = BigKernel(spec, 0.0);
  TimeNs end_c = 0, end_m = 0;
  const TimeNs start = sim_.Now();
  engine_.Launch(Item(&compute, 1, [&](const GrantInfo& i) { end_c = i.end_time; }),
                 TpcRange(0, 27));
  engine_.Launch(Item(&memory, 2, [&](const GrantInfo& i) { end_m = i.end_time; }),
                 TpcRange(27, 54));
  sim_.RunToCompletion();
  EXPECT_EQ(end_m - start, FromMillis(20));  // insensitive: only the TPC halving
  EXPECT_EQ(end_c - start, FromMillis(40));  // 2x from clock halving as well
}

TEST_F(EngineTest, CoalescedFrequencyRequestsApplyLatestTarget) {
  const GpuSpec& spec = engine_.spec();
  engine_.RequestFrequencyMhz(1200);
  engine_.RequestFrequencyMhz(900);  // overrides while switch in flight
  sim_.RunUntil(FromMillis(200));
  EXPECT_EQ(engine_.CurrentFrequencyMhz(), spec.ClampFrequency(900));
}

TEST_F(EngineTest, CoresidencyTaxHitsSmallKernelSharingWithBig) {
  GpuSpec spec = GpuSpec::A100();
  spec.coresidency_penalty = 8.0;
  ExecutionEngine engine(&sim_, spec);

  // Small victim: 32 blocks (useful = 2 TPCs), 1ms alone.
  KernelDesc victim = MakeKernel("victim", 32, FromMillis(1), 0.9, 0.5, spec);
  // Big aggressor kernel, long enough to stay resident throughout.
  KernelDesc big = BigKernel(spec);
  big.work_m_ns *= 10;

  WorkItem aggressor;
  aggressor.kernel = &big;
  aggressor.client_id = 1;
  aggressor.share_weight = 100000;  // blocks-weighted in real backends
  engine.Launch(std::move(aggressor), spec.AllTpcs());

  TimeNs end = 0;
  WorkItem v;
  v.kernel = &victim;
  v.client_id = 2;
  v.share_weight = 32;
  v.on_complete = [&](const GrantInfo& i) { end = i.end_time; };
  const TimeNs start = sim_.Now();
  engine.Launch(std::move(v), spec.AllTpcs());
  sim_.RunUntil(FromSeconds(1));
  ASSERT_GT(end, 0);
  // Far slower than alone: effective share is tiny and the tax applies.
  EXPECT_GT(end - start, 3 * FromMillis(1));
}

TEST_F(EngineTest, EnergyAccountingIdleVsBusy) {
  const GpuSpec& spec = engine_.spec();
  // 1 second fully idle.
  sim_.ScheduleAt(FromSeconds(1), [] {});
  sim_.RunToCompletion();
  const double idle_joules = engine_.Stats().energy_joules;
  EXPECT_NEAR(idle_joules, spec.idle_power_w, 0.5);

  // Then a kernel occupying the whole device for 1 simulated second.
  KernelDesc k = BigKernel(spec);
  k.work_m_ns = static_cast<double>(FromSeconds(1)) * spec.TotalTpcs();
  engine_.Launch(Item(&k, 1), spec.AllTpcs());
  sim_.RunToCompletion();
  const EngineStats& after = engine_.Stats();
  EXPECT_NEAR(after.energy_joules - idle_joules,
              spec.idle_power_w + spec.dynamic_power_w, 2.0);
  EXPECT_NEAR(after.busy_tpc_seconds, 54.0, 0.1);
}

TEST_F(EngineTest, PerClientCapacityAccounting) {
  const GpuSpec& spec = engine_.spec();
  KernelDesc k = BigKernel(spec);
  // 27 TPCs for what will take 20ms => 0.54 TPC-seconds.
  engine_.Launch(Item(&k, 7), TpcRange(0, 27));
  sim_.RunToCompletion();
  const EngineStats& stats = engine_.Stats();
  EXPECT_NEAR(stats.allocated_tpc_seconds.at(7), 27 * 0.020, 1e-3);
}

TEST_F(EngineTest, ResetStatsClearsIntegrals) {
  const KernelDesc k = BigKernel(engine_.spec());
  engine_.Launch(Item(&k, 1), engine_.spec().AllTpcs());
  sim_.RunToCompletion();
  EXPECT_GT(engine_.Stats().energy_joules, 0);
  engine_.ResetStats();
  EXPECT_EQ(engine_.Stats().grants_completed, 0u);
  EXPECT_DOUBLE_EQ(engine_.Stats().energy_joules, 0);
}

TEST_F(EngineTest, UniformModeRoundTripsThroughPerTpcBookkeeping) {
  const GpuSpec& spec = engine_.spec();
  const KernelDesc k = BigKernel(spec);
  const TpcMask partial = TpcRange(0, 10);
  // Expected sharers: `on_partial` on the partial range, `on_rest` on the
  // device's other TPCs, 0 past the device.
  auto expect_sharers = [&](int on_partial, int on_rest) {
    for (int t = 0; t < kMaxTpcs; ++t) {
      const int want = partial.test(t) ? on_partial : (t < spec.TotalTpcs() ? on_rest : 0);
      EXPECT_EQ(engine_.SharersOn(t), want) << "TPC " << t;
    }
  };

  // Whole-device grants only.
  const GrantId a = engine_.Launch(Item(&k, 1), engine_.AllTpcs());
  const GrantId b = engine_.Launch(Item(&k, 2), engine_.AllTpcs());
  expect_sharers(2, 2);
  EXPECT_EQ(engine_.BusyMask(), spec.AllTpcs());

  // A partial grant lands beside them.
  const GrantId p = engine_.Launch(Item(&k, 3), partial);
  expect_sharers(3, 2);
  EXPECT_EQ(engine_.BusyMask(), spec.AllTpcs());

  // The whole-device grants leave; the partial one keeps running.
  engine_.Abort(a);
  engine_.Abort(b);
  expect_sharers(1, 0);
  EXPECT_EQ(engine_.BusyMask(), partial);

  // Drained.
  engine_.Abort(p);
  expect_sharers(0, 0);
  EXPECT_TRUE(engine_.BusyMask().none());
  EXPECT_EQ(engine_.NumRunningGrants(), 0);

  // A whole-device grant again runs at the exclusive rate: no weight from
  // the earlier grants is left behind.
  TimeNs end = 0;
  engine_.Launch(Item(&k, 1, [&](const GrantInfo& i) { end = i.end_time; }), engine_.AllTpcs());
  expect_sharers(1, 1);
  EXPECT_EQ(engine_.BusyMask(), spec.AllTpcs());
  sim_.RunToCompletion();
  EXPECT_EQ(end, FromMillis(10));
}

struct WholeDeviceRun {
  std::vector<TimeNs> end_times;  // in completion order
  double energy_joules = 0;
};

// Runs a fixed schedule of whole-device grants. Three clients each run a
// chain of 20 kernels, weighted as BaselineBackend::SubmitWhole weights them
// (priority boost x thread blocks, so every weight is an integer); one chain
// is paused and resumed, another has a grant aborted and relaunched, and the
// clock switches once. A long anchor grant runs throughout. With
// `force_per_tpc`, a one-TPC grant is launched and aborted at t = 0 after the
// first grants land: the engine leaves uniform mode and, with the anchor
// running, does not return to it, so it books the same schedule per TPC.
// Integer weights make that launch-and-abort exact on TPC 0.
WholeDeviceRun RunWholeDeviceSchedule(bool force_per_tpc) {
  Simulator sim;
  const GpuSpec spec = GpuSpec::A100();
  ExecutionEngine engine(&sim, spec);
  const std::array<KernelDesc, 3> kernels = {
      MakeKernel("hp", 240, FromMicros(300), 0.9, 0.6, spec),
      MakeKernel("be", 4000, FromMicros(700), 0.95, 0.3, spec),
      MakeKernel("mid", 1500, FromMicros(450), 0.8, 0.8, spec)};
  const std::array<double, 3> boost = {8.0, 1.0, 1.0};
  const KernelDesc anchor = MakeKernel("anchor", 500, FromMillis(50), 1.0, 0.5, spec);

  WholeDeviceRun run;
  std::array<GrantId, 3> current{};
  std::array<int, 3> launched{};
  std::array<std::function<void()>, 3> launchers;
  for (size_t c = 0; c < 3; ++c) {
    launchers[c] = [&, c] {
      if (launched[c]++ == 20) {
        return;
      }
      WorkItem item;
      item.kernel = &kernels[c];
      item.client_id = static_cast<int>(c) + 1;
      item.share_weight = boost[c] * static_cast<double>(kernels[c].NumBlocks());
      item.on_complete = [&, c](const GrantInfo& info) {
        run.end_times.push_back(info.end_time);
        launchers[c]();
      };
      current[c] = engine.Launch(std::move(item), engine.AllTpcs());
    };
  }

  sim.ScheduleAt(FromMillis(2), [&] { engine.Pause(current[1]); });
  sim.ScheduleAt(FromMillis(3), [&] { engine.Resume(current[1], engine.AllTpcs()); });
  sim.ScheduleAt(FromMillis(4), [&] {
    engine.Abort(current[2]);
    --launched[2];
    launchers[2]();
  });
  sim.ScheduleAt(FromMillis(5), [&] { engine.RequestFrequencyMhz(1200); });

  WorkItem anchor_item;
  anchor_item.kernel = &anchor;
  anchor_item.client_id = 4;
  anchor_item.share_weight = static_cast<double>(anchor.NumBlocks());
  anchor_item.on_complete = [&](const GrantInfo& info) { run.end_times.push_back(info.end_time); };
  engine.Launch(std::move(anchor_item), engine.AllTpcs());
  for (auto& launch : launchers) {
    launch();
  }
  if (force_per_tpc) {
    WorkItem probe;
    probe.kernel = &anchor;
    probe.client_id = 5;
    engine.Abort(engine.Launch(std::move(probe), TpcRange(0, 1)));
  }
  sim.RunToCompletion();
  run.energy_joules = engine.Stats().energy_joules;
  return run;
}

TEST(EngineUniformModeTest, PerTpcBookkeepingMatchesUniformBitForBit) {
  const WholeDeviceRun uniform = RunWholeDeviceSchedule(false);
  const WholeDeviceRun per_tpc = RunWholeDeviceSchedule(true);
  ASSERT_EQ(uniform.end_times.size(), 61u);  // 3 chains x 20 + the anchor
  EXPECT_EQ(uniform.end_times, per_tpc.end_times);
  EXPECT_EQ(uniform.energy_joules, per_tpc.energy_joules);
}

// Work-conservation property: N sequential equal kernels on the full device
// finish at exactly N * single-kernel latency regardless of how they are cut
// into block ranges.
class WorkConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkConservationTest, BlockRangePartitionPreservesTotalWork) {
  Simulator sim;
  GpuSpec spec = GpuSpec::A100();
  ExecutionEngine engine(&sim, spec);
  // Small thread blocks: 64 blocks/TPC, so even 1/16 of the grid still fills
  // all 54 TPCs and the occupancy cap never bites.
  KernelDesc k = MakeKernel("k", 60000, FromMillis(8), 1.0, 0.0, spec, /*threads_per_block=*/64);
  k.regs_per_thread = 16;
  k.serial_b_ns = 0;
  k.work_m_ns = FromMillis(8) * spec.TotalTpcs();

  const int pieces = GetParam();
  const uint32_t blocks = k.NumBlocks();
  TimeNs last_end = 0;
  uint32_t lo = 0;
  std::function<void(uint32_t)> launch_piece = [&](uint32_t index) {
    const uint32_t hi = index + 1 == static_cast<uint32_t>(pieces)
                            ? blocks
                            : (index + 1) * (blocks / pieces);
    WorkItem item;
    item.kernel = &k;
    item.block_lo = lo;
    item.block_hi = hi;
    item.client_id = 1;
    item.on_complete = [&, index](const GrantInfo& info) {
      last_end = info.end_time;
      lo = info.block_hi;
      if (index + 1 < static_cast<uint32_t>(pieces)) {
        launch_piece(index + 1);
      }
    };
    engine.Launch(std::move(item), spec.AllTpcs());
  };
  launch_piece(0);
  sim.RunToCompletion();
  // Perfectly parallel work, no serial floor: pieces sum to the whole.
  EXPECT_NEAR(static_cast<double>(last_end), static_cast<double>(FromMillis(8)),
              static_cast<double>(FromMillis(8)) * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Pieces, WorkConservationTest, ::testing::Values(1, 2, 3, 5, 8, 16));

}  // namespace
}  // namespace lithos
