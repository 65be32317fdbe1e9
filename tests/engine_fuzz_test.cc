// Randomised invariant tests for the execution engine: arbitrary interleaved
// launches, pauses, resumes and aborts must never violate
// the engine's accounting invariants, and all surviving work must eventually
// complete exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/gpu/execution_engine.h"
#include "src/sim/simulator.h"

namespace lithos {
namespace {

struct FuzzResult {
  int launched = 0;
  int completed = 0;
  int aborted = 0;
  std::multiset<GrantId> completions;
};

// With `whole_device_share` > 0, that share of launch and resume
// masks covers the whole device, so the engine moves in and out of its
// uniform (every grant whole-device) bookkeeping mid-run.
void ExpectEveryGrantCompletesOrAbortsExactlyOnce(const GpuSpec& spec, uint64_t seed,
                                                  double whole_device_share = 0) {
  Simulator sim;
  ExecutionEngine engine(&sim, spec);
  Rng rng(seed);
  const int total = spec.TotalTpcs();

  std::vector<KernelDesc> kernels;
  kernels.reserve(8);
  for (int i = 0; i < 8; ++i) {
    kernels.push_back(MakeKernel("k" + std::to_string(i),
                                 static_cast<uint32_t>(rng.UniformInt(1, 50000)),
                                 FromMicros(rng.Uniform(50, 5000)), rng.Uniform(0.2, 1.0),
                                 rng.Uniform(0.0, 1.0), spec));
  }

  FuzzResult result;
  std::vector<GrantId> live;
  std::vector<GrantId> paused;
  std::map<GrantId, TpcMask> masks;  // last mask each grant was given
  // The coin is drawn only when whole_device_share > 0, so the partial-only
  // cases keep their random stream.
  auto draw_mask = [&](auto partial) -> TpcMask {
    if (whole_device_share > 0 && rng.Uniform(0, 1) < whole_device_share) {
      return spec.AllTpcs();
    }
    return partial();
  };

  // Schedule a random action every 100us for 200 steps.
  for (int step = 0; step < 200; ++step) {
    sim.ScheduleAt(step * FromMicros(100), [&, step] {
      const int action = static_cast<int>(rng.UniformInt(0, 9));
      // Prune dead ids lazily.
      auto prune = [&](std::vector<GrantId>& v) {
        v.erase(std::remove_if(v.begin(), v.end(),
                               [&](GrantId g) { return !engine.IsActive(g); }),
                v.end());
      };
      prune(live);
      prune(paused);

      // Per-TPC sharer counts and the busy mask match the running grants'
      // masks, checked with a plain bit loop on every TPC a mask can name.
      std::vector<int> sharers(static_cast<size_t>(kMaxTpcs), 0);
      TpcMask busy;
      for (const GrantId g : live) {
        for (int t = 0; t < kMaxTpcs; ++t) {
          if (masks[g].test(t)) {
            ++sharers[static_cast<size_t>(t)];
            busy.set(t);
          }
        }
      }
      EXPECT_EQ(engine.BusyMask(), busy);
      for (int t = 0; t < kMaxTpcs; ++t) {
        EXPECT_EQ(engine.SharersOn(t), sharers[static_cast<size_t>(t)]) << "TPC " << t;
      }

      if (action <= 4 || (live.empty() && paused.empty())) {
        // Launch on a random non-empty mask.
        const TpcMask mask = draw_mask([&] {
          const int lo = static_cast<int>(rng.UniformInt(0, total - 2));
          const int hi = static_cast<int>(rng.UniformInt(lo + 1, total));
          return TpcRange(lo, hi);
        });
        WorkItem item;
        item.kernel = &kernels[static_cast<size_t>(rng.UniformInt(0, 7))];
        item.client_id = static_cast<int>(rng.UniformInt(1, 4));
        item.share_weight = rng.Uniform(1, 4000);
        item.on_complete = [&result](const GrantInfo& info) {
          ++result.completed;
          result.completions.insert(info.id);
          EXPECT_GE(info.end_time, info.start_time);
        };
        live.push_back(engine.Launch(std::move(item), mask));
        masks[live.back()] = mask;
        ++result.launched;
      } else if (action == 5 && !live.empty()) {
        const size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int>(live.size()) - 1));
        engine.Pause(live[i]);
        paused.push_back(live[i]);
        live.erase(live.begin() + static_cast<long>(i));
      } else if (action == 6 && !paused.empty()) {
        const size_t i =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int>(paused.size()) - 1));
        masks[paused[i]] =
            draw_mask([&] { return TpcRange(0, static_cast<int>(rng.UniformInt(1, total))); });
        engine.Resume(paused[i], masks[paused[i]]);
        live.push_back(paused[i]);
        paused.erase(paused.begin() + static_cast<long>(i));
      } else if (action >= 7 && !live.empty()) {
        const size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int>(live.size()) - 1));
        engine.Abort(live[i]);
        ++result.aborted;
        live.erase(live.begin() + static_cast<long>(i));
      }
    });
  }

  // Resume anything left paused so the run can drain.
  sim.ScheduleAt(200 * FromMicros(100), [&] {
    for (GrantId g : paused) {
      if (engine.IsActive(g)) {
        engine.Resume(g, spec.AllTpcs());
      }
    }
  });
  sim.RunToCompletion();

  // Conservation: launched = completed + aborted, no double completion.
  EXPECT_EQ(result.launched, result.completed + result.aborted);
  for (const GrantId g : result.completions) {
    EXPECT_EQ(result.completions.count(g), 1u);
  }
  // Engine fully drained.
  EXPECT_EQ(engine.NumRunningGrants(), 0);
  EXPECT_EQ(engine.BusyMask().count(), 0u);
  const EngineStats& stats = engine.Stats();
  EXPECT_EQ(stats.grants_completed, static_cast<uint64_t>(result.completed));
  EXPECT_EQ(stats.grants_aborted, static_cast<uint64_t>(result.aborted));
  // Energy and capacity integrals are finite and non-negative.
  EXPECT_GE(stats.energy_joules, 0.0);
  EXPECT_GE(stats.busy_tpc_seconds, 0.0);
}

class EngineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzzTest, EveryGrantCompletesOrAbortsExactlyOnce) {
  ExpectEveryGrantCompletesOrAbortsExactlyOnce(GpuSpec::A100(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// The H100's 68 TPCs cross the 64-bit word boundary of TpcMask, which the
// A100's 54 never reach.
class EngineFuzzH100Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzzH100Test, EveryGrantCompletesOrAbortsExactlyOnce) {
  ExpectEveryGrantCompletesOrAbortsExactlyOnce(GpuSpec::H100(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzH100Test,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// About half the masks cover the whole device, with the same non-integer
// share weights: the engine leaves and re-enters its uniform bookkeeping
// mid-run, some seeds with whole-device grants already running when a
// partial mask lands, on a spec inside one mask word and one across two.
class EngineFuzzWholeDeviceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzzWholeDeviceTest, EveryGrantCompletesOrAbortsExactlyOnce) {
  ExpectEveryGrantCompletesOrAbortsExactlyOnce(GpuSpec::A100(), GetParam(), 0.5);
  ExpectEveryGrantCompletesOrAbortsExactlyOnce(GpuSpec::H100(), GetParam(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzWholeDeviceTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808, 909, 1010));

// The sum of per-client allocated TPC-seconds can never exceed
// total TPCs x elapsed time when masks are disjoint.
TEST(EngineAccountingTest, DisjointAllocationBoundedByDeviceCapacity) {
  Simulator sim;
  GpuSpec spec = GpuSpec::A100();
  ExecutionEngine engine(&sim, spec);
  KernelDesc k = MakeKernel("k", 100000, FromMillis(5), 1.0, 0.5, spec, 64);

  // Three disjoint clients, back-to-back kernels for 100ms. The relaunch
  // closures must outlive the loop (completions reference them), so they
  // live in a stable array.
  std::array<std::function<void()>, 3> launchers;
  for (int c = 0; c < 3; ++c) {
    const int lo = c * 18;
    launchers[static_cast<size_t>(c)] = [&sim, &engine, &k, &launchers, c, lo] {
      if (sim.Now() >= FromMillis(100)) {
        return;
      }
      WorkItem item;
      item.kernel = &k;
      item.client_id = c + 1;
      item.on_complete = [&launchers, c](const GrantInfo&) {
        launchers[static_cast<size_t>(c)]();
      };
      engine.Launch(std::move(item), TpcRange(lo, lo + 18));
    };
    launchers[static_cast<size_t>(c)]();
  }
  sim.RunUntil(FromMillis(200));
  sim.RunToCompletion();

  const EngineStats& stats = engine.Stats();
  double total = 0;
  for (const auto& [client, v] : stats.allocated_tpc_seconds) {
    total += v;
  }
  EXPECT_LE(total, 54.0 * stats.elapsed_seconds * 1.001);
}

}  // namespace
}  // namespace lithos
