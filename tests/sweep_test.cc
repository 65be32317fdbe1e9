// SweepRunner: the determinism contract (byte-identical rendered tables and
// bit-identical result structs for any worker count), declaration-order
// collection under shuffled completion order, work stealing, job resolution,
// and exception propagation.
#include "src/experiments/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/table.h"
#include "src/experiments/harness.h"

namespace lithos {
namespace {

using bench_clock = std::chrono::steady_clock;

// --- The 18-point reference grid --------------------------------------------
//
// A miniature stacking sweep: 2 mixes x 9 systems, short windows so the
// whole grid stays test-sized. Every point is a pure function of its
// config, exactly like the real figure benches.

struct GridPoint {
  std::string hp_model;
  std::string be_model;
  SystemKind system;
};

std::vector<GridPoint> ReferenceGrid() {
  std::vector<GridPoint> grid;
  const std::vector<std::pair<std::string, std::string>> mixes = {
      {"ResNet", "BERT"},
      {"BERT", "GPT-J"},
  };
  for (const auto& mix : mixes) {
    for (SystemKind system : AllSystems()) {
      grid.push_back({mix.first, mix.second, system});
    }
  }
  return grid;
}

StackingResult RunGridPoint(const GridPoint& p) {
  StackingConfig cfg;
  cfg.system = p.system;
  cfg.warmup = FromMillis(200);
  cfg.duration = FromMillis(800);

  AppSpec hp;
  hp.role = AppRole::kHpLatency;
  hp.model = p.hp_model;
  hp.load_rps = ServiceFor(p.hp_model).load_rps;
  hp.slo = ServiceFor(p.hp_model).slo;
  hp.max_batch = ServiceFor(p.hp_model).max_batch;

  AppSpec be;
  be.role = AppRole::kBeInference;
  be.model = p.be_model;
  be.batch_size = ServiceFor(p.be_model).max_batch;

  AssignInferenceOnlyQuotas(p.system, cfg.spec, &hp, &be, &be);
  const bool no_be = p.system == SystemKind::kMig || p.system == SystemKind::kLimits;
  std::vector<AppSpec> apps = {hp};
  if (!no_be) {
    apps.push_back(be);
  }
  return RunStacking(cfg, apps);
}

std::vector<SweepPoint<StackingResult>> GridPoints() {
  std::vector<SweepPoint<StackingResult>> points;
  for (const GridPoint& p : ReferenceGrid()) {
    points.push_back(
        {p.hp_model + "+" + p.be_model + "/" + SystemName(p.system),
         [p] { return RunGridPoint(p); }});
  }
  return points;
}

// Bit-level equality: the contract is bit-identical result structs, not
// merely approximately equal metrics.
bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitIdentical(const StackingResult& a, const StackingResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_TRUE(BitIdentical(a.apps[i].p50_ms, b.apps[i].p50_ms));
    EXPECT_TRUE(BitIdentical(a.apps[i].p99_ms, b.apps[i].p99_ms));
    EXPECT_TRUE(BitIdentical(a.apps[i].mean_ms, b.apps[i].mean_ms));
    EXPECT_TRUE(BitIdentical(a.apps[i].throughput_rps, b.apps[i].throughput_rps));
    EXPECT_TRUE(BitIdentical(a.apps[i].goodput_rps, b.apps[i].goodput_rps));
    EXPECT_TRUE(BitIdentical(a.apps[i].slo_attainment, b.apps[i].slo_attainment));
    EXPECT_TRUE(BitIdentical(a.apps[i].iterations_per_s, b.apps[i].iterations_per_s));
    EXPECT_EQ(a.apps[i].completed, b.apps[i].completed);
  }
  EXPECT_TRUE(BitIdentical(a.engine.busy_tpc_seconds, b.engine.busy_tpc_seconds));
  EXPECT_TRUE(BitIdentical(a.engine.energy_joules, b.engine.energy_joules));
  EXPECT_EQ(a.predictor_predictions, b.predictor_predictions);
  EXPECT_EQ(a.atoms_dispatched, b.atoms_dispatched);
  EXPECT_EQ(a.tpcs_stolen, b.tpcs_stolen);
}

std::string RenderTable(const std::vector<StackingResult>& results) {
  Table t({"point", "p99 ms", "throughput", "slo", "completed"});
  const auto grid = ReferenceGrid();
  for (size_t i = 0; i < results.size(); ++i) {
    t.AddRow({grid[i].hp_model + "/" + SystemName(grid[i].system),
              Table::Num(results[i].apps[0].p99_ms, 3),
              Table::Num(results[i].apps[0].throughput_rps, 3),
              Table::Num(results[i].apps[0].slo_attainment, 4),
              std::to_string(results[i].apps[0].completed)});
  }
  return t.ToString();
}

TEST(SweepRunnerTest, GridIsByteIdenticalAcrossWorkerCounts) {
  const std::vector<StackingResult> serial = SweepRunner(1).Run(GridPoints());
  ASSERT_EQ(serial.size(), 18u);
  const std::string serial_table = RenderTable(serial);

  for (int jobs : {2, 8}) {
    SweepRunner runner(jobs);
    const std::vector<StackingResult> parallel = runner.Run(GridPoints());
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectBitIdentical(serial[i], parallel[i]);
    }
    // The rendered table must match byte for byte.
    EXPECT_EQ(serial_table, RenderTable(parallel)) << "jobs=" << jobs;
  }
}

// --- Ordering and stealing ---------------------------------------------------

TEST(SweepRunnerTest, CollectsInDeclarationOrderUnderShuffledCompletion) {
  // Points complete in an order unrelated to declaration: point i sleeps a
  // pseudo-random amount, so later-declared points routinely finish first.
  constexpr size_t kN = 64;
  std::vector<SweepPoint<size_t>> points;
  std::atomic<size_t> completion_rank{0};
  std::vector<size_t> rank_of(kN, 0);
  for (size_t i = 0; i < kN; ++i) {
    points.push_back({"p" + std::to_string(i), [i, &completion_rank, &rank_of] {
                        const int ms = static_cast<int>((i * 7919 + 13) % 17);
                        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
                        rank_of[i] = completion_rank.fetch_add(1);
                        return i;
                      }});
  }
  SweepRunner runner(8);
  const std::vector<size_t> results = runner.Run(points);
  ASSERT_EQ(results.size(), kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(results[i], i);  // slot i holds point i's result, always
  }
  // Sanity: with 8 workers and shuffled sleeps, completion order actually
  // differed from declaration order (otherwise this test proves nothing).
  bool any_out_of_order = false;
  for (size_t i = 1; i < kN; ++i) {
    if (rank_of[i] < rank_of[i - 1]) {
      any_out_of_order = true;
      break;
    }
  }
  EXPECT_TRUE(any_out_of_order);
}

TEST(SweepRunnerTest, SpreadsSlowPointsAcrossWorkers) {
  // Every fourth point is slow: 10 x 20ms of work. A pool that dealt points
  // out in fixed stripes (i mod 4) would hand all of it to one worker and
  // take >= 200ms; claiming from the shared counter spreads it and caps the
  // critical path near 60ms. Use a loose 150ms bound to stay robust on slow
  // CI.
  constexpr size_t kWorkers = 4;
  std::vector<SweepPoint<int>> points;
  for (size_t i = 0; i < 40; ++i) {
    const bool slow = i % kWorkers == 0;
    points.push_back({"p", [slow] {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(slow ? 20 : 0));
                        return slow ? 1 : 0;
                      }});
  }
  SweepRunner runner(static_cast<int>(kWorkers));
  const auto t0 = bench_clock::now();
  const std::vector<int> results = runner.Run(points);
  const double ms =
      std::chrono::duration<double, std::milli>(bench_clock::now() - t0).count();
  EXPECT_EQ(std::count(results.begin(), results.end(), 1), 10);
  if (std::thread::hardware_concurrency() >= kWorkers) {
    EXPECT_LT(ms, 150.0);
  }
}

// --- Plumbing ----------------------------------------------------------------

TEST(SweepRunnerTest, ResolveJobsPrecedence) {
  EXPECT_EQ(ResolveSweepJobs(3), 3);

  ASSERT_EQ(setenv("LITHOS_JOBS", "5", 1), 0);
  EXPECT_EQ(ResolveSweepJobs(0), 5);
  EXPECT_EQ(ResolveSweepJobs(2), 2);  // explicit beats the environment

  ASSERT_EQ(setenv("LITHOS_JOBS", "garbage", 1), 0);
  EXPECT_GE(ResolveSweepJobs(0), 1);  // unparseable env falls through

  ASSERT_EQ(unsetenv("LITHOS_JOBS"), 0);
  EXPECT_GE(ResolveSweepJobs(0), 1);  // hardware_concurrency floor
}

TEST(SweepRunnerTest, ParseJobsArgForms) {
  const char* argv1[] = {"bench", "--jobs", "4"};
  EXPECT_EQ(ParseJobsArg(3, const_cast<char**>(argv1)), 4);
  const char* argv2[] = {"bench", "--jobs=7"};
  EXPECT_EQ(ParseJobsArg(2, const_cast<char**>(argv2)), 7);
  const char* argv3[] = {"bench", "-j", "2"};
  EXPECT_EQ(ParseJobsArg(3, const_cast<char**>(argv3)), 2);
  const char* argv4[] = {"bench"};
  EXPECT_EQ(ParseJobsArg(1, const_cast<char**>(argv4)), 0);
  const char* argv5[] = {"bench", "--jobs"};  // missing value
  EXPECT_EQ(ParseJobsArg(2, const_cast<char**>(argv5)), 0);
}

TEST(SweepRunnerTest, EmptyAndSinglePointGrids) {
  SweepRunner runner(4);
  EXPECT_TRUE(runner.Run(std::vector<SweepPoint<int>>{}).empty());
  std::vector<SweepPoint<int>> one = {{"only", [] { return 41; }}};
  const std::vector<int> r = runner.Run(one);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 41);
  EXPECT_EQ(runner.points_run(), 1u);
}

TEST(SweepRunnerTest, FirstExceptionInDeclarationOrderPropagates) {
  // Contract: every point runs regardless of failures elsewhere, and the
  // first failure by declaration index is rethrown — identically for serial
  // and parallel execution.
  for (int jobs : {1, 4}) {
    std::atomic<int> executed{0};
    std::vector<SweepPoint<int>> points;
    for (int i = 0; i < 16; ++i) {
      points.push_back({"p" + std::to_string(i), [i, &executed]() -> int {
                          executed.fetch_add(1);
                          if (i == 5 || i == 11) {
                            throw std::runtime_error("point " + std::to_string(i));
                          }
                          return i;
                        }});
    }
    SweepRunner runner(jobs);
    try {
      runner.Run(points);
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "point 5") << "jobs=" << jobs;
    }
    EXPECT_EQ(executed.load(), 16) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace lithos
