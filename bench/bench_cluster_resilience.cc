// Gray failures and request-level resilience: rack-correlated crashes and
// zone partitions against the dispatch-path policies (retry / hedge / shed).
//
// Zone outages (bench_cluster_faults) are clean failures: the dispatcher
// sees them and writes work off immediately. This grid measures the gray
// ones — a partitioned zone keeps computing but cannot deliver, and a rack
// loses 32 nodes at once — and compares three request-level policies on the
// same 1024-node fleet:
//
//   * write-off      — resilience disabled: the one-attempt policy fails
//                      every request caught behind a fault (the baseline).
//   * retry          — per-request timeout + capped-backoff retries under a
//                      per-model retry budget; orphaned work re-dispatches
//                      to healthy replicas.
//   * retry+hedge+shed — retry plus hedged dispatch (first completion wins,
//                      loser cancelled through the driver abort path) and
//                      watermark admission control.
//
// Headline checks (ISSUE 8): under rack-crash + zone-partition the full
// policy recovers >= 95% of pre-fault goodput and cuts failed requests by
// >= 10x versus write-off, while shedding keeps admitted p99 bounded. All
// points flow through one SweepRunner grid with declaration-order
// collection: stdout is byte-identical for any --jobs (CI runs it twice and
// cmps).
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/fault/scenario.h"

using namespace lithos;

namespace {

constexpr int kNodes = 1024;
constexpr int kZones = 8;
constexpr int kRacksPerZone = 4;  // 32-node racks
constexpr double kRps = 24000.0;

// Phase windows (seconds): warm up to 1, measure [1,3), faults land in
// [3,4), settle 0.5s after the last heal, measure recovery over [4.5,6.5).
constexpr double kPreBegin = 1.0;
constexpr double kFaultAt = 3.0;
constexpr double kFaultSecs = 1.0;
constexpr double kPostBegin = 4.5;
constexpr double kPostEnd = 6.5;

enum class Policy { kWriteOff, kRetry, kFull };

const char* PolicyName(Policy p) {
  switch (p) {
    case Policy::kWriteOff:
      return "write-off";
    case Policy::kRetry:
      return "retry";
    case Policy::kFull:
      return "retry+hedge+shed";
  }
  return "?";
}

ResilienceConfig MakePolicy(Policy p) {
  if (p == Policy::kFull) {
    return bench::FullResilience();
  }
  ResilienceConfig rc;
  rc.enabled = p == Policy::kRetry;  // write-off: disabled
  return rc;
}

FleetFaultConfig BaseConfig(Policy policy) {
  FleetFaultConfig config;
  config.cluster.num_nodes = kNodes;
  config.cluster.num_zones = kZones;
  config.cluster.racks_per_zone = kRacksPerZone;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.system = SystemKind::kMps;
  config.cluster.aggregate_rps = kRps;
  config.cluster.seed = 2026;
  config.cluster.resilience = MakePolicy(policy);
  config.scaling = ScalingPolicyKind::kStaticPeak;  // fixed fleet: no autoscale confound
  config.max_migrations_per_period = 8;
  config.phases = {{"pre", FromSeconds(kPreBegin), FromSeconds(kFaultAt)},
                   {"during", FromSeconds(kFaultAt), FromSeconds(kFaultAt + kFaultSecs)},
                   {"post", FromSeconds(kPostBegin), FromSeconds(kPostEnd)}};
  return config;
}

FaultScenarioConfig Scenario(const std::string& name) {
  FaultScenarioConfig faults;
  faults.name = name;
  faults.seed = 7;
  if (name == "rack-crashes") {
    // Random rack-correlated crash groups with heavy-tailed (Weibull,
    // shape < 1) repairs: most racks come back fast, a few need a tech.
    faults.rack_crashes_per_second = 6.0;
    faults.rack_repair = RepairModel::Weibull(0.7, 1.2);
  } else if (name == "partition") {
    // 20ms past the fault instant so the cut lands mid-control-period: the
    // gray-failure exposure window (partitioned replicas, not yet re-placed)
    // is ~230ms, not zero.
    faults.partitions = {
        {/*zone=*/0, FromSeconds(kFaultAt) + FromMillis(20), FromSeconds(kFaultSecs)}};
  } else if (name == "rack+partition") {
    // The gray-failure composite: zone 0 unreachable-but-computing while
    // racks crash outright mid-window — including one rack *inside* the
    // partitioned zone, whose deferred completions are orphaned at heal
    // (the worst case: work that looked merely late is actually lost). All
    // instants sit 20ms+ off the 250ms control grid, as above.
    faults.partitions = {
        {/*zone=*/0, FromSeconds(kFaultAt) + FromMillis(20), FromSeconds(kFaultSecs)}};
    faults.rack_crashes = {
        {/*zone=*/1, /*rack=*/0, FromSeconds(kFaultAt) + FromMillis(120), FromMillis(900)},
        {/*zone=*/2, /*rack=*/1, FromSeconds(kFaultAt) + FromMillis(170), FromMillis(1200)},
        {/*zone=*/3, /*rack=*/2, FromSeconds(kFaultAt) + FromMillis(220), FromMillis(1000)},
        {/*zone=*/0, /*rack=*/1, FromSeconds(kFaultAt) + FromMillis(420), FromMillis(1000)},
    };
  }
  return faults;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Request-level resilience: retry/hedge/shed vs rack crashes and partitions",
      "ISSUE 8 gray-failure grid; dispatch-path policies at region scale");

  bench::FleetBench fleet("cluster_resilience", argc, argv);

  struct GridPoint {
    std::string scenario;
    Policy policy;
  };
  std::vector<GridPoint> grid = {
      {"rack-crashes", Policy::kWriteOff},
      {"rack-crashes", Policy::kRetry},
      {"rack-crashes", Policy::kFull},
      {"partition", Policy::kWriteOff},
      {"partition", Policy::kRetry},
      {"partition", Policy::kFull},
      {"rack+partition", Policy::kWriteOff},
      {"rack+partition", Policy::kRetry},
      {"rack+partition", Policy::kFull},
  };
  if (!fleet.Select(grid, [](const GridPoint& g) { return g.scenario; })) {
    return 1;
  }

  // --trace records the headline point: rack+partition under the full policy.
  std::vector<bench::FleetRun> runs;
  for (const GridPoint& g : grid) {
    FleetFaultConfig config = BaseConfig(g.policy);
    config.faults = Scenario(g.scenario);
    runs.push_back({g.scenario + "/" + PolicyName(g.policy), std::move(config),
                    g.scenario == "rack+partition" && g.policy == Policy::kFull});
  }
  const std::vector<FleetFaultResult> results = fleet.Run(std::move(runs));
  bench::JsonEmitter& json = fleet.json();

  std::printf("\n%d nodes, %d zones x %d racks (%d-node racks), %.0f rps flat;\n"
              "fault window [%.1fs, %.1fs), recovery window [%.1fs, %.1fs)\n",
              kNodes, kZones, kRacksPerZone, kNodes / kZones / kRacksPerZone, kRps,
              kFaultAt, kFaultAt + kFaultSecs, kPostBegin, kPostEnd);

  Table table({"scenario", "policy", "phase", "p99 ms", "rps", "goodput ms/s", "failed",
               "retry", "hedge", "shed", "timeout"});
  for (size_t i = 0; i < grid.size(); ++i) {
    const FleetFaultResult& r = results[i];
    const auto total = [&r](const char* counter) {
      return std::to_string(r.totals.Count(counter));
    };
    for (const MetricsRegistry::PhaseSnapshot& phase : r.phases) {
      const bool post = phase.name == "post";
      table.AddRow({grid[i].scenario, PolicyName(grid[i].policy), phase.name,
                    Table::Num(phase.ValueOf("fleet/latency_ms/p99"), 2),
                    Table::Num(r.Rate(phase, "fleet/latency_ms/count"), 0),
                    Table::Num(r.Rate(phase, "fleet/completed_request_ms"), 0),
                    std::to_string(phase.Count("fleet/failed")),
                    post ? total("fleet/retries") : "-", post ? total("fleet/hedges") : "-",
                    post ? total("fleet/shed") : "-", post ? total("fleet/timeouts") : "-"});
    }
    std::string prefix = grid[i].scenario + "_" + PolicyName(grid[i].policy) + "_";
    for (char& c : prefix) {
      if (c == '+' || c == '-' || c == '/') {
        c = '_';
      }
    }
    EmitPhaseMetrics(json, prefix, r);
    for (const char* counter : {"retries", "hedges", "hedge_wins", "timeouts", "shed",
                                "deferred_delivered", "deferred_orphaned"}) {
      json.Metric(prefix + counter, r.totals.ValueOf(std::string("fleet/") + counter));
    }
  }
  table.Print();

  // Headline: for each scenario, recovery ratio of the full policy and the
  // failed-request reduction versus write-off.
  std::printf("\nResilience headline (full = retry+hedge+shed):\n");
  std::printf("  %-16s %-10s %-12s %-14s %s\n", "scenario", "recovery", "failed w/o",
              "failed full", "reduction");
  for (size_t i = 0; i + 2 < grid.size(); i += 3) {
    const FleetFaultResult& writeoff = results[i];
    const FleetFaultResult& full = results[i + 2];
    const double pre = bench::PhaseGoodput(full, "pre");
    const double recovery = pre > 0 ? bench::PhaseGoodput(full, "post") / pre : 0.0;
    const uint64_t failed_writeoff = writeoff.totals.Count("fleet/failed");
    const uint64_t failed_full = full.totals.Count("fleet/failed");
    const double reduction =
        failed_full > 0 ? static_cast<double>(failed_writeoff) / static_cast<double>(failed_full)
                        : static_cast<double>(failed_writeoff);
    std::printf("  %-16s %-10.3f %-12llu %-14llu %.1fx\n", grid[i].scenario.c_str(),
                recovery, static_cast<unsigned long long>(failed_writeoff),
                static_cast<unsigned long long>(failed_full), reduction);
    std::string key = grid[i].scenario;
    for (char& c : key) {
      if (c == '+' || c == '-') {
        c = '_';
      }
    }
    json.Metric(key + "_full_recovery_ratio", recovery);
    json.Metric(key + "_failed_reduction_x", reduction);
  }
  std::printf("\nTargets: recovery >= 0.95 of pre-fault goodput; >= 10x fewer failed\n"
              "requests than write-off under rack+partition; shed keeps admitted p99\n"
              "bounded through the fault window.\n");

  return fleet.Finish(results);
}
