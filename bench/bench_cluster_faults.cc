// Region-scale fault tolerance: p99 and goodput before, during, and after
// injected failures on a 1024-node, 8-zone fleet.
//
// The ROADMAP's region-scale item meets the cluster-OS framing: the control
// plane, not the application, owns failure handling. Each grid point runs
// the same three measurement phases — pre / during / post fault — under one
// (placement policy x fault scenario) pair:
//
//   * healthy      — no faults; the phase baseline.
//   * crashes      — random node crashes (Poisson) with repair.
//   * stragglers   — random nodes clocked to half speed for a window.
//   * power-cap    — one zone capped to 60% clock through the fault window.
//   * zone-outage  — a whole failure domain (128 nodes) dies for a second,
//                    then is repaired. Dead replicas are re-placed onto
//                    survivors via the restore-only half of the PR-2
//                    checkpoint/restore migration path; the headline check
//                    is post-outage goodput recovering to within 10% of the
//                    pre-outage phase.
//
// Per-node scheduling is orthogonal to fleet-level fault response, so nodes
// run the passive MPS backend to keep a 1024-node x multi-second grid cheap
// enough for the CI byte-identity gate (the grid runs twice there). All
// points flow through one SweepRunner grid with declaration-order
// collection: stdout is byte-identical for any --jobs.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/fault/scenario.h"

using namespace lithos;

namespace {

constexpr int kNodes = 1024;
constexpr int kZones = 8;
constexpr double kRps = 6000.0;

// Phase windows (seconds): warm up to 1, measure [1,3), fault at 3 for 1s,
// settle 0.5s after repair, measure the recovered fleet over [4.5, 6.5).
constexpr double kPreBegin = 1.0;
constexpr double kFaultAt = 3.0;
constexpr double kFaultSecs = 1.0;
constexpr double kPostBegin = 4.5;
constexpr double kPostEnd = 6.5;

FleetFaultConfig BaseConfig(PlacementPolicy policy) {
  FleetFaultConfig config;
  config.cluster.num_nodes = kNodes;
  config.cluster.num_zones = kZones;
  config.cluster.policy = policy;
  config.cluster.system = SystemKind::kMps;
  config.cluster.aggregate_rps = kRps;
  config.cluster.seed = 2026;
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
  if (name == "crashes") {
    faults.crashes_per_second = 2.0;
    faults.crash_repair = FromMillis(1500);
  } else if (name == "stragglers") {
    faults.stragglers_per_second = 4.0;
    faults.straggler_slowdown = 0.5;
    faults.straggler_duration = FromMillis(800);
  } else if (name == "power-cap") {
    faults.power_caps = {{/*zone=*/0, FromSeconds(kFaultAt), FromSeconds(kFaultSecs), 0.6}};
  } else if (name == "zone-outage") {
    faults.zone_outages = {{/*zone=*/0, FromSeconds(kFaultAt), FromSeconds(kFaultSecs)}};
  }
  return faults;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Cluster fault tolerance: zone outage, crashes, stragglers at region scale",
      "ROADMAP region-scale item; PhoenixOS-style checkpoint/restore recovery");

  bench::FleetBench fleet("cluster_faults", argc, argv);

  struct GridPoint {
    PlacementPolicy policy;
    std::string scenario;
  };
  std::vector<GridPoint> grid = {
      {PlacementPolicy::kModelAffinity, "healthy"},
      {PlacementPolicy::kModelAffinity, "crashes"},
      {PlacementPolicy::kModelAffinity, "stragglers"},
      {PlacementPolicy::kModelAffinity, "power-cap"},
      {PlacementPolicy::kModelAffinity, "zone-outage"},
      {PlacementPolicy::kLeastLoaded, "zone-outage"},
  };
  if (!fleet.Select(grid, [](const GridPoint& g) { return g.scenario; })) {
    return 1;
  }

  // --trace records the model-affinity zone-outage point.
  std::vector<bench::FleetRun> runs;
  for (const GridPoint& g : grid) {
    FleetFaultConfig config = BaseConfig(g.policy);
    config.faults = Scenario(g.scenario);
    runs.push_back({PlacementPolicyName(g.policy) + "/" + g.scenario, std::move(config),
                    g.policy == PlacementPolicy::kModelAffinity && g.scenario == "zone-outage"});
  }
  const std::vector<FleetFaultResult> results = fleet.Run(std::move(runs));
  bench::JsonEmitter& json = fleet.json();

  std::printf("\n%d nodes in %d zones (%d per zone), %.0f rps flat, static-peak pool;\n"
              "fault window [%.1fs, %.1fs), post-recovery window [%.1fs, %.1fs)\n",
              kNodes, kZones, kNodes / kZones, kRps, kFaultAt, kFaultAt + kFaultSecs,
              kPostBegin, kPostEnd);

  Table table({"policy", "scenario", "phase", "p99 ms", "mean ms", "rps", "goodput ms/s",
               "failed", "recov", "migr"});
  for (size_t i = 0; i < grid.size(); ++i) {
    const FleetFaultResult& r = results[i];
    const std::string policy = PlacementPolicyName(grid[i].policy);
    for (const MetricsRegistry::PhaseSnapshot& phase : r.phases) {
      table.AddRow({policy, grid[i].scenario, phase.name,
                    Table::Num(phase.ValueOf("fleet/latency_ms/p99"), 2),
                    Table::Num(phase.ValueOf("fleet/latency_ms/mean"), 2),
                    Table::Num(r.Rate(phase, "fleet/latency_ms/count"), 0),
                    Table::Num(r.Rate(phase, "fleet/completed_request_ms"), 0),
                    std::to_string(phase.Count("fleet/failed")),
                    std::to_string(phase.Count("fleet/recoveries")),
                    std::to_string(phase.Count("fleet/migrations"))});
    }
    const std::string prefix = policy + "_" + grid[i].scenario + "_";
    EmitPhaseMetrics(json, prefix, r);
    json.Metric(prefix + "recoveries", static_cast<double>(r.recovery_log.size()));
  }
  table.Print();

  std::printf("\nZone-outage recovery (post goodput / pre goodput; target >= 0.90):\n");
  for (size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].scenario != "zone-outage") {
      continue;
    }
    const FleetFaultResult& r = results[i];
    const double pre = bench::PhaseGoodput(r, "pre");
    const double ratio = pre > 0 ? bench::PhaseGoodput(r, "post") / pre : 0.0;
    std::printf("  %-14s recovery=%.3f  (lost %llu requests, %llu replica recoveries)\n",
                PlacementPolicyName(grid[i].policy).c_str(), ratio,
                static_cast<unsigned long long>(r.totals.Count("fleet/failed")),
                static_cast<unsigned long long>(r.recovery_log.size()));
    json.Metric(PlacementPolicyName(grid[i].policy) + "_zone_outage_recovery_ratio", ratio);
  }
  std::printf("\nRecovery is restore-only: a dead node cannot run its checkpoint half, so the\n"
              "controller re-places each stranded replica from its last checkpoint image onto\n"
              "a survivor (forced moves, never budget-capped) at the next control tick.\n");

  // Registry phase snapshots of the headline point (model-affinity zone
  // outage): every fleet/* counter as its per-phase window delta. The values
  // derive only from sim state, so they gate like any deterministic metric.
  for (size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].policy != PlacementPolicy::kModelAffinity ||
        grid[i].scenario != "zone-outage") {
      continue;
    }
    for (const MetricsRegistry::PhaseSnapshot& snap : results[i].phases) {
      for (const auto& [metric, value] : snap.values) {
        std::string key = "affinity_zone_outage_" + snap.name + "_" + metric;
        for (char& c : key) {
          if (c == '/') {
            c = '_';
          }
        }
        json.Metric(key, value);
      }
    }
  }

  return fleet.Finish(results);
}
