// Fleet autoscaling: the control-plane experiment motivated by the paper's
// production study (Section 3). A statically provisioned pool burns GPU-hours
// and joules all night serving diurnal trough traffic (~27% mean utilization,
// peak ~1.38x the mean); the FleetController sheds nodes at the trough and
// wakes them for the ramp, live-migrating model replicas so consolidation
// follows the curve. Two sweeps:
//
//   1. Headline: GPU-hours and joules per fleet-day at equal p99 for
//      static-peak vs reactive vs predictive provisioning over two
//      compressed fleet days.
//   2. Control-period sensitivity for the predictive scaler: a coarser loop
//      saves fewer GPU-hours and reacts later; a finer one migrates more.
//
// Both sweeps run as one SweepRunner grid with declaration-order collection,
// so the tables are byte-identical for any --jobs.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/autoscale/fleet_controller.h"
#include "src/common/table.h"

using namespace lithos;

namespace {

AutoscaleConfig BaseConfig(ScalingPolicyKind scaling) {
  AutoscaleConfig config;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.num_nodes = 10;
  config.cluster.system = SystemKind::kLithos;
  config.cluster.aggregate_rps = 700.0;
  config.cluster.seconds_per_day = 6.0;  // compressed diurnal cycle
  config.cluster.warmup = FromSeconds(1);
  config.cluster.duration = FromSeconds(12);  // two fleet days
  config.cluster.seed = 2026;
  config.scaling = scaling;
  config.control_period = FromMillis(250);
  config.min_nodes = 2;
  return config;
}

void AddRow(Table& table, const AutoscaleResult& r) {
  table.AddRow({ScalingPolicyName(r.scaling), Table::Num(r.gpu_hours_per_day, 1),
                Table::Num(r.joules_per_day / 1000.0, 1), Table::Num(r.cluster.p99_ms, 1),
                Table::Num(r.mean_powered_on, 2), std::to_string(r.cluster.migrations),
                std::to_string(r.power_ons + r.power_offs),
                Table::Num(100 * r.provisioned_utilization, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Cluster autoscaling: scaling policy vs GPU-hours and energy per fleet-day",
      "Section 3 (Figs. 1, 4) — shedding the diurnal trough the static fleet idles through");

  const bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  bench::NoteTraceUnsupported(opts, "bench_cluster_autoscale");
  SweepRunner runner(opts.jobs);
  bench::JsonEmitter json("cluster_autoscale");

  // One flat grid: the three scaling policies, then the four control
  // periods of the sensitivity sweep.
  const auto policies = AllScalingPolicies();
  const std::vector<double> periods_ms = {125.0, 250.0, 500.0, 1000.0};
  std::vector<SweepPoint<AutoscaleResult>> points;
  for (ScalingPolicyKind scaling : policies) {
    points.push_back({"policy/" + ScalingPolicyName(scaling),
                      [scaling] { return RunClusterAutoscale(BaseConfig(scaling)); }});
  }
  for (double period_ms : periods_ms) {
    points.push_back({"period/" + Table::Num(period_ms, 0), [period_ms] {
                        AutoscaleConfig config = BaseConfig(ScalingPolicyKind::kPredictive);
                        config.control_period = FromMillis(period_ms);
                        return RunClusterAutoscale(config);
                      }});
  }
  const std::vector<AutoscaleResult> results = runner.Run(points);

  // --- Sweep 1: policy comparison at equal traffic --------------------------
  std::printf("\nTwo fleet days on a %d-node pool (%.0f rps mean, diurnal max/min %.2f)\n",
              BaseConfig(ScalingPolicyKind::kStaticPeak).cluster.num_nodes,
              BaseConfig(ScalingPolicyKind::kStaticPeak).cluster.aggregate_rps,
              FleetTelemetry(2026).MaxMinRpsRatio());
  Table headline({"policy", "GPU-h/day", "kJ/day", "p99 ms", "mean nodes", "migrations",
                  "power cycles", "prov util%"});
  for (size_t i = 0; i < policies.size(); ++i) {
    const AutoscaleResult& r = results[i];
    AddRow(headline, r);
    const std::string prefix = ScalingPolicyName(r.scaling) + "_";
    json.Metric(prefix + "gpu_hours_per_day", r.gpu_hours_per_day);
    json.Metric(prefix + "joules_per_day", r.joules_per_day);
    json.Metric(prefix + "p99_ms", r.cluster.p99_ms);
    json.Metric(prefix + "migrations", static_cast<double>(r.cluster.migrations));
    json.Metric(prefix + "mean_powered_on", r.mean_powered_on);
    json.Metric(prefix + "provisioned_utilization", r.provisioned_utilization);
  }
  headline.Print();
  std::printf("\nPredictive feeds the diurnal curve one control period forward: capacity is\n"
              "on before the ramp, off through the trough — fewer GPU-hours and joules than\n"
              "static-peak at comparable p99, with replicas live-migrating mid-run.\n");

  // --- Sweep 2: control-period sensitivity (predictive) ---------------------
  std::printf("\nControl-period sensitivity (predictive scaler)\n");
  Table periods({"period ms", "GPU-h/day", "kJ/day", "p99 ms", "migrations", "power cycles"});
  for (size_t i = 0; i < periods_ms.size(); ++i) {
    const AutoscaleResult& r = results[policies.size() + i];
    periods.AddRow({Table::Num(periods_ms[i], 0), Table::Num(r.gpu_hours_per_day, 1),
                    Table::Num(r.joules_per_day / 1000.0, 1), Table::Num(r.cluster.p99_ms, 1),
                    std::to_string(r.cluster.migrations),
                    std::to_string(r.power_ons + r.power_offs)});
  }
  periods.Print();

  json.SetRun(runner.jobs(), runner.wall_seconds());
  json.WallMetric("sweep_wall_seconds", runner.wall_seconds());
  json.Write();
  runner.PrintSummary("cluster_autoscale");
  return 0;
}
