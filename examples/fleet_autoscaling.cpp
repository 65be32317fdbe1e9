// Fleet autoscaling in ~40 lines: run the thirteen-model diurnal workload of
// Section 3 under the fleet control plane and watch the pool breathe — nodes
// power off at the trough, wake for the ramp, and model replicas live-migrate
// as the active set moves. See bench/bench_cluster_autoscale.cc for the full
// sweep and docs/autoscale.md for the migration cost model.
#include <cstdio>

#include "src/autoscale/fleet_controller.h"

using namespace lithos;

int main() {
  std::printf("Autoscaling the 13-model diurnal fleet on an 8-GPU pool:\n\n");
  std::printf("%-12s %11s %9s %9s %12s %8s %12s\n", "policy", "GPU-h/day", "kJ/day", "p99 ms",
              "mean nodes", "migr.", "prov util%");

  for (ScalingPolicyKind scaling : AllScalingPolicies()) {
    AutoscaleConfig config;
    config.cluster.policy = PlacementPolicy::kModelAffinity;
    config.cluster.num_nodes = 8;
    config.cluster.system = SystemKind::kLithos;
    config.cluster.aggregate_rps = 500.0;
    config.cluster.seconds_per_day = 5.0;  // compress one fleet day into 5 s
    config.cluster.warmup = FromSeconds(1);
    config.cluster.duration = FromSeconds(10);  // two fleet days
    config.scaling = scaling;
    config.control_period = FromMillis(250);
    config.min_nodes = 2;

    const AutoscaleResult r = RunClusterAutoscale(config);
    std::printf("%-12s %11.1f %9.1f %9.1f %12.2f %8llu %12.1f\n",
                ScalingPolicyName(scaling).c_str(), r.gpu_hours_per_day,
                r.joules_per_day / 1000.0, r.cluster.p99_ms, r.mean_powered_on,
                static_cast<unsigned long long>(r.cluster.migrations),
                100 * r.provisioned_utilization);
  }

  std::printf("\nPredictive scaling feeds the diurnal curve one control period forward:\n"
              "fewer GPU-hours and joules than static-peak provisioning at comparable\n"
              "p99, with replicas live-migrating as nodes drain and wake.\n");
  return 0;
}
