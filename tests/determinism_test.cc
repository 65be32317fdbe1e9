// Determinism contract of the event core under the full stack: running the
// same seeded scenario twice must produce byte-identical statistics. This is
// what lets the figure benches, the perf-smoke gate, and bisection runs treat
// any metric drift as a real behavioural change rather than scheduling noise.
//
// Two scenario families cover the interesting code paths: single-GPU
// inference stacking (engine affected-set checkpoint/reschedule, batching
// timers, LithOS scheduler) and the fleet-autoscale day (cluster dispatcher,
// live migration, power gating, DVFS-free control loop). Time slicing is
// exercised separately because its quantum timer uses Simulator::Reschedule.
#include <gtest/gtest.h>

#include <vector>

#include "src/autoscale/fleet_controller.h"
#include "src/experiments/harness.h"

namespace lithos {
namespace {

StackingResult RunStackingOnce(SystemKind system) {
  StackingConfig cfg;
  cfg.system = system;
  cfg.warmup = FromMillis(500);
  cfg.duration = FromSeconds(2);
  const GpuSpec spec = GpuSpec::A100();
  AppSpec a;
  a.role = AppRole::kHpLatency;
  a.model = "ResNet";
  a.load_rps = ServiceFor("ResNet").load_rps;
  a.slo = ServiceFor("ResNet").slo;
  a.max_batch = ServiceFor("ResNet").max_batch;
  AppSpec b;
  b.role = AppRole::kHpThroughput;
  b.model = "Llama 3";
  b.load_rps = ServiceFor("Llama 3").load_rps;
  b.slo = ServiceFor("Llama 3").slo;
  AppSpec be;
  be.role = AppRole::kBeInference;
  be.model = "GPT-J";
  be.batch_size = ServiceFor("GPT-J").max_batch;
  AssignInferenceOnlyQuotas(system, spec, &a, &b, &be);
  return RunStacking(cfg, {a, b, be});
}

void ExpectIdentical(const StackingResult& x, const StackingResult& y) {
  ASSERT_EQ(x.apps.size(), y.apps.size());
  for (size_t i = 0; i < x.apps.size(); ++i) {
    SCOPED_TRACE(x.apps[i].model);
    // Exact equality on doubles is deliberate: the contract is bit-identical
    // replay, not approximate agreement.
    EXPECT_EQ(x.apps[i].p50_ms, y.apps[i].p50_ms);
    EXPECT_EQ(x.apps[i].p99_ms, y.apps[i].p99_ms);
    EXPECT_EQ(x.apps[i].mean_ms, y.apps[i].mean_ms);
    EXPECT_EQ(x.apps[i].throughput_rps, y.apps[i].throughput_rps);
    EXPECT_EQ(x.apps[i].goodput_rps, y.apps[i].goodput_rps);
    EXPECT_EQ(x.apps[i].slo_attainment, y.apps[i].slo_attainment);
    EXPECT_EQ(x.apps[i].completed, y.apps[i].completed);
    EXPECT_EQ(x.apps[i].iterations_per_s, y.apps[i].iterations_per_s);
  }
  EXPECT_EQ(x.engine.energy_joules, y.engine.energy_joules);
  EXPECT_EQ(x.engine.busy_tpc_seconds, y.engine.busy_tpc_seconds);
  EXPECT_EQ(x.engine.grants_completed, y.engine.grants_completed);
  EXPECT_EQ(x.engine.grants_aborted, y.engine.grants_aborted);
  EXPECT_EQ(x.engine.allocated_tpc_seconds, y.engine.allocated_tpc_seconds);
}

TEST(DeterminismTest, StackingLithosByteIdentical) {
  ExpectIdentical(RunStackingOnce(SystemKind::kLithos), RunStackingOnce(SystemKind::kLithos));
}

TEST(DeterminismTest, StackingTimesliceByteIdentical) {
  ExpectIdentical(RunStackingOnce(SystemKind::kTimeslice),
                  RunStackingOnce(SystemKind::kTimeslice));
}

TEST(DeterminismTest, StackingMpsByteIdentical) {
  ExpectIdentical(RunStackingOnce(SystemKind::kMps), RunStackingOnce(SystemKind::kMps));
}

AutoscaleResult RunAutoscaleOnce() {
  AutoscaleConfig config;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.num_nodes = 6;
  config.cluster.system = SystemKind::kLithos;
  config.cluster.aggregate_rps = 420.0;
  config.cluster.seconds_per_day = 4.0;
  config.cluster.warmup = FromMillis(500);
  config.cluster.duration = FromSeconds(4);  // one compressed fleet day
  config.cluster.seed = 2026;
  config.scaling = ScalingPolicyKind::kPredictive;
  config.control_period = FromMillis(250);
  config.min_nodes = 2;
  return RunClusterAutoscale(config);
}

TEST(DeterminismTest, AutoscaleFleetDayByteIdentical) {
  const AutoscaleResult x = RunAutoscaleOnce();
  const AutoscaleResult y = RunAutoscaleOnce();
  EXPECT_EQ(x.gpu_hours_per_day, y.gpu_hours_per_day);
  EXPECT_EQ(x.joules_per_day, y.joules_per_day);
  EXPECT_EQ(x.mean_powered_on, y.mean_powered_on);
  EXPECT_EQ(x.provisioned_utilization, y.provisioned_utilization);
  EXPECT_EQ(x.cluster.migrations, y.cluster.migrations);
  EXPECT_EQ(x.power_ons, y.power_ons);
  EXPECT_EQ(x.power_offs, y.power_offs);
  EXPECT_EQ(x.cluster.p99_ms, y.cluster.p99_ms);
  EXPECT_EQ(x.cluster.completed, y.cluster.completed);
  EXPECT_EQ(x.cluster.completed_request_gpu_ms, y.cluster.completed_request_gpu_ms);
  // The scenario actually exercised the control plane: nodes cycled power and
  // replicas migrated, so the identity above covers those paths too.
  EXPECT_GT(x.cluster.migrations, 0);
  EXPECT_GT(x.power_offs, 0);
}

}  // namespace
}  // namespace lithos
