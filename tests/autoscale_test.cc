// Fleet control-plane tests: scaling-policy registry, live migration
// mechanics (replica re-homing, cost kernels, arrival redirection), node
// lifecycle (drain -> power-off -> power-on) with power-gated energy, and
// the headline property — predictive scaling beats static-peak provisioning
// on GPU-hours and joules per fleet-day at comparable p99, with migrations
// actually occurring mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/autoscale/fleet_controller.h"
#include "src/autoscale/scaling_policy.h"
#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/obs/trace.h"

namespace lithos {
namespace {

AutoscaleConfig SmallConfig(ScalingPolicyKind scaling) {
  AutoscaleConfig config;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.num_nodes = 8;
  config.cluster.system = SystemKind::kLithos;
  config.cluster.aggregate_rps = 500.0;
  config.cluster.seconds_per_day = 4.0;
  config.cluster.warmup = FromMillis(500);
  config.cluster.duration = FromSeconds(8);  // two compressed fleet days
  config.cluster.seed = 2026;
  config.scaling = scaling;
  config.control_period = FromMillis(200);
  config.min_nodes = 2;
  return config;
}

// --- Scaling policies --------------------------------------------------------

TEST(ScalingPolicyTest, RegistryNamesAndConstruction) {
  EXPECT_EQ(AllScalingPolicies().size(), 3u);
  std::set<std::string> names;
  for (ScalingPolicyKind kind : AllScalingPolicies()) {
    names.insert(ScalingPolicyName(kind));
    // An empty fleet with no traffic demands nothing under every policy.
    EXPECT_EQ(DemandGpuMsPerSec(kind, FleetSnapshot{}), 0.0);
  }
  EXPECT_EQ(names.size(), 3u);  // distinct names
}

TEST(ScalingPolicyTest, DemandEstimatesMatchDesign) {
  FleetSnapshot snap;
  snap.control_period = FromMillis(250);
  snap.total_nodes = 8;
  snap.node_capacity_ms_per_s = 500.0;
  snap.offered_now_ms_per_s = 1200.0;
  snap.predicted_next_ms_per_s = 1500.0;
  snap.measured_last_period_ms_per_s = 1000.0;
  snap.backlog_ms = 50.0;  // 200 ms/s of catch-up over a 250 ms period
  snap.peak_ms_per_s = 2000.0;

  // Static-peak demands the whole pool regardless of traffic.
  EXPECT_DOUBLE_EQ(DemandGpuMsPerSec(ScalingPolicyKind::kStaticPeak, snap),
                   8 * 500.0);
  // Reactive follows last period's arrivals plus backlog catch-up.
  EXPECT_DOUBLE_EQ(DemandGpuMsPerSec(ScalingPolicyKind::kReactive, snap),
                   1000.0 + 200.0);
  // Predictive feeds the curve forward (floored at the current offered load).
  EXPECT_DOUBLE_EQ(DemandGpuMsPerSec(ScalingPolicyKind::kPredictive, snap),
                   1500.0 + 200.0);
}

// --- Placer mutation hooks ---------------------------------------------------

TEST(PlacementMutationTest, MoveReplicaRehomesAndRefusesBadMoves) {
  const std::vector<FleetModel> models = FleetTelemetry(2026).models();
  Placer placer(PlacementPolicy::kModelAffinity, models, 6, 300.0, 0.65);

  const std::vector<int> before = placer.ReplicaNodes(3);
  ASSERT_FALSE(before.empty());
  const int from = before[0];
  int to = -1;
  for (int n = 0; n < 6; ++n) {
    if (std::find(before.begin(), before.end(), n) == before.end()) {
      to = n;
      break;
    }
  }
  ASSERT_GE(to, 0);

  EXPECT_TRUE(placer.MoveReplica(3, from, to));
  const std::vector<int>& after = placer.ReplicaNodes(3);
  EXPECT_EQ(std::count(after.begin(), after.end(), to), 1);
  EXPECT_EQ(std::count(after.begin(), after.end(), from), 0);

  // `from` no longer hosts the replica; `to` already does.
  EXPECT_FALSE(placer.MoveReplica(3, from, to));

  // -1 is "no node": an add onto `from`, refused onto a node that hosts one.
  const std::vector<int> moved = after;
  EXPECT_TRUE(placer.MoveReplica(3, -1, from));
  EXPECT_EQ(std::count(after.begin(), after.end(), from), 1);
  EXPECT_FALSE(placer.MoveReplica(3, -1, to));
  // A removal, refused once `from` no longer hosts one.
  EXPECT_TRUE(placer.MoveReplica(3, from, -1));
  EXPECT_EQ(placer.ReplicaNodes(3), moved);
  EXPECT_FALSE(placer.MoveReplica(3, from, -1));
  // The last replica cannot be removed.
  while (after.size() > 1) {
    ASSERT_TRUE(placer.MoveReplica(3, after.back(), -1));
  }
  EXPECT_FALSE(placer.MoveReplica(3, after[0], -1));
  EXPECT_EQ(after.size(), 1u);
  // A change with neither end is a checked error.
  EXPECT_DEATH(placer.MoveReplica(3, -1, -1), "from >= 0 \\|\\| to >= 0");
}

TEST(PlacementMutationTest, DisabledNodesLeaveTheRotation) {
  const std::vector<FleetModel> models = FleetTelemetry(2026).models();

  // Round-robin cycles past a disabled node.
  Placer rr(PlacementPolicy::kRoundRobin, models, 3, 300.0, 0.65);
  rr.SetNodeEnabled(1, false);
  const std::vector<double> load = {0, 0, 0};
  EXPECT_EQ(rr.Place(0, load, {0.0}), 0);
  EXPECT_EQ(rr.Place(0, load, {0.0}), 2);
  EXPECT_EQ(rr.Place(0, load, {0.0}), 0);

  // Least-loaded never picks a disabled node even at zero load.
  Placer ll(PlacementPolicy::kLeastLoaded, models, 3, 300.0, 0.65);
  ll.SetNodeEnabled(0, false);
  EXPECT_EQ(ll.Place(0, {0.0, 5.0, 9.0}, {14.0}), 1);

  // Eligibility falls back to enabled nodes when every replica is disabled.
  Placer affinity(PlacementPolicy::kModelAffinity, models, 3, 300.0, 0.65);
  for (int n = 0; n < 3; ++n) {
    affinity.SetNodeEnabled(n, false);
  }
  affinity.SetNodeEnabled(2, true);
  for (int m = 0; m < affinity.num_models(); ++m) {
    // Whether node 2 hosts the replica or the fallback kicks in, the only
    // routable node is the enabled one.
    EXPECT_EQ(affinity.EligibleNodes(m), std::vector<int>{2});
  }
}

// --- Live migration ----------------------------------------------------------

TEST(MigrationTest, MigrateModelRedirectsArrivalsAndChargesCost) {
  Simulator sim;
  ClusterConfig config;
  config.policy = PlacementPolicy::kModelAffinity;
  config.num_nodes = 4;
  config.aggregate_rps = 300.0;
  config.seed = 7;
  ClusterDispatcher dispatcher(&sim, config);

  // Pick a single-replica model and an empty target node.
  int model = -1, from = -1, to = -1;
  for (size_t m = 0; m < dispatcher.models().size() && model < 0; ++m) {
    const std::vector<int> replicas = dispatcher.placer().ReplicaNodes(static_cast<int>(m));
    if (replicas.size() == 1) {
      for (int n = config.num_nodes - 1; n >= 0; --n) {
        if (n != replicas[0]) {
          model = static_cast<int>(m);
          from = replicas[0];
          to = n;
          break;
        }
      }
    }
  }
  ASSERT_GE(model, 0);

  EXPECT_TRUE(dispatcher.MoveReplica(model, from, to));
  EXPECT_EQ(dispatcher.migrations(), 1u);
  EXPECT_EQ(dispatcher.placer().ReplicaNodes(model), std::vector<int>{to});
  // Checkpoint charged on the source, restore on the destination.
  EXPECT_GT(dispatcher.outstanding_ms()[from], 0.0);
  EXPECT_GT(dispatcher.outstanding_ms()[to], 0.0);

  // New arrivals for the model land on the destination.
  EXPECT_EQ(dispatcher.Dispatch(model), to);

  // A move from a node that no longer hosts the replica is refused free.
  const double out_from = dispatcher.outstanding_ms()[from];
  EXPECT_FALSE(dispatcher.MoveReplica(model, from, to));
  EXPECT_EQ(dispatcher.migrations(), 1u);
  EXPECT_DOUBLE_EQ(dispatcher.outstanding_ms()[from], out_from);

  // The migration kernels drain: nothing outstanding once the sim runs dry.
  sim.RunToCompletion();
  for (double ms : dispatcher.outstanding_ms()) {
    EXPECT_NEAR(ms, 0.0, 1e-9);
  }
}

// One row per case of ClusterDispatcher::MoveReplica: what the source's
// state makes a change charge, count, trace and log.
TEST(MigrationTest, MoveReplicaCasesFollowTheSourceState) {
  enum class Source { kReachable, kCrashed, kPartitioned };
  const struct {
    const char* name;
    bool from_node;  // false: from = -1
    bool to_node;    // false: to = -1
    Source source;
    bool charges_from;
    bool charges_to;
    uint64_t migrations;
    uint64_t recoveries;
    std::vector<TraceKind> traced;  // cluster-layer records, in order
    const char* log;                // recovery-log action, "" for none
  } rows[] = {
      {"migrate", true, true, Source::kReachable, true, true, 1, 0, {TraceKind::kMigration}, ""},
      {"recover crashed", true, true, Source::kCrashed, false, true, 0, 1,
       {TraceKind::kRecoverReplica}, "recover"},
      {"recover partitioned", true, true, Source::kPartitioned, false, true, 0, 1,
       {TraceKind::kRecoverReplica}, "recover"},
      {"clone", false, true, Source::kReachable, false, true, 0, 0, {}, ""},
      {"retire", true, false, Source::kReachable, true, false, 0, 0, {}, ""},
      {"drop crashed", true, false, Source::kCrashed, false, false, 0, 0,
       {TraceKind::kDropLostReplica}, "drop"},
      {"drop partitioned", true, false, Source::kPartitioned, false, false, 0, 0,
       {TraceKind::kDropLostReplica}, "drop"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    Simulator sim;
    ClusterConfig config;
    config.policy = PlacementPolicy::kModelAffinity;
    config.system = SystemKind::kMps;
    config.num_nodes = 4;
    config.aggregate_rps = 300.0;
    config.seed = 7;
    ClusterDispatcher dispatcher(&sim, config);

    // A single-replica model on `a`; `b` and `c` host none of it.
    int model = -1;
    for (int m = 0; m < static_cast<int>(dispatcher.models().size()) && model < 0; ++m) {
      if (dispatcher.placer().ReplicaNodes(m).size() == 1) {
        model = m;
      }
    }
    ASSERT_GE(model, 0);
    const int a = dispatcher.placer().ReplicaNodes(model)[0];
    const int b = (a + 1) % config.num_nodes;
    const int c = (a + 2) % config.num_nodes;
    // A second replica on `c`, so a retire or drop off `a` is allowed; its
    // restore drains before the row's change.
    ASSERT_TRUE(dispatcher.MoveReplica(model, -1, c));
    sim.RunToCompletion();
    if (row.source == Source::kCrashed) {
      dispatcher.FailNode(a);
    } else if (row.source == Source::kPartitioned) {
      dispatcher.PartitionNode(a);
    }

    TraceRecorder trace;
    trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kCluster));
    dispatcher.SetTrace(&trace);
    const int from = row.from_node ? a : -1;
    const int to = row.to_node ? b : -1;
    const std::vector<double> before = dispatcher.outstanding_ms();
    ASSERT_TRUE(dispatcher.MoveReplica(model, from, to));

    const std::vector<double>& after = dispatcher.outstanding_ms();
    EXPECT_EQ(after[a] > before[a], row.charges_from);
    EXPECT_EQ(after[b] > before[b], row.charges_to);
    EXPECT_EQ(after[c], before[c]);
    EXPECT_EQ(dispatcher.migrations(), row.migrations);
    EXPECT_EQ(dispatcher.recoveries(), row.recoveries);
    std::vector<TraceKind> traced;
    for (const TraceRecord& r : trace.Records()) {
      traced.push_back(static_cast<TraceKind>(r.kind));
    }
    EXPECT_EQ(traced, row.traced);
    if (row.log[0] == '\0') {
      EXPECT_TRUE(dispatcher.recovery_log().empty());
    } else {
      ASSERT_EQ(dispatcher.recovery_log().size(), 1u);
      const std::string& line = dispatcher.recovery_log()[0];
      EXPECT_NE(line.find(std::string(" ") + row.log + " "), std::string::npos) << line;
      const int logged_to = row.to_node ? b : a;
      EXPECT_NE(line.find(std::to_string(a) + "->" + std::to_string(logged_to)),
                std::string::npos)
          << line;
    }
    std::vector<int> expected = {c};
    if (row.to_node) {
      expected.push_back(b);
    }
    if (!row.from_node) {
      expected.push_back(a);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(dispatcher.placer().ReplicaNodes(model), expected);

    // The same change again is refused (the source no longer hosts the
    // replica, or the destination already does) and charges nothing.
    const std::vector<double> settled = dispatcher.outstanding_ms();
    const size_t log_size = dispatcher.recovery_log().size();
    EXPECT_FALSE(dispatcher.MoveReplica(model, from, to));
    EXPECT_EQ(dispatcher.outstanding_ms(), settled);
    EXPECT_EQ(dispatcher.migrations(), row.migrations);
    EXPECT_EQ(dispatcher.recoveries(), row.recoveries);
    EXPECT_EQ(dispatcher.recovery_log().size(), log_size);
    EXPECT_EQ(trace.size(), row.traced.size());

    dispatcher.SetTrace(nullptr);
    sim.RunToCompletion();
    for (double ms : dispatcher.outstanding_ms()) {
      EXPECT_NEAR(ms, 0.0, 1e-9);
    }
  }
}

// --- Power gating ------------------------------------------------------------

TEST(PowerGateTest, GatedEngineDrawsStandbyPowerAndRefusesBusyGating) {
  Simulator sim;
  const GpuSpec spec = GpuSpec::A100();
  ExecutionEngine engine(&sim, spec);
  EXPECT_FALSE(engine.power_gated());
  const double idle_w = engine.InstantPowerW();
  EXPECT_GT(idle_w, spec.gated_power_w);

  engine.SetPowerGated(true);
  EXPECT_TRUE(engine.power_gated());
  EXPECT_DOUBLE_EQ(engine.InstantPowerW(), spec.gated_power_w);

  // Energy over a gated second is the standby draw.
  sim.ScheduleAt(FromSeconds(1), [] {});
  sim.RunToCompletion();
  ExecutionEngine* e = &engine;
  EXPECT_NEAR(e->Stats().energy_joules, spec.gated_power_w, 1e-6);

  engine.SetPowerGated(false);
  EXPECT_DOUBLE_EQ(engine.InstantPowerW(), idle_w);
}

// --- Controller end-to-end ---------------------------------------------------

TEST(FleetControllerTest, StaticPeakHoldsThePoolAndNeverActs) {
  const AutoscaleResult r = RunClusterAutoscale(SmallConfig(ScalingPolicyKind::kStaticPeak));
  EXPECT_DOUBLE_EQ(r.mean_powered_on, 8.0);
  EXPECT_EQ(r.cluster.migrations, 0u);
  EXPECT_EQ(r.power_ons, 0u);
  EXPECT_EQ(r.power_offs, 0u);
  EXPECT_GT(r.cluster.completed, 0u);
}

TEST(FleetControllerTest, PredictiveShedsTheTroughAndMigratesMidRun) {
  const AutoscaleResult r = RunClusterAutoscale(SmallConfig(ScalingPolicyKind::kPredictive));
  // The pool breathes with the diurnal curve: nodes power off at the trough
  // and back on for the ramp, re-homing replicas as the active set moves.
  EXPECT_LT(r.mean_powered_on, 8.0);
  EXPECT_GT(r.power_offs, 0u);
  EXPECT_GT(r.power_ons, 0u);
  EXPECT_GT(r.cluster.migrations, 0u);
  EXPECT_GT(r.cluster.migration_gpu_ms, 0.0);
  EXPECT_GT(r.cluster.completed, 0u);
}

TEST(FleetControllerTest, DrainedNodesArePowerGated) {
  const AutoscaleConfig config = SmallConfig(ScalingPolicyKind::kPredictive);
  Simulator sim;
  ClusterDispatcher dispatcher(&sim, config.cluster);
  FleetController controller(&sim, &dispatcher, config);
  const TimeNs horizon = config.cluster.warmup + config.cluster.duration;
  dispatcher.SetWarmupEnd(config.cluster.warmup);
  dispatcher.StartArrivals(horizon);
  controller.Start(horizon);
  sim.RunUntil(horizon);

  // The run ends below the diurnal mean: part of the pool must be off, and
  // every powered-off node is drained, out of rotation, and power-gated.
  int off = 0;
  for (int n = 0; n < config.cluster.num_nodes; ++n) {
    if (controller.node_power(n) == NodePower::kPoweredOff) {
      ++off;
      EXPECT_FALSE(dispatcher.NodeActive(n));
      EXPECT_TRUE(dispatcher.NodeGated(n));
      EXPECT_EQ(dispatcher.nodes()[n]->engine()->NumRunningGrants(), 0);
      EXPECT_DOUBLE_EQ(dispatcher.nodes()[n]->engine()->InstantPowerW(),
                       config.cluster.spec.gated_power_w);
    }
  }
  EXPECT_GT(off, 0);
  EXPECT_EQ(controller.powered_on_nodes(), config.cluster.num_nodes - off);
}

// Scale-down hysteresis, replayed from the kScaleTarget trace. With no
// arrivals and a load-oblivious placer there is no backlog and no migration,
// so the predictive policy's raw node count is a pure function of the
// diurnal curve that the test recomputes. A tick that calls for fewer nodes
// than are powered on holds the pool until kScaleDownPatience consecutive
// ticks have asked; a tick that calls for more powers nodes on at once.
TEST(FleetControllerTest, ScaleDownWaitsForConsecutiveLowTicksScaleUpIsImmediate) {
  AutoscaleConfig config = SmallConfig(ScalingPolicyKind::kPredictive);
  config.cluster.policy = PlacementPolicy::kLeastLoaded;
  config.min_nodes = 1;
  Simulator sim;
  ClusterDispatcher dispatcher(&sim, config.cluster);
  FleetController controller(&sim, &dispatcher, config);
  TraceRecorder trace;
  controller.SetTrace(&trace);
  const TimeNs horizon = config.cluster.warmup + config.cluster.duration;
  controller.Start(horizon);
  sim.RunUntil(horizon);

  std::map<TimeNs, int> power_ons, drains;
  for (const TraceRecord& r : trace.Records()) {
    if (r.kind == static_cast<uint8_t>(TraceKind::kPowerOn)) {
      ++power_ons[r.time_ns];
    } else if (r.kind == static_cast<uint8_t>(TraceKind::kDrainBegin)) {
      ++drains[r.time_ns];
    }
  }
  const double capacity = config.cluster.affinity_target_util * 1000.0;
  int below_streak = 0, held = 0, shrinks = 0, grows = 0;
  for (const TraceRecord& r : trace.Records()) {
    if (r.kind != static_cast<uint8_t>(TraceKind::kScaleTarget)) {
      continue;
    }
    const TimeNs t = r.time_ns;
    const int desired = r.arg;
    const int provisioned = static_cast<int>(r.payload);
    const double demand = std::max(dispatcher.OfferedLoadAt(t + config.control_period),
                                   dispatcher.OfferedLoadAt(t));
    const int raw = std::clamp(static_cast<int>(std::ceil(demand / capacity - 1e-9)),
                               config.min_nodes, config.cluster.num_nodes);
    if (raw < provisioned) {
      ++below_streak;
      if (below_streak < FleetController::kScaleDownPatience) {
        EXPECT_EQ(desired, provisioned) << "t=" << t;
        EXPECT_EQ(drains.count(t), 0u) << "t=" << t;
        ++held;
      } else {
        EXPECT_EQ(desired, raw) << "t=" << t;
        EXPECT_EQ(drains[t], provisioned - raw) << "t=" << t;
        ++shrinks;
      }
    } else {
      below_streak = 0;
      EXPECT_EQ(desired, raw) << "t=" << t;
      if (raw > provisioned) {
        EXPECT_GE(power_ons[t], raw - provisioned) << "t=" << t;
        ++grows;
      }
    }
  }
  EXPECT_GT(held, 0);
  EXPECT_GT(shrinks, 0);
  EXPECT_GT(grows, 0);
}

// The acceptance headline: predictive scaling beats static-peak provisioning
// on GPU-hours AND joules per fleet-day at comparable p99, and live
// migrations actually occur mid-run.
TEST(FleetControllerTest, PredictiveBeatsStaticPeakAtEqualP99) {
  const AutoscaleResult fixed = RunClusterAutoscale(SmallConfig(ScalingPolicyKind::kStaticPeak));
  const AutoscaleResult scaled =
      RunClusterAutoscale(SmallConfig(ScalingPolicyKind::kPredictive));

  EXPECT_LT(scaled.gpu_hours_per_day, fixed.gpu_hours_per_day);
  EXPECT_LT(scaled.joules_per_day, fixed.joules_per_day);
  EXPECT_LE(scaled.cluster.p99_ms, fixed.cluster.p99_ms * 1.10);
  EXPECT_GT(scaled.cluster.migrations, 0u);
  // Shedding the trough raises the utilization of what the fleet pays for.
  EXPECT_GT(scaled.provisioned_utilization, fixed.provisioned_utilization);
}

TEST(FleetControllerTest, RunClusterAutoscaleIsDeterministic) {
  const AutoscaleConfig config = SmallConfig(ScalingPolicyKind::kReactive);
  const AutoscaleResult a = RunClusterAutoscale(config);
  const AutoscaleResult b = RunClusterAutoscale(config);
  EXPECT_EQ(a.cluster.dispatched, b.cluster.dispatched);
  EXPECT_EQ(a.cluster.completed, b.cluster.completed);
  EXPECT_EQ(a.cluster.migrations, b.cluster.migrations);
  EXPECT_EQ(a.power_ons, b.power_ons);
  EXPECT_EQ(a.power_offs, b.power_offs);
  EXPECT_DOUBLE_EQ(a.gpu_hours_per_day, b.gpu_hours_per_day);
  EXPECT_DOUBLE_EQ(a.joules_per_day, b.joules_per_day);
  EXPECT_DOUBLE_EQ(a.cluster.p99_ms, b.cluster.p99_ms);
}

}  // namespace
}  // namespace lithos
