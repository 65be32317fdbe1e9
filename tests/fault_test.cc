// Fault-layer tests: zone topology and hierarchical placement, crash/revive
// semantics at the dispatcher, restore-only recovery through the controller,
// and the deterministic-replay contract — same seed, byte-identical fault
// schedule and recovery trace across runs and SweepRunner --jobs values.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/autoscale/fleet_controller.h"
#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/experiments/sweep.h"
#include "src/fault/fault_injector.h"
#include "src/fault/scenario.h"
#include "src/obs/span.h"

namespace lithos {
namespace {

ClusterConfig ZonedConfig(int num_zones, int nodes_per_zone,
                          PlacementPolicy policy = PlacementPolicy::kModelAffinity) {
  ClusterConfig config;
  config.policy = policy;
  config.system = SystemKind::kMps;  // passive backend keeps fleet tests fast
  config.num_nodes = num_zones * nodes_per_zone;
  config.num_zones = num_zones;
  config.aggregate_rps = 400.0;
  config.seed = 7;
  return config;
}

FleetFaultConfig OutageScenario(int num_zones, int nodes_per_zone) {
  FleetFaultConfig config;
  config.cluster = ZonedConfig(num_zones, nodes_per_zone);
  config.scaling = ScalingPolicyKind::kStaticPeak;
  config.max_migrations_per_period = 8;
  config.faults.name = "zone-outage";
  config.faults.seed = 11;
  config.faults.zone_outages = {{/*zone=*/0, FromSeconds(2), FromSeconds(1)}};
  config.phases = {{"pre", FromSeconds(1), FromSeconds(2)},
                   {"during", FromSeconds(2), FromSeconds(3)},
                   {"post", FromMillis(3500), FromMillis(5500)}};
  return config;
}

// Every value of every phase snapshot, bit-exact, one phase per line.
std::string PhaseLines(const FleetFaultResult& r) {
  std::string out;
  char buf[32];
  for (const MetricsRegistry::PhaseSnapshot& phase : r.phases) {
    out += phase.name;
    for (const auto& [metric, value] : phase.values) {
      std::snprintf(buf, sizeof(buf), " %a", value);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

// --- Zone topology and hierarchical placement --------------------------------

TEST(ZoneTest, TopologyPartitionsNodes) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(4, 3));
  const ZoneTopology& topo = fleet.zone_topology();
  ASSERT_EQ(fleet.num_zones(), 4);
  EXPECT_EQ(topo.zone_size, 3);
  EXPECT_EQ(topo.ZoneBegin(0), 0);
  EXPECT_EQ(topo.ZoneEnd(3), 12);
  for (int z = 0; z < 4; ++z) {
    EXPECT_EQ(topo.ZoneEnd(z) - topo.ZoneBegin(z), 3);
    for (int n = topo.ZoneBegin(z); n < topo.ZoneEnd(z); ++n) {
      EXPECT_EQ(fleet.ZoneOfNode(n), z);
    }
  }
}

TEST(ZoneTest, ZoneInterleaveRoundRobinsAcrossZones) {
  ZoneTopology topo;
  topo.num_zones = 3;
  topo.zone_size = 2;
  const std::vector<int> order = ZoneInterleave({0, 1, 2, 3, 4, 5}, topo);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3, 5}));
  // Subsets keep the round-robin shape.
  EXPECT_EQ(ZoneInterleave({0, 1, 4}, topo), (std::vector<int>{0, 4, 1}));
}

TEST(ZoneTest, ZonedPackingSpreadsHotModelsAcrossZones) {
  Simulator sim;
  ClusterConfig config = ZonedConfig(4, 8);
  config.aggregate_rps = 2000.0;  // hot head models need several replicas
  ClusterDispatcher fleet(&sim, config);

  // The most popular model's replicas must span more than one failure
  // domain, so a whole-zone outage leaves live copies elsewhere.
  const std::vector<int>& replicas = fleet.placer().ReplicaNodes(0);
  ASSERT_GT(replicas.size(), 1u);
  std::set<int> zones;
  for (int node : replicas) {
    zones.insert(fleet.ZoneOfNode(node));
  }
  EXPECT_GT(zones.size(), 1u);
}

TEST(ZoneTest, ZonedPlacerRoutesAroundDeadZone) {
  Simulator sim;
  ClusterConfig config = ZonedConfig(4, 4);
  ClusterDispatcher fleet(&sim, config);
  for (int n = fleet.zone_topology().ZoneBegin(0); n < fleet.zone_topology().ZoneEnd(0); ++n) {
    fleet.FailNode(n);
  }
  EXPECT_EQ(fleet.failed_node_count(), 4);

  // Every model stays routable, and nothing routes into the dead zone.
  for (int m = 0; m < static_cast<int>(fleet.models().size()); ++m) {
    const int node = fleet.Dispatch(m);
    EXPECT_GE(node, 4) << "model " << m << " routed into the failed zone";
  }
  sim.RunToCompletion();
}

// --- Crash semantics ---------------------------------------------------------

TEST(FaultTest, CrashWritesOffInFlightWork) {
  Simulator sim;
  ClusterConfig config = ZonedConfig(2, 2, PlacementPolicy::kLeastLoaded);
  ClusterDispatcher fleet(&sim, config);

  // Put two requests in flight (least-loaded spreads them over two nodes),
  // then crash both hosts before either completes.
  const int victim = fleet.Dispatch(0);
  const int other = fleet.Dispatch(0);
  ASSERT_NE(victim, other);
  EXPECT_GT(fleet.outstanding_ms()[victim], 0.0);
  EXPECT_GT(fleet.zone_outstanding_ms()[fleet.ZoneOfNode(victim)], 0.0);

  fleet.FailNode(victim);
  fleet.FailNode(other);
  EXPECT_TRUE(fleet.NodeFailed(victim));
  EXPECT_FALSE(fleet.NodeActive(victim));
  EXPECT_EQ(fleet.outstanding_ms()[victim], 0.0);
  EXPECT_EQ(fleet.outstanding_ms()[other], 0.0);
  for (double zone_ms : fleet.zone_outstanding_ms()) {
    EXPECT_EQ(zone_ms, 0.0);
  }

  sim.RunToCompletion();
  EXPECT_EQ(fleet.completed(), 0u);
  EXPECT_EQ(fleet.failed(), 2u);

  // Revive: the nodes stay out of rotation until a controller re-adds them.
  fleet.ReviveNode(victim);
  fleet.ReviveNode(other);
  EXPECT_FALSE(fleet.NodeFailed(victim));
  EXPECT_FALSE(fleet.NodeActive(victim));
  EXPECT_EQ(fleet.failed_node_count(), 0);
}

TEST(FaultTest, FailNodeIsIdempotent) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));
  fleet.FailNode(1);
  fleet.FailNode(1);
  EXPECT_EQ(fleet.failed_node_count(), 1);
  fleet.ReviveNode(1);
  fleet.ReviveNode(1);
  EXPECT_EQ(fleet.failed_node_count(), 0);
}

TEST(FaultTest, RecoverModelReplicaChargesRestoreOnly) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));
  // Find a model hosted on node 0 and a survivor not hosting it.
  int model = -1;
  for (int m = 0; m < static_cast<int>(fleet.models().size()); ++m) {
    const std::vector<int>& replicas = fleet.placer().ReplicaNodes(m);
    if (replicas.size() == 1 && replicas[0] == 0) {
      model = m;
      break;
    }
  }
  ASSERT_GE(model, 0) << "packing left nothing exclusive on node 0";

  fleet.FailNode(0);
  const double before = fleet.outstanding_ms()[3];
  ASSERT_TRUE(fleet.MoveReplica(model, 0, 3));  // crashed source: recovery
  // The survivor was charged the restore kernel; the dead node nothing.
  EXPECT_GT(fleet.outstanding_ms()[3], before);
  EXPECT_EQ(fleet.outstanding_ms()[0], 0.0);
  EXPECT_EQ(fleet.placer().ReplicaNodes(model), std::vector<int>{3});
  EXPECT_EQ(fleet.recoveries(), 1u);
  ASSERT_EQ(fleet.recovery_log().size(), 1u);
  EXPECT_NE(fleet.recovery_log()[0].find("recover"), std::string::npos);
  sim.RunToCompletion();
}

// --- Controller-driven recovery ----------------------------------------------

TEST(FaultTest, ControllerReplacesDeadReplicasOntoSurvivors) {
  FleetFaultConfig config = OutageScenario(4, 4);
  // Enough offered load that the outage actually catches requests in flight
  // (at 400 rps the 16-node fleet is nearly idle at any instant).
  config.cluster.aggregate_rps = 1500.0;
  const FleetFaultResult result = RunFleetFaultScenario(config);

  // The outage stranded replicas; the controller re-placed them.
  EXPECT_GT(result.recovery_log.size(), 0u);
  EXPECT_FALSE(result.recovery_log.empty());
  EXPECT_EQ(result.zone_outages, 1u);
  // Work was lost during the outage but service recovered: the post phase
  // completes requests at a goodput close to the pre phase. Losses are
  // attributed to the phase in which the node died, so the outage phase —
  // which opens at the same instant the zone drops — carries them.
  ASSERT_EQ(result.phases.size(), 3u);
  EXPECT_GT(result.totals.Count("fleet/failed"), 0u);
  EXPECT_GT(result.Phase("during").Count("fleet/failed"), 0u);
  EXPECT_GT(bench::PhaseGoodput(result, "pre"), 0.0);
  EXPECT_GE(bench::PhaseGoodput(result, "post"), 0.85 * bench::PhaseGoodput(result, "pre"));
}

// --- Deterministic replay ----------------------------------------------------

TEST(FaultReplayTest, ScheduleIsPureFunctionOfConfig) {
  FaultScenarioConfig scenario;
  scenario.seed = 5;
  scenario.horizon = FromSeconds(10);
  scenario.crashes_per_second = 3.0;
  scenario.stragglers_per_second = 2.0;
  scenario.zone_outages = {{1, FromSeconds(4), FromSeconds(1)}};
  scenario.power_caps = {{2, FromSeconds(6), FromSeconds(2), 0.7}};

  Simulator sim_a, sim_b;
  ClusterDispatcher fleet_a(&sim_a, ZonedConfig(4, 4));
  ClusterDispatcher fleet_b(&sim_b, ZonedConfig(4, 4));
  FaultInjector injector_a(&sim_a, &fleet_a, scenario);
  FaultInjector injector_b(&sim_b, &fleet_b, scenario);

  const std::vector<std::string> lines = injector_a.ScheduleLines();
  EXPECT_FALSE(lines.empty());
  EXPECT_EQ(lines, injector_b.ScheduleLines());

  scenario.seed = 6;
  FaultInjector injector_c(&sim_a, &fleet_a, scenario);
  EXPECT_NE(lines, injector_c.ScheduleLines());
}

TEST(FaultReplayTest, TraceAndRecoveryAreByteIdenticalAcrossRuns) {
  FleetFaultConfig config = OutageScenario(4, 4);
  config.faults.crashes_per_second = 1.0;
  config.faults.crash_repair = FromMillis(700);

  const FleetFaultResult a = RunFleetFaultScenario(config);
  const FleetFaultResult b = RunFleetFaultScenario(config);

  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.recovery_log, b.recovery_log);
  EXPECT_EQ(a.totals.values, b.totals.values);
  EXPECT_EQ(a.sim.fired, b.sim.fired);
  ASSERT_EQ(a.phases.size(), 3u);
  EXPECT_EQ(PhaseLines(a), PhaseLines(b));
}

TEST(FaultReplayTest, SweepGridIsByteIdenticalAcrossJobs) {
  // The bench's property at test scale: serialize every scenario's trace +
  // phase metrics through SweepRunner at --jobs 1 and --jobs 4 and compare
  // the byte streams.
  const std::vector<std::string> scenarios = {"healthy", "crashes", "zone-outage"};
  auto run_grid = [&scenarios](int jobs) {
    SweepRunner runner(jobs);
    std::vector<SweepPoint<std::string>> points;
    for (const std::string& name : scenarios) {
      points.push_back({name, [name] {
                          FleetFaultConfig config = OutageScenario(2, 3);
                          if (name == "healthy") {
                            config.faults.zone_outages.clear();
                          } else if (name == "crashes") {
                            config.faults.zone_outages.clear();
                            config.faults.crashes_per_second = 2.0;
                            config.faults.crash_repair = FromMillis(600);
                          }
                          const FleetFaultResult r = RunFleetFaultScenario(config);
                          std::string blob = name + "\n";
                          for (const std::string& line : r.fault_trace) {
                            blob += line + "\n";
                          }
                          for (const std::string& line : r.recovery_log) {
                            blob += line + "\n";
                          }
                          blob += PhaseLines(r);
                          return blob;
                        }});
    }
    std::string all;
    for (const std::string& blob : runner.Run(points)) {
      all += blob;
    }
    return all;
  };

  const std::string serial = run_grid(1);
  const std::string parallel = run_grid(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// --- Partition (gray failure) semantics --------------------------------------

TEST(PartitionTest, PartitionDefersThenHealDelivers) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2, PlacementPolicy::kLeastLoaded));
  const int node = fleet.Dispatch(0);
  ASSERT_GE(node, 0);

  fleet.PartitionNode(node);
  EXPECT_TRUE(fleet.NodePartitioned(node));
  EXPECT_FALSE(fleet.NodeActive(node));
  EXPECT_EQ(fleet.partitioned_node_count(), 1);

  // The kernel finishes behind the partition: the completion is deferred,
  // not delivered and not written off.
  sim.RunToCompletion();
  EXPECT_EQ(fleet.completed(), 0u);
  EXPECT_EQ(fleet.failed(), 0u);
  EXPECT_EQ(fleet.metrics().counter("fleet/deferred").value(), 1u);

  // Heal: the buffered completion is delivered; the node rejoins out of
  // rotation like a repaired one.
  fleet.HealNode(node);
  EXPECT_FALSE(fleet.NodePartitioned(node));
  EXPECT_EQ(fleet.partitioned_node_count(), 0);
  EXPECT_EQ(fleet.completed(), 1u);
  EXPECT_EQ(fleet.metrics().counter("fleet/deferred_delivered").value(), 1u);
  EXPECT_FALSE(fleet.NodeActive(node));
}

TEST(PartitionTest, CrashDuringPartitionOrphansDeferredWork) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2, PlacementPolicy::kLeastLoaded));
  const int node = fleet.Dispatch(0);
  ASSERT_GE(node, 0);
  fleet.PartitionNode(node);
  sim.RunToCompletion();
  EXPECT_EQ(fleet.metrics().counter("fleet/deferred").value(), 1u);

  // The partitioned host dies before the partition heals: its buffered
  // completion is from a dead epoch, so heal orphans the attempt (the
  // request fails) instead of delivering stale state. deferred_orphaned
  // counts only duplicate deliveries to an already-settled request.
  fleet.FailNode(node);
  fleet.HealNode(node);
  EXPECT_EQ(fleet.completed(), 0u);
  EXPECT_EQ(fleet.failed(), 1u);
  EXPECT_EQ(fleet.metrics().counter("fleet/deferred_delivered").value(), 0u);
  EXPECT_EQ(fleet.metrics().counter("fleet/deferred_orphaned").value(), 0u);
}

TEST(PartitionTest, WriteOffPolicyFailsFastIntoPartitionedPool) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));
  for (int n = 0; n < fleet.config().num_nodes; ++n) {
    fleet.PartitionNode(n);  // both zones
  }
  EXPECT_EQ(fleet.partitioned_node_count(), 4);

  // With every node unreachable there is nowhere to attempt; the one-attempt
  // write-off policy fails the request at admission instead of launching
  // onto an unreachable host.
  fleet.Dispatch(0);
  EXPECT_EQ(fleet.failed(), 1u);
  EXPECT_EQ(fleet.completed(), 0u);
  sim.RunToCompletion();
}

// --- Rack-correlated crashes -------------------------------------------------

TEST(RackTest, ScriptedRackCrashFailsExactlyTheRack) {
  Simulator sim;
  ClusterConfig cc = ZonedConfig(2, 4);
  cc.racks_per_zone = 2;  // 2-node racks
  ClusterDispatcher fleet(&sim, cc);

  FaultScenarioConfig scenario;
  scenario.seed = 3;
  scenario.rack_crashes = {{/*zone=*/1, /*rack=*/0, FromSeconds(1), FromMillis(500)}};
  FaultInjector injector(&sim, &fleet, scenario);
  injector.Arm();

  sim.RunUntil(FromMillis(1200));
  const ZoneTopology& topo = fleet.zone_topology();
  for (int n = 0; n < cc.num_nodes; ++n) {
    const bool in_rack = topo.ZoneOf(n) == 1 && topo.RackOf(n) == 0;
    EXPECT_EQ(fleet.NodeFailed(n), in_rack) << "node " << n;
  }
  EXPECT_EQ(injector.rack_crashes(), 1u);

  sim.RunUntil(FromSeconds(2));
  EXPECT_EQ(fleet.failed_node_count(), 0);
}

TEST(RackTest, RandomRackProcessTargetsWholeRacks) {
  Simulator sim;
  ClusterConfig cc = ZonedConfig(2, 4);
  cc.racks_per_zone = 2;
  ClusterDispatcher fleet(&sim, cc);

  FaultScenarioConfig scenario;
  scenario.seed = 21;
  scenario.horizon = FromSeconds(10);
  scenario.rack_crashes_per_second = 1.0;
  scenario.rack_repair = RepairModel::Weibull(0.7, 0.5);
  FaultInjector injector(&sim, &fleet, scenario);

  // Every scheduled rack event names a zone and a valid rack, and crashes
  // and repairs pair up.
  int crashes = 0, repairs = 0;
  for (const std::string& line : injector.ScheduleLines()) {
    if (line.find("rack-crash") != std::string::npos) {
      ++crashes;
      EXPECT_NE(line.find("rack="), std::string::npos) << line;
    } else if (line.find("rack-repair") != std::string::npos) {
      ++repairs;
    }
  }
  EXPECT_GT(crashes, 0);
  EXPECT_EQ(crashes, repairs);
}

// --- Repair-time distributions -----------------------------------------------

TEST(FaultReplayTest, RepairDistributionDoesNotPerturbCrashDraws) {
  // Heavy-tailed repairs sample the schedule Rng *after* each crash's own
  // time/victim draws, and the fixed default samples nothing — so switching
  // the repair model must leave every crash instant and victim unchanged.
  FaultScenarioConfig fixed;
  fixed.seed = 9;
  fixed.horizon = FromSeconds(5);
  fixed.crashes_per_second = 2.0;
  fixed.crash_repair = FromMillis(700);
  FaultScenarioConfig heavy = fixed;
  heavy.crash_repair = RepairModel::Weibull(0.7, 2.0);

  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));
  FaultInjector injector_fixed(&sim, &fleet, fixed);
  FaultInjector injector_heavy(&sim, &fleet, heavy);

  auto crash_lines = [](const FaultInjector& injector) {
    std::vector<std::string> lines;
    for (const std::string& line : injector.ScheduleLines()) {
      if (line.find(" crash ") != std::string::npos) {
        lines.push_back(line);
      }
    }
    return lines;
  };
  const std::vector<std::string> a = crash_lines(injector_fixed);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, crash_lines(injector_heavy));
  // The repair *delays* differ, though: heavy-tailed repairs are sampled.
  EXPECT_NE(injector_fixed.ScheduleLines(), injector_heavy.ScheduleLines());

  // And the sampled schedule is itself a pure function of the config.
  FaultInjector injector_heavy2(&sim, &fleet, heavy);
  EXPECT_EQ(injector_heavy.ScheduleLines(), injector_heavy2.ScheduleLines());
}

// --- Config validation -------------------------------------------------------

TEST(FaultValidationTest, RejectsOutOfRangeZoneAndRack) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));

  FaultScenarioConfig bad_partition;
  bad_partition.partitions = {{/*zone=*/5, FromSeconds(1), FromSeconds(1)}};
  EXPECT_DEATH(FaultInjector(&sim, &fleet, bad_partition), "zone");

  FaultScenarioConfig bad_rack;
  bad_rack.rack_crashes = {{/*zone=*/0, /*rack=*/3, FromSeconds(1), FromSeconds(1)}};
  EXPECT_DEATH(FaultInjector(&sim, &fleet, bad_rack), "rack");

  FaultScenarioConfig bad_outage;
  bad_outage.zone_outages = {{/*zone=*/-1, FromSeconds(1), FromSeconds(1)}};
  EXPECT_DEATH(FaultInjector(&sim, &fleet, bad_outage), "zone");
}

// --- Request-level resilience ------------------------------------------------

// Rack-crash + zone-partition composite at test scale: 16 nodes in 4 zones
// of two 2-node racks, loaded enough that faults catch work in flight. The
// scripted instants sit off the 250ms control grid so there is a real
// exposure window before the controller re-places replicas.
FleetFaultConfig ResilienceScenario(bool resilient) {
  FleetFaultConfig config;
  config.cluster = ZonedConfig(4, 4);
  config.cluster.racks_per_zone = 2;
  config.cluster.aggregate_rps = 1500.0;
  config.cluster.resilience.enabled = resilient;
  config.scaling = ScalingPolicyKind::kStaticPeak;
  config.max_migrations_per_period = 8;
  config.faults.name = "rack+partition";
  config.faults.seed = 11;
  config.faults.partitions = {{/*zone=*/0, FromSeconds(2) + FromMillis(20), FromSeconds(1)}};
  config.faults.rack_crashes = {
      {/*zone=*/1, /*rack=*/0, FromSeconds(2) + FromMillis(120), FromMillis(700)},
      {/*zone=*/0, /*rack=*/1, FromSeconds(2) + FromMillis(420), FromMillis(700)},
  };
  config.phases = {{"pre", FromSeconds(1), FromSeconds(2)},
                   {"during", FromSeconds(2), FromSeconds(3)},
                   {"post", FromMillis(3500), FromMillis(5500)}};
  return config;
}

TEST(ResilienceTest, RetryRecoversWorkWrittenOffByLegacyPath) {
  const FleetFaultResult writeoff = RunFleetFaultScenario(ResilienceScenario(false));
  const FleetFaultResult resilient = RunFleetFaultScenario(ResilienceScenario(true));

  EXPECT_EQ(writeoff.partitions, 1u);
  EXPECT_EQ(writeoff.rack_crashes, 2u);
  EXPECT_EQ(writeoff.totals.Count("fleet/retries"), 0u);

  EXPECT_GT(writeoff.totals.Count("fleet/failed"), 0u);
  EXPECT_LT(resilient.totals.Count("fleet/failed"), writeoff.totals.Count("fleet/failed"));
  EXPECT_GT(resilient.totals.Count("fleet/retries"), 0u);
  // Recovery: the resilient post phase serves goodput comparable to pre.
  EXPECT_GE(bench::PhaseGoodput(resilient, "post"), 0.9 * bench::PhaseGoodput(resilient, "pre"));
}

TEST(ResilienceTest, HedgeFirstCompletionWinsWithoutDoubleCounting) {
  FleetFaultConfig config = ResilienceScenario(true);
  config.cluster.resilience.hedge = true;
  config.cluster.resilience.hedge_delay = FromMillis(2);
  const FleetFaultResult r = RunFleetFaultScenario(config);

  EXPECT_GT(r.totals.Count("fleet/hedges"), 0u);
  EXPECT_GT(r.totals.Count("fleet/hedge_wins"), 0u);
  // First completion wins exactly once: no phase completes meaningfully more
  // requests than were dispatched into it (small carryover crosses phase
  // boundaries; duplicated completions would roughly double the count).
  for (const MetricsRegistry::PhaseSnapshot& phase : r.phases) {
    EXPECT_LE(phase.Count("fleet/latency_ms/count"), phase.Count("fleet/dispatched") + 25)
        << phase.name;
  }
}

TEST(ResilienceTest, HedgedDrainLeavesNoCompletionMarkerLive) {
  // Every completion marker is freed exactly once — when it fires, or when a
  // settled request cancels its losing attempt — so a drained fleet holds
  // none, and no attempt's GPU-ms stays on a node's books.
  Simulator sim;
  ClusterConfig cc = ResilienceScenario(true).cluster;
  cc.resilience.hedge = true;
  cc.resilience.hedge_delay = FromMillis(2);
  ClusterDispatcher fleet(&sim, cc);
  fleet.StartArrivals(FromSeconds(1));
  sim.RunToCompletion();

  EXPECT_GT(fleet.metrics().counter("fleet/hedges").value(), 0u);
  EXPECT_EQ(fleet.live_markers(), 0u);
  for (double ms : fleet.outstanding_ms()) {
    EXPECT_NEAR(ms, 0.0, 1e-9);
  }
}

TEST(ResilienceTest, ShedBoundsOutstandingWork) {
  Simulator sim;
  ClusterConfig cc = ZonedConfig(1, 2);
  cc.resilience.enabled = true;
  cc.resilience.shed_watermark_ms = 5.0;
  ClusterDispatcher fleet(&sim, cc);

  // Slam 200 arrivals into a 2-node pool without letting the sim drain:
  // admission control must kick in and cap the queued backlog.
  const int num_models = static_cast<int>(fleet.models().size());
  for (int i = 0; i < 200; ++i) {
    fleet.Dispatch(i % num_models);
  }
  EXPECT_GT(fleet.metrics().counter("fleet/shed").value(), 0u);
  double total_ms = 0;
  for (double ms : fleet.outstanding_ms()) {
    total_ms += ms;
  }
  // Bounded by watermark * active nodes plus at most one admitted request
  // (+ its switch kernel) per node beyond the threshold.
  EXPECT_LE(total_ms, 5.0 * 2 + 100.0);
  sim.RunToCompletion();
}

// Request conservation under one policy: a scripted crash, a partition, a
// crash behind that partition, and the heal, then a full drain. Every request
// settles exactly once, in the counters and in the online spans. Returns the
// settled counts for the byte-identity grid.
std::string CheckRequestConservation(bool resilient) {
  Simulator sim;
  ClusterConfig cc = ResilienceScenario(resilient).cluster;
  cc.resilience.hedge = resilient;
  ClusterDispatcher fleet(&sim, cc);
  SpanBuilder spans;
  fleet.SetSpanSink(&spans);
  auto busiest = [&fleet](int zone) {
    int best = fleet.zone_topology().ZoneBegin(zone);
    for (int n = best; n < fleet.zone_topology().ZoneEnd(zone); ++n) {
      if (fleet.outstanding_ms()[n] > fleet.outstanding_ms()[best]) {
        best = n;
      }
    }
    return best;
  };
  int behind = -1;
  sim.ScheduleAt(FromMillis(300), [&] { fleet.FailNode(busiest(1)); });
  sim.ScheduleAt(FromMillis(400), [&] {
    behind = busiest(0);
    for (int n = fleet.zone_topology().ZoneBegin(0); n < fleet.zone_topology().ZoneEnd(0); ++n) {
      fleet.PartitionNode(n);
    }
  });
  sim.ScheduleAt(FromMillis(420), [&] { fleet.FailNode(behind); });
  sim.ScheduleAt(FromMillis(700), [&] {
    for (int n = fleet.zone_topology().ZoneBegin(0); n < fleet.zone_topology().ZoneEnd(0); ++n) {
      fleet.HealNode(n);
    }
  });
  fleet.StartArrivals(FromSeconds(1));
  sim.RunToCompletion();

  const uint64_t shed = fleet.metrics().counter("fleet/shed").value();
  EXPECT_GT(fleet.metrics().counter("fleet/deferred").value(), 0u);
  if (!resilient) {
    EXPECT_GT(fleet.failed(), 0u);  // write-off loses what the crashes caught
  }
  EXPECT_EQ(fleet.dispatched(), fleet.completed() + fleet.failed() + shed);
  EXPECT_EQ(spans.num_requests(), fleet.dispatched());
  uint64_t completed = 0, failed = 0, shed_spans = 0;
  for (const RequestSpan& s : spans.Spans()) {
    EXPECT_FALSE(s.partial) << "request " << s.id;
    completed += s.outcome == RequestOutcome::kCompleted;
    failed += s.outcome == RequestOutcome::kFailed;
    shed_spans += s.outcome == RequestOutcome::kShed;
  }
  EXPECT_EQ(completed, fleet.completed());
  EXPECT_EQ(failed, fleet.failed());
  EXPECT_EQ(shed_spans, shed);
  return std::to_string(completed) + " " + std::to_string(failed) + " " +
         std::to_string(shed_spans) + "\n";
}

TEST(FaultReplayTest, ResilienceGridIsByteIdenticalAcrossJobs) {
  // The resilience bench's CI property at test scale: the full rack+partition
  // schedule, replayed under both policies through SweepRunner at --jobs 1,
  // 2, and 8, serializes to identical bytes. Each point also checks request
  // conservation under its policy.
  auto run_grid = [](int jobs) {
    SweepRunner runner(jobs);
    std::vector<SweepPoint<std::string>> points;
    for (const bool resilient : {false, true}) {
      points.push_back({resilient ? "resilient" : "write-off", [resilient] {
                          FleetFaultConfig config = ResilienceScenario(resilient);
                          config.cluster.resilience.hedge = resilient;
                          const FleetFaultResult r = RunFleetFaultScenario(config);
                          std::string blob;
                          for (const std::string& line : r.fault_trace) {
                            blob += line + "\n";
                          }
                          for (const std::string& line : r.recovery_log) {
                            blob += line + "\n";
                          }
                          for (const char* counter :
                               {"fleet/failed", "fleet/retries", "fleet/hedges",
                                "fleet/hedge_wins", "fleet/timeouts",
                                "fleet/deferred_delivered", "fleet/deferred_orphaned"}) {
                            blob += std::to_string(r.totals.Count(counter)) + " ";
                          }
                          blob += "\n";
                          blob += PhaseLines(r);
                          return blob + CheckRequestConservation(resilient);
                        }});
    }
    std::string all;
    for (const std::string& blob : runner.Run(points)) {
      all += blob;
    }
    return all;
  };

  const std::string serial = run_grid(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_grid(2));
  EXPECT_EQ(serial, run_grid(8));
}

}  // namespace
}  // namespace lithos
