// Cluster-layer tests: placement-policy selection and determinism, the
// placer against a flat least-outstanding oracle and against the pre-cache
// zone walk, failover to the
// least-loaded node under a hot model, the ranked attempt fallback, the
// dispatcher's window totals against the per-node routing counts, and
// outstanding work draining to zero under every cancellable policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <utility>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/common/rng.h"
#include "src/obs/trace.h"
#include "src/workloads/fleet.h"

namespace lithos {
namespace {

std::vector<FleetModel> TestModels() { return FleetTelemetry(2026).models(); }

ClusterConfig SmallConfig(PlacementPolicy policy, SystemKind system = SystemKind::kMps) {
  ClusterConfig config;
  config.policy = policy;
  config.system = system;
  config.num_nodes = 4;
  config.aggregate_rps = 300.0;
  config.warmup = FromMillis(500);
  config.duration = FromSeconds(2);
  config.seed = 7;
  return config;
}

// --- Placement policies ------------------------------------------------------

// Per-zone sums of `outstanding_ms`, the aggregate the dispatcher maintains.
std::vector<double> ZoneSums(const Placer& placer, const std::vector<double>& outstanding_ms) {
  std::vector<double> sums(placer.zone_topology().num_zones, 0.0);
  for (int n = 0; n < placer.num_nodes(); ++n) {
    sums[placer.zone_topology().ZoneOf(n)] += outstanding_ms[n];
  }
  return sums;
}

int PlaceOn(Placer& placer, int model_index, const std::vector<double>& outstanding_ms) {
  return placer.Place(model_index, outstanding_ms, ZoneSums(placer, outstanding_ms));
}

TEST(PlacementTest, PolicyNamesAndRegistry) {
  EXPECT_EQ(AllPlacementPolicies().size(), 3u);
  std::set<std::string> names;
  const std::vector<FleetModel> models = TestModels();
  for (PlacementPolicy policy : AllPlacementPolicies()) {
    names.insert(PlacementPolicyName(policy));
    const Placer placer(policy, models, 4, 300.0, 0.65);
    ASSERT_EQ(placer.num_models(), static_cast<int>(models.size()));
    for (int m = 0; m < placer.num_models(); ++m) {
      // Only model-affinity narrows a model to a packed replica set.
      if (policy == PlacementPolicy::kModelAffinity) {
        EXPECT_FALSE(placer.ReplicaNodes(m).empty());
      } else {
        EXPECT_EQ(placer.ReplicaNodes(m), (std::vector<int>{0, 1, 2, 3}));
      }
    }
  }
  EXPECT_EQ(names.size(), 3u);  // distinct names
}

TEST(PlacementTest, RoundRobinCyclesThroughNodes) {
  Placer placer(PlacementPolicy::kRoundRobin, TestModels(), 3, 300.0, 0.65);
  const std::vector<double> load = {0, 0, 0};
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(PlaceOn(placer, i % 13, load), i % 3);
  }
}

TEST(PlacementTest, LeastLoadedPicksMinimumWithDeterministicTies) {
  Placer placer(PlacementPolicy::kLeastLoaded, TestModels(), 4, 300.0, 0.65);
  EXPECT_EQ(PlaceOn(placer, 0, {5.0, 2.0, 9.0, 2.5}), 1);
  // Ties break to the lowest index.
  EXPECT_EQ(PlaceOn(placer, 0, {3.0, 1.0, 1.0, 1.0}), 1);
  EXPECT_EQ(PlaceOn(placer, 0, {0.0, 0.0, 0.0, 0.0}), 0);
}

TEST(PlacementTest, ModelAffinityPacksColdTailAndFreesNodes) {
  const std::vector<FleetModel> models = TestModels();
  const int num_nodes = 13;
  // Light aggregate load: the whole fleet fits on a few GPUs.
  const Placer placer(PlacementPolicy::kModelAffinity, models, num_nodes, 300.0, 0.65);

  std::set<int> used;
  for (size_t m = 0; m < models.size(); ++m) {
    const std::vector<int> eligible = placer.EligibleNodes(static_cast<int>(m));
    ASSERT_FALSE(eligible.empty());
    used.insert(eligible.begin(), eligible.end());
  }
  // Consolidation: far fewer nodes than one-per-model.
  EXPECT_LT(used.size(), models.size() / 2);

  // The load-oblivious policies replicate every model everywhere.
  const Placer rr(PlacementPolicy::kRoundRobin, models, num_nodes, 300.0, 0.65);
  EXPECT_EQ(rr.EligibleNodes(0).size(), static_cast<size_t>(num_nodes));
}

TEST(PlacementTest, ModelAffinityConstructionIsDeterministic) {
  const std::vector<FleetModel> models = TestModels();
  const Placer a(PlacementPolicy::kModelAffinity, models, 8, 500.0, 0.65);
  const Placer b(PlacementPolicy::kModelAffinity, models, 8, 500.0, 0.65);
  for (size_t m = 0; m < models.size(); ++m) {
    EXPECT_EQ(a.EligibleNodes(static_cast<int>(m)), b.EligibleNodes(static_cast<int>(m)));
  }
}

// The flat least-outstanding scan: the model's enabled replicas, else every
// enabled node, else every node; ties to the lowest index.
int FlatLeastOutstanding(const Placer& placer, int model_index,
                         const std::vector<double>& outstanding_ms) {
  auto scan = [&outstanding_ms](const std::vector<int>& nodes) {
    int best = -1;
    for (int node : nodes) {
      if (best < 0 || outstanding_ms[node] < outstanding_ms[best]) {
        best = node;
      }
    }
    return best;
  };
  std::vector<int> replicas, enabled, all;
  for (int node : placer.ReplicaNodes(model_index)) {
    if (placer.NodeEnabled(node)) {
      replicas.push_back(node);
    }
  }
  for (int n = 0; n < placer.num_nodes(); ++n) {
    all.push_back(n);
    if (placer.NodeEnabled(n)) {
      enabled.push_back(n);
    }
  }
  for (const std::vector<int>* tier : {&replicas, &enabled, &all}) {
    if (!tier->empty()) {
      return scan(*tier);
    }
  }
  return -1;
}

// One random step against a model-affinity placer: new outstanding work on
// every node (small integers, so ties are common), an enabled-bit flip, and
// a replica move, add or remove.
void RandomPlacerStep(Rng& rng, Placer& placer, std::vector<double>& outstanding_ms) {
  const int num_nodes = placer.num_nodes();
  for (double& ms : outstanding_ms) {
    ms = static_cast<double>(rng.UniformInt(0, 4));
  }
  const int node = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
  placer.SetNodeEnabled(node, rng.UniformInt(0, 2) != 0);
  const int model = static_cast<int>(rng.UniformInt(0, placer.num_models() - 1));
  const int a = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
  const int b = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
  switch (rng.UniformInt(0, 2)) {
    case 0:
      placer.MoveReplica(model, a, b);
      break;
    case 1:
      placer.MoveReplica(model, -1, a);  // add
      break;
    default:
      placer.MoveReplica(model, a, -1);  // remove
      break;
  }
}

TEST(PlacementDifferentialTest, OneZoneAffinityMatchesFlatScan) {
  const std::vector<FleetModel> models = TestModels();
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const int num_nodes = 6 + static_cast<int>(seed % 5);
    Placer placer(PlacementPolicy::kModelAffinity, models, num_nodes, 600.0, 0.5);
    Rng rng(seed);
    std::vector<double> outstanding(num_nodes, 0.0);
    for (int step = 0; step < 2000; ++step) {
      RandomPlacerStep(rng, placer, outstanding);
      for (int m = 0; m < placer.num_models(); ++m) {
        ASSERT_EQ(PlaceOn(placer, m, outstanding), FlatLeastOutstanding(placer, m, outstanding))
            << "seed " << seed << " step " << step << " model " << m;
      }
    }
  }
}

TEST(PlacementDifferentialTest, FourZoneAffinityPicksLeastLoadedZone) {
  const std::vector<FleetModel> models = TestModels();
  ZoneTopology topo;
  topo.num_zones = 4;
  topo.zone_size = 3;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Placer placer(PlacementPolicy::kModelAffinity, models, 12, 1500.0, 0.5, topo);
    Rng rng(seed);
    std::vector<double> outstanding(12, 0.0);
    for (int step = 0; step < 2000; ++step) {
      RandomPlacerStep(rng, placer, outstanding);
      const std::vector<double> zone_ms = ZoneSums(placer, outstanding);
      std::vector<int> zone_enabled(topo.num_zones, 0);
      for (int n = 0; n < 12; ++n) {
        zone_enabled[topo.ZoneOf(n)] += placer.NodeEnabled(n) ? 1 : 0;
      }
      for (int m = 0; m < placer.num_models(); ++m) {
        // The least queued work per enabled node among the enabled zones
        // holding a replica; ties to the lowest zone.
        int zone = -1;
        for (int node : placer.ReplicaNodes(m)) {
          const int z = topo.ZoneOf(node);
          if (zone_enabled[z] > 0 &&
              (zone < 0 || zone_ms[z] / zone_enabled[z] < zone_ms[zone] / zone_enabled[zone])) {
            zone = z;
          }
        }
        int expected = -1;
        for (int node : placer.ReplicaNodes(m)) {
          if (topo.ZoneOf(node) == zone && placer.NodeEnabled(node) &&
              (expected < 0 || outstanding[node] < outstanding[expected])) {
            expected = node;
          }
        }
        const int chosen = placer.Place(m, outstanding, zone_ms);
        if (expected >= 0) {
          ASSERT_EQ(topo.ZoneOf(chosen), zone) << "seed " << seed << " step " << step;
          ASSERT_EQ(chosen, expected) << "seed " << seed << " step " << step;
        } else {
          // No enabled replica in that zone: the flat fallback.
          ASSERT_EQ(chosen, FlatLeastOutstanding(placer, m, outstanding))
              << "seed " << seed << " step " << step;
        }
      }
    }
  }
}

// PlaceZoneFirst before it cached zone spans: stage 1 jumps over each zone's
// run of the sorted replica list with upper_bound; stage 2 and the fallback
// are unchanged. The oracle for the span cache.
int UpperBoundZoneFirst(const Placer& placer, int model_index,
                        const std::vector<double>& outstanding_ms,
                        const std::vector<double>& zone_outstanding_ms) {
  const ZoneTopology& topo = placer.zone_topology();
  std::vector<int> zone_enabled(topo.num_zones, 0);
  for (int n = 0; n < placer.num_nodes(); ++n) {
    zone_enabled[topo.ZoneOf(n)] += placer.NodeEnabled(n) ? 1 : 0;
  }
  const std::vector<int>& replicas = placer.ReplicaNodes(model_index);
  int best_zone = -1;
  double best_score = 0;
  size_t best_begin = 0;
  size_t best_end = 0;
  size_t idx = 0;
  while (idx < replicas.size()) {
    const int zone = topo.ZoneOf(replicas[idx]);
    const size_t zone_end = static_cast<size_t>(
        std::upper_bound(replicas.begin() + idx, replicas.end(), topo.ZoneEnd(zone) - 1) -
        replicas.begin());
    const int enabled = zone_enabled[zone];
    if (enabled > 0) {
      const double score = zone_outstanding_ms[zone] / enabled;
      if (best_zone < 0 || score < best_score) {
        best_zone = zone;
        best_score = score;
        best_begin = idx;
        best_end = zone_end;
      }
    }
    idx = zone_end;
  }
  int best = -1;
  for (size_t k = best_begin; k < best_end; ++k) {
    const int node = replicas[k];
    if (placer.NodeEnabled(node) &&
        (best < 0 || outstanding_ms[node] < outstanding_ms[best])) {
      best = node;
    }
  }
  return best >= 0 ? best : FlatLeastOutstanding(placer, model_index, outstanding_ms);
}

TEST(PlacementDifferentialTest, EightZoneSpanCacheMatchesUpperBoundWalk) {
  const std::vector<FleetModel> models = TestModels();
  ZoneTopology topo;
  topo.num_zones = 8;
  topo.zone_size = 4;
  const int num_nodes = topo.num_zones * topo.zone_size;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Placer placer(PlacementPolicy::kModelAffinity, models, num_nodes, 4000.0, 0.5, topo);
    Rng rng(seed);
    std::vector<double> outstanding(num_nodes, 0.0);
    for (int step = 0; step < 2000; ++step) {
      RandomPlacerStep(rng, placer, outstanding);
      const std::vector<double> zone_ms = ZoneSums(placer, outstanding);
      for (int m = 0; m < placer.num_models(); ++m) {
        ASSERT_EQ(placer.Place(m, outstanding, zone_ms),
                  UpperBoundZoneFirst(placer, m, outstanding, zone_ms))
            << "seed " << seed << " step " << step << " model " << m;
      }
    }
  }
}

// --- Dispatcher --------------------------------------------------------------

TEST(ClusterTest, HotModelFailsOverToLeastLoadedNodes) {
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
  ClusterDispatcher dispatcher(&sim, config);

  // A burst of requests for the hottest model arrives at once: as each
  // dispatch raises its node's outstanding work, subsequent requests must
  // fail over to the now-least-loaded peers instead of piling onto node 0.
  std::set<int> chosen;
  for (int i = 0; i < config.num_nodes; ++i) {
    chosen.insert(dispatcher.Dispatch(/*model_index=*/0));
  }
  EXPECT_EQ(chosen.size(), static_cast<size_t>(config.num_nodes));

  // Continued pressure stays balanced across all nodes.
  for (int i = 0; i < 20; ++i) {
    dispatcher.Dispatch(0);
  }
  uint64_t lo = UINT64_MAX, hi = 0;
  for (int n = 0; n < config.num_nodes; ++n) {
    lo = std::min(lo, dispatcher.dispatched_to(n));
    hi = std::max(hi, dispatcher.dispatched_to(n));
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ClusterTest, RoundRobinIgnoresLoadImbalance) {
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kRoundRobin);
  ClusterDispatcher dispatcher(&sim, config);
  // Round-robin sprays the hot model evenly regardless of queue state; the
  // first num_nodes dispatches must hit each node exactly once in order.
  for (int i = 0; i < config.num_nodes; ++i) {
    EXPECT_EQ(dispatcher.Dispatch(0), i);
  }
}

TEST(ClusterTest, DispatcherStatsSumToPerNodeStats) {
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
  ClusterDispatcher dispatcher(&sim, config);
  const TimeNs horizon = config.warmup + config.duration;
  // No warm-up cutoff: the lifetime routing counters and the reported
  // measurement-window counters must then agree exactly.
  dispatcher.StartArrivals(horizon);
  sim.RunUntil(horizon);

  const ClusterResult result = dispatcher.Collect(config.duration);
  EXPECT_GT(result.dispatched, 0u);
  EXPECT_GT(result.completed, 0u);
  EXPECT_LE(result.completed, result.dispatched);
  EXPECT_EQ(result.dispatched, dispatcher.dispatched());
  EXPECT_EQ(result.completed, dispatcher.completed());

  // Write-off launches each request exactly once, so the per-node routing
  // counts sum to the window total.
  uint64_t dispatched_sum = 0;
  for (int n = 0; n < config.num_nodes; ++n) {
    // Every request issues at least one kernel launch (plus a completion
    // marker and any model-switch kernels) through this node's driver.
    EXPECT_GE(dispatcher.nodes()[n]->driver()->launches_issued(),
              2 * dispatcher.dispatched_to(n));
    dispatched_sum += dispatcher.dispatched_to(n);
  }
  EXPECT_EQ(dispatched_sum, result.dispatched);
}

TEST(ClusterTest, MeasurementWindowCoversAllNodeCounters) {
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
  config.num_nodes = 1;
  ClusterDispatcher dispatcher(&sim, config);
  dispatcher.SetWarmupEnd(FromMillis(100));

  sim.ScheduleAt(0, [&dispatcher] { dispatcher.Dispatch(0); });
  sim.ScheduleAt(FromMillis(100), [&dispatcher] { dispatcher.BeginMeasurement(); });
  sim.ScheduleAt(FromMillis(150), [&dispatcher] { dispatcher.Dispatch(1); });
  sim.RunToCompletion();

  const ClusterResult result = dispatcher.Collect(FromMillis(150));
  // Model 0 landed only before the window: every window total — the node's
  // model set behind mean_models_per_node included — must exclude it.
  EXPECT_EQ(result.dispatched, 1u);
  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.total_model_switches, 1u);  // model 1 displaces model 0
  EXPECT_EQ(result.nodes_used, 1);
  EXPECT_EQ(result.mean_models_per_node, 1.0);
  // The node engine's integrals restart with the window too.
  const EngineStats& engine = dispatcher.nodes()[0]->engine()->Stats();
  EXPECT_NEAR(engine.elapsed_seconds, ToSeconds(sim.Now() - FromMillis(100)), 1e-9);
  EXPECT_EQ(result.energy_joules, engine.energy_joules);
}

TEST(ClusterTest, RequestLaunchShapeFollowsPolicy) {
  // One request to a fresh node pays a cold-start switch. Under write-off the
  // attempt cannot be cancelled, so the switch rides on the attempt's marker:
  // switch + request + marker, and no timer to cancel. A timeout policy can
  // cancel the attempt, so the switch gets its own marker.
  for (const bool timeout : {false, true}) {
    Simulator sim;
    ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
    config.num_nodes = 1;
    config.resilience.enabled = timeout;
    ClusterDispatcher dispatcher(&sim, config);
    ASSERT_EQ(dispatcher.Dispatch(0), 0);
    EXPECT_EQ(dispatcher.nodes()[0]->driver()->launches_issued(), timeout ? 4u : 3u);
    sim.RunToCompletion();
    EXPECT_EQ(dispatcher.completed(), 1u);
    EXPECT_EQ(dispatcher.outstanding_ms()[0], 0.0);
    EXPECT_EQ(sim.counters().canceled, timeout ? 1u : 0u);  // the disarmed attempt timer
  }
}

// Every GPU-ms a launch adds to a node's outstanding work comes back off
// once the run drains: attempts that complete, time out or lose a hedge,
// switch kernels tracked by their own markers (the policy can cancel
// attempts), and both migration halves.
TEST(ClusterTest, OutstandingWorkDrainsToZeroUnderEveryCancellablePolicy) {
  ResilienceConfig no_hedge;
  no_hedge.enabled = true;
  ResilienceConfig hedge_shed = no_hedge;
  hedge_shed.hedge = true;
  hedge_shed.shed_watermark_ms = 60;
  ResilienceConfig short_timeout = no_hedge;
  short_timeout.attempt_timeout = FromMillis(5);
  const std::pair<const char*, ResilienceConfig> cases[] = {
      {"hedge + shed", hedge_shed}, {"no hedge", no_hedge}, {"5 ms timeout", short_timeout}};
  for (const auto& [name, rc] : cases) {
    SCOPED_TRACE(name);
    Simulator sim;
    ClusterConfig config = SmallConfig(PlacementPolicy::kRoundRobin);
    config.aggregate_rps = 1200.0;  // round-robin spraying switches models on every node
    config.resilience = rc;
    ClusterDispatcher dispatcher(&sim, config);
    dispatcher.StartArrivals(config.duration);
    // A retire (checkpoint half on node 0), then a clone back (restore half).
    sim.ScheduleAt(FromMillis(700),
                   [&dispatcher] { EXPECT_TRUE(dispatcher.MoveReplica(0, 0, -1)); });
    sim.ScheduleAt(FromMillis(1300),
                   [&dispatcher] { EXPECT_TRUE(dispatcher.MoveReplica(0, -1, 0)); });
    sim.RunToCompletion();

    const ClusterResult result = dispatcher.Collect(config.duration);
    EXPECT_GT(dispatcher.dispatched(), 2000u);
    EXPECT_GT(result.total_model_switches, 100u);
    EXPECT_GT(result.migration_gpu_ms, 0.0);
    for (int n = 0; n < config.num_nodes; ++n) {
      EXPECT_NEAR(dispatcher.outstanding_ms()[n], 0.0, 1e-9) << "node " << n;
    }
    EXPECT_EQ(dispatcher.live_markers(), 0u);
  }
}

// The per-model retry budget caps a retry storm. With every attempt timing
// out and attempts effectively unlimited, the timeout that ends an attempt
// admits a retry only while the model's launched retries are below
// kRetryBudgetFraction x its dispatches + kRetryBudgetFloor; otherwise the
// request fails on the spot. A retry counts against the budget when it
// launches, after its backoff, so the lifetime total can pass the budget by
// the retries still in backoff at the model's last admission, and by no more.
TEST(ClusterTest, RetryBudgetCapsRetriesPerModel) {
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
  ResilienceConfig& rc = config.resilience;
  rc.enabled = true;
  rc.max_attempts = 1000;
  rc.attempt_timeout = FromMicros(50);  // far below any request's cost
  rc.backoff_base = FromMicros(100);
  rc.backoff_cap = FromMicros(100);
  rc.quarantine = 0;
  ClusterDispatcher dispatcher(&sim, config);
  TraceRecorder trace;
  dispatcher.SetTrace(&trace);
  const TimeNs horizon = config.warmup + config.duration;
  dispatcher.StartArrivals(horizon);
  sim.RunUntil(horizon);

  struct ModelBudget {
    uint64_t dispatched = 0;
    uint64_t retries = 0;          // launched
    uint64_t in_backoff = 0;       // admitted, not yet launched
    uint64_t last_in_backoff = 0;  // in_backoff just after the last admission
    double Budget() const {
      return ClusterDispatcher::kRetryBudgetFraction * static_cast<double>(dispatched) +
             static_cast<double>(ClusterDispatcher::kRetryBudgetFloor);
    }
  };
  std::vector<ModelBudget> models(dispatcher.models().size());
  std::vector<size_t> model_of;  // request id -> model
  std::set<uint64_t> admitted;   // requests with a retry in backoff
  uint64_t timeouts = 0, denied = 0, fails = 0;
  for (const TraceRecord& r : trace.Records()) {
    const uint64_t rid = static_cast<uint64_t>(r.payload);
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kReqArrival:
        ASSERT_EQ(rid, model_of.size());
        model_of.push_back(static_cast<size_t>(r.arg));
        ++models[model_of.back()].dispatched;
        break;
      case TraceKind::kReqAttemptTimeout: {
        ++timeouts;
        ModelBudget& m = models[model_of[rid]];
        if (static_cast<double>(m.retries) < m.Budget()) {
          admitted.insert(rid);
          m.last_in_backoff = ++m.in_backoff;
        } else {
          ++denied;
        }
        break;
      }
      case TraceKind::kReqAttemptLaunch:
        if (ReqArgAttempt(r.arg) > 0) {
          ASSERT_EQ(admitted.erase(rid), 1u) << "retry of request " << rid
                                              << " launched without budget";
          ModelBudget& m = models[model_of[rid]];
          --m.in_backoff;
          ++m.retries;
        }
        break;
      case TraceKind::kReqFail:
        EXPECT_EQ(admitted.count(rid), 0u);
        ++fails;
        break;
      default:
        break;
    }
  }
  uint64_t total_retries = 0;
  for (size_t i = 0; i < models.size(); ++i) {
    const ModelBudget& m = models[i];
    EXPECT_LT(static_cast<double>(m.retries),
              m.Budget() + static_cast<double>(m.last_in_backoff))
        << "model " << i;
    total_retries += m.retries;
  }
  // Every denied timeout failed its request; unbudgeted, each would have
  // retried instead.
  EXPECT_GT(denied, 0u);
  EXPECT_EQ(fails, denied);
  EXPECT_EQ(total_retries + denied + admitted.size(), timeouts);
}

// When neither the placer's pick nor a viable eligible replica is left,
// attempts fall back to a ranked scan of every healthy node: untried and
// undoomed (1), untried (2), tried and eligible (3), tried (4). Node 0 is
// the model's only eligible node but power-gated, node 3 is crashed, and
// nodes 1 and 2 are drained but healthy.
TEST(ClusterTest, FallbackRanksUntriedThenEligibleThenAnyTriedNode) {
  auto make_fleet = [](Simulator* sim, DurationNs attempt_timeout) {
    ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
    config.resilience.enabled = true;
    config.resilience.max_attempts = 4;
    config.resilience.attempt_timeout = attempt_timeout;
    auto dispatcher = std::make_unique<ClusterDispatcher>(sim, config);
    for (int n = 1; n < config.num_nodes; ++n) {
      dispatcher->SetNodeActive(n, false);
    }
    dispatcher->PowerGateNode(0, true);
    dispatcher->FailNode(3);
    return dispatcher;
  };
  using Attempts = std::vector<uint64_t>;

  {
    // Tier 1 beats tier 2: the quarantined node 1 is doomed, so the first
    // attempt goes to node 2 despite the id tie-break.
    Simulator sim;
    auto dispatcher = make_fleet(&sim, ResilienceConfig().attempt_timeout);
    dispatcher->QuarantineNode(1, FromSeconds(10));
    EXPECT_EQ(dispatcher->Dispatch(0), 2);
    sim.RunToCompletion();
    EXPECT_EQ(dispatcher->completed(), 1u);
  }

  // A 1 ms timeout is below any request's cost, so every attempt times out
  // and every node counts as doomed. Backoff puts the four attempts at 0,
  // 21, 62 and 143 ms.
  Simulator sim;
  auto dispatcher = make_fleet(&sim, FromMillis(1));
  const DetectorFeed& feed = dispatcher->detector_feed();
  // Attempt 1: nodes 1 and 2 are both tier 2; the id breaks the tie.
  EXPECT_EQ(dispatcher->Dispatch(0), 1);
  EXPECT_EQ(feed.node_attempts, (Attempts{0, 1, 0, 0}));
  // Attempt 2: untried node 2 (tier 2) beats tried node 1 (tier 4).
  sim.ScheduleAt(FromMillis(30), [&] {
    EXPECT_EQ(feed.node_attempts, (Attempts{0, 1, 1, 0}));
    dispatcher->SetNodeActive(2, true);  // node 2 becomes eligible
  });
  // Attempt 3: tried, eligible node 2 (tier 3) beats tried node 1 (tier 4).
  sim.ScheduleAt(FromMillis(100), [&] {
    EXPECT_EQ(feed.node_attempts, (Attempts{0, 1, 2, 0}));
    dispatcher->FailNode(2);
  });
  // Attempt 4: only tried, drained node 1 (tier 4) is healthy.
  sim.RunToCompletion();
  EXPECT_EQ(feed.node_attempts, (Attempts{0, 2, 2, 0}));
  EXPECT_EQ(dispatcher->metrics().counter("fleet/retries").value(), 3u);
  EXPECT_EQ(dispatcher->failed(), 1u);
}

TEST(ClusterTest, DiurnalArrivalsTrackNormalizedRps) {
  // Empirical check of the Lewis-thinning arrival process: binned arrival
  // counts over one compressed fleet day must follow the integral of
  // FleetTelemetry::NormalizedRps bin by bin.
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
  config.aggregate_rps = 800.0;
  config.seconds_per_day = 4.0;
  config.seed = 11;
  ClusterDispatcher dispatcher(&sim, config);

  constexpr int kBins = 8;
  const TimeNs day = FromSeconds(config.seconds_per_day);
  std::vector<uint64_t> dispatched_at_edge(kBins + 1, 0);
  for (int b = 0; b <= kBins; ++b) {
    sim.ScheduleAt(b * day / kBins,
                   [&dispatched_at_edge, &dispatcher, b] {
                     dispatched_at_edge[b] = dispatcher.dispatched();
                   });
  }
  dispatcher.StartArrivals(day);
  sim.RunUntil(day + 1);

  const uint64_t total = dispatched_at_edge[kBins];
  ASSERT_GT(total, 1000u);  // enough samples for the shares to be stable

  // Expected per-bin share: integral of the diurnal curve over the bin.
  const FleetTelemetry& fleet = dispatcher.fleet();
  std::vector<double> expected(kBins);
  double norm = 0;
  for (int b = 0; b < kBins; ++b) {
    constexpr int kSteps = 64;
    for (int s = 0; s < kSteps; ++s) {
      expected[b] += fleet.NormalizedRps((b + (s + 0.5) / kSteps) / kBins);
    }
    norm += expected[b];
  }

  double peak_share = 0, trough_share = 1;
  for (int b = 0; b < kBins; ++b) {
    const double observed =
        static_cast<double>(dispatched_at_edge[b + 1] - dispatched_at_edge[b]) /
        static_cast<double>(total);
    const double want = expected[b] / norm;
    // Each bin's share of the day's traffic within 20% relative error
    // (hundreds of arrivals per bin; Poisson noise is a few percent).
    EXPECT_NEAR(observed, want, 0.2 * want) << "bin " << b;
    peak_share = std::max(peak_share, observed);
    trough_share = std::min(trough_share, observed);
  }
  // The binned max/min ratio reflects the curve's 2.23 peak-to-trough swing
  // (slightly compressed by averaging over bins).
  EXPECT_GT(peak_share / trough_share, 1.6);
  EXPECT_LT(peak_share / trough_share, 2.8);
}

TEST(ClusterTest, RunClusterServingIsDeterministic) {
  const ClusterConfig config = SmallConfig(PlacementPolicy::kModelAffinity, SystemKind::kLithos);
  const ClusterResult a = RunClusterServing(config);
  const ClusterResult b = RunClusterServing(config);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.total_model_switches, b.total_model_switches);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
  EXPECT_DOUBLE_EQ(a.fleet_utilization, b.fleet_utilization);
  EXPECT_EQ(a.nodes_used, b.nodes_used);
  EXPECT_DOUBLE_EQ(a.mean_models_per_node, b.mean_models_per_node);
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
}

TEST(ClusterTest, AffinityUsesFewerGpusThanSpraying) {
  ClusterConfig config = SmallConfig(PlacementPolicy::kRoundRobin);
  config.num_nodes = 13;  // the dedicated deployment's pool size
  const ClusterResult rr = RunClusterServing(config);
  config.policy = PlacementPolicy::kModelAffinity;
  const ClusterResult affinity = RunClusterServing(config);

  EXPECT_EQ(rr.nodes_used, 13);
  EXPECT_LT(affinity.nodes_used, rr.nodes_used);
  EXPECT_GT(affinity.gpus_saved_vs_dedicated, 0);
  EXPECT_GT(affinity.used_utilization, rr.used_utilization);
  // Packing also cuts model churn per node.
  EXPECT_LT(affinity.total_model_switches, rr.total_model_switches);
}

}  // namespace
}  // namespace lithos
