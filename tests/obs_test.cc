// Observability layer: TraceRecorder (format, ring wraparound, masks,
// serialization, file read-back and rejection, disabled-path no-op) and MetricsRegistry (instruments,
// phases), plus the determinism contract — byte-identical traces across
// repeated runs and across SweepRunner worker counts for both the stacking
// harness and a zoned fault scenario.
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/experiments/harness.h"
#include "src/experiments/sweep.h"
#include "src/fault/scenario.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace lithos {
namespace {

// --- Format ------------------------------------------------------------------

TEST(TraceFormatTest, RecordIs32BytesWithNoPadding) {
  static_assert(sizeof(TraceRecord) == 32);
  static_assert(sizeof(TraceFileHeader) == 40);
  // Field offsets are part of the on-disk format (Python's struct format
  // "<qBBHiiiq" reads a record).
  EXPECT_EQ(offsetof(TraceRecord, time_ns), 0u);
  EXPECT_EQ(offsetof(TraceRecord, layer), 8u);
  EXPECT_EQ(offsetof(TraceRecord, kind), 9u);
  EXPECT_EQ(offsetof(TraceRecord, reserved), 10u);
  EXPECT_EQ(offsetof(TraceRecord, node), 12u);
  EXPECT_EQ(offsetof(TraceRecord, zone), 16u);
  EXPECT_EQ(offsetof(TraceRecord, arg), 20u);
  EXPECT_EQ(offsetof(TraceRecord, payload), 24u);
}

TEST(TraceFormatTest, NamesCoverEveryEnumerator) {
  EXPECT_STREQ(TraceLayerName(TraceLayer::kSim), "sim");
  EXPECT_STREQ(TraceLayerName(TraceLayer::kFault), "fault");
  EXPECT_STREQ(TraceKindName(TraceKind::kEventSchedule), "event_schedule");
  EXPECT_STREQ(TraceKindName(TraceKind::kGrantComplete), "grant_complete");
  EXPECT_STREQ(TraceKindName(TraceKind::kNodeCrash), "node_crash");
  EXPECT_STREQ(TraceKindName(TraceKind::kScaleTarget), "scale_target");
  EXPECT_STREQ(TraceKindName(TraceKind::kFaultApplied), "fault_applied");
}

// --- Recorder ----------------------------------------------------------------

void AppendN(TraceRecorder& trace, int n, int64_t base_time = 0) {
  for (int i = 0; i < n; ++i) {
    trace.Append(base_time + i, TraceLayer::kSim, TraceKind::kEventFire, i, -1, i,
                 int64_t{100} + i);
  }
}

TEST(TraceRecorderTest, SegmentModeRetainsEverythingAcrossSlabBoundaries) {
  TraceRecorder trace(0);
  const int n = static_cast<int>(TraceRecorder::kSegmentRecords) + 37;
  AppendN(trace, n);
  EXPECT_EQ(trace.total(), static_cast<uint64_t>(n));
  EXPECT_EQ(trace.size(), static_cast<size_t>(n));
  EXPECT_EQ(trace.dropped(), 0u);
  const std::vector<TraceRecord> records = trace.Records();
  ASSERT_EQ(records.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].time_ns, i);
    EXPECT_EQ(records[static_cast<size_t>(i)].payload, 100 + i);
  }
}

TEST(TraceRecorderTest, RingModeKeepsLastLimitRecordsInOrder) {
  TraceRecorder trace(8);
  AppendN(trace, 20);
  EXPECT_EQ(trace.total(), 20u);
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.dropped(), 12u);
  const std::vector<TraceRecord> records = trace.Records();
  ASSERT_EQ(records.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].time_ns, 12 + i) << "unwrap order";
  }
}

TEST(TraceRecorderTest, RingBelowCapacityBehavesLikeSegment) {
  TraceRecorder trace(64);
  AppendN(trace, 10);
  EXPECT_EQ(trace.size(), 10u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.Records()[0].time_ns, 0);
}

TEST(TraceRecorderTest, LayerMaskFiltersAtAppendTime) {
  TraceRecorder trace(0);
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kCluster));
  trace.Append(1, TraceLayer::kSim, TraceKind::kEventFire, -1, -1, -1, 0);
  trace.Append(2, TraceLayer::kCluster, TraceKind::kNodeCrash, 3, 0, -1, 0);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.Records()[0].time_ns, 2);
  EXPECT_EQ(trace.total(), 1u) << "masked appends never count";
}

TEST(TraceRecorderTest, SerializeMatchesHeaderPlusRecords) {
  TraceRecorder trace(4);
  AppendN(trace, 6);
  const std::vector<uint8_t> bytes = trace.Serialize();
  ASSERT_EQ(bytes.size(), sizeof(TraceFileHeader) + 4 * sizeof(TraceRecord));
  TraceFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(std::memcmp(header.magic, kTraceMagic, 8), 0);
  EXPECT_EQ(header.version, kTraceFormatVersion);
  EXPECT_EQ(header.record_size, sizeof(TraceRecord));
  EXPECT_EQ(header.record_count, 4u);
  EXPECT_EQ(header.total, 6u);
  EXPECT_EQ(header.dropped, 2u);
  TraceRecord first;
  std::memcpy(&first, bytes.data() + sizeof(header), sizeof(first));
  EXPECT_EQ(first.time_ns, 2) << "oldest retained record leads";
}

TEST(TraceRecorderTest, ClearKeepsModeAndMask) {
  TraceRecorder trace(4);
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kSim));
  AppendN(trace, 6);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total(), 0u);
  AppendN(trace, 6);
  EXPECT_EQ(trace.size(), 4u) << "still a 4-record ring";
}

// --- Trace file reader -------------------------------------------------------

// Writes `bytes` to a file under the test temp dir and returns its path.
std::string WriteBytes(const std::string& name, const std::vector<uint8_t>& bytes) {
  const std::string path = ::testing::TempDir() + "lithos_obs_test_" + name + ".bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (f != nullptr) {
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  return path;
}

TEST(TraceFileTest, ReadBackMatchesSerialize) {
  TraceRecorder trace(4);
  AppendN(trace, 6);
  const std::string path = WriteBytes("roundtrip", trace.Serialize());
  TraceFile file;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &file, &error)) << error;
  std::remove(path.c_str());
  EXPECT_EQ(file.header.record_count, 4u);
  EXPECT_EQ(file.header.total, 6u);
  EXPECT_EQ(file.header.dropped, 2u);
  const std::vector<TraceRecord> expected = trace.Records();
  ASSERT_EQ(file.records.size(), expected.size());
  EXPECT_EQ(std::memcmp(file.records.data(), expected.data(),
                        expected.size() * sizeof(TraceRecord)),
            0);
}

TEST(TraceFileTest, RejectsBadMagicTruncationAndInflatedCount) {
  TraceRecorder trace;
  AppendN(trace, 3);
  const std::vector<uint8_t> good = trace.Serialize();
  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  // Two and a half of the three records the header claims.
  const std::vector<uint8_t> truncated(good.begin(), good.end() - sizeof(TraceRecord) / 2);
  // 104 bytes — a header and two records — claiming 2^40 records (32 TiB).
  std::vector<uint8_t> inflated(good.begin(),
                                good.begin() + sizeof(TraceFileHeader) + 2 * sizeof(TraceRecord));
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(inflated.data() + offsetof(TraceFileHeader, record_count), &huge, sizeof(huge));

  const struct {
    const char* name;
    const std::vector<uint8_t>& bytes;
    const char* reason;
  } cases[] = {
      {"bad_magic", bad_magic, "bad magic"},
      {"truncated", truncated, "header claims 3 records, file holds 2"},
      {"inflated", inflated, "header claims 1099511627776 records, file holds 2"},
  };
  for (const auto& c : cases) {
    const std::string path = WriteBytes(c.name, c.bytes);
    TraceFile file;
    std::string error;
    EXPECT_FALSE(ReadTraceFile(path, &file, &error)) << c.name;
    std::remove(path.c_str());
    EXPECT_NE(error.find(c.reason), std::string::npos) << c.name << ": " << error;
    EXPECT_NE(error.find(path), std::string::npos) << "the reason names the file";
    EXPECT_EQ(file.records.capacity(), 0u) << c.name << ": rejected before allocating";
  }

  TraceFile file;
  std::string error;
  EXPECT_FALSE(ReadTraceFile(::testing::TempDir() + "lithos_obs_test_missing.bin", &file,
                             &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// --- Simulator integration ---------------------------------------------------

TEST(SimTraceTest, CoreEventsAreRecordedAndCounted) {
  Simulator sim;
  TraceRecorder trace(0);
  sim.SetTrace(&trace);
  int fired = 0;
  sim.ScheduleAt(10, [&fired] { ++fired; });
  const EventId cancel_me = sim.ScheduleAt(20, [&fired] { ++fired; });
  const EventId move_me = sim.ScheduleAt(30, [&fired] { ++fired; });
  sim.Cancel(cancel_me);
  sim.Reschedule(move_me, 15);
  sim.RunToCompletion();

  EXPECT_EQ(fired, 2);
  const SimCounters& counters = sim.counters();
  EXPECT_EQ(counters.scheduled, 3u);
  EXPECT_EQ(counters.fired, 2u);
  EXPECT_EQ(counters.canceled, 1u);
  EXPECT_EQ(counters.rescheduled, 1u);

  int schedules = 0, fires = 0, cancels = 0, reschedules = 0;
  for (const TraceRecord& r : trace.Records()) {
    EXPECT_EQ(r.layer, static_cast<uint8_t>(TraceLayer::kSim));
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kEventSchedule: ++schedules; break;
      case TraceKind::kEventFire: ++fires; break;
      case TraceKind::kEventCancel: ++cancels; break;
      case TraceKind::kEventReschedule: ++reschedules; break;
      default: FAIL() << "unexpected kind " << int(r.kind);
    }
  }
  EXPECT_EQ(schedules, 3);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(cancels, 1);
  EXPECT_EQ(reschedules, 1);
}

TEST(SimTraceTest, DisabledPathRecordsNothingAndChangesNothing) {
  // The same event pattern with and without a (detached) trace: counters and
  // timing identical, nothing recorded.
  auto run = [](Simulator& sim) {
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
      sim.ScheduleAt(i * 10, [&fired] { ++fired; });
    }
    sim.RunToCompletion();
    return fired;
  };
  Simulator plain;
  Simulator detached;
  detached.SetTrace(nullptr);
  EXPECT_EQ(run(plain), run(detached));
  EXPECT_EQ(plain.counters().scheduled, detached.counters().scheduled);
  EXPECT_EQ(plain.Now(), detached.Now());
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreNamedStableAndTyped) {
  MetricsRegistry registry;
  Counter& c = registry.counter("fleet/dispatched");
  Gauge& g = registry.gauge("fleet/request_ms");
  Histogram& h = registry.histogram("fleet/latency_ms");
  c.Inc();
  c.Inc(4);
  g.Add(2.5);
  h.Add(10.0);
  h.Add(20.0);
  EXPECT_EQ(&c, &registry.counter("fleet/dispatched")) << "stable reference";
  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  EXPECT_EQ(registry.num_instruments(), 3u);
  h.Finalize();
  EXPECT_DOUBLE_EQ(h.Mean(), 15.0);
}

TEST(MetricsRegistryTest, RowsExpandHistogramsInRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("a").Inc(7);
  registry.histogram("b").Add(4.0);
  registry.gauge("c").Set(1.5);
  const auto rows = registry.Rows();
  ASSERT_EQ(rows.size(), 6u);  // a, b/count, b/mean, b/p50, b/p99, c
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_DOUBLE_EQ(rows[0].second, 7.0);
  EXPECT_EQ(rows[1].first, "b/count");
  EXPECT_EQ(rows[2].first, "b/mean");
  EXPECT_DOUBLE_EQ(rows[2].second, 4.0);
  EXPECT_EQ(rows[5].first, "c");
}

TEST(MetricsRegistryTest, PhasesSnapshotCounterDeltasAndGaugeValues) {
  MetricsRegistry registry;
  Counter& c = registry.counter("done");
  registry.histogram("latency").Add(4.0);
  Gauge& g = registry.gauge("level");
  registry.timeseries("zone", 10).Observe(0, 1.0);
  c.Inc(10);
  registry.BeginPhase("pre");
  c.Inc(3);
  g.Set(1.0);
  // A mid-phase Snapshot reads absolute values and leaves the phase alone.
  const MetricsRegistry::PhaseSnapshot mid = registry.Snapshot("mid");
  registry.EndPhase();
  registry.BeginPhase("during");
  c.Inc(9);
  g.Set(2.0);
  registry.histogram("latency").Add(8.0);
  registry.EndPhase();

  ASSERT_EQ(registry.phases().size(), 2u);
  const MetricsRegistry::PhaseSnapshot& pre = registry.phases()[0];
  EXPECT_EQ(pre.name, "pre");
  EXPECT_DOUBLE_EQ(pre.ValueOf("done"), 3.0) << "delta, not absolute";
  EXPECT_DOUBLE_EQ(pre.ValueOf("level"), 1.0);
  EXPECT_DOUBLE_EQ(pre.ValueOf("latency/count"), 1.0);
  EXPECT_DOUBLE_EQ(pre.ValueOf("latency/mean"), 4.0);
  const MetricsRegistry::PhaseSnapshot& during = registry.phases()[1];
  EXPECT_DOUBLE_EQ(during.ValueOf("done"), 9.0);
  EXPECT_DOUBLE_EQ(during.ValueOf("level"), 2.0);
  // A histogram is captured from the samples it holds, like a gauge: the
  // registry does not window it (its owner clears it when a window opens).
  EXPECT_DOUBLE_EQ(during.ValueOf("latency/count"), 2.0);
  EXPECT_DOUBLE_EQ(during.ValueOf("latency/mean"), 6.0);
  EXPECT_DOUBLE_EQ(during.ValueOf("latency/p50"), 6.0);
  EXPECT_DOUBLE_EQ(during.ValueOf("latency/p99"), 7.96);

  // Snapshot: counters absolute, gauges current, histograms expanded to the
  // same four keys as Rows(), time series left out, registration order.
  EXPECT_EQ(mid.name, "mid");
  ASSERT_EQ(mid.values.size(), 6u);
  EXPECT_EQ(mid.values[0].first, "done");
  EXPECT_EQ(mid.Count("done"), 13u);
  EXPECT_EQ(mid.values[1].first, "latency/count");
  EXPECT_EQ(mid.values[2].first, "latency/mean");
  EXPECT_EQ(mid.values[3].first, "latency/p50");
  EXPECT_EQ(mid.values[4].first, "latency/p99");
  EXPECT_DOUBLE_EQ(mid.ValueOf("latency/p99"), 4.0);
  EXPECT_EQ(mid.values[5].first, "level");
  EXPECT_DOUBLE_EQ(mid.ValueOf("level"), 1.0);
  const MetricsRegistry::PhaseSnapshot end = registry.Snapshot("end");
  EXPECT_EQ(end.Count("done"), 22u);
  EXPECT_EQ(end.Count("latency/count"), 2u);
  ASSERT_EQ(pre.values.size(), end.values.size());
  for (size_t i = 0; i < end.values.size(); ++i) {
    EXPECT_EQ(pre.values[i].first, end.values[i].first) << "phases and snapshots share keys";
  }

  // A name the snapshot does not hold is an error, not a silent zero.
  EXPECT_DEATH(pre.ValueOf("dnoe"), "no metric 'dnoe' in snapshot 'pre'");
  EXPECT_DEATH(mid.Count("latency"), "no metric 'latency'");
}

TEST(MetricsRegistryTest, BeginPhaseClosesAnOpenPhase) {
  MetricsRegistry registry;
  registry.counter("x").Inc();
  registry.BeginPhase("one");
  registry.counter("x").Inc();
  registry.BeginPhase("two");  // implicitly ends "one"
  registry.EndPhase();
  ASSERT_EQ(registry.phases().size(), 2u);
  EXPECT_EQ(registry.phases()[0].name, "one");
  EXPECT_DOUBLE_EQ(registry.phases()[0].ValueOf("x"), 1.0);
}

// --- End-to-end determinism --------------------------------------------------

FleetFaultConfig SmallOutageConfig(TraceRecorder* trace) {
  FleetFaultConfig config;
  config.cluster.num_nodes = 16;
  config.cluster.num_zones = 4;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.system = SystemKind::kMps;
  config.cluster.aggregate_rps = 300.0;
  config.cluster.seed = 11;
  config.faults.name = "zone-outage";
  config.faults.zone_outages = {{/*zone=*/1, FromMillis(1200), FromMillis(600)}};
  config.phases = {{"pre", FromMillis(400), FromMillis(1200)},
                   {"during", FromMillis(1200), FromMillis(1800)},
                   {"post", FromMillis(2100), FromMillis(2900)}};
  config.trace = trace;
  return config;
}

TEST(TraceDeterminismTest, FaultScenarioTraceIsByteIdenticalAcrossRuns) {
  TraceRecorder t1(0), t2(0);
  RunFleetFaultScenario(SmallOutageConfig(&t1));
  RunFleetFaultScenario(SmallOutageConfig(&t2));
  ASSERT_GT(t1.size(), 0u);
  EXPECT_EQ(t1.Serialize(), t2.Serialize());
}

TEST(TraceDeterminismTest, FaultScenarioTraceIsByteIdenticalAcrossJobs) {
  // The traced point rides a SweepRunner grid next to untraced neighbours,
  // exactly like bench_cluster_faults' CI gate; any worker count must leave
  // the recorder with the same bytes.
  auto run_grid = [](int jobs) {
    TraceRecorder trace(0);
    SweepRunner runner(jobs);
    std::vector<SweepPoint<FleetFaultResult>> points;
    for (int i = 0; i < 4; ++i) {
      TraceRecorder* point_trace = i == 2 ? &trace : nullptr;
      points.push_back({"p" + std::to_string(i), [point_trace] {
                          return RunFleetFaultScenario(SmallOutageConfig(point_trace));
                        }});
    }
    runner.Run(points);
    return trace.Serialize();
  };
  const std::vector<uint8_t> serial = run_grid(1);
  EXPECT_EQ(serial, run_grid(2));
  EXPECT_EQ(serial, run_grid(8));
}

TEST(TraceDeterminismTest, FaultScenarioResultsUnchangedByTracing) {
  const FleetFaultResult untraced = RunFleetFaultScenario(SmallOutageConfig(nullptr));
  TraceRecorder trace(0);
  const FleetFaultResult traced = RunFleetFaultScenario(SmallOutageConfig(&trace));
  ASSERT_EQ(untraced.phases.size(), 3u);
  ASSERT_EQ(untraced.phases.size(), traced.phases.size());
  for (size_t i = 0; i < untraced.phases.size(); ++i) {
    EXPECT_EQ(untraced.phases[i].values, traced.phases[i].values);
  }
  EXPECT_EQ(untraced.sim.fired, traced.sim.fired);
  EXPECT_EQ(untraced.totals.values, traced.totals.values);

  // fleet/failed never resets, so the run total covers every phase's losses
  // (and any lost in the gaps between phases).
  uint64_t phase_failed = 0;
  for (const MetricsRegistry::PhaseSnapshot& phase : untraced.phases) {
    phase_failed += phase.Count("fleet/failed");
  }
  EXPECT_EQ(untraced.totals.name, "totals");
  EXPECT_GT(phase_failed, 0u);
  EXPECT_GE(untraced.totals.Count("fleet/failed"), phase_failed);
  EXPECT_GE(untraced.sim.scheduled, untraced.sim.fired);
}

// The fleet scenario reads each phase from its registry snapshot; this pins
// that snapshot to what ClusterDispatcher::Collect reports over the same
// window. Both finalize the latency digest, so each reads its own run of the
// same deterministic window — a zone fails mid-window so losses show too.
TEST(TraceDeterminismTest, PhaseSnapshotMatchesCollectBitForBit) {
  const FleetFaultConfig config = SmallOutageConfig(nullptr);
  const FaultPhase& window = config.phases[1];
  MetricsRegistry::PhaseSnapshot snap;
  ClusterResult collected;
  for (const bool collect : {false, true}) {
    Simulator sim;
    ClusterDispatcher fleet(&sim, config.cluster);
    sim.ScheduleAt(window.begin, [&fleet, &window] {
      fleet.BeginMeasurement();
      fleet.metrics().BeginPhase(window.name);
    });
    sim.ScheduleAt(window.begin + FromMillis(100), [&fleet] {
      for (int n = fleet.zone_topology().ZoneBegin(1); n < fleet.zone_topology().ZoneEnd(1); ++n) {
        fleet.FailNode(n);
      }
    });
    sim.ScheduleAt(window.end, [&] {
      if (collect) {
        collected = fleet.Collect(window.end - window.begin);
      } else {
        fleet.metrics().EndPhase();
        snap = fleet.metrics().phases().back();
      }
    });
    fleet.SetWarmupEnd(window.begin);
    fleet.StartArrivals(window.end);
    sim.RunUntil(window.end);
  }
  EXPECT_EQ(snap.name, "during");
  ASSERT_GT(collected.completed, 0u);
  ASSERT_GT(collected.failed, 0u);
  EXPECT_EQ(snap.Count("fleet/latency_ms/count"), collected.completed);
  EXPECT_EQ(snap.ValueOf("fleet/latency_ms/mean"), collected.mean_ms);
  EXPECT_EQ(snap.ValueOf("fleet/latency_ms/p50"), collected.p50_ms);
  EXPECT_EQ(snap.ValueOf("fleet/latency_ms/p99"), collected.p99_ms);
  EXPECT_EQ(snap.ValueOf("fleet/completed_request_ms"), collected.completed_request_gpu_ms);
  EXPECT_EQ(snap.Count("fleet/failed"), collected.failed);
  EXPECT_EQ(snap.Count("fleet/dispatched"), collected.dispatched);
  EXPECT_EQ(snap.Count("fleet/recoveries"), collected.recoveries);
  EXPECT_EQ(snap.Count("fleet/migrations"), collected.migrations);
}

StackingConfig SmallStackingConfig(TraceRecorder* trace) {
  StackingConfig config;
  config.system = SystemKind::kLithos;
  config.warmup = FromMillis(300);
  config.duration = FromSeconds(1);
  config.trace = trace;
  return config;
}

std::vector<AppSpec> SmallStackingApps() {
  AppSpec hp;
  hp.role = AppRole::kHpLatency;
  hp.model = "ResNet";
  hp.load_rps = 80;
  hp.slo = FromMillis(15);
  AppSpec be;
  be.role = AppRole::kBeInference;
  be.model = "BERT";
  return {hp, be};
}

TEST(TraceDeterminismTest, StackingTraceIsByteIdenticalAcrossRunsAndJobs) {
  auto run_grid = [](int jobs) {
    TraceRecorder trace(1 << 14);
    SweepRunner runner(jobs);
    std::vector<SweepPoint<StackingResult>> points;
    for (int i = 0; i < 3; ++i) {
      TraceRecorder* point_trace = i == 1 ? &trace : nullptr;
      points.push_back({"p" + std::to_string(i), [point_trace] {
                          return RunStacking(SmallStackingConfig(point_trace),
                                             SmallStackingApps());
                        }});
    }
    runner.Run(points);
    return trace.Serialize();
  };
  const std::vector<uint8_t> serial = run_grid(1);
  ASSERT_GT(serial.size(), sizeof(TraceFileHeader));
  EXPECT_EQ(serial, run_grid(2));
  EXPECT_EQ(serial, run_grid(8));
}

TEST(TraceDeterminismTest, StackingResultsUnchangedByTracing) {
  const StackingResult untraced = RunStacking(SmallStackingConfig(nullptr), SmallStackingApps());
  TraceRecorder trace(1 << 14);
  const StackingResult traced = RunStacking(SmallStackingConfig(&trace), SmallStackingApps());
  ASSERT_GT(trace.size(), 0u);
  ASSERT_EQ(untraced.apps.size(), traced.apps.size());
  for (size_t i = 0; i < untraced.apps.size(); ++i) {
    EXPECT_EQ(untraced.apps[i].p99_ms, traced.apps[i].p99_ms);
    EXPECT_EQ(untraced.apps[i].completed, traced.apps[i].completed);
  }
  EXPECT_EQ(untraced.engine.busy_tpc_seconds, traced.engine.busy_tpc_seconds);
  EXPECT_EQ(untraced.sim.scheduled, traced.sim.scheduled);
  EXPECT_EQ(untraced.sim.fired, traced.sim.fired);
}

// --- Bench flag parsing ------------------------------------------------------

TEST(BenchOptionsTest, ParsesTraceFlagsInBothForms) {
  const char* argv1[] = {"bench", "--trace=/tmp/x.bin", "--trace-limit=4096", "--jobs", "3"};
  bench::BenchOptions opts =
      bench::ParseBenchOptions(5, const_cast<char**>(argv1));
  EXPECT_EQ(opts.trace_path, "/tmp/x.bin");
  EXPECT_EQ(opts.trace_limit, 4096);
  EXPECT_EQ(opts.jobs, 3);

  const char* argv2[] = {"bench", "--trace", "/tmp/y.bin", "--trace-limit", "0"};
  opts = bench::ParseBenchOptions(5, const_cast<char**>(argv2));
  EXPECT_EQ(opts.trace_path, "/tmp/y.bin");
  EXPECT_EQ(opts.trace_limit, 0) << "0 = unbounded segment mode";

  const char* argv3[] = {"bench"};
  opts = bench::ParseBenchOptions(1, const_cast<char**>(argv3));
  EXPECT_TRUE(opts.trace_path.empty());
  EXPECT_EQ(opts.trace_limit, 1 << 20);
  EXPECT_EQ(opts.jobs, 0);
}

TEST(BenchOptionsTest, RejectsMalformedTraceLimit) {
  const char* argv[] = {"bench", "--trace-limit=-5", "--trace-limit=abc"};
  const bench::BenchOptions opts =
      bench::ParseBenchOptions(3, const_cast<char**>(argv));
  EXPECT_EQ(opts.trace_limit, 1 << 20) << "bad values fall back to the default";
}

}  // namespace
}  // namespace lithos
