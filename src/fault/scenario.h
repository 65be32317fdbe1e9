// Phased fault experiments: run a fleet + controller + fault injector on one
// simulator and measure latency/goodput over named, non-overlapping phases
// (e.g. before / during / after a zone outage).
//
// RunFleetFaultScenario is a pure function of its config — the entry point
// bench_cluster_faults sweeps through SweepRunner, so every (policy x
// scenario) grid point is byte-identical at any `--jobs` value. The result
// also carries the injector's applied-fault trace and the dispatcher's
// recovery log for the deterministic-replay tests. Per-phase metrics are the
// metrics registry's phase snapshots, and counters the registry or the
// remediation controller already keep are returned as their snapshot, not
// copied field by field.
#ifndef LITHOS_FAULT_SCENARIO_H_
#define LITHOS_FAULT_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/autoscale/fleet_controller.h"
#include "src/cluster/cluster.h"
#include "src/fault/fault_injector.h"
#include "src/remediate/remediation_controller.h"

namespace lithos {

// One measurement window. Phases must be ordered and non-overlapping;
// adjacent phases may share a boundary instant.
struct FaultPhase {
  std::string name;
  TimeNs begin = 0;
  TimeNs end = 0;
};

struct FleetFaultConfig {
  // The pool: num_zones > 1 for zone-level scenarios. cluster.warmup and
  // cluster.duration are ignored — the phase list defines the windows and
  // the horizon is the last phase's end.
  ClusterConfig cluster;

  // Control plane. Static-peak scaling keeps the whole pool on, isolating
  // fault response from autoscaling; the migration budget is per tick and
  // recovery moves are forced regardless.
  ScalingPolicyKind scaling = ScalingPolicyKind::kStaticPeak;
  DurationNs control_period = FromMillis(250);
  int min_nodes = 1;
  int max_migrations_per_period = 8;

  FaultScenarioConfig faults;
  std::vector<FaultPhase> phases;

  // Online gray-failure detection: when enabled, a GrayNodeDetector ticks
  // every `detector.window` of sim-time over the dispatcher's telemetry
  // feed, with announced crash state (NodeFailed) as its known-down input —
  // partitions and stragglers must be *inferred*. Verdicts, the injector's
  // ground-truth spans, and the per-zone completion rollups all land in the
  // result for scoring (docs/attribution.md).
  bool detect = false;
  DetectorConfig detector;

  // Self-healing remediation (requires detect): a RemediationController
  // subscribes to the detector's verdicts and ticks right after it on the
  // same clock, issuing graded actions — quarantine / drain + re-spread /
  // forced restart — through the dispatcher and controller, under the
  // blast-radius governor (docs/remediation.md). The action log, counters,
  // and ground-truth action precision land in the result.
  bool remediate = false;
  RemediationConfig remediation;

  // Optional binary trace sink. When set, the simulator core, every node
  // engine, the dispatcher, the controller, and the injector all append to
  // it; records derive only from sim state, so the bytes are identical
  // across runs and `--jobs` values for the same config.
  TraceRecorder* trace = nullptr;

  // Optional online span sink: the dispatcher feeds every request-
  // correlation record (TraceKind 60..68) to it as it is emitted, so span
  // trees assemble without a trace buffer. Same records as the binary
  // trace — offline replay through trace_analyze reconstructs identical
  // spans. Must outlive the run; one owner per recorder, like `trace`.
  SpanBuilder* spans = nullptr;
};

struct FleetFaultResult {
  // Registry snapshots, one per configured phase in order (see
  // MetricsRegistry phases). Each phase opens with BeginMeasurement, so:
  //   fleet/latency_ms/{count,mean,p50,p99}  requests that arrived inside the
  //       window and completed by its end (count = completions, the same
  //       arrival gate as ClusterResult::completed);
  //   fleet/completed_request_ms  their request GPU-ms (goodput numerator);
  //   fleet/failed, fleet/dispatched, ...  counter deltas over the window —
  //       every request that failed (admission failures with no reachable
  //       node included) or arrived (shed ones included) while it was open;
  //   fleet/migrations, fleet/recoveries  moves inside the window.
  std::vector<MetricsRegistry::PhaseSnapshot> phases;
  std::vector<FaultPhase> windows;        // config.phases, for Rate()
  std::vector<std::string> schedule;      // pre-generated fault schedule
  std::vector<std::string> fault_trace;   // faults actually applied
  std::vector<std::string> recovery_log;  // dispatcher recovery actions, lifetime
  uint64_t node_crashes = 0;
  uint64_t zone_outages = 0;
  uint64_t stragglers = 0;
  uint64_t rack_crashes = 0;     // rack-correlated crash groups applied
  uint64_t partitions = 0;       // zone partitions applied
  SimCounters sim;               // full event-core counters for the run
  // Registry snapshot when the run ends: counters at their value then
  // (fleet/failed, fleet/retries, fleet/hedges, ... over the whole run;
  // counters BeginMeasurement resets, such as fleet/recoveries, count
  // only since the last phase opened).
  MetricsRegistry::PhaseSnapshot totals;
  // Gray-failure detection output (empty unless config.detect): the
  // detector's episode verdicts, their deterministic text rendering, and the
  // injector's ground-truth fault intervals clamped to the horizon.
  std::vector<Verdict> verdicts;
  std::vector<std::string> detector_lines;
  std::vector<GroundTruthSpan> ground_truth;
  int detector_ticks = 0;
  // Remediation output (empty/zero unless config.remediate): the
  // issue-ordered action log and its rendering, and the controller's
  // action counters and governor high-water marks.
  std::vector<RemedyEvent> remedy_events;
  std::vector<std::string> remedy_lines;
  RemedyCounts remedy;
  // Action precision against the injector's ground truth: of the gray
  // actions NOT triggered by injected false positives, how many landed on a
  // node/zone with a truth span active at (or within a grace window before)
  // the action instant.
  uint64_t remedy_justified_actions = 0;
  uint64_t remedy_unjustified_actions = 0;
  uint64_t remedy_injected_actions = 0;  // actions from synthetic verdicts

  // The phase named `name`; a name not in the config is a checked error.
  const MetricsRegistry::PhaseSnapshot& Phase(const std::string& name) const;
  // `metric` of `phase` per second of that phase's window: goodput (request
  // GPU-ms served per second) is Rate(phase, "fleet/completed_request_ms"),
  // throughput Rate(phase, "fleet/latency_ms/count").
  double Rate(const MetricsRegistry::PhaseSnapshot& phase, const std::string& metric) const;
};

// Builds simulator + ClusterDispatcher + FleetController + FaultInjector,
// runs to the last phase's end, and snapshots the registry per phase.
// Deterministic for a given config.
FleetFaultResult RunFleetFaultScenario(const FleetFaultConfig& config);

}  // namespace lithos

#endif  // LITHOS_FAULT_SCENARIO_H_
