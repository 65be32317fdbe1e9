#include "src/fault/scenario.h"

#include <algorithm>
#include <memory>

#include "src/common/check.h"

namespace lithos {

namespace {

// Recurring detector tick on the simulator clock: sample the dispatcher's
// cumulative feed every detector window, with announced crash state as the
// known-down input. Lives on the scenario stack for the whole run.
struct DetectorTicker {
  Simulator* sim = nullptr;
  ClusterDispatcher* fleet = nullptr;
  GrayNodeDetector* detector = nullptr;
  RemediationController* remedy = nullptr;  // ticks right after the detector
  TimeNs horizon = 0;
  DurationNs window = 0;

  void Schedule(TimeNs at) {
    if (at > horizon) {
      return;
    }
    sim->ScheduleAt(at, [this, at] {
      const int num_nodes = fleet->config().num_nodes;
      std::vector<uint8_t> known_down(static_cast<size_t>(num_nodes), 0);
      for (int n = 0; n < num_nodes; ++n) {
        known_down[static_cast<size_t>(n)] = fleet->NodeFailed(n) ? 1 : 0;
      }
      detector->Tick(at, fleet->detector_feed(), known_down);
      if (remedy != nullptr) {
        remedy->Tick(at);
      }
      Schedule(at + window);
    });
  }
};

// An action is justified when a ground-truth span was active on its target
// at (or within this grace before) the action instant — detection lag plus
// the quarantine + probation round-trip can lawfully land an escalation
// shortly after the underlying fault ended.
constexpr DurationNs kJustifiedGrace = FromMillis(2000);

bool ActionJustified(const RemedyEvent& event,
                     const std::vector<GroundTruthSpan>& truth) {
  for (const GroundTruthSpan& span : truth) {
    const bool target_match =
        span.node >= 0 ? span.node == event.node : span.zone == event.zone;
    if (target_match && event.at >= span.start &&
        event.at <= span.end + kJustifiedGrace) {
      return true;
    }
  }
  return false;
}

}  // namespace

const MetricsRegistry::PhaseSnapshot& FleetFaultResult::Phase(const std::string& name) const {
  const auto it = std::find_if(phases.begin(), phases.end(),
                               [&name](const auto& s) { return s.name == name; });
  LITHOS_CHECK(it != phases.end());
  return *it;
}

double FleetFaultResult::Rate(const MetricsRegistry::PhaseSnapshot& phase,
                              const std::string& metric) const {
  const auto it = std::find_if(windows.begin(), windows.end(),
                               [&phase](const FaultPhase& w) { return w.name == phase.name; });
  LITHOS_CHECK(it != windows.end());
  return phase.ValueOf(metric) / ToSeconds(it->end - it->begin);
}

FleetFaultResult RunFleetFaultScenario(const FleetFaultConfig& config) {
  LITHOS_CHECK(!config.phases.empty());
  for (size_t i = 0; i < config.phases.size(); ++i) {
    LITHOS_CHECK_LT(config.phases[i].begin, config.phases[i].end);
    if (i > 0) {
      LITHOS_CHECK_GE(config.phases[i].begin, config.phases[i - 1].end);
    }
  }
  const TimeNs horizon = config.phases.back().end;

  Simulator sim;
  ClusterDispatcher fleet(&sim, config.cluster);
  sim.SetTrace(config.trace);
  fleet.SetTrace(config.trace);
  fleet.SetSpanSink(config.spans);

  AutoscaleConfig control;
  control.cluster = config.cluster;
  control.scaling = config.scaling;
  control.control_period = config.control_period;
  control.min_nodes = config.min_nodes;
  control.max_migrations_per_period = config.max_migrations_per_period;
  FleetController controller(&sim, &fleet, control);
  controller.SetTrace(config.trace);

  FaultScenarioConfig faults = config.faults;
  if (faults.horizon == 0) {
    faults.horizon = horizon;
  }
  FaultInjector injector(&sim, &fleet, faults);
  injector.SetTrace(config.trace);
  injector.Arm();

  // Online gray-failure detection: first tick one window in, last at or
  // before the horizon. The detector only sees the dispatcher's telemetry
  // feed plus announced crash state — never the injector.
  std::unique_ptr<GrayNodeDetector> detector;
  DetectorTicker ticker;
  if (config.detect) {
    std::vector<int> node_zone(static_cast<size_t>(config.cluster.num_nodes));
    for (int n = 0; n < config.cluster.num_nodes; ++n) {
      node_zone[static_cast<size_t>(n)] = fleet.ZoneOfNode(n);
    }
    detector = std::make_unique<GrayNodeDetector>(
        config.detector, config.cluster.num_nodes,
        static_cast<int>(fleet.models().size()), config.cluster.num_zones,
        std::move(node_zone), &fleet.metrics());
    ticker.sim = &sim;
    ticker.fleet = &fleet;
    ticker.detector = detector.get();
    ticker.horizon = horizon;
    ticker.window = config.detector.window;
    ticker.Schedule(config.detector.window);
  }

  // Self-healing remediation rides the detector tick (never without it).
  std::unique_ptr<RemediationController> remedy;
  if (config.detect && config.remediate) {
    remedy = std::make_unique<RemediationController>(
        &sim, &fleet, &controller, detector.get(), config.remediation);
    remedy->SetTrace(config.trace);
    ticker.remedy = remedy.get();
  }

  // Phase boundaries: close the window (EndPhase) before the next one opens.
  // Loop order matters — at a shared boundary instant the close callback is
  // inserted before the next open callback, and equal-time events fire in
  // insertion order.
  for (const FaultPhase& phase : config.phases) {
    sim.ScheduleAt(phase.begin, [&fleet, &phase] {
      fleet.BeginMeasurement();
      // After BeginMeasurement so counter baselines see the post-reset
      // values: the snapshot delta is exactly the window's activity.
      fleet.metrics().BeginPhase(phase.name);
    });
    sim.ScheduleAt(phase.end, [&fleet] { fleet.metrics().EndPhase(); });
  }

  fleet.SetWarmupEnd(config.phases.front().begin);
  fleet.StartArrivals(horizon);
  controller.Start(horizon);
  sim.RunUntil(horizon);

  FleetFaultResult result;
  result.phases = fleet.metrics().phases();
  result.windows = config.phases;
  result.schedule = injector.ScheduleLines();
  result.fault_trace = injector.trace();
  result.recovery_log = fleet.recovery_log();
  result.node_crashes = injector.node_crashes();
  result.zone_outages = injector.zone_outages();
  result.stragglers = injector.stragglers();
  result.rack_crashes = injector.rack_crashes();
  result.partitions = injector.partitions();
  result.sim = sim.counters();
  result.totals = fleet.metrics().Snapshot("totals");
  if (detector) {
    result.verdicts = detector->verdicts();
    result.detector_lines = detector->Lines();
    result.detector_ticks = detector->ticks();
    result.ground_truth = injector.GroundTruthSpans(horizon);
  }
  if (remedy) {
    result.remedy_events = remedy->events();
    result.remedy_lines = remedy->Lines();
    result.remedy = remedy->counts();
    for (const RemedyEvent& event : result.remedy_events) {
      if (event.action != RemedyAction::kQuarantine &&
          event.action != RemedyAction::kDrain &&
          event.action != RemedyAction::kRestart) {
        continue;
      }
      if (event.synthetic) {
        ++result.remedy_injected_actions;
      } else if (ActionJustified(event, result.ground_truth)) {
        ++result.remedy_justified_actions;
      } else {
        ++result.remedy_unjustified_actions;
      }
    }
  }
  return result;
}

}  // namespace lithos
