#include "src/fault/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/gpu/execution_engine.h"
#include "src/obs/trace.h"

namespace lithos {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:
      return "crash";
    case FaultKind::kNodeRepair:
      return "repair";
    case FaultKind::kStragglerStart:
      return "straggle";
    case FaultKind::kStragglerEnd:
      return "recover-clock";
    case FaultKind::kZoneOutage:
      return "zone-outage";
    case FaultKind::kZoneRepair:
      return "zone-repair";
    case FaultKind::kPowerCapStart:
      return "power-cap";
    case FaultKind::kPowerCapEnd:
      return "power-uncap";
    case FaultKind::kRackCrash:
      return "rack-crash";
    case FaultKind::kRackRepair:
      return "rack-repair";
    case FaultKind::kPartitionStart:
      return "partition";
    case FaultKind::kPartitionHeal:
      return "partition-heal";
  }
  return "?";
}

namespace {

// Repair samples are clamped below to this floor (a repair takes nonzero
// time).
constexpr DurationNs kMinRepair = FromMillis(1);

// One repair delay. kFixed consumes no Rng draws; the heavy-tailed
// distributions consume exactly one logical draw each (LogNormal uses the
// Rng's Box-Muller pair internally, Weibull inverts the CDF from a single
// uniform).
DurationNs SampleRepair(const RepairModel& model, Rng& rng) {
  double seconds = 0;
  switch (model.dist) {
    case RepairModel::Dist::kFixed:
      return std::max<DurationNs>(model.fixed, kMinRepair);
    case RepairModel::Dist::kLogNormal:
      seconds = rng.LogNormal(model.lognormal_mu, model.lognormal_sigma);
      break;
    case RepairModel::Dist::kWeibull: {
      const double u = rng.NextDouble();
      seconds =
          model.weibull_scale_s * std::pow(-std::log(1.0 - u), 1.0 / model.weibull_shape);
      break;
    }
  }
  return std::max<DurationNs>(FromSeconds(seconds), kMinRepair);
}

}  // namespace

FaultInjector::FaultInjector(Simulator* sim, ClusterDispatcher* fleet,
                             const FaultScenarioConfig& config)
    : sim_(sim), fleet_(fleet), config_(config) {
  LITHOS_CHECK(fleet_ != nullptr);
  const int num_nodes = fleet_->config().num_nodes;
  const int num_zones = fleet_->num_zones();
  const ZoneTopology& topo = fleet_->zone_topology();
  fail_causes_.assign(num_nodes, 0);
  straggle_causes_.assign(num_nodes, 0);
  partition_causes_.assign(num_nodes, 0);
  zone_cap_.assign(num_zones, 1.0);

  // Scripted events first, in declaration order.
  for (const ZoneOutageSpec& outage : config_.zone_outages) {
    LITHOS_CHECK_GE(outage.zone, 0);
    LITHOS_CHECK_LT(outage.zone, num_zones);
    schedule_.push_back({outage.at, FaultKind::kZoneOutage, outage.zone, -1, -1, 0.0});
    schedule_.push_back(
        {outage.at + outage.duration, FaultKind::kZoneRepair, outage.zone, -1, -1, 1.0});
  }
  for (const PowerCapSpec& cap : config_.power_caps) {
    LITHOS_CHECK_GE(cap.zone, 0);
    LITHOS_CHECK_LT(cap.zone, num_zones);
    LITHOS_CHECK_GT(cap.freq_fraction, 0.0);
    schedule_.push_back({cap.at, FaultKind::kPowerCapStart, cap.zone, -1, -1, cap.freq_fraction});
    schedule_.push_back({cap.at + cap.duration, FaultKind::kPowerCapEnd, cap.zone, -1, -1, 1.0});
  }
  for (const PartitionSpec& part : config_.partitions) {
    LITHOS_CHECK_GE(part.zone, 0);
    LITHOS_CHECK_LT(part.zone, num_zones);
    schedule_.push_back({part.at, FaultKind::kPartitionStart, part.zone, -1, -1, 0.0});
    schedule_.push_back(
        {part.at + part.duration, FaultKind::kPartitionHeal, part.zone, -1, -1, 1.0});
  }
  for (const RackCrashSpec& rc : config_.rack_crashes) {
    LITHOS_CHECK_GE(rc.zone, 0);
    LITHOS_CHECK_LT(rc.zone, num_zones);
    LITHOS_CHECK_GE(rc.rack, 0);
    LITHOS_CHECK_LT(rc.rack, topo.racks_per_zone);
    schedule_.push_back({rc.at, FaultKind::kRackCrash, rc.zone, -1, rc.rack, 0.0});
    schedule_.push_back({rc.at + rc.duration, FaultKind::kRackRepair, rc.zone, -1, rc.rack, 1.0});
  }

  // Random processes: one seeded generator, drawn in a fixed order (all
  // crashes, then all stragglers, then all rack crashes — new processes
  // append after the legacy ones so configs that never enable them draw an
  // identical sequence), keeping the schedule a pure function of the config.
  // Repair durations draw from their own stream so switching the repair
  // distribution (fixed vs heavy-tailed) never perturbs the crash instants:
  // the same seed replays the same incident timeline under any repair model.
  Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL + 0xFA01Du);
  Rng repair_rng(config_.seed * 0x9E3779B97F4A7C15ULL + 0x5EFA12u);
  if (config_.crashes_per_second > 0 && config_.horizon > 0) {
    TimeNs t = 0;
    while (true) {
      t += FromSeconds(rng.Exponential(1.0 / config_.crashes_per_second));
      if (t >= config_.horizon) {
        break;
      }
      const int node = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
      const DurationNs repair = SampleRepair(config_.crash_repair, repair_rng);
      schedule_.push_back({t, FaultKind::kNodeCrash, fleet_->ZoneOfNode(node), node, -1, 0.0});
      schedule_.push_back(
          {t + repair, FaultKind::kNodeRepair, fleet_->ZoneOfNode(node), node, -1, 1.0});
    }
  }
  if (config_.stragglers_per_second > 0 && config_.horizon > 0) {
    LITHOS_CHECK_GT(config_.straggler_slowdown, 0.0);
    TimeNs t = 0;
    while (true) {
      t += FromSeconds(rng.Exponential(1.0 / config_.stragglers_per_second));
      if (t >= config_.horizon) {
        break;
      }
      const int node = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
      schedule_.push_back({t, FaultKind::kStragglerStart, fleet_->ZoneOfNode(node), node, -1,
                           config_.straggler_slowdown});
      schedule_.push_back({t + config_.straggler_duration, FaultKind::kStragglerEnd,
                           fleet_->ZoneOfNode(node), node, -1, 1.0});
    }
  }
  if (config_.rack_crashes_per_second > 0 && config_.horizon > 0) {
    LITHOS_CHECK_GT(topo.NumRacks(), 0);
    TimeNs t = 0;
    while (true) {
      t += FromSeconds(rng.Exponential(1.0 / config_.rack_crashes_per_second));
      if (t >= config_.horizon) {
        break;
      }
      const int grack = static_cast<int>(rng.UniformInt(0, topo.NumRacks() - 1));
      const int zone = grack / topo.racks_per_zone;
      const int rack = grack % topo.racks_per_zone;
      const DurationNs repair = SampleRepair(config_.rack_repair, repair_rng);
      schedule_.push_back({t, FaultKind::kRackCrash, zone, -1, rack, 0.0});
      schedule_.push_back({t + repair, FaultKind::kRackRepair, zone, -1, rack, 1.0});
    }
  }

  // Stable by time: simultaneous events keep generation order, and Arm()
  // inserts them into the simulator in this order, so equal-timestamp faults
  // fire exactly as listed.
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
}

std::string FaultInjector::FormatEvent(const FaultEvent& event) {
  char line[112];
  if (event.rack >= 0) {
    std::snprintf(line, sizeof(line), "t=%lldns %s zone=%d rack=%d factor=%.3f",
                  static_cast<long long>(event.at), FaultKindName(event.kind), event.zone,
                  event.rack, event.factor);
  } else if (event.node >= 0) {
    std::snprintf(line, sizeof(line), "t=%lldns %s node=%d zone=%d factor=%.3f",
                  static_cast<long long>(event.at), FaultKindName(event.kind), event.node,
                  event.zone, event.factor);
  } else {
    std::snprintf(line, sizeof(line), "t=%lldns %s zone=%d factor=%.3f",
                  static_cast<long long>(event.at), FaultKindName(event.kind), event.zone,
                  event.factor);
  }
  return line;
}

std::vector<std::string> FaultInjector::ScheduleLines() const {
  std::vector<std::string> lines;
  lines.reserve(schedule_.size());
  for (const FaultEvent& event : schedule_) {
    lines.push_back(FormatEvent(event));
  }
  return lines;
}

std::vector<GroundTruthSpan> FaultInjector::GroundTruthSpans(TimeNs horizon) const {
  std::vector<GroundTruthSpan> out;
  // Open-interval bookkeeping: FIFO per (kind-category, target), matching
  // how overlapping causes repair in Apply() (first start, first end).
  std::map<int, std::vector<size_t>> open_crash, open_straggle, open_outage,
      open_cap, open_partition, open_rack;

  auto start = [&](std::map<int, std::vector<size_t>>& open, int key,
                   const FaultEvent& e) {
    GroundTruthSpan span;
    span.kind = e.kind;
    span.zone = e.zone;
    span.node = e.node;
    span.rack = e.rack;
    span.start = e.at;
    span.end = horizon;  // provisional: still open at the horizon
    span.factor = e.factor;
    open[key].push_back(out.size());
    out.push_back(span);
  };
  auto end = [&](std::map<int, std::vector<size_t>>& open, int key,
                 const FaultEvent& e) {
    auto it = open.find(key);
    if (it == open.end() || it->second.empty()) {
      return;  // unmatched end (scripted end without a start): ignore
    }
    out[it->second.front()].end = e.at;
    it->second.erase(it->second.begin());
  };

  for (const FaultEvent& e : schedule_) {
    switch (e.kind) {
      case FaultKind::kNodeCrash: start(open_crash, e.node, e); break;
      case FaultKind::kNodeRepair: end(open_crash, e.node, e); break;
      case FaultKind::kStragglerStart: start(open_straggle, e.node, e); break;
      case FaultKind::kStragglerEnd: end(open_straggle, e.node, e); break;
      case FaultKind::kZoneOutage: start(open_outage, e.zone, e); break;
      case FaultKind::kZoneRepair: end(open_outage, e.zone, e); break;
      case FaultKind::kPowerCapStart: start(open_cap, e.zone, e); break;
      case FaultKind::kPowerCapEnd: end(open_cap, e.zone, e); break;
      case FaultKind::kPartitionStart: start(open_partition, e.zone, e); break;
      case FaultKind::kPartitionHeal: end(open_partition, e.zone, e); break;
      case FaultKind::kRackCrash:
        start(open_rack, e.zone * 4096 + e.rack, e);
        break;
      case FaultKind::kRackRepair:
        end(open_rack, e.zone * 4096 + e.rack, e);
        break;
    }
  }

  // Drop spans the run never sees; clamp tails to the horizon. Order stays
  // start order (the schedule is time-sorted).
  std::vector<GroundTruthSpan> visible;
  visible.reserve(out.size());
  for (GroundTruthSpan& span : out) {
    if (span.start >= horizon) {
      continue;
    }
    span.end = std::min(span.end, horizon);
    visible.push_back(span);
  }
  return visible;
}

void FaultInjector::Arm() {
  for (size_t i = 0; i < schedule_.size(); ++i) {
    const TimeNs at = std::max(schedule_[i].at, sim_->Now());
    sim_->ScheduleAt(at, [this, i] { Apply(schedule_[i]); });
  }
}

void FaultInjector::FailCause(int node, int delta) {
  fail_causes_[node] += delta;
  LITHOS_CHECK_GE(fail_causes_[node], 0);
  if (delta > 0 && fail_causes_[node] == 1) {
    fleet_->FailNode(node);
  } else if (delta < 0 && fail_causes_[node] == 0) {
    fleet_->ReviveNode(node);
  }
}

void FaultInjector::PartitionCause(int node, int delta) {
  partition_causes_[node] += delta;
  LITHOS_CHECK_GE(partition_causes_[node], 0);
  if (delta > 0 && partition_causes_[node] == 1) {
    fleet_->PartitionNode(node);
  } else if (delta < 0 && partition_causes_[node] == 0) {
    fleet_->HealNode(node);
  }
}

void FaultInjector::ApplyFrequency(int node) {
  const GpuSpec& spec = fleet_->config().spec;
  const double straggle = straggle_causes_[node] > 0 ? config_.straggler_slowdown : 1.0;
  const double fraction = std::min(straggle, zone_cap_[fleet_->ZoneOfNode(node)]);
  const int mhz = spec.ClampFrequency(static_cast<int>(std::llround(spec.max_mhz * fraction)));
  fleet_->nodes()[node]->engine()->RequestFrequencyMhz(mhz);
}

void FaultInjector::Apply(const FaultEvent& event) {
  const ZoneTopology& topo = fleet_->zone_topology();
  switch (event.kind) {
    case FaultKind::kNodeCrash:
      ++node_crashes_;
      FailCause(event.node, +1);
      break;
    case FaultKind::kNodeRepair:
      FailCause(event.node, -1);
      break;
    case FaultKind::kZoneOutage:
      ++zone_outages_;
      for (int n = topo.ZoneBegin(event.zone); n < topo.ZoneEnd(event.zone); ++n) {
        FailCause(n, +1);
      }
      break;
    case FaultKind::kZoneRepair:
      for (int n = topo.ZoneBegin(event.zone); n < topo.ZoneEnd(event.zone); ++n) {
        FailCause(n, -1);
      }
      break;
    case FaultKind::kStragglerStart:
      ++stragglers_;
      ++straggle_causes_[event.node];
      ApplyFrequency(event.node);
      break;
    case FaultKind::kStragglerEnd:
      --straggle_causes_[event.node];
      LITHOS_CHECK_GE(straggle_causes_[event.node], 0);
      ApplyFrequency(event.node);
      break;
    case FaultKind::kPowerCapStart:
      ++power_caps_;
      zone_cap_[event.zone] = event.factor;
      for (int n = topo.ZoneBegin(event.zone); n < topo.ZoneEnd(event.zone); ++n) {
        ApplyFrequency(n);
      }
      break;
    case FaultKind::kPowerCapEnd:
      zone_cap_[event.zone] = 1.0;
      for (int n = topo.ZoneBegin(event.zone); n < topo.ZoneEnd(event.zone); ++n) {
        ApplyFrequency(n);
      }
      break;
    case FaultKind::kRackCrash:
      ++rack_crashes_;
      for (int n = topo.RackBegin(event.zone, event.rack);
           n < topo.RackEnd(event.zone, event.rack); ++n) {
        FailCause(n, +1);
      }
      break;
    case FaultKind::kRackRepair:
      for (int n = topo.RackBegin(event.zone, event.rack);
           n < topo.RackEnd(event.zone, event.rack); ++n) {
        FailCause(n, -1);
      }
      break;
    case FaultKind::kPartitionStart:
      ++partitions_;
      for (int n = topo.ZoneBegin(event.zone); n < topo.ZoneEnd(event.zone); ++n) {
        PartitionCause(n, +1);
      }
      break;
    case FaultKind::kPartitionHeal:
      for (int n = topo.ZoneBegin(event.zone); n < topo.ZoneEnd(event.zone); ++n) {
        PartitionCause(n, -1);
      }
      break;
  }
  if (recorder_ != nullptr) {
    recorder_->Append(sim_->Now(), TraceLayer::kFault, TraceKind::kFaultApplied,
                      event.node, event.zone, static_cast<int32_t>(event.kind),
                      static_cast<int64_t>(std::llround(event.factor * 1e6)));
  }
  trace_.push_back(FormatEvent(event));
}

}  // namespace lithos
