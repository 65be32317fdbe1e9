#include "perfbench/src/probes.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "perfbench/src/timing.h"
#include "src/gpu/execution_engine.h"
#include "src/gpu/kernel.h"

namespace perfbench {

using namespace lithos;

SimReplay ReplaySim(const std::vector<TraceRecord>& records) {
  struct Op {
    TraceKind kind;
    uint32_t slot;
    int64_t payload;
  };
  std::vector<Op> ops;
  uint32_t max_slot = 0;
  for (const TraceRecord& r : records) {
    if (r.layer == static_cast<uint8_t>(TraceLayer::kSim)) {
      const auto slot = static_cast<uint32_t>(r.arg);
      ops.push_back({static_cast<TraceKind>(r.kind), slot, r.payload});
      max_slot = std::max(max_slot, slot);
    }
  }
  // Original slot -> the replay's id for the event living there. The replay
  // issues the same operations in the same order, so its heap fires the
  // same events in the same order.
  std::vector<EventId> ids(static_cast<size_t>(max_slot) + 1, 0);
  Simulator sim;
  const int64_t start = HostNowNs();
  for (const Op& op : ops) {
    switch (op.kind) {
      case TraceKind::kEventSchedule:
        ids[op.slot] = sim.ScheduleAt(op.payload, [] {});
        break;
      case TraceKind::kEventFire:
        sim.Step();
        break;
      case TraceKind::kEventCancel:
        sim.Cancel(ids[op.slot]);
        break;
      case TraceKind::kEventReschedule:
        sim.Reschedule(ids[op.slot], op.payload);
        break;
      default:
        break;
    }
  }
  SimReplay replay;
  replay.seconds = HostSecondsSince(start);
  replay.counters = sim.counters();
  return replay;
}

EngineProfile ProfileEngine(const std::vector<TraceRecord>& records) {
  EngineProfile p;
  std::unordered_map<int32_t, int> running;  // node -> running grants
  double tpcs = 0;
  double concurrency = 0;
  for (const TraceRecord& r : records) {
    if (r.layer != static_cast<uint8_t>(TraceLayer::kEngine)) {
      continue;
    }
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kGrantLaunch: {
        const int granted = static_cast<int>(r.payload);
        ++p.launches;
        tpcs += granted;
        concurrency += ++running[r.node];
        p.grant_tpcs.push_back(granted);
        ++p.histogram[granted];
        break;
      }
      case TraceKind::kGrantComplete:
        --running[r.node];
        break;
      case TraceKind::kGrantAbort:
        ++p.aborts;
        --running[r.node];
        break;
      case TraceKind::kGrantCheckpoint:
        ++p.checkpoints;
        break;
      case TraceKind::kDvfsApply:
        ++p.dvfs_applies;
        break;
      case TraceKind::kEnginePowerGate:
        ++p.power_gates;
        break;
      default:
        break;
    }
  }
  if (p.launches > 0) {
    p.mean_grant_tpcs = tpcs / static_cast<double>(p.launches);
    p.mean_concurrency = concurrency / static_cast<double>(p.launches);
  }
  return p;
}

GpuProbe ProbeEngine(const EngineProfile& profile, const GpuSpec& spec) {
  Simulator sim;
  ExecutionEngine engine(&sim, spec);
  TraceRecorder trace(0);
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kEngine));
  engine.SetTrace(&trace, 0, -1);
  const KernelDesc kernel = MakeKernel("probe", 864, FromMicros(500), 0.92, 0.6, spec);

  const std::vector<int>& sizes = profile.grant_tpcs;
  const int total = spec.TotalTpcs();
  size_t next = 0;
  int cursor = 0;  // masks rotate over the device so disjoint grants stay disjoint
  std::function<void()> launch = [&] {
    const int tpcs = std::clamp(sizes[next++], 1, total);
    const int lo = cursor + tpcs <= total ? cursor : 0;
    cursor = lo + tpcs;
    WorkItem item;
    item.kernel = &kernel;
    item.client_id = 1;
    item.on_complete = [&](const GrantInfo&) {
      if (next < sizes.size()) {
        launch();
      }
    };
    engine.Launch(std::move(item), TpcRange(lo, lo + tpcs));
  };

  const int concurrency = std::max(1, static_cast<int>(profile.mean_concurrency + 0.5));
  const int64_t start = HostNowNs();
  for (int c = 0; c < concurrency && next < sizes.size(); ++c) {
    launch();
  }
  sim.RunToCompletion();
  const double seconds = HostSecondsSince(start);

  GpuProbe probe;
  probe.histogram = ProfileEngine(trace.Records()).histogram;
  probe.ns_per_grant = sizes.empty() ? 0.0 : seconds * 1e9 / static_cast<double>(sizes.size());
  return probe;
}

}  // namespace perfbench
