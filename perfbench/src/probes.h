// Outside measurements of the two layers the benchmark cannot time in place:
// the event core and the execution engine. Both are driven from a traced
// repetition's records and check themselves against it.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/gpu/gpu_spec.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace perfbench {

// The kSim op stream of a trace, replayed through a bare Simulator
// (ScheduleAt / Cancel / Reschedule / Step with empty callbacks).
struct SimReplay {
  lithos::SimCounters counters;  // must equal the traced run's counters
  double seconds = 0;            // host time of the replay loop
};
SimReplay ReplaySim(const std::vector<lithos::TraceRecord>& records);

// What the engine records of a trace say about the GPU layer.
struct EngineProfile {
  uint64_t launches = 0;
  uint64_t aborts = 0;
  uint64_t checkpoints = 0;
  uint64_t dvfs_applies = 0;
  uint64_t power_gates = 0;
  double mean_grant_tpcs = 0;
  double mean_concurrency = 0;        // running grants on the node, at launch
  std::vector<int> grant_tpcs;        // launch order
  std::map<int, uint64_t> histogram;  // TPCs granted -> launches
};
EngineProfile ProfileEngine(const std::vector<lithos::TraceRecord>& records);

// Drives a bare ExecutionEngine::Launch with the traced grant sizes in
// order, keeping `concurrency` grants running.
struct GpuProbe {
  std::map<int, uint64_t> histogram;  // from the probe's own trace
  double ns_per_grant = 0;
};
GpuProbe ProbeEngine(const EngineProfile& profile, const lithos::GpuSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
