// The benchmark's three workloads, each assembled from the program's public
// classes so the benchmark owns the arrival generator, the phase windows and
// the detector / remediation ticks, and can time its own calls into each
// layer:
//
//   stack    one A100 under LithOS: HP-A ResNet (15 ms SLO), HP-B Llama 3 and
//            best-effort GPT-J at Table-2 loads with 75/25 quotas.
//   region   1024 MPS nodes in 8 zones x 4 racks at 24k rps, model affinity,
//            retry + hedge + shed, detector and remediation on, Poisson
//            stragglers and rack crashes plus one zone partition.
//   diurnal  128 LithOS nodes at 8960 rps mean over two compressed days,
//            predictive autoscaling, write-off dispatch.
//
// One call runs one repetition: build the stack, run the horizon, stop the
// arrivals, run the simulator dry, and collect every simulated output.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/timing.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace perfbench {

// Attached only to traced repetitions.
struct Instruments {
  lithos::TraceRecorder trace{0};  // unbounded: every layer, every record
  lithos::SpanBuilder spans;       // online request spans (fleets only)
  SiteClock clock;                 // host-time spans around calls into layers
};

struct Rep {
  // Host time.
  double setup_s = 0;  // construction up to the first event
  double run_s = 0;    // the simulated horizon, set-up and drain excluded
  // run_s split into equal slices of simulated time: slice i does the same
  // work in every repetition of one seed, so slices compare across them.
  std::vector<double> slice_s;
  double build_s = 0;  // workload-layer objects (servers, generator tables)
  double arm_s = 0;    // fault schedule generation + FaultInjector::Arm

  // Hash of every simulated output (latency samples, counters, logs).
  uint64_t hash = 0;
  uint64_t requests = 0;  // requests the generator issued over the whole run

  // End-to-end simulated outcomes.
  double p50_ms = 0;
  double mean_ms = 0;
  double p99_ms = 0;
  uint64_t latency_samples = 0;
  double slo_attainment = 0;
  double goodput_per_gpu = 0;
  double joules_per_request = 0;
  double completed_frac = 0;

  // Split-half stationarity of the measured window (by completion time).
  double half_p99_ms[2] = {0, 0};
  double half_rate[2] = {0, 0};
  bool stationary = true;

  // Settlement ledger after the drain.
  bool ledger_ok = true;
  std::string ledger;
  // Online span check (traced fleet repetitions only).
  bool spans_checked = false;
  bool spans_ok = true;
  std::string spans;

  lithos::SimCounters sim;
  // Deterministic per-layer counts by metric name (zero where the layer did
  // no work on this workload).
  std::map<std::string, double> counts;
};

const std::vector<std::string>& WorkloadNames();

// Runs one repetition of `workload` with inputs drawn from `seed`. `inst` is
// null for untraced repetitions.
Rep RunWorkload(const std::string& workload, uint64_t seed, Instruments* inst);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
