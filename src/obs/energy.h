// Energy and capacity accounting helpers for the right-sizing (Fig. 17) and
// DVFS (Fig. 18) experiments.
#ifndef LITHOS_OBS_ENERGY_H_
#define LITHOS_OBS_ENERGY_H_

#include "src/gpu/execution_engine.h"

namespace lithos {

// Capacity consumed by every client: allocated TPC-seconds (time-weighted
// TPC utilization integral). Fig. 17 compares this before/after right-sizing.
inline double TotalCapacityTpcSeconds(const EngineStats& stats) {
  double total = 0;
  for (const auto& [id, v] : stats.allocated_tpc_seconds) {
    total += v;
  }
  return total;
}

// Fractional saving of `after` relative to `before` (positive = saved).
inline double Savings(double before, double after) {
  return before > 0 ? 1.0 - after / before : 0.0;
}

// Energy per unit of completed work; the fair comparison when the two runs
// complete different amounts of work (closed-loop training under DVFS).
inline double EnergyPerWork(const EngineStats& stats, double work_units) {
  return work_units > 0 ? stats.energy_joules / work_units : 0.0;
}

}  // namespace lithos

#endif  // LITHOS_OBS_ENERGY_H_
