// Hardware right-sizing (paper Section 4.5).
//
// Chooses the minimal TPC allocation per kernel whose predicted latency stays
// within the latency-slip bound k of the full-allocation latency:
//
//   choose min t such that  l(t) <= k * l(t_full),   l(t) = m/t + b.
//
// Two mechanisms from the paper:
//   * Filtering heuristic: t is never more than ceil(blocks / blocks_per_tpc)
//     — the occupancy-derived upper bound on useful TPCs, which also handles
//     short outlier kernels the curve cannot model.
//   * Two-point model: the curve is fitted from observed latencies at
//     distinct allocations (kept by the latency predictor). Until two points
//     exist, the right-sizer probes: it grants a reduced allocation
//     (kProbeFactor of full) once to obtain the second point, bounded below
//     so the worst-case slip during probing matches the model's own bound.
#ifndef LITHOS_CORE_RIGHT_SIZER_H_
#define LITHOS_CORE_RIGHT_SIZER_H_

#include <algorithm>

#include "src/core/config.h"
#include "src/core/latency_predictor.h"
#include "src/gpu/kernel.h"

namespace lithos {

class RightSizer {
 public:
  RightSizer(const GpuSpec& spec, const LithosConfig& config, const LatencyPredictor* predictor)
      : spec_(spec), config_(config), predictor_(predictor) {}

  // Returns the TPC count to grant `kernel` out of an available allocation of
  // `available_tpcs`. Always in [1, available_tpcs].
  int ChooseTpcs(const OperatorKey& key, const KernelDesc& kernel, int available_tpcs) const {
    return ChooseTpcs(predictor_->Find(key), kernel, available_tpcs);
  }
  // The same for the operator whose predictor model is `model` (Find(key)).
  int ChooseTpcs(const LatencyPredictor::OperatorModel* model, const KernelDesc& kernel,
                 int available_tpcs) const;

  // The occupancy filter alone (public for tests and the Fig. 17 harness).
  int OccupancyUpperBound(const KernelDesc& kernel) const {
    return kernel.MaxUsefulTpcs(spec_);
  }

 private:
  GpuSpec spec_;
  LithosConfig config_;
  const LatencyPredictor* predictor_;
};

}  // namespace lithos

#endif  // LITHOS_CORE_RIGHT_SIZER_H_
