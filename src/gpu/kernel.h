// Kernel descriptors and the ground-truth timing model of the simulated GPU.
//
// A KernelDesc carries exactly what the real CUDA driver sees at launch time —
// grid dimensions, threads per block, register and shared-memory footprint —
// plus the simulator's hidden ground-truth performance coefficients. The
// LithOS layer never reads the hidden coefficients; it must learn them online,
// exactly as the paper's predictor does against real hardware.
//
// Ground-truth latency for a block range [lo, hi) of a kernel with B total
// blocks, on t allocated TPCs at frequency f:
//
//   l = (m * (hi-lo)/B / min(t, t_useful) + b) * (1 + s * (f_max/f - 1))
//
// where m is the parallelisable work coefficient, b the serial floor, s the
// frequency sensitivity (1 = compute-bound, 0 = memory/latency-bound), and
// t_useful = ceil(blocks / blocks_per_tpc) caps the benefit of additional
// TPCs at the kernel's thread-block occupancy — the same physical effect the
// paper's right-sizing filter heuristic exploits (Section 4.5).
#ifndef LITHOS_GPU_KERNEL_H_
#define LITHOS_GPU_KERNEL_H_

#include <cstdint>
#include <string>

#include "src/common/time.h"
#include "src/gpu/gpu_spec.h"

namespace lithos {

struct KernelDesc {
  std::string name;

  // Launch configuration (visible to the driver).
  uint32_t grid_x = 1;
  uint32_t grid_y = 1;
  uint32_t grid_z = 1;
  uint32_t threads_per_block = 256;
  uint32_t regs_per_thread = 32;
  uint32_t smem_per_block_bytes = 0;

  // Hidden ground-truth performance model (not visible to schedulers).
  double work_m_ns = 0;         // parallelisable work, TPC-nanoseconds at f_max
  double serial_b_ns = 1'000;   // serial floor per launch, ns at f_max
  double freq_sensitivity = 0.7;  // s in [0, 1]

  uint32_t NumBlocks() const { return grid_x * grid_y * grid_z; }

  // Thread blocks a single TPC can host concurrently given occupancy limits
  // (threads, registers, shared memory, block slots). Matches what
  // cuOccupancyMaxActiveBlocksPerMultiprocessor reports on real hardware.
  int BlocksPerTpc(const GpuSpec& spec) const;

  // ceil(blocks / blocks_per_tpc): the maximum TPC count this kernel can
  // exploit; allocating more yields no additional speedup.
  int MaxUsefulTpcs(const GpuSpec& spec) const;

  // Ground-truth latency of the full grid.
  DurationNs LatencyNs(const GpuSpec& spec, double tpcs, int freq_mhz) const;

  // Ground-truth latency of a block range (an atom).
  DurationNs RangeLatencyNs(const GpuSpec& spec, uint32_t block_lo, uint32_t block_hi,
                            double tpcs, int freq_mhz) const;

  // Frequency slowdown factor 1 + s*(f_max/f - 1).
  double FreqFactor(const GpuSpec& spec, int freq_mhz) const;

  // A compact signature of the launch configuration (name, grid, threads per
  // block, shared memory), hashed a word at a time; the latency predictor
  // keys on it (together with the operator ordinal) to distinguish reuses of
  // one kernel function across layers with different tensor shapes. Only its
  // equality matters: no output depends on its value.
  uint64_t LaunchSignature() const;
};

// Convenience builder for workload definitions: a kernel whose full-grid
// latency at f_max on `tpcs_at` TPCs is `latency` with `parallel_fraction`
// of that time parallelisable. The builder solves for (m, b).
KernelDesc MakeKernel(const std::string& name, uint32_t blocks, DurationNs latency_at_full,
                      double parallel_fraction, double freq_sensitivity,
                      const GpuSpec& spec, uint32_t threads_per_block = 256);

}  // namespace lithos

#endif  // LITHOS_GPU_KERNEL_H_
