#include "src/gpu/kernel.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string_view>

#include "src/common/check.h"

namespace lithos {

int KernelDesc::BlocksPerTpc(const GpuSpec& spec) const {
  // Each limit independently caps resident blocks per SM; the tightest wins.
  int by_threads = threads_per_block > 0
                       ? spec.max_threads_per_sm / static_cast<int>(threads_per_block)
                       : spec.max_blocks_per_sm;
  const uint64_t regs_per_block = static_cast<uint64_t>(regs_per_thread) * threads_per_block;
  int by_regs = regs_per_block > 0
                    ? static_cast<int>(static_cast<uint64_t>(spec.registers_per_sm) / regs_per_block)
                    : spec.max_blocks_per_sm;
  int by_smem = smem_per_block_bytes > 0
                    ? spec.smem_per_sm_bytes / static_cast<int>(smem_per_block_bytes)
                    : spec.max_blocks_per_sm;
  int per_sm = std::min({by_threads, by_regs, by_smem, spec.max_blocks_per_sm});
  per_sm = std::max(per_sm, 1);  // A launchable kernel fits at least one block.
  return per_sm * spec.sms_per_tpc;
}

int KernelDesc::MaxUsefulTpcs(const GpuSpec& spec) const {
  const int per_tpc = BlocksPerTpc(spec);
  const int useful = (static_cast<int>(NumBlocks()) + per_tpc - 1) / per_tpc;
  return std::max(1, std::min(useful, spec.TotalTpcs()));
}

double KernelDesc::FreqFactor(const GpuSpec& spec, int freq_mhz) const {
  LITHOS_CHECK_GT(freq_mhz, 0);
  const double ratio = static_cast<double>(spec.max_mhz) / static_cast<double>(freq_mhz);
  return 1.0 + freq_sensitivity * (ratio - 1.0);
}

DurationNs KernelDesc::RangeLatencyNs(const GpuSpec& spec, uint32_t block_lo, uint32_t block_hi,
                                      double tpcs, int freq_mhz) const {
  LITHOS_CHECK_LT(block_lo, block_hi);
  LITHOS_CHECK_LE(block_hi, NumBlocks());
  LITHOS_CHECK_GT(tpcs, 0.0);

  const uint32_t range_blocks = block_hi - block_lo;
  const double frac = static_cast<double>(range_blocks) / static_cast<double>(NumBlocks());

  // Additional TPCs beyond what the block count can occupy give no speedup.
  const int per_tpc = BlocksPerTpc(spec);
  const double useful =
      std::max(1.0, std::ceil(static_cast<double>(range_blocks) / static_cast<double>(per_tpc)));
  const double effective = std::min(tpcs, useful);

  const double base = work_m_ns * frac / effective + serial_b_ns;
  return static_cast<DurationNs>(base * FreqFactor(spec, freq_mhz));
}

DurationNs KernelDesc::LatencyNs(const GpuSpec& spec, double tpcs, int freq_mhz) const {
  return RangeLatencyNs(spec, 0, NumBlocks(), tpcs, freq_mhz);
}

uint64_t KernelDesc::LaunchSignature() const {
  // The name's hash, then the launch configuration two 32-bit fields to a
  // word, each word folded in with a multiply-xorshift step. The name
  // participates so distinct kernel functions with equal grids stay
  // distinguishable.
  uint64_t h = std::hash<std::string_view>{}(name);
  auto mix = [&h](uint64_t word) {
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  };
  mix(grid_x | static_cast<uint64_t>(grid_y) << 32);
  mix(grid_z | static_cast<uint64_t>(threads_per_block) << 32);
  mix(smem_per_block_bytes);
  return h;
}

KernelDesc MakeKernel(const std::string& name, uint32_t blocks, DurationNs latency_at_full,
                      double parallel_fraction, double freq_sensitivity,
                      const GpuSpec& spec, uint32_t threads_per_block) {
  LITHOS_CHECK_GT(blocks, 0u);
  LITHOS_CHECK_GE(parallel_fraction, 0.0);
  LITHOS_CHECK_LE(parallel_fraction, 1.0);

  KernelDesc k;
  k.name = name;
  k.grid_x = blocks;
  k.threads_per_block = threads_per_block;
  k.freq_sensitivity = freq_sensitivity;

  // Solve l(T_eff) = latency_at_full with b = (1-p) * latency, m = p*l*T_eff,
  // where T_eff accounts for the occupancy cap.
  const int useful = k.MaxUsefulTpcs(spec);
  const double t_eff = std::min<double>(spec.TotalTpcs(), useful);
  k.serial_b_ns = (1.0 - parallel_fraction) * static_cast<double>(latency_at_full);
  k.work_m_ns = parallel_fraction * static_cast<double>(latency_at_full) * t_eff;
  return k;
}

}  // namespace lithos
