#include "src/core/kernel_atomizer.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace lithos {
namespace {

// Target duration of one atom. Kernels predicted shorter than
// kMinAtomizeDuration are launched whole.
constexpr DurationNs kAtomDuration = FromMillis(1.0);
constexpr DurationNs kMinAtomizeDuration = FromMillis(2.0);
// Adaptive control: if measured atomization overhead for an operator
// exceeds this fraction, its atom duration is doubled (§4.4,
// "Performance Optimizations").
constexpr double kMaxOverheadFraction = 0.10;

// Each prelude instance launches the full grid; blocks outside the atom's
// range exit early but still consume dispatch slots.
DurationNs PreludeOverheadNs(uint32_t grid_blocks, uint32_t atom_blocks) {
  const uint32_t skipped = grid_blocks - atom_blocks;
  return KernelAtomizer::kPreludeLaunchOverhead +
         static_cast<DurationNs>(KernelAtomizer::kEarlyExitNsPerBlock *
                                 static_cast<double>(skipped));
}

}  // namespace

Atom AtomPlan::At(size_t i) const {
  LITHOS_CHECK_LT(i, static_cast<size_t>(count));
  if (!atomized) {
    return Atom{0, blocks, KernelAtomizer::kLaunchOverhead};
  }
  // Near-equal contiguous ranges; the first (blocks % count) atoms take one
  // extra block, so atom i starts after i base-sized atoms plus the extra
  // blocks of those before it.
  const uint32_t idx = static_cast<uint32_t>(i);
  const uint32_t base = blocks / count;
  const uint32_t extra = blocks % count;
  const uint32_t size = base + (idx < extra ? 1 : 0);
  const uint32_t lo = idx * base + std::min(idx, extra);
  return Atom{lo, lo + size, PreludeOverheadNs(blocks, size)};
}

DurationNs KernelAtomizer::AtomOverheadNs(const KernelDesc& kernel, uint32_t atom_blocks) const {
  return PreludeOverheadNs(kernel.NumBlocks(), atom_blocks);
}

DurationNs KernelAtomizer::EffectiveAtomDuration(uint64_t kernel_signature) const {
  auto it = duration_scale_.find(kernel_signature);
  const double scale = it == duration_scale_.end() ? 1.0 : it->second;
  return static_cast<DurationNs>(static_cast<double>(kAtomDuration) * scale);
}

AtomPlan KernelAtomizer::Plan(const KernelDesc& kernel, uint64_t kernel_signature,
                              DurationNs predicted_duration, int granted_tpcs,
                              const GpuSpec& spec) const {
  AtomPlan plan;
  plan.blocks = kernel.NumBlocks();
  LITHOS_CHECK_GT(plan.blocks, 0u);

  if (!config_.enable_atomization || plan.blocks < 2 ||
      predicted_duration < kMinAtomizeDuration) {
    return plan;
  }

  const DurationNs atom_duration = EffectiveAtomDuration(kernel_signature);
  int n = static_cast<int>(predicted_duration / std::max<DurationNs>(atom_duration, 1));
  n = std::clamp(n, 1, kMaxAtomsPerKernel);
  n = std::min(n, static_cast<int>(plan.blocks));
  // Wave floor: an atom smaller than one wave over the granted TPCs cannot
  // keep the allocation busy.
  const int wave_blocks = std::max(1, granted_tpcs) * kernel.BlocksPerTpc(spec);
  n = std::min(n, std::max(1, static_cast<int>(plan.blocks) / wave_blocks));
  if (n > 1) {
    plan.count = static_cast<uint32_t>(n);
    plan.atomized = true;
  }
  return plan;
}

void KernelAtomizer::RecordOverhead(uint64_t kernel_signature, DurationNs work_ns,
                                    DurationNs overhead_ns) {
  if (work_ns <= 0) {
    return;
  }
  const double frac =
      static_cast<double>(overhead_ns) / static_cast<double>(work_ns + overhead_ns);
  if (frac > kMaxOverheadFraction) {
    double& scale = duration_scale_.try_emplace(kernel_signature, 1.0).first->second;
    scale = std::min(scale * 2.0, 64.0);
  }
}

}  // namespace lithos
