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
// Plain (non-atomized) kernel dispatch overhead through the interposition
// layer.
constexpr DurationNs kLaunchOverhead = FromMicros(2.0);

}  // namespace

DurationNs KernelAtomizer::AtomOverheadNs(const KernelDesc& kernel, uint32_t atom_blocks) const {
  // Each prelude instance launches the full grid; blocks outside the atom's
  // range exit early but still consume dispatch slots.
  const uint32_t skipped = kernel.NumBlocks() - atom_blocks;
  return kPreludeLaunchOverhead +
         static_cast<DurationNs>(kEarlyExitNsPerBlock * static_cast<double>(skipped));
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
  const uint32_t blocks = kernel.NumBlocks();
  LITHOS_CHECK_GT(blocks, 0u);

  const DurationNs atom_duration = EffectiveAtomDuration(kernel_signature);

  if (!config_.enable_atomization || blocks < 2 ||
      predicted_duration < kMinAtomizeDuration) {
    plan.atomized = false;
    plan.atoms.push_back(Atom{0, blocks, kLaunchOverhead});
    return plan;
  }

  int n = static_cast<int>(predicted_duration / std::max<DurationNs>(atom_duration, 1));
  n = std::clamp(n, 1, kMaxAtomsPerKernel);
  n = std::min(n, static_cast<int>(blocks));
  // Wave floor: an atom smaller than one wave over the granted TPCs cannot
  // keep the allocation busy.
  const int wave_blocks = std::max(1, granted_tpcs) * kernel.BlocksPerTpc(spec);
  n = std::min(n, std::max(1, static_cast<int>(blocks) / wave_blocks));
  if (n <= 1) {
    plan.atomized = false;
    plan.atoms.push_back(Atom{0, blocks, kLaunchOverhead});
    return plan;
  }

  plan.atomized = true;
  plan.atoms.reserve(static_cast<size_t>(n));
  // Near-equal contiguous ranges; the first (blocks % n) atoms take one extra
  // block. Union of ranges == [0, blocks), pairwise disjoint — the
  // correctness invariant of Algorithm 1.
  const uint32_t base = blocks / static_cast<uint32_t>(n);
  const uint32_t extra = blocks % static_cast<uint32_t>(n);
  uint32_t lo = 0;
  for (uint32_t i = 0; i < static_cast<uint32_t>(n); ++i) {
    const uint32_t size = base + (i < extra ? 1 : 0);
    Atom atom;
    atom.block_lo = lo;
    atom.block_hi = lo + size;
    atom.overhead_ns = AtomOverheadNs(kernel, size);
    plan.atoms.push_back(atom);
    lo += size;
  }
  LITHOS_CHECK_EQ(lo, blocks);
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
