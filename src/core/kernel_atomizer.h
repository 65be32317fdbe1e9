// Kernel Atomizer (paper Section 4.4).
//
// Transparently splits a kernel's grid into independently schedulable atoms —
// contiguous, non-overlapping thread-block ranges that together cover the
// grid exactly once. On real hardware this is done by launching a Prelude
// kernel per atom (Algorithm 1) that early-exits blocks outside the range;
// here the plan carries the equivalent cost model: a fixed prelude launch
// overhead per atom plus an early-exit tax proportional to the blocks each
// prelude instance skips.
//
// The atomizer also implements the paper's two performance optimizations:
// kernels predicted to be short are not atomized at all, and operators whose
// measured atomization overhead is excessive get their atom duration scaled
// up (fewer atoms next time).
#ifndef LITHOS_CORE_KERNEL_ATOMIZER_H_
#define LITHOS_CORE_KERNEL_ATOMIZER_H_

#include <cstdint>
#include <unordered_map>

#include "src/common/time.h"
#include "src/core/config.h"
#include "src/gpu/kernel.h"

namespace lithos {

// A planned atom: block range plus the overhead charged to it.
struct Atom {
  uint32_t block_lo = 0;
  uint32_t block_hi = 0;
  DurationNs overhead_ns = 0;

  uint32_t NumBlocks() const { return block_hi - block_lo; }
};

// The plan for one kernel: `count` near-equal contiguous ranges over
// [0, blocks), the first (blocks % count) one block larger. Atoms are computed
// on demand, so a plan is three fields and building one allocates nothing.
struct AtomPlan {
  uint32_t blocks = 0;
  uint32_t count = 1;
  bool atomized = false;  // false => single whole-kernel launch

  size_t NumAtoms() const { return count; }
  // The i-th atom; i < count. Pairwise disjoint, and together [0, blocks) —
  // the correctness invariant of Algorithm 1.
  Atom At(size_t i) const;
};

class KernelAtomizer {
 public:
  // Hard cap on atoms per kernel (the paper's example splits a 64-block grid
  // into at most 64 atoms; large grids would otherwise explode).
  static constexpr int kMaxAtomsPerKernel = 32;
  // Cost model of the Prelude kernel: fixed launch overhead per atom plus an
  // early-exit tax per skipped thread block.
  static constexpr DurationNs kPreludeLaunchOverhead = FromMicros(3.0);
  static constexpr double kEarlyExitNsPerBlock = 12.0;
  // Plain (non-atomized) kernel dispatch overhead through the interposition
  // layer.
  static constexpr DurationNs kLaunchOverhead = FromMicros(2.0);

  explicit KernelAtomizer(const LithosConfig& config) : config_(config) {}

  // Builds the atom plan for `kernel` (whose LaunchSignature() is
  // `kernel_signature`, computed once per head by the caller) given its
  // predicted whole-kernel duration under the allocation it is about to
  // receive. `granted_tpcs`
  // bounds the split: each atom must carry at least one full wave of thread
  // blocks across the granted TPCs (blocks >= tpcs * blocks_per_tpc), or the
  // atoms could no longer occupy the allocation and atomization would
  // *reduce* parallelism instead of merely bounding HoL blocking.
  AtomPlan Plan(const KernelDesc& kernel, uint64_t kernel_signature, DurationNs predicted_duration,
                int granted_tpcs, const GpuSpec& spec) const;

  // Feedback from observed executions: `work_ns` is the useful execution time
  // of the operator's atoms, `overhead_ns` the prelude cost they paid. If the
  // overhead fraction exceeds the configured bound, the operator's effective
  // atom duration is doubled (halving future atom counts).
  void RecordOverhead(uint64_t kernel_signature, DurationNs work_ns, DurationNs overhead_ns);

  // Effective atom duration for an operator after adaptive adjustments.
  DurationNs EffectiveAtomDuration(uint64_t kernel_signature) const;

  // Total prelude + early-exit overhead a single atom of `kernel` pays.
  DurationNs AtomOverheadNs(const KernelDesc& kernel, uint32_t atom_blocks) const;

 private:
  LithosConfig config_;
  // Per-kernel-signature multiplier on the atom duration (adaptive
  // aggressiveness).
  std::unordered_map<uint64_t, double> duration_scale_;
};

}  // namespace lithos

#endif  // LITHOS_CORE_KERNEL_ATOMIZER_H_
