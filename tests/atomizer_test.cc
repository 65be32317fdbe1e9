// Tests for the Kernel Atomizer (paper §4.4): the block-range partition
// invariant of Algorithm 1, the short-kernel and wave-floor guards, the
// prelude cost model, and the adaptive atom-duration control.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/kernel_atomizer.h"

namespace lithos {
namespace {

KernelDesc Kernel(uint32_t blocks, uint32_t tpb = 256) {
  KernelDesc k;
  k.name = "k";
  k.grid_x = blocks;
  k.threads_per_block = tpb;
  return k;
}

class AtomizerTest : public ::testing::Test {
 protected:
  AtomizerTest() : spec_(GpuSpec::A100()), atomizer_(config_) {}

  LithosConfig config_;
  GpuSpec spec_;
  KernelAtomizer atomizer_;
};

TEST_F(AtomizerTest, ShortKernelNotAtomized) {
  const KernelDesc k = Kernel(5000);
  const AtomPlan plan = atomizer_.Plan(k, k.LaunchSignature(), FromMicros(500), 54, spec_);
  EXPECT_FALSE(plan.atomized);
  ASSERT_EQ(plan.NumAtoms(), 1u);
  EXPECT_EQ(plan.At(0).block_lo, 0u);
  EXPECT_EQ(plan.At(0).block_hi, 5000u);
}

TEST_F(AtomizerTest, SingleBlockKernelNeverAtomized) {
  const KernelDesc k = Kernel(1);
  const AtomPlan plan = atomizer_.Plan(k, k.LaunchSignature(), FromMillis(30), 54, spec_);
  EXPECT_FALSE(plan.atomized);
}

TEST_F(AtomizerTest, LongKernelSplitsByAtomDuration) {
  const KernelDesc k = Kernel(100000);
  // 8ms predicted with 1ms atoms on a small allocation: 8 atoms.
  const AtomPlan plan = atomizer_.Plan(k, k.LaunchSignature(), FromMillis(8), 4, spec_);
  EXPECT_TRUE(plan.atomized);
  EXPECT_EQ(plan.NumAtoms(), 8u);
}

TEST_F(AtomizerTest, AtomCountCapped) {
  const KernelDesc k = Kernel(1000000);
  const AtomPlan plan = atomizer_.Plan(k, k.LaunchSignature(), FromSeconds(10), 1, spec_);
  EXPECT_LE(static_cast<int>(plan.NumAtoms()), KernelAtomizer::kMaxAtomsPerKernel);
}

TEST_F(AtomizerTest, WaveFloorLimitsSplit) {
  // 320 blocks at 16 blocks/TPC on 54 granted TPCs: one wave is 864 blocks,
  // so the kernel cannot be split at all without starving the allocation.
  const KernelDesc k = Kernel(320);
  const AtomPlan plan = atomizer_.Plan(k, k.LaunchSignature(), FromMillis(10), 54, spec_);
  EXPECT_FALSE(plan.atomized);

  // The same kernel on 2 TPCs (wave = 32 blocks) splits fine.
  const AtomPlan small = atomizer_.Plan(k, k.LaunchSignature(), FromMillis(10), 2, spec_);
  EXPECT_TRUE(small.atomized);
  EXPECT_LE(small.NumAtoms(), 10u);  // 320/32 = 10 wave-sized atoms max
}

TEST_F(AtomizerTest, DisabledByConfig) {
  LithosConfig cfg;
  cfg.enable_atomization = false;
  KernelAtomizer atomizer(cfg);
  const KernelDesc k = Kernel(100000);
  const AtomPlan plan = atomizer.Plan(k, k.LaunchSignature(), FromMillis(50), 4, spec_);
  EXPECT_FALSE(plan.atomized);
}

TEST_F(AtomizerTest, OverheadModelChargesPreludeAndEarlyExit) {
  const KernelDesc k = Kernel(10000);
  const DurationNs ovh = atomizer_.AtomOverheadNs(k, 1000);
  // prelude + 9000 skipped blocks * early-exit tax
  const DurationNs expected =
      KernelAtomizer::kPreludeLaunchOverhead +
      static_cast<DurationNs>(KernelAtomizer::kEarlyExitNsPerBlock * 9000);
  EXPECT_EQ(ovh, expected);
}

TEST_F(AtomizerTest, AdaptiveAtomDurationDoublesOnHighOverhead) {
  const KernelDesc k = Kernel(100000);
  const uint64_t sig = k.LaunchSignature();
  const DurationNs base = atomizer_.EffectiveAtomDuration(sig);
  // 30% overhead: way above the 10% bound.
  atomizer_.RecordOverhead(sig, FromMillis(7), FromMillis(3));
  EXPECT_EQ(atomizer_.EffectiveAtomDuration(sig), 2 * base);
  // Low overhead afterwards: no further change.
  atomizer_.RecordOverhead(sig, FromMillis(10), FromMicros(10));
  EXPECT_EQ(atomizer_.EffectiveAtomDuration(sig), 2 * base);
}

TEST_F(AtomizerTest, AdaptiveScaleIsPerKernel) {
  const KernelDesc a = Kernel(1000);
  const KernelDesc b = Kernel(2000);
  atomizer_.RecordOverhead(a.LaunchSignature(), FromMillis(1), FromMillis(1));
  EXPECT_GT(atomizer_.EffectiveAtomDuration(a.LaunchSignature()),
            atomizer_.EffectiveAtomDuration(b.LaunchSignature()));
}

// Property (Algorithm 1 correctness): for any blocks/duration/allocation, the
// atom ranges are non-empty, contiguous, non-overlapping, and cover [0, B)
// exactly once.
// GoogleTest names each case by dumping the parameter's bytes, so the padding
// is spelled out as zeroed fields: otherwise the names carry stack garbage and
// differ from build to build.
struct AtomCase {
  AtomCase(uint32_t b, double ms, int g) : blocks(b), predicted_ms(ms), granted(g) {}
  uint32_t blocks;
  uint32_t pad0 = 0;
  double predicted_ms;
  int granted;
  int pad1 = 0;
};

class AtomPartitionTest : public ::testing::TestWithParam<AtomCase> {};

TEST_P(AtomPartitionTest, RangesPartitionGrid) {
  const AtomCase& c = GetParam();
  const GpuSpec spec = GpuSpec::A100();
  LithosConfig cfg;
  KernelAtomizer atomizer(cfg);
  const KernelDesc k = Kernel(c.blocks);
  const AtomPlan plan = atomizer.Plan(k, k.LaunchSignature(), FromMillis(c.predicted_ms), c.granted, spec);

  ASSERT_GE(plan.NumAtoms(), 1u);
  uint32_t expect_lo = 0;
  for (size_t i = 0; i < plan.NumAtoms(); ++i) {
    const Atom atom = plan.At(i);
    ASSERT_EQ(atom.block_lo, expect_lo);
    ASSERT_GT(atom.block_hi, atom.block_lo);  // non-empty
    expect_lo = atom.block_hi;
  }
  ASSERT_EQ(expect_lo, c.blocks);  // full coverage, no overlap by construction

  // Atom sizes are balanced within one block.
  uint32_t mn = UINT32_MAX, mx = 0;
  for (size_t i = 0; i < plan.NumAtoms(); ++i) {
    mn = std::min(mn, plan.At(i).NumBlocks());
    mx = std::max(mx, plan.At(i).NumBlocks());
  }
  EXPECT_LE(mx - mn, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AtomPartitionTest,
    ::testing::Values(AtomCase{1, 0.1, 54}, AtomCase{2, 100, 1}, AtomCase{63, 5, 1},
                      AtomCase{64, 8, 2}, AtomCase{1000, 20, 4}, AtomCase{3360, 12, 11},
                      AtomCase{100000, 500, 54}, AtomCase{7, 1000, 1},
                      AtomCase{999983, 64, 27}));

// Differential test: AtomPlan::At(i) computes each atom arithmetically; the
// reference builds the atoms one by one into a vector, as Plan once did. Every
// atom of every plan over blocks 1..4096 plus larger primes and powers of two,
// times every atom count 1..32 (capped at the block count as Plan caps it),
// must match in range and overhead.
std::vector<Atom> ReferenceAtoms(const KernelAtomizer& atomizer, const KernelDesc& kernel,
                                 uint32_t n) {
  const uint32_t blocks = kernel.NumBlocks();
  std::vector<Atom> atoms;
  if (n <= 1) {
    atoms.push_back(Atom{0, blocks, KernelAtomizer::kLaunchOverhead});
    return atoms;
  }
  const uint32_t base = blocks / n;
  const uint32_t extra = blocks % n;
  uint32_t lo = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t size = base + (i < extra ? 1 : 0);
    Atom atom;
    atom.block_lo = lo;
    atom.block_hi = lo + size;
    atom.overhead_ns = atomizer.AtomOverheadNs(kernel, size);
    atoms.push_back(atom);
    lo += size;
  }
  return atoms;
}

TEST(AtomPlanDifferentialTest, AtMatchesVectorBuildingLoop) {
  LithosConfig cfg;
  const KernelAtomizer atomizer(cfg);
  std::vector<uint32_t> grid;
  for (uint32_t b = 1; b <= 4096; ++b) {
    grid.push_back(b);
  }
  for (uint32_t b : {4099u, 8191u, 65521u, 131071u, 999983u, 2147483647u, 4294967291u}) {
    grid.push_back(b);  // primes
  }
  for (uint32_t shift = 13; shift <= 31; ++shift) {
    grid.push_back(1u << shift);
  }
  size_t compared = 0;
  for (uint32_t blocks : grid) {
    const KernelDesc k = Kernel(blocks);
    for (uint32_t n = 1; n <= static_cast<uint32_t>(KernelAtomizer::kMaxAtomsPerKernel) && n <= blocks;
         ++n) {
      AtomPlan plan;
      plan.blocks = blocks;
      plan.count = n;
      plan.atomized = n > 1;
      const std::vector<Atom> expected = ReferenceAtoms(atomizer, k, n);
      ASSERT_EQ(plan.NumAtoms(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        const Atom got = plan.At(i);
        ASSERT_EQ(got.block_lo, expected[i].block_lo) << blocks << " blocks, " << n << " atoms, #" << i;
        ASSERT_EQ(got.block_hi, expected[i].block_hi) << blocks << " blocks, " << n << " atoms, #" << i;
        ASSERT_EQ(got.overhead_ns, expected[i].overhead_ns)
            << blocks << " blocks, " << n << " atoms, #" << i;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 2000000u);
}

}  // namespace
}  // namespace lithos
