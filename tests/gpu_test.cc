// Unit + property tests for the GPU hardware model: topology, DVFS state
// table, kernel occupancy, and the ground-truth latency law.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/gpu/gpu_spec.h"
#include "src/gpu/kernel.h"

namespace lithos {
namespace {

TEST(GpuSpecTest, A100Topology) {
  const GpuSpec spec = GpuSpec::A100();
  EXPECT_EQ(spec.NumGpcs(), 7);
  EXPECT_EQ(spec.TotalTpcs(), 54);
  EXPECT_EQ(spec.TotalSms(), 108);
  EXPECT_EQ(spec.max_mhz, 1410);
}

TEST(GpuSpecTest, H100TopologyMatchesPaperSection21) {
  const GpuSpec spec = GpuSpec::H100();
  EXPECT_EQ(spec.NumGpcs(), 8);
  EXPECT_EQ(spec.sms_per_tpc, 2);
  EXPECT_EQ(spec.cores_per_sm, 128);
}

TEST(GpuSpecTest, GpcTpcRangesPartitionDevice) {
  const GpuSpec spec = GpuSpec::A100();
  int covered = 0;
  int prev_hi = 0;
  for (int g = 0; g < spec.NumGpcs(); ++g) {
    const auto [lo, hi] = spec.GpcTpcRange(g);
    EXPECT_EQ(lo, prev_hi);
    EXPECT_GT(hi, lo);
    covered += hi - lo;
    prev_hi = hi;
  }
  EXPECT_EQ(covered, spec.TotalTpcs());
}

TEST(GpuSpecTest, SupportedFrequenciesDescendAndClamp) {
  const GpuSpec spec = GpuSpec::A100();
  const auto freqs = spec.SupportedFrequenciesMhz();
  EXPECT_EQ(freqs.front(), spec.max_mhz);
  EXPECT_GE(freqs.back(), spec.min_mhz);
  for (size_t i = 1; i < freqs.size(); ++i) {
    EXPECT_EQ(freqs[i - 1] - freqs[i], spec.mhz_step);
  }
  EXPECT_EQ(spec.ClampFrequency(9999), spec.max_mhz);
  EXPECT_EQ(spec.ClampFrequency(100), spec.min_mhz);
  // An off-grid value rounds down to a supported state.
  const int clamped = spec.ClampFrequency(1399);
  EXPECT_LE(clamped, 1399);
  EXPECT_EQ((spec.max_mhz - clamped) % spec.mhz_step, 0);
}

TEST(TpcMaskTest, RangeAndFirst) {
  const TpcMask mask = TpcRange(3, 7);
  EXPECT_EQ(mask.count(), 4u);
  EXPECT_TRUE(mask.test(3));
  EXPECT_TRUE(mask.test(6));
  EXPECT_FALSE(mask.test(7));
  EXPECT_EQ(FirstTpc(mask), 3);
  EXPECT_EQ(FirstTpc(TpcMask{}), -1);
}

// Reference: one test() per index.
std::vector<int> NaiveSetTpcs(const TpcMask& mask) {
  std::vector<int> tpcs;
  for (int t = 0; t < kMaxTpcs; ++t) {
    if (mask.test(t)) {
      tpcs.push_back(t);
    }
  }
  return tpcs;
}

std::vector<int> WordWiseSetTpcs(const TpcMask& mask) {
  std::vector<int> tpcs;
  ForEachTpc(mask, [&](int t) { tpcs.push_back(t); });
  return tpcs;
}

// The word-wise helpers must agree with a bit loop on both sides of the
// 64-bit word boundary (the H100's 68 TPCs cross it).
TEST(TpcMaskTest, WordWiseHelpersMatchBitLoopAcrossWordBoundary) {
  for (int lo = 0; lo <= kMaxTpcs; ++lo) {
    for (int hi = lo; hi <= kMaxTpcs; ++hi) {
      TpcMask naive;
      for (int t = lo; t < hi; ++t) {
        naive.set(t);
      }
      const TpcMask range = TpcRange(lo, hi);
      ASSERT_EQ(range, naive) << "[" << lo << ", " << hi << ")";
      ASSERT_EQ(FirstTpc(range), hi > lo ? lo : -1);
      ASSERT_EQ(WordWiseSetTpcs(range), NaiveSetTpcs(range));
    }
  }

  Rng rng(0x5EED);
  for (int i = 0; i < 2000; ++i) {
    // Random density; every third mask fills only the low (i % 6 == 3) or
    // the high (i % 6 == 0) word, so each word is sometimes empty.
    const double density = rng.Uniform(0.0, 1.0);
    const int span = i % 3 == 0 ? 64 : kMaxTpcs;
    const int offset = i % 6 == 0 ? 64 : 0;
    TpcMask mask;
    for (int t = 0; t < span; ++t) {
      if (rng.Uniform(0.0, 1.0) < density) {
        mask.set(offset + t);
      }
    }
    const std::vector<int> naive = NaiveSetTpcs(mask);
    ASSERT_EQ(WordWiseSetTpcs(mask), naive);
    ASSERT_EQ(FirstTpc(mask), naive.empty() ? -1 : naive.front());
  }
}

TEST(KernelTest, OccupancyLimitedByThreads) {
  const GpuSpec spec = GpuSpec::A100();
  KernelDesc k;
  k.threads_per_block = 1024;
  k.regs_per_thread = 16;  // register limit: 65536/16384 = 4/SM (not binding)
  // Thread limit: 2048/1024 = 2 blocks per SM -> 4 per TPC.
  EXPECT_EQ(k.BlocksPerTpc(spec), 4);
}

TEST(KernelTest, OccupancyLimitedByRegisters) {
  const GpuSpec spec = GpuSpec::A100();
  KernelDesc k;
  k.threads_per_block = 128;
  k.regs_per_thread = 255;  // 32640 regs/block -> 2 blocks/SM
  EXPECT_EQ(k.BlocksPerTpc(spec), 4);
}

TEST(KernelTest, OccupancyLimitedBySharedMemory) {
  const GpuSpec spec = GpuSpec::A100();
  KernelDesc k;
  k.threads_per_block = 64;
  k.regs_per_thread = 16;
  k.smem_per_block_bytes = 100 * 1024;  // only 1 block/SM fits in 164KB
  EXPECT_EQ(k.BlocksPerTpc(spec), 2);
}

TEST(KernelTest, MaxUsefulTpcsFromBlockCount) {
  const GpuSpec spec = GpuSpec::A100();
  KernelDesc k;
  k.grid_x = 32;
  k.threads_per_block = 256;  // 8/SM -> 16/TPC
  EXPECT_EQ(k.MaxUsefulTpcs(spec), 2);  // ceil(32/16)
  k.grid_x = 10000;
  EXPECT_EQ(k.MaxUsefulTpcs(spec), spec.TotalTpcs());
}

TEST(KernelTest, LatencyFollowsInverseScalingLaw) {
  const GpuSpec spec = GpuSpec::A100();
  KernelDesc k;
  k.grid_x = 100000;  // never occupancy-capped in this range
  k.threads_per_block = 256;
  k.work_m_ns = 54'000'000;
  k.serial_b_ns = 1'000'000;
  k.freq_sensitivity = 0.0;
  EXPECT_EQ(k.LatencyNs(spec, 54, spec.max_mhz), 2'000'000);
  EXPECT_EQ(k.LatencyNs(spec, 27, spec.max_mhz), 3'000'000);
  EXPECT_EQ(k.LatencyNs(spec, 1, spec.max_mhz), 55'000'000);
}

TEST(KernelTest, OccupancyCapsSpeedup) {
  const GpuSpec spec = GpuSpec::A100();
  KernelDesc k;
  k.grid_x = 32;  // useful = 2 TPCs
  k.threads_per_block = 256;
  k.work_m_ns = 1'000'000;
  k.serial_b_ns = 0;
  // More than 2 TPCs gives no further speedup.
  EXPECT_EQ(k.LatencyNs(spec, 2, spec.max_mhz), k.LatencyNs(spec, 54, spec.max_mhz));
  EXPECT_GT(k.LatencyNs(spec, 1, spec.max_mhz), k.LatencyNs(spec, 2, spec.max_mhz));
}

TEST(KernelTest, FrequencySlowdownMatchesSensitivity) {
  const GpuSpec spec = GpuSpec::A100();
  KernelDesc compute;
  compute.freq_sensitivity = 1.0;
  // Half clock => 2x latency for fully compute-bound.
  EXPECT_NEAR(compute.FreqFactor(spec, spec.max_mhz / 2), 2.0, 1e-9);

  KernelDesc memory;
  memory.freq_sensitivity = 0.0;
  EXPECT_NEAR(memory.FreqFactor(spec, spec.max_mhz / 2), 1.0, 1e-9);

  KernelDesc mixed;
  mixed.freq_sensitivity = 0.5;
  EXPECT_NEAR(mixed.FreqFactor(spec, spec.max_mhz / 2), 1.5, 1e-9);
}

TEST(KernelTest, RangeLatencyScalesWithFraction) {
  const GpuSpec spec = GpuSpec::A100();
  KernelDesc k;
  k.grid_x = 6400;
  k.threads_per_block = 256;
  k.work_m_ns = 10'000'000;
  k.serial_b_ns = 100'000;
  const DurationNs full = k.RangeLatencyNs(spec, 0, 6400, 54, spec.max_mhz);
  const DurationNs half = k.RangeLatencyNs(spec, 0, 3200, 54, spec.max_mhz);
  // Half the blocks: parallel part halves, serial floor b stays.
  EXPECT_LT(half, full);
  EXPECT_GT(2 * half, full);  // because b does not halve
}

TEST(KernelTest, SignatureDistinguishesShapes) {
  KernelDesc a, b;
  a.name = b.name = "conv";
  a.grid_x = 64;
  b.grid_x = 128;
  EXPECT_NE(a.LaunchSignature(), b.LaunchSignature());
  b.grid_x = 64;
  EXPECT_EQ(a.LaunchSignature(), b.LaunchSignature());
  b.name = "gemm";
  EXPECT_NE(a.LaunchSignature(), b.LaunchSignature());
}

TEST(KernelTest, MakeKernelCalibratesFullDeviceLatency) {
  const GpuSpec spec = GpuSpec::A100();
  const KernelDesc k = MakeKernel("k", 5000, FromMicros(800), 0.9, 0.5, spec);
  EXPECT_NEAR(static_cast<double>(k.LatencyNs(spec, spec.TotalTpcs(), spec.max_mhz)),
              static_cast<double>(FromMicros(800)), FromMicros(800) * 0.01);
}

// Property sweep: latency is non-increasing in TPCs and non-decreasing as
// frequency drops, across a grid of kernel shapes.
// GoogleTest names each case by dumping the parameter's bytes, so the padding
// is spelled out as a zeroed field: otherwise the names carry stack garbage and
// differ from build to build.
struct LatencyLawCase {
  LatencyLawCase(uint32_t b, double p, double s) : blocks(b), parallel(p), sens(s) {}
  uint32_t blocks;
  uint32_t pad = 0;
  double parallel;
  double sens;
};

class LatencyLawTest : public ::testing::TestWithParam<LatencyLawCase> {};

TEST_P(LatencyLawTest, MonotoneInTpcsAndFrequency) {
  const GpuSpec spec = GpuSpec::A100();
  const LatencyLawCase& c = GetParam();
  const KernelDesc k = MakeKernel("k", c.blocks, FromMicros(500), c.parallel, c.sens, spec);

  DurationNs prev = kTimeInfinity;
  for (int t = 1; t <= spec.TotalTpcs(); ++t) {
    const DurationNs lat = k.LatencyNs(spec, t, spec.max_mhz);
    ASSERT_LE(lat, prev) << "blocks=" << c.blocks << " t=" << t;
    prev = lat;
  }
  DurationNs prev_f = 0;
  for (int f = spec.max_mhz; f >= spec.min_mhz; f -= spec.mhz_step) {
    const DurationNs lat = k.LatencyNs(spec, spec.TotalTpcs(), f);
    ASSERT_GE(lat, prev_f);
    prev_f = lat;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LatencyLawTest,
    ::testing::Values(LatencyLawCase{1, 0.0, 0.0}, LatencyLawCase{16, 0.5, 0.2},
                      LatencyLawCase{256, 0.9, 0.5}, LatencyLawCase{4096, 0.97, 0.9},
                      LatencyLawCase{100000, 0.99, 1.0}, LatencyLawCase{54, 0.8, 0.7}));

}  // namespace
}  // namespace lithos
