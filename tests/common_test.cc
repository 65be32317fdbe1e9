// Unit tests for src/common: time formatting, deterministic RNG, statistics
// digests, and the least-squares / inverse-scaling fits that the right-sizer
// and DVFS models depend on.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/time.h"

namespace lithos {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(FromMillis(1.5), 1'500'000);
  EXPECT_EQ(FromMicros(2.0), 2'000);
  EXPECT_EQ(FromSeconds(1.0), kSecond);
  EXPECT_DOUBLE_EQ(ToMillis(FromMillis(12.25)), 12.25);
  EXPECT_DOUBLE_EQ(ToSeconds(3 * kSecond), 3.0);
}

TEST(TimeTest, FormatDurationPicksUnit) {
  EXPECT_EQ(FormatDuration(FromSeconds(1.5)), "1.500s");
  EXPECT_EQ(FormatDuration(FromMillis(2.25)), "2.250ms");
  EXPECT_EQ(FormatDuration(FromMicros(7.0)), "7.000us");
  EXPECT_EQ(FormatDuration(500), "500ns");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  StreamingStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(17);
  bool seen_lo = false, seen_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen_lo |= v == 3;
    seen_hi |= v == 7;
  }
  EXPECT_TRUE(seen_lo);
  EXPECT_TRUE(seen_hi);
}

TEST(StreamingStatsTest, Basic) {
  StreamingStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(PercentileDigestTest, ExactPercentiles) {
  PercentileDigest d;
  for (int i = 1; i <= 100; ++i) {
    d.Add(i);
  }
  d.Finalize();
  EXPECT_NEAR(d.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(d.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(d.Median(), 50.5, 1e-9);
  EXPECT_NEAR(d.P99(), 99.01, 0.02);
}

TEST(PercentileDigestTest, FractionAtOrBelow) {
  PercentileDigest d;
  for (int i = 1; i <= 10; ++i) {
    d.Add(i);
  }
  EXPECT_DOUBLE_EQ(d.FractionAtOrBelow(5.0), 0.5);
  EXPECT_DOUBLE_EQ(d.FractionAtOrBelow(100.0), 1.0);
  EXPECT_DOUBLE_EQ(d.FractionAtOrBelow(0.0), 0.0);
}

TEST(PercentileDigestTest, AddAfterFinalizeResorts) {
  PercentileDigest d;
  d.Add(10);
  d.Finalize();
  EXPECT_DOUBLE_EQ(d.Max(), 10);
  d.Add(20);  // un-finalizes
  EXPECT_FALSE(d.finalized());
  d.Finalize();
  EXPECT_DOUBLE_EQ(d.Max(), 20);
}

TEST(PercentileDigestTest, FinalizeIsIdempotentAndClearResets) {
  PercentileDigest d;
  d.Add(3);
  d.Add(1);
  d.Finalize();
  d.Finalize();
  EXPECT_DOUBLE_EQ(d.Percentile(0), 1.0);
  d.Clear();
  EXPECT_FALSE(d.finalized());
  EXPECT_TRUE(d.empty());
}

TEST(PercentileDigestDeathTest, ReadBeforeFinalizeAborts) {
  PercentileDigest d;
  d.Add(1);
  d.Add(2);
  EXPECT_DEATH(d.Percentile(50), "finalized_");
}

TEST(FitLineTest, PerfectLine) {
  const LineFit fit = FitLine({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitLineTest, FlatDegenerate) {
  const LineFit fit = FitLine({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(ScalingFitTest, RecoversInverseLaw) {
  // l = 5400/t + 100.
  std::vector<double> tpcs, lat;
  for (double t : {1.0, 2.0, 6.0, 18.0, 54.0}) {
    tpcs.push_back(t);
    lat.push_back(5400.0 / t + 100.0);
  }
  const ScalingFit fit = FitInverseScaling(tpcs, lat);
  EXPECT_NEAR(fit.m, 5400.0, 1e-6);
  EXPECT_NEAR(fit.b, 100.0, 1e-6);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
  EXPECT_NEAR(fit.Latency(27), 300.0, 1e-6);
}

TEST(ScalingFitTest, ClampsNegativeCoefficients) {
  // Decreasing latency with 1/t (i.e. *faster* with fewer TPCs) would give
  // negative m; physical interpretation demands clamping.
  const ScalingFit fit = FitInverseScaling({1, 2, 4}, {100, 150, 175});
  EXPECT_GE(fit.m, 0.0);
  EXPECT_GE(fit.b, 0.0);
}

TEST(TableTest, RendersAligned) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

// Property sweep: percentile is monotone in q for arbitrary sample sets.
class PercentileMonotoneTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PercentileMonotoneTest, MonotoneInQ) {
  Rng rng(GetParam());
  PercentileDigest d;
  for (int i = 0; i < 500; ++i) {
    d.Add(rng.LogNormal(0, 2));
  }
  d.Finalize();
  double prev = -1;
  for (double q = 0; q <= 100; q += 2.5) {
    const double v = d.Percentile(q);
    ASSERT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace lithos
