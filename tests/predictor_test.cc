// Tests for the online latency predictor (paper §4.7): conservative linear
// scaling for single observations, curve fitting across allocations,
// frequency-sensitivity learning, operator identity, and the misprediction
// accounting used in §7.4.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/latency_predictor.h"
#include "src/core/right_sizer.h"

namespace lithos {
namespace {

class PredictorTest : public ::testing::Test {
 protected:
  PredictorTest() : spec_(GpuSpec::A100()), predictor_(spec_) {}

  static OperatorKey Key(int queue, uint32_t ordinal, uint64_t sig = 0xabc) {
    return OperatorKey{queue, ordinal, sig};
  }

  ExecConditions Cond(double tpcs, int freq = 0, double frac = 1.0) {
    ExecConditions c;
    c.tpcs = tpcs;
    c.freq_mhz = freq == 0 ? spec_.max_mhz : freq;
    c.block_fraction = frac;
    return c;
  }

  GpuSpec spec_;
  LatencyPredictor predictor_;
};

TEST_F(PredictorTest, UnseenOperatorUsesDefault) {
  const DurationNs pred = predictor_.Predict(Key(1, 0), Cond(54));
  EXPECT_EQ(pred, LatencyPredictor::kDefaultLatency);
  EXPECT_FALSE(predictor_.HasSeen(Key(1, 0)));
}

TEST_F(PredictorTest, UnseenOperatorFallsBackToQueueMean) {
  predictor_.Record(Key(1, 0), Cond(54), FromMillis(4));
  // A different operator on the same queue inherits the queue prior.
  const DurationNs pred = predictor_.Predict(Key(1, 1), Cond(54));
  EXPECT_NEAR(static_cast<double>(pred), static_cast<double>(FromMillis(4)),
              static_cast<double>(FromMillis(4)) * 0.05);
}

TEST_F(PredictorTest, RepeatObservationConverges) {
  const OperatorKey key = Key(1, 3);
  for (int i = 0; i < 20; ++i) {
    predictor_.Record(key, Cond(54), FromMicros(250));
  }
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(key, Cond(54))),
              static_cast<double>(FromMicros(250)), FromMicros(5));
}

TEST_F(PredictorTest, ConservativeLinearScalingFromSingleAllocation) {
  // Paper: "if an atom was previously executed with a TPC allocation of
  // 100%, it fits a linear trend to estimate the duration when given half".
  const OperatorKey key = Key(2, 0);
  predictor_.Record(key, Cond(54), FromMillis(1));
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(key, Cond(27))),
              static_cast<double>(FromMillis(2)), FromMillis(2) * 0.05);
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(key, Cond(13.5))),
              static_cast<double>(FromMillis(4)), FromMillis(4) * 0.05);
}

TEST_F(PredictorTest, FitsInverseCurveWithTwoAllocations) {
  // Ground truth: l(t) = 54ms/t + 1ms.
  const OperatorKey key = Key(3, 0);
  auto truth = [](double t) {
    return static_cast<DurationNs>(FromMillis(54) / t + FromMillis(1));
  };
  predictor_.Record(key, Cond(54), truth(54));
  predictor_.Record(key, Cond(1), truth(1));
  EXPECT_EQ(predictor_.DistinctTpcPoints(key), 2);

  // Interpolation at 27 TPCs: 3ms. The linear assumption would give 2x the
  // full-device latency (4ms); the fit does better.
  const DurationNs pred = predictor_.Predict(key, Cond(27));
  EXPECT_NEAR(static_cast<double>(pred), static_cast<double>(truth(27)), FromMicros(100));
}

TEST_F(PredictorTest, GetScalingFitExposesCoefficients) {
  const OperatorKey key = Key(3, 1);
  predictor_.Record(key, Cond(54), static_cast<DurationNs>(FromMillis(54) / 54 + FromMillis(2)));
  ScalingFit fit;
  EXPECT_FALSE(predictor_.GetScalingFit(key, &fit));  // one point only
  predictor_.Record(key, Cond(1), static_cast<DurationNs>(FromMillis(54) + FromMillis(2)));
  ASSERT_TRUE(predictor_.GetScalingFit(key, &fit));
  EXPECT_NEAR(fit.m, static_cast<double>(FromMillis(54)), FromMillis(54) * 0.05);
  EXPECT_NEAR(fit.b, static_cast<double>(FromMillis(2)), FromMillis(2) * 0.1);
}

TEST_F(PredictorTest, BlockFractionScalesPrediction) {
  const OperatorKey key = Key(4, 0);
  predictor_.Record(key, Cond(54), FromMillis(10));
  const DurationNs half = predictor_.Predict(key, Cond(54, 0, 0.5));
  EXPECT_NEAR(static_cast<double>(half), static_cast<double>(FromMillis(5)),
              FromMillis(5) * 0.05);
}

TEST_F(PredictorTest, AtomObservationsCanonicaliseByFraction) {
  const OperatorKey key = Key(4, 1);
  // Observe quarter-grid atoms taking 1ms each; the whole kernel should be
  // predicted near 4ms.
  for (int i = 0; i < 8; ++i) {
    predictor_.Record(key, Cond(54, 0, 0.25), FromMillis(1));
  }
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(key, Cond(54))),
              static_cast<double>(FromMillis(4)), FromMillis(4) * 0.05);
}

TEST_F(PredictorTest, LearnsFrequencySensitivity) {
  const OperatorKey key = Key(5, 0);
  // Memory-bound ground truth: latency does not change with frequency.
  predictor_.Record(key, Cond(54, spec_.max_mhz), FromMillis(2));
  EXPECT_LT(predictor_.FreqSensitivity(key), 0);  // unknown yet
  predictor_.Record(key, Cond(54, 705), FromMillis(2));
  EXPECT_NEAR(predictor_.FreqSensitivity(key), 0.0, 0.05);

  // Compute-bound operator: half clock, double latency.
  const OperatorKey ckey = Key(5, 1);
  predictor_.Record(ckey, Cond(54, spec_.max_mhz), FromMillis(2));
  predictor_.Record(ckey, Cond(54, 705), FromMillis(4));
  EXPECT_NEAR(predictor_.FreqSensitivity(ckey), 1.0, 0.05);
}

TEST_F(PredictorTest, DistinctOperatorsDoNotAlias) {
  // Same signature, different ordinal: the paper's Conv-reused-across-layers
  // pitfall.
  predictor_.Record(Key(6, 0, 0x11), Cond(54), FromMillis(1));
  predictor_.Record(Key(6, 1, 0x11), Cond(54), FromMillis(9));
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(Key(6, 0, 0x11), Cond(54))),
              static_cast<double>(FromMillis(1)), FromMillis(1) * 0.1);
  EXPECT_NEAR(static_cast<double>(predictor_.Predict(Key(6, 1, 0x11), Cond(54))),
              static_cast<double>(FromMillis(9)), FromMillis(9) * 0.1);
}

TEST_F(PredictorTest, MispredictionAccounting) {
  const OperatorKey key = Key(7, 0);
  // Error below 50us: not a misprediction.
  predictor_.Record(key, Cond(54), FromMicros(100), /*predicted=*/FromMicros(120));
  // Error above 50us: misprediction.
  predictor_.Record(key, Cond(54), FromMicros(100), /*predicted=*/FromMicros(400));
  // No prediction supplied: not counted at all.
  predictor_.Record(key, Cond(54), FromMicros(100));

  predictor_.FinalizeStats();
  const PredictionStats& stats = predictor_.stats();
  EXPECT_EQ(stats.predictions, 2u);
  EXPECT_EQ(stats.mispredictions, 1u);
  EXPECT_NEAR(stats.MispredictionRate(), 0.5, 1e-9);
  EXPECT_NEAR(stats.abs_error_us.Max(), 300.0, 1.0);

  predictor_.ResetStats();
  EXPECT_EQ(predictor_.stats().predictions, 0u);
}

// Property: predictions are always positive and monotonically non-increasing
// in the TPC allocation once a model exists.
class PredictorMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(PredictorMonotoneTest, NonIncreasingInTpcs) {
  const GpuSpec spec = GpuSpec::A100();
  LatencyPredictor predictor(spec);
  const OperatorKey key{1, 0, 42};
  const int points = GetParam();
  for (int i = 0; i < points; ++i) {
    const double t = 1 + i * 53.0 / std::max(1, points - 1);
    ExecConditions c;
    c.tpcs = t;
    c.freq_mhz = spec.max_mhz;
    predictor.Record(key, c, static_cast<DurationNs>(FromMillis(10) / t + FromMicros(200)));
  }
  DurationNs prev = kTimeInfinity;
  for (int t = 1; t <= 54; ++t) {
    ExecConditions c;
    c.tpcs = t;
    c.freq_mhz = spec.max_mhz;
    const DurationNs p = predictor.Predict(key, c);
    ASSERT_GT(p, 0);
    ASSERT_LE(p, prev);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(PointCounts, PredictorMonotoneTest, ::testing::Values(1, 2, 3, 5, 10));

// The per-kernel path looks each operator up once (Find) and then calls the
// model forms. Over seeded random observation streams (TPC allocations that
// share and split buckets, clocks below the maximum, partial-grid atoms) a
// predictor fed through held models must predict, right-size and report
// sensitivity bit for bit like one fed through keys.
TEST(PredictorHandleTest, ModelCallsMatchKeyedCalls) {
  const GpuSpec spec = GpuSpec::A100();
  LithosConfig cfg;
  cfg.enable_rightsizing = true;
  KernelDesc kernel;
  kernel.name = "k";
  kernel.grid_x = 20000;
  kernel.threads_per_block = 256;
  const int freqs[] = {spec.max_mhz, 1200, 900, 705};
  const double fractions[] = {1.0, 0.5, 0.25, 1.0 / 3.0};
  int fitted = 0;
  int sensitive = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    LatencyPredictor keyed(spec);
    LatencyPredictor held(spec);
    const RightSizer keyed_sizer(spec, cfg, &keyed);
    const RightSizer held_sizer(spec, cfg, &held);
    std::vector<OperatorKey> keys;
    for (int queue = 1; queue <= 3; ++queue) {
      for (uint32_t ordinal = 0; ordinal < 4; ++ordinal) {
        keys.push_back(OperatorKey{queue, ordinal, 0x5eed0000u + ordinal});
      }
    }
    std::vector<LatencyPredictor::OperatorModel*> models(keys.size(), nullptr);
    Rng rng(seed);
    auto random_cond = [&] {
      ExecConditions c;
      c.tpcs = static_cast<double>(rng.UniformInt(1, 54)) + (rng.NextDouble() < 0.3 ? 0.4 : 0.0);
      c.freq_mhz = freqs[rng.UniformInt(0, 3)];
      c.block_fraction = fractions[rng.UniformInt(0, 3)];
      return c;
    };
    for (int step = 0; step < 3000; ++step) {
      const size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1));
      const OperatorKey& key = keys[i];
      ASSERT_EQ(held.Find(key), models[i]);
      const ExecConditions probe = random_cond();
      ASSERT_EQ(keyed.Predict(key, probe), held.Predict(key, models[i], probe)) << "step " << step;
      const int available = static_cast<int>(rng.UniformInt(1, 54));
      ASSERT_EQ(keyed_sizer.ChooseTpcs(key, kernel, available),
                held_sizer.ChooseTpcs(models[i], kernel, available))
          << "step " << step;
      ASSERT_EQ(keyed.FreqSensitivity(key), LatencyPredictor::FreqSensitivity(models[i]))
          << "step " << step;

      const ExecConditions cond = random_cond();
      const DurationNs observed = rng.UniformInt(FromMicros(20), FromMillis(9));
      const DurationNs predicted = rng.NextDouble() < 0.8 ? rng.UniformInt(1, FromMillis(9)) : 0;
      keyed.Record(key, cond, observed, predicted);
      models[i] = held.Record(key, models[i], cond, observed, predicted);
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      fitted += LatencyPredictor::DistinctTpcPoints(models[i]) >= 2 ? 1 : 0;
      sensitive += LatencyPredictor::FreqSensitivity(models[i]) >= 0 ? 1 : 0;
    }
    EXPECT_EQ(keyed.stats().predictions, held.stats().predictions);
    EXPECT_EQ(keyed.stats().mispredictions, held.stats().mispredictions);
  }
  // The streams exercised the fitted curve and learned sensitivities.
  EXPECT_GT(fitted, 0);
  EXPECT_GT(sensitive, 0);
}

// A held model stays valid while thousands of other operators are inserted
// (the map rehashes several times): models are never erased or moved.
TEST(PredictorHandleTest, HeldModelSurvivesRehash) {
  const GpuSpec spec = GpuSpec::A100();
  LatencyPredictor predictor(spec);
  ExecConditions full;
  full.tpcs = 54;
  full.freq_mhz = spec.max_mhz;
  const OperatorKey key{1, 0, 0xfeed};
  LatencyPredictor::OperatorModel* model =
      predictor.Record(key, nullptr, full, FromMillis(1), /*predicted=*/0);
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(predictor.Find(key), model);
  for (uint32_t i = 0; i < 4096; ++i) {
    predictor.Record(OperatorKey{2 + static_cast<int>(i % 7), i, 0xbeef + i}, full,
                     FromMicros(100) + i);
  }
  EXPECT_EQ(predictor.Find(key), model);
  ExecConditions half = full;
  half.tpcs = 27;
  EXPECT_EQ(predictor.Record(key, model, half, FromMillis(2), /*predicted=*/0), model);
  EXPECT_EQ(LatencyPredictor::DistinctTpcPoints(model), 2);
  EXPECT_EQ(predictor.Predict(key, model, half), predictor.Predict(key, half));
}


// The operator index against a hash-map oracle. Every operator the oracle
// knows has its own one-operator predictor fed the same observations, so the
// model the index returns for a key must be the one Record handed out and
// must predict and fit exactly like the oracle's. Positions mix dense small
// queues and ordinals with sparse, large ones; some hold 16 signatures.
TEST(PredictorIndexTest, MatchesHashMapOracle) {
  struct KeyHash {
    size_t operator()(const OperatorKey& k) const {
      return std::hash<uint64_t>{}(k.signature ^ (static_cast<uint64_t>(k.queue_id) << 32) ^
                                   k.ordinal);
    }
  };
  struct OracleEntry {
    LatencyPredictor::OperatorModel* model = nullptr;
    std::unique_ptr<LatencyPredictor> alone;
  };
  const GpuSpec spec = GpuSpec::A100();
  const OperatorKey alone_key{0, 0, 0};
  const int queues[] = {0, 1, 2, 3, 17, 4096, 60000};
  const uint32_t ordinals[] = {0, 1, 2, 3, 4, 5, 9, 31, 4096, 50000};
  const int freqs[] = {spec.max_mhz, 1200, 705};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    LatencyPredictor predictor(spec);
    std::unordered_map<OperatorKey, OracleEntry, KeyHash> oracle;
    // The key pool: 1-4 signatures per position, 16 at about one in five.
    std::vector<OperatorKey> keys;
    for (const int queue : queues) {
      for (const uint32_t ordinal : ordinals) {
        const int64_t n = rng.UniformInt(0, 4) == 0 ? 16 : rng.UniformInt(1, 4);
        for (int64_t i = 0; i < n; ++i) {
          keys.push_back(OperatorKey{queue, ordinal, rng.NextU64()});
        }
      }
    }
    auto random_cond = [&] {
      ExecConditions c;
      c.tpcs = static_cast<double>(rng.UniformInt(1, 54));
      c.freq_mhz = freqs[rng.UniformInt(0, 2)];
      c.block_fraction = rng.UniformInt(0, 1) == 0 ? 1.0 : 0.5;
      return c;
    };
    for (int step = 0; step < 20000; ++step) {
      const OperatorKey& key =
          keys[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
      const auto it = oracle.find(key);
      LatencyPredictor::OperatorModel* model = predictor.Find(key);
      ScalingFit fit;
      if (it == oracle.end()) {
        ASSERT_EQ(model, nullptr) << "step " << step;
        ASSERT_FALSE(predictor.GetScalingFit(key, &fit));
      } else {
        ASSERT_EQ(model, it->second.model) << "step " << step;
        const ExecConditions probe = random_cond();
        ASSERT_EQ(predictor.Predict(key, probe), it->second.alone->Predict(alone_key, probe));
        ScalingFit want;
        const bool fitted = it->second.alone->GetScalingFit(alone_key, &want);
        ASSERT_EQ(predictor.GetScalingFit(key, &fit), fitted);
        if (fitted) {
          ASSERT_EQ(fit.m, want.m);
          ASSERT_EQ(fit.b, want.b);
          ASSERT_EQ(fit.n, want.n);
        }
      }
      if (rng.UniformInt(0, 2) == 0) {
        continue;  // a lookup only
      }
      const ExecConditions cond = random_cond();
      const DurationNs observed = FromMicros(50) + rng.UniformInt(0, 5000) * 1000;
      // Observations go through the held model, the key, or a null handle,
      // which must find the operator's model when it has one.
      switch (rng.UniformInt(0, 2)) {
        case 0:
          model = predictor.Record(key, model, cond, observed, /*predicted=*/0);
          break;
        case 1:
          predictor.Record(key, cond, observed);
          model = predictor.Find(key);
          break;
        default:
          model = predictor.Record(key, nullptr, cond, observed, /*predicted=*/0);
          break;
      }
      ASSERT_NE(model, nullptr);
      OracleEntry& entry = oracle[key];
      if (entry.alone == nullptr) {
        entry.model = model;
        entry.alone = std::make_unique<LatencyPredictor>(spec);
      }
      ASSERT_EQ(model, entry.model) << "step " << step;
      entry.alone->Record(alone_key, cond, observed);
    }
    // Every model handed out survived the index's growth in place.
    EXPECT_EQ(predictor.num_operators(), oracle.size());
    for (const auto& [key, entry] : oracle) {
      ASSERT_EQ(predictor.Find(key), entry.model);
    }
  }
}

// A lookup on a negative queue id, or on a queue, ordinal or signature never
// recorded, misses; the keyed calls then fall back to the priors.
TEST(PredictorIndexTest, NegativeAndUnseenKeysMiss) {
  const GpuSpec spec = GpuSpec::A100();
  LatencyPredictor predictor(spec);
  ExecConditions full;
  full.tpcs = 54;
  full.freq_mhz = spec.max_mhz;
  predictor.Record(OperatorKey{2, 3, 7}, full, FromMillis(1));
  const OperatorKey misses[] = {
      {-1, 3, 7}, {std::numeric_limits<int>::min(), 3, 7}, {0, 3, 7},          {3, 3, 7},
      {2, 2, 7},  {2, 4, 7},                               {2, 0xffffffffu, 7}, {2, 3, 8},
      {1 << 30, 0, 7}};
  for (const OperatorKey& key : misses) {
    EXPECT_EQ(predictor.Find(key), nullptr);
    EXPECT_FALSE(predictor.HasSeen(key));
    ScalingFit fit;
    EXPECT_FALSE(predictor.GetScalingFit(key, &fit));
  }
  EXPECT_EQ(predictor.Predict(OperatorKey{-1, 3, 7}, full), LatencyPredictor::kDefaultLatency);
  EXPECT_EQ(predictor.Predict(OperatorKey{2, 3, 8}, full), FromMillis(1));  // queue prior
  EXPECT_EQ(predictor.num_operators(), 1u);
}

// Find compares signatures only at its own (queue, ordinal) position, in
// first-seen order: a hit on the i-th costs i + 1 comparisons, a miss costs
// the position's size, and a position past the index costs none.
TEST(PredictorIndexTest, FindScansOnlyItsPosition) {
  const GpuSpec spec = GpuSpec::A100();
  LatencyPredictor predictor(spec);
  ExecConditions full;
  full.tpcs = 54;
  full.freq_mhz = spec.max_mhz;
  for (const OperatorKey& key : {OperatorKey{1, 0, 10}, OperatorKey{1, 0, 11},
                                 OperatorKey{1, 0, 12}, OperatorKey{1, 1, 20},
                                 OperatorKey{2, 0, 30}}) {
    predictor.Record(key, full, FromMicros(100));
  }
  EXPECT_EQ(predictor.num_operators(), 5u);
  auto compares = [&predictor](const OperatorKey& key) {
    const uint64_t before = predictor.signature_compares();
    predictor.Find(key);
    return predictor.signature_compares() - before;
  };
  EXPECT_EQ(compares({1, 0, 10}), 1u);
  EXPECT_EQ(compares({1, 0, 12}), 3u);
  EXPECT_EQ(compares({1, 0, 99}), 3u);
  EXPECT_EQ(compares({1, 1, 20}), 1u);
  EXPECT_EQ(compares({1, 1, 21}), 1u);
  EXPECT_EQ(compares({2, 0, 30}), 1u);
  EXPECT_EQ(compares({1, 2, 10}), 0u);
  EXPECT_EQ(compares({3, 0, 10}), 0u);
  EXPECT_EQ(compares({-1, 0, 10}), 0u);
}

}  // namespace
}  // namespace lithos
