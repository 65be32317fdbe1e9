// Tests for the DVFS manager (paper §4.6): the sequence-based sensitivity
// aggregation, the f_final formula, the learning period, clamping to
// supported states, and the 50ms switch interaction.
#include <gtest/gtest.h>

#include "src/core/dvfs_manager.h"

namespace lithos {
namespace {

class DvfsTest : public ::testing::Test {
 protected:
  DvfsTest() : engine_(&sim_, GpuSpec::A100()) {
    config_.enable_dvfs = true;
    config_.dvfs_slip = 1.10;
    manager_ = std::make_unique<DvfsManager>(&sim_, &engine_, config_);
  }

  void EndLearning(int queue) {
    for (int i = 0; i < DvfsManager::kLearningBatches; ++i) {
      manager_->OnBatchBoundary(queue);
    }
  }

  Simulator sim_;
  ExecutionEngine engine_;
  LithosConfig config_;
  std::unique_ptr<DvfsManager> manager_;
};

TEST_F(DvfsTest, LearningPeriodForcesMaxFrequency) {
  manager_->RecordKernel(1, FromMillis(1), 0.2);
  // One batch short of the learning period: still pinned at f_max.
  for (int i = 1; i < DvfsManager::kLearningBatches; ++i) {
    manager_->OnBatchBoundary(1);
  }
  EXPECT_TRUE(manager_->InLearningPeriod());
  EXPECT_EQ(manager_->ComputeTargetMhz(), engine_.spec().max_mhz);
  manager_->OnBatchBoundary(1);
  EXPECT_FALSE(manager_->InLearningPeriod());
}

TEST_F(DvfsTest, FullyComputeBoundStaysNearMax) {
  manager_->RecordKernel(1, FromMillis(10), 1.0);
  EndLearning(1);
  // S = 1: f = fmax / (1 + 0.1) = 1281 -> clamped to a supported state.
  const int target = manager_->ComputeTargetMhz();
  EXPECT_NEAR(target, 1410.0 / 1.1, 15.0);
}

TEST_F(DvfsTest, FullyMemoryBoundDropsToFloor) {
  manager_->RecordKernel(1, FromMillis(10), 0.0);
  EndLearning(1);
  EXPECT_EQ(manager_->ComputeTargetMhz(), engine_.spec().min_mhz);
}

TEST_F(DvfsTest, MixedSequenceWeightsBySensitivityAndRuntime) {
  // 75% of runtime at s=1, 25% at s=0: S = 0.75.
  manager_->RecordKernel(1, FromMillis(7.5), 1.0);
  manager_->RecordKernel(1, FromMillis(2.5), 0.0);
  EndLearning(1);
  EXPECT_NEAR(manager_->AggregateSensitivity(), 0.75, 1e-9);
  // f = fmax / (1 + 0.1/0.75) = 1243.
  EXPECT_NEAR(manager_->ComputeTargetMhz(), 1410.0 / (1.0 + 0.1 / 0.75), 15.0);
}

TEST_F(DvfsTest, MultipleStreamsAggregateByRuntimeShare) {
  manager_->RecordKernel(1, FromMillis(9), 1.0);   // compute-heavy stream
  manager_->RecordKernel(2, FromMillis(1), 0.0);   // small memory-bound stream
  EndLearning(1);
  EndLearning(2);
  EXPECT_NEAR(manager_->AggregateSensitivity(), 0.9, 1e-9);
}

TEST_F(DvfsTest, UnknownSensitivityAssumedLinear) {
  // Negative sensitivity marks "unknown": conservative s = 1.
  manager_->RecordKernel(1, FromMillis(5), -1.0);
  EndLearning(1);
  EXPECT_NEAR(manager_->AggregateSensitivity(), 1.0, 1e-9);
}

TEST_F(DvfsTest, TargetAlwaysSupportedState) {
  manager_->RecordKernel(1, FromMillis(1), 0.33);
  EndLearning(1);
  const int target = manager_->ComputeTargetMhz();
  const GpuSpec& spec = engine_.spec();
  EXPECT_GE(target, spec.min_mhz);
  EXPECT_LE(target, spec.max_mhz);
  EXPECT_EQ((spec.max_mhz - target) % spec.mhz_step, 0);
}

TEST_F(DvfsTest, PeriodicEvaluationDrivesEngineFrequency) {
  manager_->Start();
  manager_->RecordKernel(1, FromMillis(10), 0.0);
  EndLearning(1);
  // After one evaluation period plus the hardware switch latency, the device
  // clock must have dropped to the floor.
  sim_.RunUntil(DvfsManager::kPeriod + engine_.spec().freq_switch_latency + FromMillis(5));
  EXPECT_EQ(engine_.CurrentFrequencyMhz(), engine_.spec().min_mhz);
}

TEST_F(DvfsTest, DisabledManagerNeverSwitches) {
  LithosConfig off;
  off.enable_dvfs = false;
  DvfsManager manager(&sim_, &engine_, off);
  manager.Start();
  manager.RecordKernel(1, FromMillis(10), 0.0);
  sim_.RunUntil(FromSeconds(2));
  EXPECT_EQ(engine_.CurrentFrequencyMhz(), engine_.spec().max_mhz);
}

// Property: the slowdown implied by the chosen frequency never exceeds the
// slip bound, for any aggregate sensitivity (total slowdown = S*(fmax/f - 1)
// <= k, §4.6).
class DvfsSlipTest : public ::testing::TestWithParam<double> {};

TEST_P(DvfsSlipTest, ImpliedSlowdownWithinSlip) {
  const double s = GetParam();
  Simulator sim;
  ExecutionEngine engine(&sim, GpuSpec::A100());
  LithosConfig cfg;
  cfg.enable_dvfs = true;
  cfg.dvfs_slip = 1.10;
  DvfsManager manager(&sim, &engine, cfg);
  manager.RecordKernel(1, FromMillis(10), s);
  for (int i = 0; i < DvfsManager::kLearningBatches; ++i) {
    manager.OnBatchBoundary(1);
  }

  const int f = manager.ComputeTargetMhz();
  const double slowdown = s * (1410.0 / f - 1.0);
  // Clamping rounds down to the 15 MHz state grid, which can push the
  // implied slowdown a hair past k = 0.10; bound it at 0.11.
  EXPECT_LE(slowdown, 0.11);
}

INSTANTIATE_TEST_SUITE_P(Sensitivities, DvfsSlipTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0));

}  // namespace
}  // namespace lithos
