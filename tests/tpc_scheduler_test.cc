// Tests for the TPC Scheduler allocation state (paper §4.3): quota carving,
// acquire/release bookkeeping, TPC Stealing policy (idle owners, headroom,
// priority-inversion protection), reclaim flags, and busy-until timers.
#include <gtest/gtest.h>

#include "src/core/tpc_scheduler.h"

namespace lithos {
namespace {

class TpcSchedulerTest : public ::testing::Test {
 protected:
  TpcSchedulerTest() : spec_(GpuSpec::A100()), sched_(spec_, Config()) {}

  static LithosConfig Config() {
    LithosConfig cfg;
    cfg.enable_stealing = true;
    return cfg;
  }

  GpuSpec spec_;
  TpcScheduler sched_;
};

TEST_F(TpcSchedulerTest, QuotaCarvesContiguousHomeRegions) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kHighPriority, 14);
  EXPECT_EQ(sched_.HomeQuota(1), 40);
  EXPECT_EQ(sched_.HomeQuota(2), 14);
  EXPECT_EQ(sched_.HomeMask(1).count(), 40u);
  EXPECT_TRUE(sched_.HomeMask(1).test(0));
  EXPECT_TRUE(sched_.HomeMask(2).test(40));
  EXPECT_EQ((sched_.HomeMask(1) & sched_.HomeMask(2)).count(), 0u);
}

TEST_F(TpcSchedulerTest, QuotaTruncatedAtCapacity) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 50);
  sched_.RegisterClient(2, PriorityClass::kHighPriority, 50);
  EXPECT_EQ(sched_.HomeQuota(1), 50);
  EXPECT_EQ(sched_.HomeQuota(2), 4);
}

TEST_F(TpcSchedulerTest, AcquirePrefersHomeThenPool) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  // 44 TPCs remain unowned (free pool).
  const TpcMask got = sched_.Acquire(1, 20, 0, FromMillis(1));
  EXPECT_EQ(got.count(), 20u);
  // All 10 home TPCs are in the grant.
  EXPECT_EQ((got & sched_.HomeMask(1)).count(), 10u);
}

TEST_F(TpcSchedulerTest, ReleaseRestoresAvailability) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  const TpcMask got = sched_.Acquire(1, 10, 0, FromMillis(1));
  EXPECT_EQ(sched_.FreeHomeTpcs(1), 0);
  sched_.Release(got, FromMillis(1));
  EXPECT_EQ(sched_.FreeHomeTpcs(1), 10);
}

TEST_F(TpcSchedulerTest, StealFromIdleOwner) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 54);  // owns everything
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  // Owner inactive: the thief may take the whole device.
  const TpcMask got = sched_.Acquire(2, 54, 0, FromMillis(1));
  EXPECT_EQ(got.count(), 54u);
  EXPECT_EQ(sched_.stats().tpcs_stolen, 54u);
}

TEST_F(TpcSchedulerTest, NoStealWhenDisabled) {
  LithosConfig cfg;
  cfg.enable_stealing = false;
  TpcScheduler sched(spec_, cfg);
  sched.RegisterClient(1, PriorityClass::kHighPriority, 54);
  sched.RegisterClient(2, PriorityClass::kBestEffort, 0);
  const TpcMask got = sched.Acquire(2, 54, 0, FromMillis(1));
  EXPECT_EQ(got.count(), 0u);
  EXPECT_EQ(sched.stats().failed_acquisitions, 1u);
}

TEST_F(TpcSchedulerTest, NoStealFromWaitingOwner) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 54);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  sched_.SetClientWaiting(1, true);
  const TpcMask got = sched_.Acquire(2, 10, 0, FromMillis(1));
  EXPECT_EQ(got.count(), 0u);
}

TEST_F(TpcSchedulerTest, ActiveOwnerKeepsDemandHeadroom) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);

  // Owner runs a kernel wanting 32 TPCs; demand is remembered.
  const TpcMask own = sched_.Acquire(1, 32, 0, FromMillis(1));
  EXPECT_EQ(own.count(), 32u);
  sched_.SetClientActive(1, true);
  sched_.Release(own, FromMillis(1));

  // Thief sees 40 free home TPCs but the owner's demand (32) is reserved:
  // only 8 home TPCs + 14 pool TPCs are takeable.
  const TpcMask got = sched_.Acquire(2, 54, FromMillis(1), FromMillis(1));
  EXPECT_EQ(got.count(), 22u);
}

TEST_F(TpcSchedulerTest, InactiveOwnerForfeitsHeadroom) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  const TpcMask own = sched_.Acquire(1, 32, 0, FromMillis(1));
  sched_.Release(own, FromMillis(1));
  sched_.SetClientActive(1, false);  // job finished entirely
  const TpcMask got = sched_.Acquire(2, 54, FromMillis(1), FromMillis(1));
  EXPECT_EQ(got.count(), 54u);
}

TEST_F(TpcSchedulerTest, BeCannotStealWhileAnyHpWaits) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 27);
  sched_.RegisterClient(2, PriorityClass::kHighPriority, 27);
  sched_.RegisterClient(3, PriorityClass::kBestEffort, 0);
  sched_.SetClientWaiting(2, true);  // some HP has parked work
  // Client 1 idle; BE must still not steal from it (priority inversion).
  const TpcMask got = sched_.Acquire(3, 10, 0, FromMillis(1));
  EXPECT_EQ(got.count(), 0u);
  // An HP thief is allowed to steal from the *idle* client 1, though.
  sched_.SetClientWaiting(2, false);
  const TpcMask hp_steal = sched_.Acquire(2, 30, 0, FromMillis(1));
  EXPECT_EQ(hp_steal.count(), 30u);
}

TEST_F(TpcSchedulerTest, ReclaimFlagsBlockFurtherSteals) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 54);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  const TpcMask stolen = sched_.Acquire(2, 54, 0, FromMillis(1));
  EXPECT_EQ(stolen.count(), 54u);

  sched_.RequestReclaim(1);
  EXPECT_TRUE(sched_.IsReclaimFlagged(0));

  // Thief's next atom cannot retake the flagged TPCs.
  sched_.Release(stolen, FromMillis(1));
  const TpcMask again = sched_.Acquire(2, 54, FromMillis(1), FromMillis(1));
  EXPECT_EQ(again.count(), 0u);

  // The owner reclaims; the flags clear on acquisition.
  const TpcMask own = sched_.Acquire(1, 54, FromMillis(1), FromMillis(1));
  EXPECT_EQ(own.count(), 54u);
  EXPECT_FALSE(sched_.IsReclaimFlagged(0));
}

TEST_F(TpcSchedulerTest, BusyUntilTimersSetAndCleared) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  const TpcMask got = sched_.Acquire(1, 4, /*now=*/1000, /*predicted=*/FromMillis(2));
  for (int t = 0; t < 54; ++t) {
    if (got.test(t)) {
      EXPECT_EQ(sched_.BusyUntil(t), 1000 + FromMillis(2));
    }
  }
  sched_.Release(got, 5000);
  for (int t = 0; t < 54; ++t) {
    if (got.test(t)) {
      EXPECT_EQ(sched_.BusyUntil(t), 5000);
    }
  }
}

TEST_F(TpcSchedulerTest, TimerMarginBlocksStealOfBusyLookingTpcs) {
  LithosConfig cfg;
  cfg.enable_stealing = true;
  TpcScheduler sched(spec_, cfg);
  sched.RegisterClient(1, PriorityClass::kHighPriority, 54);
  sched.RegisterClient(2, PriorityClass::kBestEffort, 0);
  // Owner's TPCs released but timers claim busy-until t=10ms (e.g. freshly
  // re-predicted); a steal at t=5ms is blocked by the timer.
  const TpcMask own = sched.Acquire(1, 54, 0, FromMillis(10));
  // Simulate release that keeps future timers (manual poke through Acquire
  // is not possible, so emulate: release at now, re-acquire, release later).
  sched.Release(own, FromMillis(10));
  // busy_until == release time (10ms); stealing at 5ms sees 10ms > 5ms.
  const TpcMask early = sched.Acquire(2, 10, FromMillis(5), FromMillis(1));
  EXPECT_EQ(early.count(), 0u);
  const TpcMask late = sched.Acquire(2, 10, FromMillis(10), FromMillis(1));
  EXPECT_EQ(late.count(), 10u);
}

TEST_F(TpcSchedulerTest, StatsAccumulate) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  sched_.Acquire(1, 5, 0, FromMillis(1));
  sched_.Acquire(1, 5, 0, FromMillis(1));
  EXPECT_EQ(sched_.stats().acquisitions, 2u);
  EXPECT_EQ(sched_.stats().tpcs_granted, 10u);
}

// Property: concurrent acquisitions never hand the same TPC to two clients.
class NoDoubleGrantTest : public ::testing::TestWithParam<int> {};

TEST_P(NoDoubleGrantTest, GrantsAreDisjoint) {
  const GpuSpec spec = GpuSpec::A100();
  LithosConfig cfg;
  TpcScheduler sched(spec, cfg);
  const int clients = GetParam();
  for (int c = 1; c <= clients; ++c) {
    sched.RegisterClient(c, c % 2 ? PriorityClass::kHighPriority : PriorityClass::kBestEffort,
                         54 / clients);
  }
  TpcMask all;
  for (int c = 1; c <= clients; ++c) {
    const TpcMask got = sched.Acquire(c, 54, 0, FromMillis(1));
    ASSERT_EQ((all & got).count(), 0u) << "double grant to client " << c;
    all |= got;
  }
  EXPECT_LE(all.count(), 54u);
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, NoDoubleGrantTest, ::testing::Values(1, 2, 3, 4, 6, 9));

}  // namespace
}  // namespace lithos
