// Tests for the TPC Scheduler allocation state (paper §4.3): quota carving,
// acquire/release bookkeeping, TPC Stealing policy (idle owners, headroom,
// priority-inversion protection) and reclaim flags; and a differential test of
// the mask-based scheduler against a per-TPC scan, on random call sequences
// and on the fleet-node shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/tpc_scheduler.h"

namespace lithos {
namespace {

class TpcSchedulerTest : public ::testing::Test {
 protected:
  TpcSchedulerTest() : spec_(GpuSpec::A100()), sched_(spec_) {}

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
  const TpcMask got = sched_.Acquire(1, 20);
  EXPECT_EQ(got.count(), 20u);
  // All 10 home TPCs are in the grant.
  EXPECT_EQ((got & sched_.HomeMask(1)).count(), 10u);
}

TEST_F(TpcSchedulerTest, ReleaseRestoresAvailability) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  const TpcMask got = sched_.Acquire(1, 10);
  EXPECT_EQ(sched_.FreeHomeTpcs(1), 0);
  sched_.Release(got);
  EXPECT_EQ(sched_.FreeHomeTpcs(1), 10);
}

TEST_F(TpcSchedulerTest, StealFromIdleOwner) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 54);  // owns everything
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  // Owner inactive: the thief may take the whole device.
  const TpcMask got = sched_.Acquire(2, 54);
  EXPECT_EQ(got.count(), 54u);
  EXPECT_EQ(sched_.stats().tpcs_stolen, 54u);
}

TEST_F(TpcSchedulerTest, NoStealFromWaitingOwner) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 54);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  sched_.SetClientWaiting(1, true);
  const TpcMask got = sched_.Acquire(2, 10);
  EXPECT_EQ(got.count(), 0u);
}

TEST_F(TpcSchedulerTest, ActiveOwnerKeepsDemandHeadroom) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);

  // Owner runs a kernel wanting 32 TPCs; demand is remembered.
  const TpcMask own = sched_.Acquire(1, 32);
  EXPECT_EQ(own.count(), 32u);
  sched_.SetClientActive(1, true);
  sched_.Release(own);

  // Thief sees 40 free home TPCs but the owner's demand (32) is reserved:
  // only 8 home TPCs + 14 pool TPCs are takeable.
  const TpcMask got = sched_.Acquire(2, 54);
  EXPECT_EQ(got.count(), 22u);
}

TEST_F(TpcSchedulerTest, InactiveOwnerForfeitsHeadroom) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  const TpcMask own = sched_.Acquire(1, 32);
  sched_.Release(own);
  sched_.SetClientActive(1, false);  // job finished entirely
  const TpcMask got = sched_.Acquire(2, 54);
  EXPECT_EQ(got.count(), 54u);
}

TEST_F(TpcSchedulerTest, BeCannotStealWhileAnyHpWaits) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 27);
  sched_.RegisterClient(2, PriorityClass::kHighPriority, 27);
  sched_.RegisterClient(3, PriorityClass::kBestEffort, 0);
  sched_.SetClientWaiting(2, true);  // some HP has parked work
  // Client 1 idle; BE must still not steal from it (priority inversion).
  const TpcMask got = sched_.Acquire(3, 10);
  EXPECT_EQ(got.count(), 0u);
  // An HP thief is allowed to steal from the *idle* client 1, though.
  sched_.SetClientWaiting(2, false);
  const TpcMask hp_steal = sched_.Acquire(2, 30);
  EXPECT_EQ(hp_steal.count(), 30u);
}

TEST_F(TpcSchedulerTest, ReclaimFlagsBlockFurtherSteals) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 54);
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  const TpcMask stolen = sched_.Acquire(2, 54);
  EXPECT_EQ(stolen.count(), 54u);

  sched_.RequestReclaim(1);
  EXPECT_TRUE(sched_.IsReclaimFlagged(0));

  // Thief's next atom cannot retake the flagged TPCs.
  sched_.Release(stolen);
  const TpcMask again = sched_.Acquire(2, 54);
  EXPECT_EQ(again.count(), 0u);

  // The owner reclaims; the flags clear on acquisition.
  const TpcMask own = sched_.Acquire(1, 54);
  EXPECT_EQ(own.count(), 54u);
  EXPECT_FALSE(sched_.IsReclaimFlagged(0));
}

// The TPCs flagged by the last RequestReclaim calls, as a mask.
TpcMask ReclaimFlags(const TpcScheduler& sched, int total) {
  TpcMask flags;
  for (int t = 0; t < total; ++t) {
    flags.set(static_cast<size_t>(t), sched.IsReclaimFlagged(t));
  }
  return flags;
}

// A reclaim flags exactly the owner's home TPCs that another client holds
// now: stolen TPCs stop counting once released, flags outlive the thief's
// release until the owner takes the TPC back, and a later reclaim flags TPCs
// stolen since.
TEST_F(TpcSchedulerTest, ReclaimFlagsExactlyTheHeldStolenTpcs) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 20);  // home TPCs 0..19
  sched_.RegisterClient(2, PriorityClass::kBestEffort, 0);
  for (int i = 0; i < 5; ++i) {
    // The pool (20..53), then the idle owner's whole home region.
    const TpcMask got = sched_.Acquire(2, 54);
    ASSERT_EQ(got.count(), 54u);
    sched_.Release(got);
  }
  sched_.RequestReclaim(1);
  EXPECT_TRUE(ReclaimFlags(sched_, 54).none());  // every steal was released

  EXPECT_EQ(sched_.Acquire(2, 30), TpcRange(20, 50));
  EXPECT_EQ(sched_.Acquire(1, 5), TpcRange(0, 5));
  // The rest of the pool, then six stolen home TPCs.
  const TpcMask thief = sched_.Acquire(2, 10);
  EXPECT_EQ(thief, TpcRange(5, 11) | TpcRange(50, 54));
  sched_.RequestReclaim(1);
  EXPECT_EQ(ReclaimFlags(sched_, 54), TpcRange(5, 11));
  sched_.CheckInvariants();

  // The thief's release leaves the flags, so its next atom steals around them.
  sched_.Release(thief);
  EXPECT_EQ(sched_.Acquire(2, 10), TpcRange(11, 17) | TpcRange(50, 54));
  // The owner takes back its free home TPCs, clearing their flags; a second
  // reclaim flags the TPCs stolen since.
  EXPECT_EQ(sched_.Acquire(1, 15), TpcRange(5, 11) | TpcRange(17, 20));
  EXPECT_TRUE(ReclaimFlags(sched_, 54).none());
  sched_.RequestReclaim(1);
  EXPECT_EQ(ReclaimFlags(sched_, 54), TpcRange(11, 17));
  EXPECT_EQ(sched_.FreeTpcs(), 0);
  EXPECT_EQ(sched_.stats().tpcs_stolen, 20u * 5 + 6 + 6);
  EXPECT_EQ(sched_.stats().reclaim_requests, 3u);
  sched_.CheckInvariants();
}

// A client registered later may be given home TPCs another client already
// holds; they count as stolen, so the new owner's reclaim flags them.
TEST_F(TpcSchedulerTest, HomeOverHeldTpcsIsReclaimable) {
  sched_.RegisterClient(1, PriorityClass::kBestEffort, 0);
  ASSERT_EQ(sched_.Acquire(1, 30), TpcRange(0, 30));
  sched_.Release(TpcRange(0, 5));
  sched_.RegisterClient(2, PriorityClass::kHighPriority, 20);  // home TPCs 0..19
  sched_.CheckInvariants();
  sched_.RequestReclaim(2);
  EXPECT_EQ(ReclaimFlags(sched_, 54), TpcRange(5, 20));
  // Once the holder releases them they are the owner's again.
  sched_.Release(TpcRange(5, 30));
  EXPECT_EQ(sched_.Acquire(2, 20), TpcRange(0, 20));
  EXPECT_TRUE(ReclaimFlags(sched_, 54).none());
  sched_.CheckInvariants();
}

// Stolen-TPC tracking assumes a client holds nothing before it registers.
TEST_F(TpcSchedulerTest, AcquireOnUnregisteredIdAborts) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  EXPECT_DEATH(sched_.Acquire(2, 1), "client != nullptr");
  EXPECT_DEATH(sched_.Acquire(-1, 1), "client != nullptr");
}

TEST_F(TpcSchedulerTest, StatsAccumulate) {
  sched_.RegisterClient(1, PriorityClass::kHighPriority, 10);
  sched_.Acquire(1, 5);
  sched_.Acquire(1, 5);
  EXPECT_EQ(sched_.stats().acquisitions, 2u);
  EXPECT_EQ(sched_.stats().tpcs_granted, 10u);
}

// Property: concurrent acquisitions never hand the same TPC to two clients.
class NoDoubleGrantTest : public ::testing::TestWithParam<int> {};

TEST_P(NoDoubleGrantTest, GrantsAreDisjoint) {
  const GpuSpec spec = GpuSpec::A100();
  TpcScheduler sched(spec);
  const int clients = GetParam();
  for (int c = 1; c <= clients; ++c) {
    sched.RegisterClient(c, c % 2 ? PriorityClass::kHighPriority : PriorityClass::kBestEffort,
                         54 / clients);
  }
  TpcMask all;
  for (int c = 1; c <= clients; ++c) {
    const TpcMask got = sched.Acquire(c, 54);
    ASSERT_EQ((all & got).count(), 0u) << "double grant to client " << c;
    all |= got;
  }
  EXPECT_LE(all.count(), 54u);
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, NoDoubleGrantTest, ::testing::Values(1, 2, 3, 4, 6, 9));

// Reference oracle: the TPC Scheduler as a per-TPC scan over each TPC's
// occupant. Each Acquire pass walks every TPC in ascending order, the steal
// pass keeps a per-call map of owner budgets, and a reclaim flags the owner's
// home TPCs whose occupant is another client. The mask-based TpcScheduler
// must grant exactly the same TPCs and leave exactly the same state.
class ReferenceScheduler {
 public:
  explicit ReferenceScheduler(const GpuSpec& spec) : total_tpcs_(spec.TotalTpcs()) {
    home_owner_.fill(-1);
    occupant_.fill(-1);
    reclaim_.fill(false);
  }

  void RegisterClient(int client_id, PriorityClass priority, int quota) {
    ClientState state;
    state.priority = priority;
    const int granted = std::clamp(quota, 0, total_tpcs_ - next_home_tpc_);
    for (int i = 0; i < granted; ++i) {
      home_owner_[next_home_tpc_ + i] = client_id;
      state.home.set(next_home_tpc_ + i);
    }
    next_home_tpc_ += granted;
    clients_.emplace(client_id, state);
  }

  TpcMask Acquire(int client_id, int desired) {
    auto cit = clients_.find(client_id);
    if (cit != clients_.end()) {
      cit->second.demand = std::max<double>(desired, cit->second.demand * 0.98);
    }
    TpcMask granted;
    int remaining = desired;
    uint64_t stolen = 0;
    auto take = [&](int t, bool is_steal) {
      granted.set(t);
      occupant_[t] = client_id;
      if (home_owner_[t] == client_id) {
        reclaim_[t] = false;
      }
      stolen += is_steal ? 1 : 0;
      --remaining;
    };
    for (int t = 0; t < total_tpcs_ && remaining > 0; ++t) {
      if (home_owner_[t] == client_id && occupant_[t] == -1) {
        take(t, false);
      }
    }
    for (int t = 0; t < total_tpcs_ && remaining > 0; ++t) {
      if (home_owner_[t] == -1 && occupant_[t] == -1) {
        take(t, false);
      }
    }
    std::unordered_map<int, int> spare;
    for (int t = 0; t < total_tpcs_ && remaining > 0; ++t) {
      if (occupant_[t] != -1 || home_owner_[t] == -1 || home_owner_[t] == client_id ||
          !StealAllowed(client_id, t)) {
        continue;
      }
      const int owner = home_owner_[t];
      auto oit = clients_.find(owner);
      if (oit != clients_.end() && oit->second.active) {
        auto [sit, inserted] = spare.try_emplace(owner, 0);
        if (inserted) {
          sit->second = FreeHomeTpcs(owner) - static_cast<int>(std::ceil(oit->second.demand));
        }
        if (sit->second <= 0) {
          continue;
        }
        --sit->second;
      }
      take(t, true);
    }
    ++stats_.acquisitions;
    stats_.tpcs_granted += granted.count();
    stats_.tpcs_stolen += stolen;
    if (granted.none()) {
      ++stats_.failed_acquisitions;
    }
    return granted;
  }

  void Release(const TpcMask& mask) {
    for (int t = 0; t < total_tpcs_; ++t) {
      if (mask.test(t)) {
        occupant_[t] = -1;
      }
    }
  }

  void RequestReclaim(int client_id) {
    auto it = clients_.find(client_id);
    if (it == clients_.end()) {
      return;
    }
    ++stats_.reclaim_requests;
    for (int t = 0; t < total_tpcs_; ++t) {
      if (it->second.home.test(t) && occupant_[t] != -1 && occupant_[t] != client_id) {
        reclaim_[t] = true;
      }
    }
  }

  void SetClientWaiting(int client_id, bool waiting) {
    auto it = clients_.find(client_id);
    if (it != clients_.end()) {
      it->second.waiting = waiting;
    }
  }

  void SetClientActive(int client_id, bool active) {
    auto it = clients_.find(client_id);
    if (it != clients_.end()) {
      it->second.active = active;
    }
  }

  bool AnyHighPriorityWaiting() const {
    for (const auto& [id, c] : clients_) {
      if (c.waiting && c.priority == PriorityClass::kHighPriority) {
        return true;
      }
    }
    return false;
  }

  double ClientDemand(int client_id) const {
    auto it = clients_.find(client_id);
    return it == clients_.end() ? 0.0 : it->second.demand;
  }

  TpcMask FreeMask() const {
    TpcMask free;
    for (int t = 0; t < total_tpcs_; ++t) {
      free.set(static_cast<size_t>(t), occupant_[t] == -1);
    }
    return free;
  }

  int FreeHomeTpcs(int client_id) const {
    auto it = clients_.find(client_id);
    if (it == clients_.end()) {
      return 0;
    }
    int n = 0;
    for (int t = 0; t < total_tpcs_; ++t) {
      n += it->second.home.test(t) && occupant_[t] == -1 ? 1 : 0;
    }
    return n;
  }

  bool IsReclaimFlagged(int tpc) const { return reclaim_[tpc]; }
  const TpcSchedulerStats& stats() const { return stats_; }

 private:
  struct ClientState {
    PriorityClass priority = PriorityClass::kBestEffort;
    TpcMask home;
    bool waiting = false;
    bool active = false;
    double demand = 0;
  };

  bool StealAllowed(int thief, int tpc) const {
    const int owner = home_owner_[tpc];
    if (reclaim_[tpc]) {
      return false;
    }
    auto oit = clients_.find(owner);
    if (oit != clients_.end() && oit->second.waiting) {
      return false;
    }
    const bool thief_is_be = clients_.at(thief).priority == PriorityClass::kBestEffort;
    return !(thief_is_be && AnyHighPriorityWaiting());
  }

  int total_tpcs_;
  std::array<int, kMaxTpcs> home_owner_;
  std::array<int, kMaxTpcs> occupant_;  // -1 = idle
  std::array<bool, kMaxTpcs> reclaim_;
  std::unordered_map<int, ClientState> clients_;
  int next_home_tpc_ = 0;
  TpcSchedulerStats stats_;
};

// Compares every observable of the scheduler and the oracle.
void ExpectSameState(const TpcScheduler& sched, const ReferenceScheduler& ref, int clients,
                     int total) {
  ASSERT_EQ(sched.stats().acquisitions, ref.stats().acquisitions);
  ASSERT_EQ(sched.stats().tpcs_granted, ref.stats().tpcs_granted);
  ASSERT_EQ(sched.stats().tpcs_stolen, ref.stats().tpcs_stolen);
  ASSERT_EQ(sched.stats().reclaim_requests, ref.stats().reclaim_requests);
  ASSERT_EQ(sched.stats().failed_acquisitions, ref.stats().failed_acquisitions);
  ASSERT_EQ(sched.FreeMask(), ref.FreeMask());
  ASSERT_EQ(sched.FreeTpcs(), static_cast<int>(ref.FreeMask().count()));
  ASSERT_EQ(sched.AnyHighPriorityWaiting(), ref.AnyHighPriorityWaiting());
  for (int id = 0; id <= clients; ++id) {
    ASSERT_EQ(sched.FreeHomeTpcs(id), ref.FreeHomeTpcs(id)) << "client " << id;
    ASSERT_EQ(sched.ClientDemand(id), ref.ClientDemand(id)) << "client " << id;
  }
  for (int t = 0; t < total; ++t) {
    ASSERT_EQ(sched.IsReclaimFlagged(t), ref.IsReclaimFlagged(t)) << "tpc " << t;
  }
}

// Drives the mask-based scheduler and the oracle with one seeded random
// sequence of calls and compares every observable after each step. Ids
// 1..kClients register over the run (the last ones mid-sequence, some over
// TPCs other clients hold); only registered ids acquire. Id kClients + 1
// never registers, and its other calls must be ignored alike by both.
void ExpectMatchesReference(const GpuSpec& spec, uint64_t seed) {
  constexpr int kClients = 5;
  constexpr int kSteps = 3000;
  TpcScheduler sched(spec);
  ReferenceScheduler ref(spec);
  Rng rng(seed);
  const int total = spec.TotalTpcs();

  int registered = 0;
  auto register_next = [&] {
    ++registered;
    const PriorityClass prio =
        rng.UniformInt(0, 1) == 0 ? PriorityClass::kHighPriority : PriorityClass::kBestEffort;
    const int quota = static_cast<int>(rng.UniformInt(0, total * 2 / 3));
    sched.RegisterClient(registered, prio, quota);
    ref.RegisterClient(registered, prio, quota);
  };
  register_next();
  register_next();

  std::vector<TpcMask> held;  // outstanding grants, released whole
  int reclaim_flags_seen = 0;  // steps that ended with a TPC flagged
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
    const int client = static_cast<int>(rng.UniformInt(1, kClients + 1));
    switch (rng.UniformInt(0, 9)) {
      case 0:
        if (registered < kClients) {
          register_next();
        }
        break;
      case 1:
      case 2:
      case 3: {
        const int acquirer = static_cast<int>(rng.UniformInt(1, registered));
        const int desired = static_cast<int>(rng.UniformInt(1, total));
        const TpcMask got = sched.Acquire(acquirer, desired);
        ASSERT_EQ(got, ref.Acquire(acquirer, desired));
        if (got.any()) {
          held.push_back(got);
        }
        break;
      }
      case 4:
      case 5:
        if (!held.empty()) {
          const size_t i = static_cast<size_t>(rng.UniformInt(0, held.size() - 1));
          sched.Release(held[i]);
          ref.Release(held[i]);
          held.erase(held.begin() + static_cast<long>(i));
        }
        break;
      case 6:
      case 7: {
        const bool waiting = rng.UniformInt(0, 1) == 1;
        sched.SetClientWaiting(client, waiting);
        ref.SetClientWaiting(client, waiting);
        break;
      }
      case 8: {
        const bool active = rng.UniformInt(0, 1) == 1;
        sched.SetClientActive(client, active);
        ref.SetClientActive(client, active);
        break;
      }
      default:
        sched.RequestReclaim(client);
        ref.RequestReclaim(client);
        break;
    }
    sched.CheckInvariants();
    ExpectSameState(sched, ref, kClients + 1, total);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    reclaim_flags_seen += ReclaimFlags(sched, total).any() ? 1 : 0;
  }
  // The sequence reached the steal pass and flagged TPCs for reclaim.
  EXPECT_GT(ref.stats().tpcs_stolen, 0u);
  EXPECT_GT(ref.stats().reclaim_requests, 0u);
  EXPECT_GT(reclaim_flags_seen, 0);
}

// The fleet-node shape (ClusterDispatcher::StreamFor): every client is a
// quota-0 HP client whose kernels mostly ask for the whole device, and a head's
// probe grant is released at once, before its first atom re-acquires. Grants
// and every observable are compared after every step.
void ExpectMatchesReferenceOnFleetNode(const GpuSpec& spec, uint64_t seed) {
  constexpr int kClients = 4;
  constexpr int kSteps = 4000;
  TpcScheduler sched(spec);
  ReferenceScheduler ref(spec);
  Rng rng(seed);
  const int total = spec.TotalTpcs();
  for (int id = 1; id <= kClients; ++id) {
    sched.RegisterClient(id, PriorityClass::kHighPriority, 0);
    ref.RegisterClient(id, PriorityClass::kHighPriority, 0);
  }

  std::vector<TpcMask> held;  // running atoms' grants
  int partial_grants = 0;     // a head got only part of the device
  bool grants_match = true;
  auto acquire = [&](int client) {
    // Most kernels fill the device; the rest have smaller grids.
    const int desired =
        rng.UniformInt(0, 1) == 0 ? total : static_cast<int>(rng.UniformInt(1, total));
    const TpcMask got = sched.Acquire(client, desired);
    grants_match = grants_match && got == ref.Acquire(client, desired);
    if (got.none()) {
      sched.RequestReclaim(client);
      ref.RequestReclaim(client);
    }
    partial_grants += got.any() && static_cast<int>(got.count()) < desired ? 1 : 0;
    return got;
  };
  auto launch_atom = [&](int client) {
    if (const TpcMask got = acquire(client); got.any()) {
      held.push_back(got);
    }
  };
  auto release = [&](const TpcMask& mask) {
    sched.Release(mask);
    ref.Release(mask);
  };
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
    const int client = static_cast<int>(rng.UniformInt(1, kClients));
    switch (rng.UniformInt(0, 7)) {
      case 0:
      case 1:
        // A new head: the probe grant sizes the plan, then the first atom.
        if (const TpcMask probe = acquire(client); probe.any()) {
          release(probe);
          launch_atom(client);
        }
        break;
      case 2:
        launch_atom(client);  // the next atom of a running head
        break;
      case 3:
      case 4:
      case 5:
        if (!held.empty()) {
          const size_t i = static_cast<size_t>(rng.UniformInt(0, held.size() - 1));
          release(held[i]);
          held.erase(held.begin() + static_cast<long>(i));
        }
        break;
      case 6: {
        const bool waiting = rng.UniformInt(0, 1) == 1;
        sched.SetClientWaiting(client, waiting);
        ref.SetClientWaiting(client, waiting);
        break;
      }
      default: {
        const bool active = rng.UniformInt(0, 1) == 1;
        sched.SetClientActive(client, active);
        ref.SetClientActive(client, active);
        break;
      }
    }
    ASSERT_TRUE(grants_match);
    sched.CheckInvariants();
    ExpectSameState(sched, ref, kClients, total);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // Heads found the device full, and heads got part of what they asked for.
  EXPECT_GT(ref.stats().failed_acquisitions, 0u);
  EXPECT_GT(partial_grants, 0);
}

TEST(TpcSchedulerDifferentialTest, MatchesPerTpcScanOnA100) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    ExpectMatchesReference(GpuSpec::A100(), seed);
  }
}

// 68 TPCs: grants and steals cross the 64-bit word boundary of TpcMask.
TEST(TpcSchedulerDifferentialTest, MatchesPerTpcScanOnH100) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    ExpectMatchesReference(GpuSpec::H100(), seed);
  }
}

TEST(TpcSchedulerDifferentialTest, MatchesPerTpcScanOnFleetNodeA100) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ExpectMatchesReferenceOnFleetNode(GpuSpec::A100(), seed);
  }
}

// 68 TPCs: a whole-device grant spans both words of TpcMask.
TEST(TpcSchedulerDifferentialTest, MatchesPerTpcScanOnFleetNodeH100) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ExpectMatchesReferenceOnFleetNode(GpuSpec::H100(), seed);
  }
}

}  // namespace
}  // namespace lithos
