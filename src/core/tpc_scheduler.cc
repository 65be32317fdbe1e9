#include "src/core/tpc_scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace lithos {
namespace {

TpcMask MaskOfWords(uint64_t lo, uint64_t hi) {
  static_assert(kTpcWords == 2, "a mask is exactly two words");
  return (TpcMask(hi) << kTpcWordBits) | TpcMask(lo);
}

// The lowest `n` set TPCs of `mask`, or all of them when it has fewer; `n`
// drops by the number taken. Whole words are counted, and only the one word
// that holds more than the rest of the request is cut bit by bit.
TpcMask TakeLowest(const TpcMask& mask, int& n) {
  uint64_t words[kTpcWords] = {};
  for (int w = 0; w < kTpcWords && n > 0; ++w) {
    uint64_t bits = TpcWord(mask, w);
    if (__builtin_popcountll(bits) > n) {
      uint64_t kept = 0;
      for (int i = 0; i < n; ++i, bits &= bits - 1) {
        kept |= bits & -bits;
      }
      bits = kept;
    }
    words[w] = bits;
    n -= __builtin_popcountll(bits);
  }
  return MaskOfWords(words[0], words[1]);
}

}  // namespace

TpcScheduler::TpcScheduler(const GpuSpec& spec)
    : total_tpcs_(spec.TotalTpcs()), device_(TpcRange(0, total_tpcs_)) {
  home_owner_.fill(-1);
  free_ = device_;
  unowned_ = device_;
}

const TpcScheduler::ClientState* TpcScheduler::Find(int client_id) const {
  const bool known = client_id >= 0 && client_id < static_cast<int>(clients_.size()) &&
                     clients_[client_id].registered;
  return known ? &clients_[client_id] : nullptr;
}

TpcScheduler::ClientState* TpcScheduler::Find(int client_id) {
  return const_cast<ClientState*>(std::as_const(*this).Find(client_id));
}

void TpcScheduler::RegisterClient(int client_id, PriorityClass priority, int quota) {
  LITHOS_CHECK_GE(client_id, 0);
  LITHOS_CHECK(Find(client_id) == nullptr);
  if (client_id >= static_cast<int>(clients_.size())) {
    clients_.resize(client_id + 1);
  }
  ClientState& state = clients_[client_id];
  state.registered = true;
  state.priority = priority;
  const int granted = std::clamp(quota, 0, total_tpcs_ - next_home_tpc_);
  state.home = TpcRange(next_home_tpc_, next_home_tpc_ + granted);
  std::fill_n(home_owner_.begin() + next_home_tpc_, granted, client_id);
  unowned_ &= ~state.home;
  // This client has acquired nothing yet, so whoever holds its new home TPCs
  // is another client.
  stolen_ |= state.home & ~free_;
  next_home_tpc_ += granted;
}

TpcMask TpcScheduler::Acquire(int client_id, int desired) {
  LITHOS_CHECK_GT(desired, 0);
  ClientState* client = Find(client_id);
  LITHOS_CHECK(client != nullptr);
  // Track the client's per-kernel demand: fast rise, slow decay.
  client->demand = std::max<double>(desired, client->demand * 0.98);
  const TpcMask home = client->home;
  int remaining = desired;

  // Pass 1: own home region. Pass 2: free pool (unowned TPCs).
  TpcMask granted = TakeLowest(home & free_, remaining);
  if (remaining > 0) {
    granted |= TakeLowest(unowned_ & free_, remaining);
  }
  reclaim_ &= ~(granted & home);  // Owner is back; the flags served their purpose.

  // Pass 3: TPC Stealing — idle (free) foreign home TPCs, subject to policy
  // and each active owner's headroom: an owner mid-job keeps enough free home
  // TPCs for its next kernel (its recent demand), so stealing never shrinks
  // the owner's very next allocation.
  // Best-effort work never steals while a high-priority client waits, which
  // would invert priorities.
  const bool thief_is_be = client->priority == PriorityClass::kBestEffort;
  if (remaining > 0 && !(thief_is_be && hp_waiting_ > 0)) {
    ++acquire_epoch_;
    // Passes 1-2 took only home and unowned TPCs, so `free_` still holds
    // every candidate, and each owner's `home & free_` below is unchanged.
    const TpcMask candidates = free_ & ~unowned_ & ~home & ~reclaim_;
    uint64_t taken[kTpcWords] = {};
    for (int w = 0; w < kTpcWords && remaining > 0; ++w) {
      for (uint64_t bits = TpcWord(candidates, w); bits != 0 && remaining > 0; bits &= bits - 1) {
        const int t = w * kTpcWordBits + __builtin_ctzll(bits);
        ClientState& owner = clients_[home_owner_[t]];
        // Skip TPCs whose owner has work parked right now.
        if (owner.waiting) {
          continue;
        }
        if (owner.active) {
          if (owner.spare_epoch != acquire_epoch_) {
            // Free home TPCs beyond the owner's recent per-kernel demand.
            owner.spare_epoch = acquire_epoch_;
            owner.spare = static_cast<int>((owner.home & free_).count()) -
                          static_cast<int>(std::ceil(owner.demand));
          }
          if (owner.spare <= 0) {
            continue;
          }
          --owner.spare;
        }
        taken[w] |= bits & -bits;
        --remaining;
      }
    }
    const TpcMask stolen = MaskOfWords(taken[0], taken[1]);
    stolen_ |= stolen;
    granted |= stolen;
    stats_.tpcs_stolen += stolen.count();
  }

  free_ &= ~granted;
  ++stats_.acquisitions;
  stats_.tpcs_granted += desired - remaining;
  if (granted.none()) {
    ++stats_.failed_acquisitions;
  }
  return granted;
}

void TpcScheduler::Release(const TpcMask& mask) {
  // Every released TPC must be on the device and occupied.
  LITHOS_CHECK((mask & (free_ | ~device_)).none());
  free_ |= mask;
  stolen_ &= ~mask;
}

void TpcScheduler::RequestReclaim(int client_id) {
  const ClientState* c = Find(client_id);
  if (c == nullptr) {
    return;
  }
  ++stats_.reclaim_requests;
  reclaim_ |= c->home & stolen_;
}

void TpcScheduler::SetClientWaiting(int client_id, bool waiting) {
  ClientState* c = Find(client_id);
  if (c == nullptr || c->waiting == waiting) {
    return;
  }
  c->waiting = waiting;
  if (c->priority == PriorityClass::kHighPriority) {
    hp_waiting_ += waiting ? 1 : -1;
  }
}

void TpcScheduler::SetClientActive(int client_id, bool active) {
  if (ClientState* c = Find(client_id)) {
    c->active = active;
  }
}

double TpcScheduler::ClientDemand(int client_id) const {
  const ClientState* c = Find(client_id);
  return c == nullptr ? 0.0 : c->demand;
}

bool TpcScheduler::AnyHighPriorityWaiting() const { return hp_waiting_ > 0; }

int TpcScheduler::HomeQuota(int client_id) const {
  return static_cast<int>(HomeMask(client_id).count());
}

TpcMask TpcScheduler::HomeMask(int client_id) const {
  const ClientState* c = Find(client_id);
  return c == nullptr ? TpcMask{} : c->home;
}

int TpcScheduler::FreeTpcs() const { return static_cast<int>(free_.count()); }

int TpcScheduler::FreeHomeTpcs(int client_id) const {
  return static_cast<int>((HomeMask(client_id) & free_).count());
}

bool TpcScheduler::IsClientWaiting(int client_id) const {
  const ClientState* c = Find(client_id);
  return c != nullptr && c->waiting;
}

void TpcScheduler::CheckInvariants() const {
  int hp_waiting = 0;
  for (const ClientState& c : clients_) {
    hp_waiting += c.waiting && c.priority == PriorityClass::kHighPriority ? 1 : 0;
  }
  LITHOS_CHECK_EQ(hp_waiting, hp_waiting_);
  LITHOS_CHECK(((free_ | unowned_ | stolen_ | reclaim_) & ~device_).none());
  LITHOS_CHECK((stolen_ & (free_ | unowned_)).none());
  for (int t = 0; t < total_tpcs_; ++t) {
    LITHOS_CHECK_EQ(unowned_.test(t), home_owner_[t] == -1);
  }
}

}  // namespace lithos
