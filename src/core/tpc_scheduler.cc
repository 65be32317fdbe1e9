#include "src/core/tpc_scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace lithos {

TpcScheduler::TpcScheduler(const GpuSpec& spec, const LithosConfig& config)
    : config_(config), total_tpcs_(spec.TotalTpcs()) {
  home_owner_.fill(-1);
  occupant_.fill(-1);
  busy_until_.fill(0);
  reclaim_.fill(false);
  free_ = TpcRange(0, total_tpcs_);
  unowned_ = free_;
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
  for (int i = 0; i < granted; ++i) {
    const int t = next_home_tpc_ + i;
    home_owner_[t] = client_id;
    state.home.set(t);
    unowned_.reset(t);
  }
  next_home_tpc_ += granted;
}

TpcMask TpcScheduler::Acquire(int client_id, int desired, TimeNs now, DurationNs predicted) {
  LITHOS_CHECK_GT(desired, 0);
  ClientState* client = Find(client_id);
  // Track the client's per-kernel demand: fast rise, slow decay.
  if (client != nullptr) {
    client->demand = std::max<double>(desired, client->demand * 0.98);
  }
  const TpcMask home = client == nullptr ? TpcMask{} : client->home;
  TpcMask granted;
  int remaining = desired;
  uint64_t stolen = 0;

  auto take = [&](int t, bool is_steal) {
    granted.set(t);
    free_.reset(t);
    occupant_[t] = client_id;
    busy_until_[t] = now + predicted;
    if (home_owner_[t] == client_id) {
      reclaim_[t] = false;  // Owner is back; the flag served its purpose.
    }
    if (is_steal) {
      ++stolen;
    }
    --remaining;
  };
  // Visits the TPCs of `mask` in ascending order until the request is met.
  auto walk = [&](const TpcMask& mask, auto&& visit) {
    for (int w = 0; w < kTpcWords && remaining > 0; ++w) {
      for (uint64_t bits = TpcWord(mask, w); bits != 0 && remaining > 0; bits &= bits - 1) {
        visit(w * kTpcWordBits + __builtin_ctzll(bits));
      }
    }
  };

  // Pass 1: own home region.
  walk(home & free_, [&](int t) { take(t, false); });
  // Pass 2: free pool (unowned TPCs).
  walk(unowned_ & free_, [&](int t) { take(t, false); });
  // Pass 3: TPC Stealing — idle foreign home TPCs (busy-until timer already
  // expired), subject to policy and each active owner's headroom: an owner
  // mid-job keeps enough free home TPCs for its next kernel (its recent
  // demand), so stealing never shrinks the owner's very next allocation.
  // Best-effort work never steals while a high-priority client waits, which
  // would invert priorities.
  const bool thief_is_be = client == nullptr || client->priority == PriorityClass::kBestEffort;
  if (config_.enable_stealing && !(thief_is_be && hp_waiting_ > 0)) {
    ++acquire_epoch_;
    walk(free_ & ~unowned_ & ~home, [&](int t) {
      ClientState& owner = clients_[home_owner_[t]];
      // Skip TPCs that look busy, that the owner asked back, or whose owner
      // has work parked right now.
      if (busy_until_[t] > now || reclaim_[t] || owner.waiting) {
        return;
      }
      if (owner.active) {
        if (owner.spare_epoch != acquire_epoch_) {
          // Free home TPCs beyond the owner's recent per-kernel demand.
          owner.spare_epoch = acquire_epoch_;
          owner.spare = static_cast<int>((owner.home & free_).count()) -
                        static_cast<int>(std::ceil(owner.demand));
        }
        if (owner.spare <= 0) {
          return;
        }
        --owner.spare;
      }
      take(t, true);
    });
  }

  ++stats_.acquisitions;
  stats_.tpcs_granted += granted.count();
  stats_.tpcs_stolen += stolen;
  if (granted.none()) {
    ++stats_.failed_acquisitions;
  }
  return granted;
}

void TpcScheduler::Release(const TpcMask& mask, TimeNs now) {
  ForEachTpc(mask, [&](int t) {
    LITHOS_CHECK_NE(occupant_[t], -1);
    occupant_[t] = -1;
    busy_until_[t] = now;
  });
  free_ |= mask;
}

void TpcScheduler::RequestReclaim(int client_id) {
  const ClientState* c = Find(client_id);
  if (c == nullptr) {
    return;
  }
  ++stats_.reclaim_requests;
  ForEachTpc(c->home & ~free_, [&](int t) {
    if (occupant_[t] != client_id) {
      reclaim_[t] = true;
    }
  });
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
  for (int t = 0; t < kMaxTpcs; ++t) {
    const bool on_device = t < total_tpcs_;
    LITHOS_CHECK_EQ(free_.test(t), on_device && occupant_[t] == -1);
    LITHOS_CHECK_EQ(unowned_.test(t), on_device && home_owner_[t] == -1);
  }
}

}  // namespace lithos
