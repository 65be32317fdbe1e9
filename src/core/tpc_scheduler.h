// TPC Scheduler allocation state (paper Section 4.3).
//
// LithOS manages TPCs the way a traditional OS manages CPU cores. Each client
// may hold a *quota*: a home region of TPCs guaranteed to it whenever it has
// work. Unclaimed TPCs form a free pool. TPC Stealing lends idle TPCs —
// foreign home TPCs whose owner is not asking for them — to whoever has work,
// raising utilization without giving up isolation:
//
//   * the paper keeps per-TPC busy-until timers (fed by the latency
//     predictor) to tell idle from long-running TPCs. Here the free mask is
//     the exact answer: a TPC is idle iff no atom holds it, and stealing
//     only ever considers free TPCs, so no timer or predicted duration is
//     kept;
//   * when an owner has waiting work but finds its home TPCs stolen, it
//     flags them for *reclaim*: thieves' subsequent atoms exclude flagged
//     TPCs, so the owner waits at most one atom duration (Fig. 9c);
//   * best-effort clients may steal only when no high-priority client is
//     waiting, preventing priority inversion.
//
// All state is TPC masks: `free_` (no occupant), `unowned_` (free pool, no
// home owner), `stolen_` (home TPCs held by a client other than their owner)
// and `reclaim_`, beside each client's home mask. Acquire takes the lowest
// set bits of `home & free`, then of `unowned & free`, a whole 64-bit word at
// a time, and walks TPC by TPC only over the steal candidates (free foreign
// home TPCs not flagged for reclaim), because each owner there has its own
// spare budget. Every pass grants in ascending TPC order, so a grant is the
// same set of TPCs a per-TPC scan would pick. A Release is one mask check and
// two mask ops, and a reclaim is `reclaim |= home & stolen`. Grants and
// releases therefore cost O(words), plus one step per steal candidate
// visited.
//
// Per-client state lives in a vector indexed by client id (the driver hands
// out dense ids from 1 and registers each client before it has a stream).
// Acquire requires a registered id, so a client's home TPCs are stolen
// exactly when another client holds them; the other calls ignore unknown ids.
// The count of waiting high-priority clients is kept as flags flip, so
// refusing a BE steal is one check per Acquire.
//
// This class is pure allocation bookkeeping (no simulation callbacks), which
// keeps it independently unit-testable; LithosBackend drives it.
#ifndef LITHOS_CORE_TPC_SCHEDULER_H_
#define LITHOS_CORE_TPC_SCHEDULER_H_

#include <array>
#include <vector>

#include "src/driver/client.h"
#include "src/gpu/gpu_spec.h"

namespace lithos {

struct TpcSchedulerStats {
  uint64_t acquisitions = 0;
  uint64_t tpcs_granted = 0;
  uint64_t tpcs_stolen = 0;    // granted TPCs that were foreign home TPCs
  uint64_t reclaim_requests = 0;
  uint64_t failed_acquisitions = 0;  // Acquire returned an empty mask
};

class TpcScheduler {
 public:
  explicit TpcScheduler(const GpuSpec& spec);

  // Registers a client (id >= 0) and carves its home region (next-fit from
  // TPC 0). Quotas beyond the remaining capacity are truncated. New home TPCs
  // another client holds count as stolen.
  void RegisterClient(int client_id, PriorityClass priority, int quota);

  // Grants up to `desired` TPCs to the registered client `client_id`,
  // preferring its home region, then the free pool, then stealing; each pass
  // grants in ascending TPC order. May return fewer than desired, including
  // an empty mask when nothing is available.
  TpcMask Acquire(int client_id, int desired);

  // Returns TPCs to the idle state.
  void Release(const TpcMask& mask);

  // The owner has waiting work: flag its stolen home TPCs so thieves vacate
  // at the next atom boundary.
  void RequestReclaim(int client_id);

  // Dispatcher hint used for steal eligibility.
  void SetClientWaiting(int client_id, bool waiting);
  bool AnyHighPriorityWaiting() const;

  // Dispatcher hint: the client currently has work on the device (in-flight
  // atoms). Stealing from an *active* owner is limited to the owner's idle
  // headroom — home TPCs beyond the owner's recent per-kernel demand — so the
  // owner's next kernel still finds its full allocation free. An *inactive*
  // owner's whole home region is up for grabs. Together with the reclaim
  // flags this tells "idle" from "between two kernels of a running job".
  void SetClientActive(int client_id, bool active);

  // Recent per-kernel TPC demand of a client (fast-rising, slowly decaying
  // maximum of the `desired` values passed to Acquire).
  double ClientDemand(int client_id) const;

  // --- Introspection --------------------------------------------------------
  int HomeQuota(int client_id) const;
  TpcMask HomeMask(int client_id) const;
  const TpcMask& FreeMask() const { return free_; }  // TPCs with no occupant
  int FreeTpcs() const;
  int FreeHomeTpcs(int client_id) const;     // idle TPCs in own home region
  bool IsClientWaiting(int client_id) const;  // last SetClientWaiting value
  bool IsReclaimFlagged(int tpc) const { return reclaim_.test(tpc); }
  const TpcSchedulerStats& stats() const { return stats_; }

  // Aborts unless the masks lie on the device, the unowned mask agrees with
  // the home owners, stolen TPCs are neither free nor unowned, and the
  // waiting-HP count agrees with the client flags (debug cross-check).
  void CheckInvariants() const;

 private:
  struct ClientState {
    bool registered = false;
    PriorityClass priority = PriorityClass::kBestEffort;
    TpcMask home;
    bool waiting = false;
    bool active = false;   // has in-flight work on the device
    double demand = 0;     // recent max of desired TPCs per kernel
    // Acquire scratch: stealable budget, valid while spare_epoch matches.
    int spare = 0;
    uint64_t spare_epoch = 0;
  };

  ClientState* Find(int client_id);
  const ClientState* Find(int client_id) const;

  int total_tpcs_;
  TpcMask device_;                         // TPCs [0, total_tpcs_)
  std::array<int, kMaxTpcs> home_owner_;   // -1 = free pool
  TpcMask free_;      // no occupant
  TpcMask unowned_;   // home_owner_ == -1
  TpcMask stolen_;    // home TPCs held by a client other than their owner
  TpcMask reclaim_;   // stolen home TPCs their owner asked back
  std::vector<ClientState> clients_;  // indexed by client id
  int hp_waiting_ = 0;                // registered HP clients with waiting set
  uint64_t acquire_epoch_ = 0;
  int next_home_tpc_ = 0;
  TpcSchedulerStats stats_;
};

}  // namespace lithos

#endif  // LITHOS_CORE_TPC_SCHEDULER_H_
