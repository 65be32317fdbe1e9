// LithosBackend: the complete LithOS scheduling system (paper Section 4),
// assembled from the TPC Scheduler, Kernel Atomizer, online latency
// predictor, hardware right-sizer, and DVFS manager, behind the generic
// driver Backend interface.
//
// Dispatch pipeline for one kernel (Fig. 8):
//   1. The stream's head kernel arrives via OnStreamReady (launch queues).
//   2. The dispatcher checks the client's outstanding-atom budget (sync-queue
//      throttling) and asks the right-sizer how many TPCs the kernel needs.
//   3. The TPC Scheduler grants a mask: home region first, then free pool,
//      then stolen idle TPCs. An empty grant parks the stream and flags the
//      client's stolen home TPCs for reclaim.
//   4. The predictor estimates the kernel's duration on that mask; the
//      Kernel Atomizer splits long kernels into atoms.
//   5. Atoms are dispatched sequentially; the mask is re-acquired between
//      atoms, which is what lets allocations shrink or grow mid-kernel and
//      lets reclaim take effect within one atom duration.
//   6. Completions feed the predictor (a Tracker in the paper), the DVFS
//      manager, and the atomizer's overhead feedback, then pump the waiting
//      queues, HP before BE.
#ifndef LITHOS_CORE_LITHOS_BACKEND_H_
#define LITHOS_CORE_LITHOS_BACKEND_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/config.h"
#include "src/core/dvfs_manager.h"
#include "src/core/kernel_atomizer.h"
#include "src/core/latency_predictor.h"
#include "src/core/right_sizer.h"
#include "src/core/tpc_scheduler.h"
#include "src/driver/backend.h"
#include "src/driver/client.h"
#include "src/driver/stream.h"

namespace lithos {

class LithosBackend : public Backend {
 public:
  LithosBackend(Simulator* sim, ExecutionEngine* engine, LithosConfig config = {});

  std::string Name() const override { return "LithOS"; }
  void OnClientRegistered(const Client& client) override;
  void OnStreamReady(Stream* stream) override;
  void ResetAccounting() override;

  const LithosConfig& config() const { return config_; }
  LatencyPredictor& predictor() { return predictor_; }
  const TpcScheduler& tpc_scheduler() const { return tpc_scheduler_; }
  KernelAtomizer& atomizer() { return atomizer_; }
  DvfsManager& dvfs() { return dvfs_; }
  const RightSizer& right_sizer() const { return right_sizer_; }

  // Cumulative atoms dispatched (diagnostics / tests).
  uint64_t atoms_dispatched() const { return atoms_dispatched_; }

 private:
  // State of an in-flight stream-head kernel.
  struct HeadExec {
    Stream* stream = nullptr;
    const KernelDesc* kernel = nullptr;
    OperatorKey key;
    AtomPlan plan;
    size_t next_atom = 0;
    TpcMask mask;                 // TPCs held by the currently running atom
    DurationNs predicted_atom = 0;  // prediction for the in-flight atom
    DurationNs work_ns = 0;       // accumulated execution time (all atoms)
    DurationNs overhead_ns = 0;   // accumulated prelude overhead
  };

  // Dispatcher state of one client, indexed by client id (dense from 1).
  // Slots of ids that never registered keep the defaults: best-effort, no
  // quota.
  struct ClientState {
    PriorityClass priority = PriorityClass::kBestEffort;
    int tpc_quota = 0;
    int outstanding = 0;  // atoms in flight
    int parked = 0;       // streams queued in waiting_hp_/waiting_be_
  };

  ClientState& State(int client_id);
  const ClientState& State(int client_id) const;
  bool IsHighPriority(int client_id) const;
  int OutstandingLimit(int client_id) const;
  // Allocation a kernel requests before right-sizing: the client's quota
  // (dedicated-deployment behaviour) or, for quota-less clients, the
  // kernel's occupancy bound.
  int BaseAllocation(int client_id, const KernelDesc& kernel) const;

  // Attempts to dispatch every waiting stream, HP queue first.
  void Pump();
  // Tries to start the head kernel of `stream`; returns false if it must wait.
  bool TryDispatch(Stream* stream);
  // Launches the next atom of an in-flight head, re-acquiring TPCs.
  bool LaunchNextAtom(HeadExec* exec);
  void OnAtomComplete(Stream* stream, const GrantInfo& info);
  // Queues a stream on the HP or BE waiting queue and counts it as parked.
  void Park(Stream* stream, bool mid_kernel);
  // Publishes each client's "has a parked stream" flag to the TPC scheduler.
  void UpdateWaitingFlags();

  LithosConfig config_;
  TpcScheduler tpc_scheduler_;
  LatencyPredictor predictor_;
  KernelAtomizer atomizer_;
  RightSizer right_sizer_;
  DvfsManager dvfs_;

  std::vector<ClientState> clients_;  // indexed by client id
  std::deque<Stream*> waiting_hp_;
  std::deque<Stream*> waiting_be_;
  std::unordered_set<Stream*> waiting_set_;
  std::unordered_map<Stream*, HeadExec> inflight_;
  // Stream id -> ordinal of its last dispatched head, -1 before the first
  // (batch-boundary detection).
  std::vector<int64_t> last_ordinal_;
  uint64_t atoms_dispatched_ = 0;
  bool pumping_ = false;
};

}  // namespace lithos

#endif  // LITHOS_CORE_LITHOS_BACKEND_H_
