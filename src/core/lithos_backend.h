// LithosBackend: the complete LithOS scheduling system (paper Section 4),
// assembled from the TPC Scheduler, Kernel Atomizer, online latency
// predictor, hardware right-sizer, and DVFS manager, behind the generic
// driver Backend interface.
//
// Dispatch pipeline for one kernel (Fig. 8):
//   1. The stream's head kernel arrives via OnStreamReady (launch queues).
//   2. The dispatcher checks the client's outstanding-atom budget (sync-queue
//      throttling), looks the operator up in the predictor once (an index by
//      stream and batch ordinal, then a scan of the few launch signatures
//      seen there), and asks the right-sizer how many TPCs the kernel needs.
//   3. The TPC Scheduler grants a mask: home region first, then free pool,
//      then stolen idle TPCs. It decides from its TPC masks alone (an idle
//      TPC is a free one), so the grant needs no duration estimate. An empty
//      grant parks the stream and flags the client's stolen home TPCs for
//      reclaim.
//   4. The predictor estimates the kernel's duration on that mask; the
//      Kernel Atomizer splits long kernels into atoms.
//   5. Atoms are dispatched sequentially; the mask is re-acquired between
//      atoms, which is what lets allocations shrink or grow mid-kernel and
//      lets reclaim take effect within one atom duration.
//   6. Completions feed the predictor (a Tracker in the paper), the DVFS
//      manager, and the atomizer's overhead feedback, then pump the waiting
//      queues, HP before BE.
//
// Per-stream state (the in-flight head, its parked flag, its last batch
// ordinal) lives in one table indexed by stream id, and per-client dispatcher
// state (outstanding atoms, parked streams) in one indexed by client id; both
// id spaces are dense. A client's priority class and quota are not copied:
// they are read through Stream::client() from the driver's Client. A head
// looks its operator up in the predictor once and keeps the model and an
// arithmetic atom plan, so its atoms do no lookup and a kernel allocates no
// map node or plan vector.
#ifndef LITHOS_CORE_LITHOS_BACKEND_H_
#define LITHOS_CORE_LITHOS_BACKEND_H_

#include <deque>
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

  // Maximum outstanding atoms per client before the dispatcher throttles
  // (sync-queue backlog threshold, Fig. 8 step 5).
  static constexpr int kMaxOutstandingHp = 4;
  static constexpr int kMaxOutstandingBe = 2;

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
  // Dispatcher state of one stream, indexed by stream id (dense from 1): its
  // in-flight head kernel, if any, and whether it waits in a queue. A
  // mid-kernel head that ran out of TPCs between atoms is both.
  struct HeadExec {
    Stream* stream = nullptr;
    bool inflight = false;  // a head is claimed (BeginHead) and not complete
    bool parked = false;    // queued in waiting_hp_ or waiting_be_
    // Ordinal of the last dispatched head, -1 before the first
    // (batch-boundary detection).
    int64_t last_ordinal = -1;
    // The in-flight head; set when it is dispatched.
    const KernelDesc* kernel = nullptr;
    OperatorKey key;
    // predictor_.Find(key); filled by Record on the operator's first
    // observation.
    LatencyPredictor::OperatorModel* model = nullptr;
    AtomPlan plan;
    uint32_t next_atom = 0;
    TpcMask mask;                 // TPCs held by the currently running atom
    DurationNs predicted_atom = 0;  // prediction for the in-flight atom
    DurationNs work_ns = 0;       // accumulated execution time (all atoms)
    DurationNs overhead_ns = 0;   // accumulated prelude overhead
  };

  // Dispatcher state of one client, indexed by client id (dense from 1).
  struct ClientState {
    int outstanding = 0;  // atoms in flight
    int parked = 0;       // streams queued in waiting_hp_/waiting_be_
    // `parked` crossed zero since the flags were last published.
    bool waiting_changed = false;
  };

  // The stream's slot, grown on first contact.
  HeadExec& Head(Stream* stream);
  ClientState& State(int client_id);
  // Allocation a kernel requests before right-sizing: the client's quota
  // (dedicated-deployment behaviour) or, for quota-less clients, the
  // kernel's occupancy bound.
  int BaseAllocation(const Stream* stream, const KernelDesc& kernel) const;

  // Attempts to dispatch every waiting stream, HP queue first.
  void Pump();
  // Tries to start the head kernel of `stream`; returns false if it must wait.
  bool TryDispatch(Stream* stream);
  // Launches the next atom of an in-flight head, re-acquiring TPCs.
  bool LaunchNextAtom(HeadExec* exec);
  void OnAtomComplete(Stream* stream, const GrantInfo& info);
  // Queues a stream on the HP or BE waiting queue and counts it as parked.
  void Park(Stream* stream, bool mid_kernel);
  // Adds `delta` to the client's parked count and notes a zero crossing.
  void CountParked(int client_id, int delta);
  // Publishes to the TPC scheduler the "has a parked stream" flag of each
  // client whose parked count crossed zero since the last publication.
  void UpdateWaitingFlags();
  // Aborts unless the parked counts, the streams' flags and the published
  // waiting flags agree with the queues (debug cross-check).
  void CheckInvariants() const;

  LithosConfig config_;
  TpcScheduler tpc_scheduler_;
  LatencyPredictor predictor_;
  KernelAtomizer atomizer_;
  RightSizer right_sizer_;
  DvfsManager dvfs_;

  std::vector<ClientState> clients_;  // indexed by client id
  // Indexed by stream id. Growing it (OnStreamReady for a new stream) moves
  // the heads, so no reference into it is held across a call that can
  // re-enter OnStreamReady: Stream::CompleteHead runs marker callbacks, which
  // may create streams and launch on them.
  std::vector<HeadExec> heads_;
  std::deque<Stream*> waiting_hp_;
  std::deque<Stream*> waiting_be_;
  std::vector<int> waiting_changed_;  // clients with waiting_changed set
  uint64_t atoms_dispatched_ = 0;
  bool pumping_ = false;
};

}  // namespace lithos

#endif  // LITHOS_CORE_LITHOS_BACKEND_H_
