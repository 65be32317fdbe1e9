// NVIDIA default time slicing: the whole device is handed to one GPU context
// at a time in round-robin order, with a multi-millisecond quantum. Modern
// GPUs (Pascal+) preempt at instruction granularity, so a context switch
// pauses in-flight kernels with their progress intact — modelled directly by
// the execution engine's Pause/Resume.
//
// Only one job runs at a time, which is precisely the low-utilization
// behaviour the paper attributes to temporal multitenancy (Section 2.2).
//
// The round robin visits clients in the driver's id order (dense from 1, in
// registration order), so per-client slots live in a vector indexed by id.
#ifndef LITHOS_BASELINES_TIMESLICE_BACKEND_H_
#define LITHOS_BASELINES_TIMESLICE_BACKEND_H_

#include <deque>
#include <string>
#include <vector>

#include "src/baselines/baseline_base.h"

namespace lithos {

class TimesliceBackend : public BaselineBackend {
 public:
  TimesliceBackend(Simulator* sim, ExecutionEngine* engine) : BaselineBackend(sim, engine) {}

  std::string Name() const override { return "Time slicing"; }
  void OnStreamReady(Stream* stream) override;

  int current_client() const { return current_; }

 protected:
  void HandleHeadComplete(Stream* stream, const GrantInfo& info) override;

 private:
  struct ClientSlot {
    std::deque<Stream*> ready;            // streams with dispatchable heads
    std::vector<GrantId> paused;          // grants preempted mid-kernel
    int running = 0;                      // grants currently on device
  };

  bool HasWork(const ClientSlot& slot) const {
    return !slot.ready.empty() || !slot.paused.empty() || slot.running > 0;
  }

  // The client's slot, grown on its first ready stream.
  ClientSlot& Slot(int client_id);
  // Gives the device to the next client with work (round robin).
  void SwitchTo(int client_id);
  void AdvanceIfIdle();
  int NextClientWithWork() const;
  // Launches every ready stream of `client_id` (which holds the device).
  void DispatchReady(int client_id);
  void ArmQuantum();
  void OnQuantumExpired();

  // Indexed by client id; slot 0 is unused. Not held by reference across a
  // call that can re-enter OnStreamReady (marker callbacks can) and grow it.
  std::vector<ClientSlot> slots_;
  int current_ = -1;
  EventId quantum_event_ = 0;
};

}  // namespace lithos

#endif  // LITHOS_BASELINES_TIMESLICE_BACKEND_H_
