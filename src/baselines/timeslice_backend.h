// NVIDIA default time slicing: the whole device is handed to one GPU context
// at a time in round-robin order, with a multi-millisecond quantum. Modern
// GPUs (Pascal+) preempt at instruction granularity, so a context switch
// pauses in-flight kernels with their progress intact — modelled directly by
// the execution engine's Pause/Resume.
//
// Only one job runs at a time, which is precisely the low-utilization
// behaviour the paper attributes to temporal multitenancy (Section 2.2).
#ifndef LITHOS_BASELINES_TIMESLICE_BACKEND_H_
#define LITHOS_BASELINES_TIMESLICE_BACKEND_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/baselines/baseline_base.h"

namespace lithos {

class TimesliceBackend : public BaselineBackend {
 public:
  TimesliceBackend(Simulator* sim, ExecutionEngine* engine) : BaselineBackend(sim, engine) {}

  std::string Name() const override { return "Time slicing"; }
  void OnClientRegistered(const Client& client) override;
  void OnStreamReady(Stream* stream) override;

  int current_client() const { return current_; }

 protected:
  void HandleHeadComplete(Stream* stream, const GrantInfo& info) override;

 private:
  struct ClientSlot {
    std::deque<Stream*> ready;            // streams with dispatchable heads
    std::unordered_set<Stream*> ready_set;
    std::vector<GrantId> paused;          // grants preempted mid-kernel
    int running = 0;                      // grants currently on device
  };

  bool HasWork(const ClientSlot& slot) const {
    return !slot.ready.empty() || !slot.paused.empty() || slot.running > 0;
  }

  // Gives the device to the next client with work (round robin).
  void SwitchTo(int client_id);
  void AdvanceIfIdle();
  int NextClientWithWork() const;
  void DispatchReady(ClientSlot& slot);
  void ArmQuantum();
  void OnQuantumExpired();

  std::vector<int> rotation_;  // registration order
  std::unordered_map<int, ClientSlot> slots_;
  int current_ = -1;
  EventId quantum_event_ = 0;
};

}  // namespace lithos

#endif  // LITHOS_BASELINES_TIMESLICE_BACKEND_H_
