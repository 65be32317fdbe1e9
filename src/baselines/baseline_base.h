// Shared machinery for the baseline scheduling systems (Section 6,
// "Baselines"). Each baseline dispatches whole kernels (no atomization — the
// coarseness the paper criticises) and differs only in *when* a stream's head
// kernel may launch and on *which* TPC mask / share weight it runs.
#ifndef LITHOS_BASELINES_BASELINE_BASE_H_
#define LITHOS_BASELINES_BASELINE_BASE_H_

#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/driver/backend.h"
#include "src/driver/client.h"
#include "src/driver/stream.h"

namespace lithos {

class BaselineBackend : public Backend {
 public:
  BaselineBackend(Simulator* sim, ExecutionEngine* engine) : Backend(sim, engine) {}

  void OnClientRegistered(const Client& client) override { clients_[client.id] = client; }

  // Whole-kernel dispatch makes in-flight cancellation exact: abort the
  // grant (the engine rescinds its completion without running on_complete),
  // drop it from the in-flight table, and pop the head so the FIFO advances.
  bool CancelInFlight(Stream* stream) override;

 protected:
  // Fixed per-launch dispatch overhead (driver + runtime), matching the
  // interposition-free native path.
  static constexpr DurationNs kLaunchOverheadNs = 2'000;

  bool IsHighPriority(int client_id) const {
    auto it = clients_.find(client_id);
    return it != clients_.end() && it->second.priority == PriorityClass::kHighPriority;
  }

  // Claims the stream head and launches the whole kernel on `mask`. The
  // grant's share weight is priority_boost * thread blocks: when TPCs are
  // shared, the hardware's block dispatcher hands out SM slots roughly in
  // proportion to each resident kernel's outstanding blocks, so a huge
  // training kernel starves a small inference kernel — the MPS interference
  // the paper measures. priority_boost models CUDA stream priority's
  // preferential dispatch.
  GrantId SubmitWhole(Stream* stream, const TpcMask& mask, double priority_boost);

  // Default: complete the stream head (advances the FIFO). Subclasses
  // override to add policy (e.g. pumping gated queues).
  virtual void HandleHeadComplete(Stream* stream, const GrantInfo& info);

  // Streams with work currently on the device, filtered by priority class.
  int InflightOfClass(PriorityClass cls) const;

  // One stream's whole-kernel grant on the device; `stream` is null while
  // the stream has none.
  struct InflightGrant {
    Stream* stream = nullptr;
    GrantId grant = kInvalidGrant;
  };

  std::unordered_map<int, Client> clients_;
  // Indexed by stream id (dense per driver): launches allocate nothing, and
  // walks visit streams in ascending id order.
  std::vector<InflightGrant> inflight_;
};

}  // namespace lithos

#endif  // LITHOS_BASELINES_BASELINE_BASE_H_
