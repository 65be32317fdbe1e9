// Shared machinery for the baseline scheduling systems (Section 6,
// "Baselines"). Each baseline dispatches whole kernels (no atomization — the
// coarseness the paper criticises) and differs only in *when* a stream's head
// kernel may launch and on *which* TPC mask / share weight it runs.
//
// A baseline keeps no copy of its clients: it reads a stream's priority class
// and quota through Stream::client(). Its own state is one dense per-stream
// table (the whole-kernel grant on the device, and whether the stream waits
// in the subclass's queue), so launches and queueing allocate nothing.
#ifndef LITHOS_BASELINES_BASELINE_BASE_H_
#define LITHOS_BASELINES_BASELINE_BASE_H_

#include <deque>
#include <vector>

#include "src/common/time.h"
#include "src/driver/backend.h"
#include "src/driver/client.h"
#include "src/driver/stream.h"

namespace lithos {

class BaselineBackend : public Backend {
 public:
  BaselineBackend(Simulator* sim, ExecutionEngine* engine) : Backend(sim, engine) {}

  // Whole-kernel dispatch makes in-flight cancellation exact: abort the
  // grant (the engine rescinds its completion without running on_complete),
  // drop it from the in-flight table, and pop the head so the FIFO advances.
  bool CancelInFlight(Stream* stream) override;

 protected:
  // Fixed per-launch dispatch overhead (driver + runtime), matching the
  // interposition-free native path.
  static constexpr DurationNs kLaunchOverheadNs = 2'000;

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

  // Appends `stream` to `queue` unless it already waits there. A stream
  // waits in at most one queue, so a re-notified stream keeps its place.
  void EnqueueOnce(std::deque<Stream*>& queue, Stream* stream);
  // Removes and returns the stream at `pos` of `queue`.
  Stream* Unqueue(std::deque<Stream*>& queue, size_t pos = 0);

  // One stream's entry: its whole-kernel grant on the device, if any, and
  // whether it waits in a queue. A stream can be both when a policy launches
  // a re-notified stream directly.
  struct StreamEntry {
    Stream* stream = nullptr;       // null until the stream's first contact
    GrantId grant = kInvalidGrant;  // kInvalidGrant while nothing is on the device
    bool queued = false;
    bool InFlight() const { return grant != kInvalidGrant; }
  };

  // Indexed by stream id (dense per driver): walks visit streams in
  // ascending id order.
  std::vector<StreamEntry> streams_;

 private:
  // The stream's entry, grown on first contact.
  StreamEntry& Entry(Stream* stream);
};

}  // namespace lithos

#endif  // LITHOS_BASELINES_BASELINE_BASE_H_
