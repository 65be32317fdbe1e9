// CUDA-stream semantics for the driver shim.
//
// A stream is a FIFO of operations. Kernels execute in order: operation k+1
// may not begin until operation k has completed (CUDA stream semantics).
// Marker operations model cuEventRecord/cuStreamSynchronize: they carry no
// GPU work and fire a host callback once all prior operations complete. The
// LithOS latency predictor uses markers to delimit batches (Section 4.7).
//
// Dispatch protocol with the scheduling backend:
//   1. When a kernel becomes the dispatchable head of an idle stream, the
//      driver invokes Backend::OnStreamReady(stream).
//   2. The backend, when its policy allows, calls BeginHead() to claim the
//      head launch record and submits it to the ExecutionEngine (possibly as
//      several atoms).
//   3. When the backend has finished executing the head (all atoms complete),
//      it calls CompleteHead(); the stream pops the record, drains any
//      markers behind it, and re-arms OnStreamReady if more kernels wait.
//
// A stream points at its driver-owned Client, so a backend reads the
// client's priority class and TPC quota through client() rather than keeping
// a copy; backends hold only their own dynamic scheduling state.
#ifndef LITHOS_DRIVER_STREAM_H_
#define LITHOS_DRIVER_STREAM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/driver/client.h"
#include "src/gpu/kernel.h"

namespace lithos {

class Backend;
class Driver;

// One enqueued operation.
struct LaunchRecord {
  uint64_t launch_id = 0;
  const KernelDesc* kernel = nullptr;  // null for markers
  TimeNs enqueue_time = 0;
  // Index of this kernel since the last synchronization marker on the stream.
  // Markers delimit batches, so the ordinal uniquely identifies the operator
  // node in the model's dataflow graph (paper Section 4.7) even though the
  // driver has no access to framework-level information.
  uint32_t batch_ordinal = 0;
  std::function<void()> marker_callback;  // only for markers
  bool IsMarker() const { return kernel == nullptr; }
};

class Stream {
 public:
  Stream(Driver* driver, int id, const Client* client)
      : driver_(driver), id_(id), client_(client) {}

  int id() const { return id_; }
  // The owning client; the driver keeps it alive for the stream's lifetime.
  const Client& client() const { return *client_; }
  int client_id() const { return client_->id; }

  // True when a kernel is at the head and not yet claimed by the backend.
  bool HasDispatchableKernel() const { return !head_in_flight_ && !pending_.empty(); }
  // Peeks the head without claiming it (backends use this for policy checks).
  const LaunchRecord& PeekHead() const {
    LITHOS_CHECK(HasDispatchableKernel());
    return pending_.front();
  }
  bool HeadInFlight() const { return head_in_flight_; }
  size_t QueueDepth() const { return pending_.size(); }

  // The claimed in-flight head record, or nullptr when none is claimed.
  const LaunchRecord* InFlightHead() const {
    return head_in_flight_ ? &pending_.front() : nullptr;
  }

  // Claims the head kernel for execution. The record remains logically at the
  // head (owned by the stream) until CompleteHead().
  const LaunchRecord& BeginHead();

  // Marks the claimed head complete; drains trailing markers and re-notifies
  // the backend if another kernel becomes dispatchable.
  void CompleteHead();

  // Removes a still-queued operation (kernel or marker) by launch id without
  // running it — the hedged-dispatch loser path. Returns false when the id is
  // not queued here or is the claimed in-flight head (cancel that through the
  // backend's abort path instead). Removing the dispatchable head re-drains
  // markers and re-notifies the backend, exactly like CompleteHead.
  bool CancelQueued(uint64_t launch_id);

 private:
  friend class Driver;

  // Driver-side enqueues.
  void EnqueueKernel(uint64_t launch_id, const KernelDesc* kernel, TimeNs now);
  void EnqueueMarker(uint64_t launch_id, std::function<void()> cb, TimeNs now);

  // Fires leading markers; returns true if a kernel is now dispatchable and
  // the backend should be notified.
  bool DrainMarkers();
  void NotifyBackendIfReady();

  Driver* driver_;
  int id_;
  const Client* client_;
  std::deque<LaunchRecord> pending_;
  bool head_in_flight_ = false;
  uint32_t next_ordinal_ = 0;  // kernels since the last marker
};

}  // namespace lithos

#endif  // LITHOS_DRIVER_STREAM_H_
