// Driver shim: the LithOS reproduction's stand-in for the interposed CUDA
// Driver API (Section 5, "Interposition Architecture").
//
// Applications (workload generators) call the Cu*-style methods below exactly
// as real applications call cuStreamCreate / cuLaunchKernel /
// cuLaunchHostFunc. The driver buffers work in per-stream FIFOs and notifies
// the installed scheduling backend, which decides when and where each kernel
// runs. Nothing in the workload layer can bypass the backend — the same
// transparency property the paper's interposition library provides.
//
// The driver owns every Client and Stream, and a client's facts (priority
// class, TPC quota) live only here: each stream reaches its client through
// Stream::client(), and backends keep only their own dynamic state.
#ifndef LITHOS_DRIVER_DRIVER_H_
#define LITHOS_DRIVER_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/driver/backend.h"
#include "src/driver/client.h"
#include "src/driver/stream.h"
#include "src/gpu/execution_engine.h"
#include "src/sim/simulator.h"

namespace lithos {

class Driver {
 public:
  Driver(Simulator* sim, ExecutionEngine* engine);

  // Installs the scheduling backend. Must be called before any launches.
  void SetBackend(Backend* backend);
  Backend* backend() const { return backend_; }

  Simulator* sim() const { return sim_; }
  ExecutionEngine* engine() const { return engine_; }

  // --- Application-facing API (mirrors the CUDA Driver API) ----------------

  // cuCtxCreate: registers an application context.
  Client* CuCtxCreate(const std::string& name, PriorityClass priority, int tpc_quota = 0,
                      double memory_gib = 0);

  // cuStreamCreate.
  Stream* CuStreamCreate(Client* client);

  // cuLaunchKernel: asynchronous; enqueues and returns immediately. The
  // returned launch id names the operation for CancelLaunch.
  uint64_t CuLaunchKernel(Stream* stream, const KernelDesc* kernel);

  // cuLaunchHostFunc / cuEventRecord + host callback: fires `cb` once all
  // previously enqueued work on the stream has completed. Returns the marker's
  // launch id, or 0 when the stream was already drained and `cb` ran inline.
  uint64_t CuStreamAddCallback(Stream* stream, std::function<void()> cb);

  // Best-effort cancellation of a previously enqueued operation (the hedged
  // dispatch loser): removes it from the stream FIFO if still queued, or asks
  // the backend to abort it through the engine's abort path when it is the
  // claimed in-flight head. Returns true when the operation will no longer
  // run (its marker callback, if any, never fires).
  bool CancelLaunch(Stream* stream, uint64_t launch_id);

  const std::vector<std::unique_ptr<Client>>& clients() const { return clients_; }
  const std::vector<std::unique_ptr<Stream>>& streams() const { return streams_; }

  uint64_t launches_issued() const { return next_launch_id_ - 1; }

 private:
  friend class Stream;

  Simulator* sim_;
  ExecutionEngine* engine_;
  Backend* backend_ = nullptr;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<Stream>> streams_;
  uint64_t next_launch_id_ = 1;
};

}  // namespace lithos

#endif  // LITHOS_DRIVER_DRIVER_H_
