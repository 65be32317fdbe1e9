#include "src/driver/driver.h"

#include "src/common/check.h"

namespace lithos {

// --- Stream ------------------------------------------------------------------

void Stream::EnqueueKernel(uint64_t launch_id, const KernelDesc* kernel, TimeNs now) {
  LITHOS_CHECK(kernel != nullptr);
  LaunchRecord rec;
  rec.launch_id = launch_id;
  rec.kernel = kernel;
  rec.enqueue_time = now;
  rec.batch_ordinal = next_ordinal_++;
  const bool was_empty_or_blocked = !HasDispatchableKernel();
  pending_.push_back(std::move(rec));
  // Notify only on the empty->nonempty dispatchable edge; if a kernel was
  // already dispatchable or in flight, the backend will find this one later.
  if (was_empty_or_blocked && HasDispatchableKernel()) {
    NotifyBackendIfReady();
  }
}

void Stream::EnqueueMarker(uint64_t launch_id, std::function<void()> cb, TimeNs now) {
  next_ordinal_ = 0;  // A synchronization event starts a new batch.
  if (pending_.empty() && !head_in_flight_) {
    // Stream already drained: CUDA fires the callback immediately.
    cb();
    return;
  }
  LaunchRecord rec;
  rec.launch_id = launch_id;
  rec.kernel = nullptr;
  rec.enqueue_time = now;
  rec.marker_callback = std::move(cb);
  pending_.push_back(std::move(rec));
}

const LaunchRecord& Stream::BeginHead() {
  LITHOS_CHECK(HasDispatchableKernel());
  LITHOS_CHECK(!pending_.front().IsMarker());
  head_in_flight_ = true;
  return pending_.front();
}

void Stream::CompleteHead() {
  LITHOS_CHECK(head_in_flight_);
  LITHOS_CHECK(!pending_.empty());
  head_in_flight_ = false;
  pending_.pop_front();
  if (DrainMarkers()) {
    NotifyBackendIfReady();
  }
}

bool Stream::CancelQueued(uint64_t launch_id) {
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].launch_id != launch_id) {
      continue;
    }
    if (i == 0 && head_in_flight_) {
      return false;  // claimed by the backend: only the abort path may end it
    }
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
    // Removing the dispatchable head may expose markers (fire them) or
    // another kernel (hand it to the backend) — same protocol as a pop.
    if (i == 0 && DrainMarkers()) {
      NotifyBackendIfReady();
    }
    return true;
  }
  return false;
}

bool Stream::DrainMarkers() {
  while (!pending_.empty() && pending_.front().IsMarker()) {
    LaunchRecord rec = std::move(pending_.front());
    pending_.pop_front();
    if (rec.marker_callback) {
      rec.marker_callback();
    }
  }
  return HasDispatchableKernel();
}

void Stream::NotifyBackendIfReady() {
  if (HasDispatchableKernel() && driver_->backend_ != nullptr) {
    driver_->backend_->OnStreamReady(this);
  }
}

// --- Driver --------------------------------------------------------------------

Driver::Driver(Simulator* sim, ExecutionEngine* engine) : sim_(sim), engine_(engine) {}

void Driver::SetBackend(Backend* backend) {
  backend_ = backend;
  for (const auto& c : clients_) {
    backend_->OnClientRegistered(*c);
  }
}

Client* Driver::CuCtxCreate(const std::string& name, PriorityClass priority, int tpc_quota,
                            double memory_gib) {
  auto client = std::make_unique<Client>();
  client->id = static_cast<int>(clients_.size()) + 1;
  client->name = name;
  client->priority = priority;
  client->tpc_quota = tpc_quota;
  client->memory_gib = memory_gib;
  Client* ptr = client.get();
  clients_.push_back(std::move(client));
  if (backend_ != nullptr) {
    backend_->OnClientRegistered(*ptr);
  }
  return ptr;
}

Stream* Driver::CuStreamCreate(Client* client) {
  LITHOS_CHECK(client != nullptr);
  auto stream = std::make_unique<Stream>(this, static_cast<int>(streams_.size()) + 1, client);
  Stream* ptr = stream.get();
  streams_.push_back(std::move(stream));
  return ptr;
}

uint64_t Driver::CuLaunchKernel(Stream* stream, const KernelDesc* kernel) {
  LITHOS_CHECK(stream != nullptr);
  LITHOS_CHECK(backend_ != nullptr);
  const uint64_t id = next_launch_id_++;
  stream->EnqueueKernel(id, kernel, sim_->Now());
  return id;
}

uint64_t Driver::CuStreamAddCallback(Stream* stream, std::function<void()> cb) {
  LITHOS_CHECK(stream != nullptr);
  const uint64_t id = next_launch_id_++;
  // A marker on a drained stream fires inline inside EnqueueMarker; report
  // id 0 (never a valid id) so callers know there is nothing left to cancel.
  const bool fires_inline = stream->QueueDepth() == 0 && !stream->HeadInFlight();
  stream->EnqueueMarker(id, std::move(cb), sim_->Now());
  return fires_inline ? 0 : id;
}

bool Driver::CancelLaunch(Stream* stream, uint64_t launch_id) {
  LITHOS_CHECK(stream != nullptr);
  if (launch_id == 0) {
    return false;  // already fired inline at enqueue
  }
  if (stream->CancelQueued(launch_id)) {
    return true;
  }
  const LaunchRecord* head = stream->InFlightHead();
  if (head != nullptr && head->launch_id == launch_id && backend_ != nullptr) {
    return backend_->CancelInFlight(stream);
  }
  return false;
}

}  // namespace lithos
