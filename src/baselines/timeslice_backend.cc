#include "src/baselines/timeslice_backend.h"

#include <algorithm>

#include "src/common/check.h"

namespace lithos {
namespace {

// How long one context holds the whole device before the round-robin moves
// on.
constexpr DurationNs kQuantum = FromMillis(2.0);

}  // namespace

void TimesliceBackend::OnClientRegistered(const Client& client) {
  BaselineBackend::OnClientRegistered(client);
  rotation_.push_back(client.id);
  slots_.emplace(client.id, ClientSlot{});
}

void TimesliceBackend::OnStreamReady(Stream* stream) {
  ClientSlot& slot = slots_[stream->client_id()];
  if (slot.ready_set.insert(stream).second) {
    slot.ready.push_back(stream);
  }
  if (current_ == -1) {
    SwitchTo(stream->client_id());
  } else if (current_ == stream->client_id()) {
    DispatchReady(slot);
  }
  // Another client's turn: the work waits for its slice.
}

int TimesliceBackend::NextClientWithWork() const {
  if (rotation_.empty()) {
    return -1;
  }
  // Scan the rotation starting after the current holder.
  size_t start = 0;
  for (size_t i = 0; i < rotation_.size(); ++i) {
    if (rotation_[i] == current_) {
      start = i + 1;
      break;
    }
  }
  for (size_t off = 0; off < rotation_.size(); ++off) {
    const int candidate = rotation_[(start + off) % rotation_.size()];
    auto it = slots_.find(candidate);
    if (it != slots_.end() && HasWork(it->second)) {
      return candidate;
    }
  }
  return -1;
}

void TimesliceBackend::DispatchReady(ClientSlot& slot) {
  while (!slot.ready.empty()) {
    Stream* s = slot.ready.front();
    slot.ready.pop_front();
    slot.ready_set.erase(s);
    if (!s->HasDispatchableKernel()) {
      continue;
    }
    SubmitWhole(s, engine_->AllTpcs(), 1.0);
    ++slot.running;
  }
}

void TimesliceBackend::SwitchTo(int client_id) {
  LITHOS_CHECK(slots_.count(client_id) > 0);
  current_ = client_id;
  ClientSlot& slot = slots_[client_id];
  // Resume anything preempted on a previous slice.
  for (GrantId g : slot.paused) {
    if (engine_->IsActive(g)) {
      engine_->Resume(g, engine_->AllTpcs());
      ++slot.running;
    }
  }
  slot.paused.clear();
  DispatchReady(slot);
  ArmQuantum();
}

void TimesliceBackend::ArmQuantum() {
  // Re-arm the standing timer in place; a fresh event is only created the
  // first time (or after the timer fired and cleared itself).
  const TimeNs at = sim_->Now() + kQuantum;
  if (quantum_event_ != 0 && sim_->Reschedule(quantum_event_, at)) {
    return;
  }
  quantum_event_ = sim_->ScheduleAt(at, [this] {
    quantum_event_ = 0;
    OnQuantumExpired();
  });
}

void TimesliceBackend::OnQuantumExpired() {
  if (current_ == -1) {
    return;
  }
  const int next = NextClientWithWork();
  if (next == -1) {
    current_ = -1;
    return;
  }
  if (next == current_) {
    ArmQuantum();  // Sole tenant keeps the device.
    return;
  }
  // Preempt the current holder: pause its running grants (progress kept),
  // in stream id order — the order SwitchTo resumes them in.
  ClientSlot& slot = slots_[current_];
  for (const InflightGrant& g : inflight_) {
    if (g.stream != nullptr && g.stream->client_id() == current_ &&
        engine_->IsActive(g.grant)) {
      engine_->Pause(g.grant);
      slot.paused.push_back(g.grant);
      --slot.running;
    }
  }
  SwitchTo(next);
}

void TimesliceBackend::HandleHeadComplete(Stream* stream, const GrantInfo& info) {
  (void)info;
  ClientSlot& slot = slots_[stream->client_id()];
  --slot.running;
  stream->CompleteHead();
  if (current_ == stream->client_id()) {
    DispatchReady(slot);
    AdvanceIfIdle();
  }
}

void TimesliceBackend::AdvanceIfIdle() {
  if (current_ == -1) {
    return;
  }
  ClientSlot& slot = slots_[current_];
  if (HasWork(slot)) {
    return;
  }
  // Current holder drained: hand the device over early (work conservation).
  const int next = NextClientWithWork();
  if (next == -1) {
    current_ = -1;
    if (quantum_event_ != 0) {
      sim_->Cancel(quantum_event_);
      quantum_event_ = 0;
    }
    return;
  }
  SwitchTo(next);
}

}  // namespace lithos
