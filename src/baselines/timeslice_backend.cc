#include "src/baselines/timeslice_backend.h"

#include "src/common/check.h"

namespace lithos {
namespace {

// How long one context holds the whole device before the round-robin moves
// on.
constexpr DurationNs kQuantum = FromMillis(2.0);

}  // namespace

TimesliceBackend::ClientSlot& TimesliceBackend::Slot(int client_id) {
  LITHOS_CHECK_GT(client_id, 0);
  if (client_id >= static_cast<int>(slots_.size())) {
    slots_.resize(static_cast<size_t>(client_id) + 1);
  }
  return slots_[static_cast<size_t>(client_id)];
}

void TimesliceBackend::OnStreamReady(Stream* stream) {
  const int client = stream->client_id();
  EnqueueOnce(Slot(client).ready, stream);
  if (current_ == -1) {
    SwitchTo(client);
  } else if (current_ == client) {
    DispatchReady(client);
  }
  // Another client's turn: the work waits for its slice.
}

int TimesliceBackend::NextClientWithWork() const {
  // Clients 1..n in id order, scanned starting after the current holder
  // (from client 1 when nobody holds the device). Clients past the last slot
  // never had a stream ready, so they have no work to skip.
  const int n = static_cast<int>(slots_.size()) - 1;
  const int start = current_ == -1 ? 0 : current_;
  for (int off = 0; off < n; ++off) {
    const int candidate = (start + off) % n + 1;
    if (HasWork(slots_[static_cast<size_t>(candidate)])) {
      return candidate;
    }
  }
  return -1;
}

void TimesliceBackend::DispatchReady(int client_id) {
  ClientSlot& slot = Slot(client_id);
  while (!slot.ready.empty()) {
    Stream* s = Unqueue(slot.ready);
    if (!s->HasDispatchableKernel()) {
      continue;
    }
    SubmitWhole(s, engine_->AllTpcs(), 1.0);
    ++slot.running;
  }
}

void TimesliceBackend::SwitchTo(int client_id) {
  current_ = client_id;
  ClientSlot& slot = Slot(client_id);
  // Resume anything preempted on a previous slice.
  for (GrantId g : slot.paused) {
    if (engine_->IsActive(g)) {
      engine_->Resume(g, engine_->AllTpcs());
      ++slot.running;
    }
  }
  slot.paused.clear();
  DispatchReady(client_id);
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
  ClientSlot& slot = Slot(current_);
  for (const StreamEntry& g : streams_) {
    if (g.InFlight() && g.stream->client_id() == current_ && engine_->IsActive(g.grant)) {
      engine_->Pause(g.grant);
      slot.paused.push_back(g.grant);
      --slot.running;
    }
  }
  SwitchTo(next);
}

void TimesliceBackend::HandleHeadComplete(Stream* stream, const GrantInfo& info) {
  (void)info;
  const int client = stream->client_id();
  --Slot(client).running;
  stream->CompleteHead();  // may re-enter OnStreamReady, growing slots_
  if (current_ == client) {
    DispatchReady(client);
    AdvanceIfIdle();
  }
}

void TimesliceBackend::AdvanceIfIdle() {
  if (current_ == -1) {
    return;
  }
  if (HasWork(Slot(current_))) {
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
