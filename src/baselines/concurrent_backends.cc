#include "src/baselines/concurrent_backends.h"

#include <algorithm>

#include "src/common/check.h"

namespace lithos {

// --- MPS ---------------------------------------------------------------------

void MpsBackend::OnStreamReady(Stream* stream) {
  // MPS multiplexes every context onto the device unconditionally.
  SubmitWhole(stream, engine_->AllTpcs(), 1.0);
}

// --- Priority -----------------------------------------------------------------

namespace {

// Share weight of high-priority streams: models the hardware's preferential
// block scheduling for higher-priority streams.
constexpr double kHpWeight = 8.0;

}  // namespace

void PriorityBackend::OnStreamReady(Stream* stream) {
  const double boost = stream->client().IsHighPriority() ? kHpWeight : 1.0;
  SubmitWhole(stream, engine_->AllTpcs(), boost);
}

// --- REEF ---------------------------------------------------------------------

bool ReefBackend::AnyHpActive() const {
  return InflightOfClass(PriorityClass::kHighPriority) > 0;
}

void ReefBackend::OnStreamReady(Stream* stream) {
  if (stream->client().IsHighPriority()) {
    SubmitWhole(stream, engine_->AllTpcs(), 1.0);
    return;
  }
  EnqueueOnce(be_waiting_, stream);
  PumpBestEffort();
}

void ReefBackend::PumpBestEffort() {
  // Gate check happens when a window opens; kernels within an open window
  // are already committed to the device queue and launch regardless.
  while (!be_waiting_.empty()) {
    if (be_window_remaining_ <= 0) {
      if (AnyHpActive()) {
        return;  // Gate closed; wait for the HP side to drain.
      }
      be_window_remaining_ = kBeWindow;
    }
    Stream* s = Unqueue(be_waiting_);
    if (s->HasDispatchableKernel()) {
      SubmitWhole(s, engine_->AllTpcs(), 1.0);
      --be_window_remaining_;
    }
  }
}

void ReefBackend::HandleHeadComplete(Stream* stream, const GrantInfo& info) {
  (void)info;
  stream->CompleteHead();
  PumpBestEffort();
}

// --- TGS ----------------------------------------------------------------------

void TgsBackend::OnStreamReady(Stream* stream) {
  if (stream->client().IsHighPriority()) {
    // Rate-control feedback: HP work arriving while BE work is resident is
    // the congestion signal; widen the BE launch gap.
    if (InflightOfClass(PriorityClass::kBestEffort) > 0) {
      be_gap_ = std::clamp(
          static_cast<DurationNs>(static_cast<double>(std::max(be_gap_, kInitialGap)) * kGrow),
          kMinGap, kMaxGap);
    }
    SubmitWhole(stream, engine_->AllTpcs(), 1.0);
    return;
  }
  EnqueueOnce(be_waiting_, stream);
  PumpBestEffort();
}

void TgsBackend::PumpBestEffort() {
  if (be_waiting_.empty() || be_timer_armed_) {
    return;
  }
  const TimeNs now = sim_->Now();
  if (now < be_earliest_launch_) {
    be_timer_armed_ = true;
    sim_->ScheduleAt(be_earliest_launch_, [this] {
      be_timer_armed_ = false;
      PumpBestEffort();
    });
    return;
  }
  Stream* s = Unqueue(be_waiting_);
  if (s->HasDispatchableKernel()) {
    SubmitWhole(s, engine_->AllTpcs(), 1.0);
    be_earliest_launch_ = now + be_gap_;
  }
}

void TgsBackend::HandleHeadComplete(Stream* stream, const GrantInfo& info) {
  (void)info;
  // Recover the BE rate only when a BE kernel completes with the HP side
  // fully idle — the controller's steady-arrival-rate assumption makes the
  // decay deliberately sluggish (the weakness §7.1 calls out under bursty
  // inference load).
  if (!stream->client().IsHighPriority() &&
      InflightOfClass(PriorityClass::kHighPriority) == 0) {
    be_gap_ = static_cast<DurationNs>(static_cast<double>(be_gap_) * kDecay);
  }
  stream->CompleteHead();
  PumpBestEffort();
}

// --- Orion --------------------------------------------------------------------

bool OrionBackend::Contends(const KernelDesc& be_kernel) const {
  // A BE kernel contends when any in-flight HP kernel stresses the same
  // dominant resource (compute vs memory bandwidth). Profiles come from the
  // descriptor, standing in for Orion's offline profiling pass.
  for (const StreamEntry& g : streams_) {
    if (!g.InFlight() || !g.stream->client().IsHighPriority()) {
      continue;
    }
    const LaunchRecord* head = g.stream->InFlightHead();
    if (head == nullptr || head->kernel == nullptr) {
      continue;
    }
    if (ComputeBound(be_kernel) == ComputeBound(*head->kernel)) {
      return true;  // Same dominant resource: interference expected.
    }
  }
  return false;
}

void OrionBackend::OnStreamReady(Stream* stream) {
  if (stream->client().IsHighPriority()) {
    SubmitWhole(stream, engine_->AllTpcs(), 1.0);
    return;
  }
  const KernelDesc& k = *stream->PeekHead().kernel;
  if (InflightOfClass(PriorityClass::kHighPriority) == 0 || !Contends(k)) {
    SubmitWhole(stream, engine_->AllTpcs(), 1.0);
    return;
  }
  EnqueueOnce(be_waiting_, stream);
}

void OrionBackend::PumpBestEffort() {
  for (size_t i = 0; i < be_waiting_.size();) {
    Stream* s = be_waiting_[i];
    if (!s->HasDispatchableKernel()) {
      Unqueue(be_waiting_, i);
      continue;
    }
    const KernelDesc& k = *s->PeekHead().kernel;
    if (InflightOfClass(PriorityClass::kHighPriority) == 0 || !Contends(k)) {
      SubmitWhole(Unqueue(be_waiting_, i), engine_->AllTpcs(), 1.0);
      continue;
    }
    ++i;
  }
}

void OrionBackend::HandleHeadComplete(Stream* stream, const GrantInfo& info) {
  (void)info;
  stream->CompleteHead();
  PumpBestEffort();
}

}  // namespace lithos
