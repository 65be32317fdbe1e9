#include "src/core/lithos_backend.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace lithos {

LithosBackend::LithosBackend(Simulator* sim, ExecutionEngine* engine, LithosConfig config)
    : Backend(sim, engine),
      config_(config),
      tpc_scheduler_(engine->spec()),
      predictor_(engine->spec()),
      atomizer_(config),
      right_sizer_(engine->spec(), config, &predictor_),
      dvfs_(sim, engine, config) {
  dvfs_.Start();
}

void LithosBackend::OnClientRegistered(const Client& client) {
  LITHOS_CHECK_GE(client.id, 0);
  if (client.id >= static_cast<int>(clients_.size())) {
    clients_.resize(client.id + 1);
    // A client is listed at most once, so publishing never allocates.
    waiting_changed_.reserve(clients_.size());
  }
  tpc_scheduler_.RegisterClient(client.id, client.priority, client.tpc_quota);
}

LithosBackend::ClientState& LithosBackend::State(int client_id) {
  // Streams belong to clients the driver registered before creating them.
  LITHOS_CHECK(client_id >= 0 && client_id < static_cast<int>(clients_.size()));
  return clients_[client_id];
}

int LithosBackend::BaseAllocation(const Stream* stream, const KernelDesc& kernel) const {
  const int quota = stream->client().tpc_quota;
  const int useful = std::max(1, kernel.MaxUsefulTpcs(engine_->spec()));
  if (config_.allocate_full_quota && quota > 0) {
    // Dedicated-deployment behaviour: the kernel occupies the whole quota,
    // used or not — the overprovisioning right-sizing reclaims (Fig. 17).
    return std::min(engine_->spec().TotalTpcs(), std::max(quota, useful));
  }
  // Normal scheduling width: what the grid can actually occupy. The quota is
  // a guarantee floor, not a per-kernel width; kernels wider than the quota
  // draw the surplus from TPC Stealing (Fig. 14's HP-B goodput).
  return useful;
}

LithosBackend::HeadExec& LithosBackend::Head(Stream* stream) {
  const size_t sid = static_cast<size_t>(stream->id());
  if (sid >= heads_.size()) {
    heads_.resize(sid + 1);
  }
  return heads_[sid];
}

void LithosBackend::OnStreamReady(Stream* stream) {
  HeadExec& head = Head(stream);
  if (head.parked || head.inflight) {
    return;
  }
  head.stream = stream;
  Park(stream, /*mid_kernel=*/false);
  Pump();
}

void LithosBackend::Park(Stream* stream, bool mid_kernel) {
  HeadExec& head = Head(stream);
  if (head.parked) {
    return;
  }
  head.parked = true;
  CountParked(stream->client_id(), +1);
  if (!stream->client().IsHighPriority()) {
    waiting_be_.push_back(stream);
  } else if (mid_kernel) {
    waiting_hp_.push_front(stream);  // Mid-kernel heads resume first.
  } else {
    waiting_hp_.push_back(stream);
  }
}

void LithosBackend::CountParked(int client_id, int delta) {
  ClientState& state = State(client_id);
  const bool was_parked = state.parked > 0;
  state.parked += delta;
  if ((state.parked > 0) != was_parked && !state.waiting_changed) {
    state.waiting_changed = true;
    waiting_changed_.push_back(client_id);
  }
}

void LithosBackend::UpdateWaitingFlags() {
  // Tell the TPC scheduler which clients currently have parked work; steal
  // eligibility depends on it. Flags are published only here (pass start and
  // after each dispatch), never when a stream parks, so a re-entrant
  // OnStreamReady during a pump does not change steal eligibility early. A
  // client whose parked count did not cross zero since the last publication
  // already has the right flag.
  for (const int id : waiting_changed_) {
    ClientState& state = clients_[static_cast<size_t>(id)];
    state.waiting_changed = false;
    tpc_scheduler_.SetClientWaiting(id, state.parked > 0);
  }
  waiting_changed_.clear();
#ifndef NDEBUG
  CheckInvariants();
#endif
}

void LithosBackend::CheckInvariants() const {
  std::vector<int> parked(clients_.size(), 0);
  size_t queued = 0;
  for (const auto* queue : {&waiting_hp_, &waiting_be_}) {
    for (const Stream* s : *queue) {
      ++parked[static_cast<size_t>(s->client_id())];
      LITHOS_CHECK(heads_[static_cast<size_t>(s->id())].parked);
      ++queued;
    }
  }
  size_t flagged = 0;
  for (const HeadExec& head : heads_) {
    flagged += head.parked ? 1 : 0;
    if (head.stream != nullptr) {
      LITHOS_CHECK_EQ(head.inflight, head.stream->HeadInFlight());
    }
  }
  LITHOS_CHECK_EQ(flagged, queued);  // each parked stream is queued once
  for (size_t id = 0; id < clients_.size(); ++id) {
    LITHOS_CHECK_EQ(parked[id], clients_[id].parked);
    LITHOS_CHECK_EQ(tpc_scheduler_.IsClientWaiting(static_cast<int>(id)), parked[id] > 0);
  }
  tpc_scheduler_.CheckInvariants();
}

void LithosBackend::Pump() {
  if (pumping_) {
    return;  // Re-entrant completions fold into the active pump loop.
  }
  pumping_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    UpdateWaitingFlags();
    // HP queue strictly before BE, each FIFO.
    for (auto* queue : {&waiting_hp_, &waiting_be_}) {
      for (size_t i = 0; i < queue->size();) {
        Stream* s = (*queue)[i];
        if (TryDispatch(s)) {
          queue->erase(queue->begin() + static_cast<long>(i));
          Head(s).parked = false;
          CountParked(s->client_id(), -1);
          progress = true;
          UpdateWaitingFlags();
        } else {
          ++i;
        }
      }
    }
  }
  pumping_ = false;
}

bool LithosBackend::TryDispatch(Stream* stream) {
  HeadExec& head = Head(stream);
  // A parked mid-kernel head (TPCs ran out between atoms) resumes here.
  if (head.inflight) {
    return LaunchNextAtom(&head);
  }

  if (!stream->HasDispatchableKernel()) {
    // A marker drained it or it was completed elsewhere; drop from queue.
    return true;
  }
  const int client = stream->client_id();
  const int limit = stream->client().IsHighPriority() ? kMaxOutstandingHp : kMaxOutstandingBe;
  if (State(client).outstanding >= limit) {
    return false;  // Sync-queue throttle: backlog above threshold.
  }

  const LaunchRecord& rec = stream->PeekHead();
  const KernelDesc& kernel = *rec.kernel;

  OperatorKey key;
  key.queue_id = stream->id();
  key.ordinal = rec.batch_ordinal;
  key.signature = kernel.LaunchSignature();
  LatencyPredictor::OperatorModel* model = predictor_.Find(key);

  // Batch-boundary detection for the DVFS learning period: ordinal reset
  // means a synchronization event passed.
  if (static_cast<int64_t>(rec.batch_ordinal) <= head.last_ordinal) {
    dvfs_.OnBatchBoundary(stream->id());
  }
  head.last_ordinal = rec.batch_ordinal;

  // Desired allocation: without right-sizing, a kernel occupies the client's
  // full guaranteed region (quota), like a dedicated deployment — the waste
  // the right-sizer then reclaims per kernel (Fig. 17's baseline). Quota-less
  // best-effort clients ask for the kernel's occupancy bound.
  const int desired = right_sizer_.ChooseTpcs(model, kernel, BaseAllocation(stream, kernel));

  const TpcMask mask = tpc_scheduler_.Acquire(client, desired);
  if (mask.none()) {
    if (stream->client().IsHighPriority()) {
      tpc_scheduler_.RequestReclaim(client);
    }
    return false;
  }

  // Predict the kernel's duration on the actual grant and build the atom plan.
  ExecConditions cond;
  cond.tpcs = static_cast<double>(mask.count());
  cond.freq_mhz = engine_->CurrentFrequencyMhz();
  cond.block_fraction = 1.0;
  const DurationNs predicted = predictor_.Predict(key, model, cond);

  head.inflight = true;
  head.kernel = &kernel;
  head.key = key;
  head.model = model;
  head.plan = atomizer_.Plan(kernel, key.signature, predicted, static_cast<int>(mask.count()),
                             engine_->spec());
  head.next_atom = 0;
  head.work_ns = 0;
  head.overhead_ns = 0;
  stream->BeginHead();

  // The probe grant only sized the plan; LaunchNextAtom re-acquires. Both
  // happen at the same instant, so the TPCs cannot escape in between.
  tpc_scheduler_.Release(mask);
  const bool launched = LaunchNextAtom(&head);
  LITHOS_CHECK(launched);
  return true;
}

bool LithosBackend::LaunchNextAtom(HeadExec* exec) {
  const Atom atom = exec->plan.At(exec->next_atom);
  const int client = exec->stream->client_id();
#ifndef NDEBUG
  // The model the head looked up once must still be the operator's.
  LITHOS_CHECK(exec->model == predictor_.Find(exec->key));
#endif

  // Re-acquire TPCs: allocations may shrink (reclaim took effect) or grow
  // (new idle TPCs appeared) between atoms — the paper's mid-kernel
  // reallocation.
  const int desired = right_sizer_.ChooseTpcs(exec->model, *exec->kernel,
                                              BaseAllocation(exec->stream, *exec->kernel));

  const TpcMask mask = tpc_scheduler_.Acquire(client, desired);
  if (mask.none()) {
    if (exec->stream->client().IsHighPriority()) {
      tpc_scheduler_.RequestReclaim(client);
    }
    return false;
  }

  ExecConditions cond;
  cond.tpcs = static_cast<double>(mask.count());
  cond.freq_mhz = engine_->CurrentFrequencyMhz();
  cond.block_fraction =
      static_cast<double>(atom.NumBlocks()) / static_cast<double>(exec->kernel->NumBlocks());
  exec->predicted_atom = predictor_.Predict(exec->key, exec->model, cond) + atom.overhead_ns;
  exec->mask = mask;

  WorkItem item;
  item.kernel = exec->kernel;
  item.block_lo = atom.block_lo;
  item.block_hi = atom.block_hi;
  item.client_id = client;
  item.stream_tag = static_cast<uint64_t>(exec->stream->id());
  item.extra_overhead_ns = atom.overhead_ns;
  Stream* s = exec->stream;
  item.on_complete = [this, s](const GrantInfo& info) { OnAtomComplete(s, info); };

  engine_->Launch(std::move(item), mask);
  ++State(client).outstanding;
  tpc_scheduler_.SetClientActive(client, true);
  ++atoms_dispatched_;
  ++exec->next_atom;
  return true;
}

void LithosBackend::OnAtomComplete(Stream* stream, const GrantInfo& info) {
  HeadExec& exec = Head(stream);
  LITHOS_CHECK(exec.inflight);
  const int client = stream->client_id();

  if (--State(client).outstanding == 0) {
    tpc_scheduler_.SetClientActive(client, false);
  }
  tpc_scheduler_.Release(exec.mask);

  // Tracker duties: feed the predictor, DVFS weights, and atomizer feedback.
  const Atom atom = exec.plan.At(exec.next_atom - 1);
  ExecConditions cond;
  cond.tpcs = static_cast<double>(info.allocated_tpcs);
  cond.freq_mhz = info.freq_mhz_at_start;
  cond.block_fraction =
      static_cast<double>(atom.NumBlocks()) / static_cast<double>(exec.kernel->NumBlocks());
  const DurationNs observed = info.Duration();
  exec.model = predictor_.Record(exec.key, exec.model, cond, observed, exec.predicted_atom);

  exec.work_ns += std::max<DurationNs>(0, observed - atom.overhead_ns);
  exec.overhead_ns += atom.overhead_ns;

  if (exec.next_atom < exec.plan.NumAtoms()) {
    if (!LaunchNextAtom(&exec)) {
      // No TPCs right now: park the head mid-kernel; the pump loop resumes
      // it when capacity frees (TryDispatch sees the head in flight).
      exec.mask.reset();
      Park(stream, /*mid_kernel=*/true);
    }
    Pump();
    return;
  }

  // Head complete.
  dvfs_.RecordKernel(stream->id(), exec.work_ns + exec.overhead_ns,
                     LatencyPredictor::FreqSensitivity(exec.model));
  atomizer_.RecordOverhead(exec.key.signature, exec.work_ns, exec.overhead_ns);
  exec.inflight = false;
  // May synchronously re-notify OnStreamReady and grow heads_; `exec` is not
  // used past this point.
  stream->CompleteHead();
  Pump();
}

void LithosBackend::ResetAccounting() {
  predictor_.ResetStats();
}

}  // namespace lithos
