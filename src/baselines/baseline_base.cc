#include "src/baselines/baseline_base.h"

#include "src/common/check.h"

namespace lithos {

GrantId BaselineBackend::SubmitWhole(Stream* stream, const TpcMask& mask, double priority_boost) {
  const LaunchRecord& rec = stream->BeginHead();
  WorkItem item;
  item.kernel = rec.kernel;
  item.block_lo = 0;
  item.block_hi = 0;  // full grid
  item.client_id = stream->client_id();
  item.stream_tag = static_cast<uint64_t>(stream->id());
  item.extra_overhead_ns = kLaunchOverheadNs;
  // Demand-proportional sharing: see the header comment.
  item.share_weight = priority_boost * static_cast<double>(rec.kernel->NumBlocks());
  item.on_complete = [this, stream](const GrantInfo& info) {
    streams_[static_cast<size_t>(stream->id())].grant = kInvalidGrant;
    HandleHeadComplete(stream, info);
  };
  const GrantId id = engine_->Launch(std::move(item), mask);
  Entry(stream).grant = id;
  return id;
}

BaselineBackend::StreamEntry& BaselineBackend::Entry(Stream* stream) {
  const size_t index = static_cast<size_t>(stream->id());
  if (index >= streams_.size()) {
    streams_.resize(index + 1);
  }
  streams_[index].stream = stream;
  return streams_[index];
}

void BaselineBackend::EnqueueOnce(std::deque<Stream*>& queue, Stream* stream) {
  StreamEntry& entry = Entry(stream);
  if (!entry.queued) {
    entry.queued = true;
    queue.push_back(stream);
  }
}

Stream* BaselineBackend::Unqueue(std::deque<Stream*>& queue, size_t pos) {
  Stream* stream = queue[pos];
  queue.erase(queue.begin() + static_cast<ptrdiff_t>(pos));
  streams_[static_cast<size_t>(stream->id())].queued = false;
  return stream;
}

void BaselineBackend::HandleHeadComplete(Stream* stream, const GrantInfo& info) {
  (void)info;
  stream->CompleteHead();
}

bool BaselineBackend::CancelInFlight(Stream* stream) {
  const size_t index = static_cast<size_t>(stream->id());
  if (index >= streams_.size() || !streams_[index].InFlight() ||
      !engine_->IsActive(streams_[index].grant)) {
    return false;
  }
  engine_->Abort(streams_[index].grant);  // completion event rescinded; on_complete never runs
  streams_[index].grant = kInvalidGrant;
  stream->CompleteHead();  // pops the aborted head, drains markers, re-notifies
  return true;
}

int BaselineBackend::InflightOfClass(PriorityClass cls) const {
  int n = 0;
  for (const StreamEntry& e : streams_) {
    if (e.InFlight() && e.stream->client().priority == cls) {
      ++n;
    }
  }
  return n;
}

}  // namespace lithos
