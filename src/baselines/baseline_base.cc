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
    inflight_[static_cast<size_t>(stream->id())] = {};
    HandleHeadComplete(stream, info);
  };
  const GrantId id = engine_->Launch(std::move(item), mask);
  const size_t index = static_cast<size_t>(stream->id());
  if (index >= inflight_.size()) {
    inflight_.resize(index + 1);
  }
  inflight_[index] = {stream, id};
  return id;
}

void BaselineBackend::HandleHeadComplete(Stream* stream, const GrantInfo& info) {
  (void)info;
  stream->CompleteHead();
}

bool BaselineBackend::CancelInFlight(Stream* stream) {
  const size_t index = static_cast<size_t>(stream->id());
  if (index >= inflight_.size() || inflight_[index].stream == nullptr ||
      !engine_->IsActive(inflight_[index].grant)) {
    return false;
  }
  engine_->Abort(inflight_[index].grant);  // completion event rescinded; on_complete never runs
  inflight_[index] = {};
  stream->CompleteHead();  // pops the aborted head, drains markers, re-notifies
  return true;
}

int BaselineBackend::InflightOfClass(PriorityClass cls) const {
  int n = 0;
  for (const InflightGrant& g : inflight_) {
    if (g.stream == nullptr) {
      continue;
    }
    auto it = clients_.find(g.stream->client_id());
    if (it != clients_.end() && it->second.priority == cls) {
      ++n;
    }
  }
  return n;
}

}  // namespace lithos
