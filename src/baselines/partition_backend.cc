#include "src/baselines/partition_backend.h"

#include <algorithm>

#include "src/common/check.h"

namespace lithos {

void PartitionBackend::OnClientRegistered(const Client& client) {
  if (client.tpc_quota <= 0) {
    return;  // No partition: under MIG/Limits this tenant can never run.
  }
  const GpuSpec& spec = engine_->spec();
  TpcMask mask;

  if (mode_ == Mode::kMig) {
    // Round the request up to whole GPCs, allocating GPC by GPC.
    int remaining = client.tpc_quota;
    while (remaining > 0 && next_gpc_ < spec.NumGpcs()) {
      const auto [lo, hi] = spec.GpcTpcRange(next_gpc_);
      for (int t = lo; t < hi; ++t) {
        mask.set(t);
      }
      remaining -= hi - lo;
      ++next_gpc_;
    }
  } else {
    const int total = spec.TotalTpcs();
    const int granted = std::clamp(client.tpc_quota, 0, total - next_tpc_);
    for (int i = 0; i < granted; ++i) {
      mask.set(next_tpc_ + i);
    }
    next_tpc_ += granted;
  }

  if (client.id >= static_cast<int>(partitions_.size())) {
    partitions_.resize(static_cast<size_t>(client.id) + 1);
  }
  partitions_[static_cast<size_t>(client.id)] = mask;
}

TpcMask PartitionBackend::PartitionOf(int client_id) const {
  const size_t index = static_cast<size_t>(client_id);
  return index < partitions_.size() ? partitions_[index] : TpcMask{};
}

void PartitionBackend::OnStreamReady(Stream* stream) {
  const TpcMask mask = PartitionOf(stream->client_id());
  if (mask.none()) {
    return;  // No partition, no execution: the stream blocks forever.
  }
  SubmitWhole(stream, mask, 1.0);
}

}  // namespace lithos
