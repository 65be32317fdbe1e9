// Static spatial partitioning baselines: NVIDIA MIG and MPS thread Limits
// (CUDA_MPS_ACTIVE_THREAD_PERCENTAGE).
//
// Both carve the device into fixed, disjoint TPC regions sized from each
// client's tpc_quota. MIG additionally rounds every partition up to whole
// GPC boundaries — the coarseness that forces the 3/7-4/7 split in the
// paper's inference experiment (Section 7.1) — and supports no best-effort
// tenants at all: a client with no partition simply never runs. Limits
// allocates at TPC granularity but is equally static.
#ifndef LITHOS_BASELINES_PARTITION_BACKEND_H_
#define LITHOS_BASELINES_PARTITION_BACKEND_H_

#include <string>
#include <vector>

#include "src/baselines/baseline_base.h"

namespace lithos {

class PartitionBackend : public BaselineBackend {
 public:
  enum class Mode {
    kMig,     // GPC-aligned partitions, >5s reconfiguration (never done online)
    kLimits,  // TPC-granular static masks
  };

  PartitionBackend(Simulator* sim, ExecutionEngine* engine, Mode mode)
      : BaselineBackend(sim, engine), mode_(mode) {}

  std::string Name() const override { return mode_ == Mode::kMig ? "MIG" : "Limits"; }

  void OnClientRegistered(const Client& client) override;
  void OnStreamReady(Stream* stream) override;

  // Partition assigned to a client (empty if none — the client cannot run).
  TpcMask PartitionOf(int client_id) const;

 private:
  Mode mode_;
  std::vector<TpcMask> partitions_;  // indexed by client id; empty = no partition
  int next_tpc_ = 0;
  int next_gpc_ = 0;
};

}  // namespace lithos

#endif  // LITHOS_BASELINES_PARTITION_BACKEND_H_
