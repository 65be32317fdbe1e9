// Online latency prediction (paper Section 4.7).
//
// The predictor learns per-operator execution times entirely online — no
// offline profiling — and feeds the Kernel Atomizer's split counts, the
// right-sizer's scaling curves, and the DVFS manager's sensitivity
// estimates. The TPC Scheduler does not read it: its grants come from its
// free and ownership masks alone.
//
// Operators are identified by (launch queue, batch ordinal, launch signature):
// a single kernel function reused across layers with different tensor shapes
// maps to distinct operators, exactly the pitfall Section 4.7 calls out.
// Queue ids and batch ordinals are small dense counters, so the operators are
// indexed by them directly: queue -> ordinal -> the few signatures seen at
// that position, in first-seen order. A lookup is two vector indexes and a
// short scan of 64-bit signatures; only dynamic batching puts more than one
// operator at a position (one per batch size).
//
// Observations are normalised to canonical conditions (full grid fraction,
// reference frequency) assuming optimal linear scaling, the paper's stated
// conservative assumption when metadata for the exact conditions is missing.
// Once two or more distinct TPC allocations have been observed, the predictor
// fits the scaling law l = m/t + b and uses it instead. The fit is cached per
// operator and refitted in Record, the only place its points change, so
// Predict and GetScalingFit read it without refitting.
//
// Every per-operator call comes in two forms: keyed, and on the operator's
// model as returned by Find. The keyed form is Find plus the model form, so
// both give the same answer bit for bit; the dispatcher looks each stream
// head up once and uses the model form for all of its atoms.
#ifndef LITHOS_CORE_LATENCY_PREDICTOR_H_
#define LITHOS_CORE_LATENCY_PREDICTOR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/gpu/gpu_spec.h"

namespace lithos {

// Identity of a model operator as reconstructible from driver-level data.
struct OperatorKey {
  int queue_id = 0;        // launch queue (stream)
  uint32_t ordinal = 0;    // k-th kernel since batch start
  uint64_t signature = 0;  // launch-configuration hash

  bool operator==(const OperatorKey& o) const {
    return queue_id == o.queue_id && ordinal == o.ordinal && signature == o.signature;
  }
};

// Execution conditions under which a latency was observed or is predicted.
struct ExecConditions {
  double tpcs = 1;          // allocated TPCs
  int freq_mhz = 0;         // device clock
  double block_fraction = 1.0;  // atom size relative to the full grid
};

struct PredictionStats {
  uint64_t predictions = 0;
  uint64_t mispredictions = 0;  // |error| > threshold
  PercentileDigest abs_error_us;

  double MispredictionRate() const {
    return predictions == 0 ? 0.0
                            : static_cast<double>(mispredictions) / static_cast<double>(predictions);
  }
};

class LatencyPredictor {
 public:
  // What the predictor has learned about one operator. Callers on the
  // per-kernel path look an operator up once with Find and pass the pointer
  // to the calls below; models are never erased and live in stable storage
  // that the index only points into, so a pointer stays valid for the
  // predictor's lifetime. Read it only through the predictor.
  struct OperatorModel {
    // EWMA latency per distinct TPC allocation, normalised to full grid
    // fraction and max frequency with the operator's estimated sensitivity.
    std::map<int, double> by_tpcs;  // rounded tpcs -> canonical ns
    ScalingFit fit;                 // fit over by_tpcs; valid once size() >= 2
    double last_tpcs = 0;           // allocation of most recent observation
    // Frequency sensitivity estimate (s in [0,1]); starts at the conservative
    // linear assumption s = 1.
    double freq_sensitivity = 1.0;
    bool sensitivity_known = false;
    uint64_t observations = 0;
  };

  // Prior for never-seen operators.
  static constexpr DurationNs kDefaultLatency = FromMicros(100);

  explicit LatencyPredictor(const GpuSpec& spec) : spec_(spec) {}

  // The operator's model, or nullptr while it has no observation (always for
  // a negative queue id).
  OperatorModel* Find(const OperatorKey& key);
  const OperatorModel* Find(const OperatorKey& key) const;

  // Predicts operator latency under `cond`. Falls back to the queue-wide
  // running mean, then kDefaultLatency, when the operator is unseen.
  DurationNs Predict(const OperatorKey& key, const ExecConditions& cond) const {
    return Predict(key, Find(key), cond);
  }
  // The same for the operator whose model is `model` (Find(key)).
  DurationNs Predict(const OperatorKey& key, const OperatorModel* model,
                     const ExecConditions& cond) const;

  // True if at least one observation exists for this operator.
  bool HasSeen(const OperatorKey& key) const { return Find(key) != nullptr; }

  // Records an observed execution. `predicted` is what the caller used for
  // scheduling (pass 0 to skip accuracy accounting).
  void Record(const OperatorKey& key, const ExecConditions& cond, DurationNs observed,
              DurationNs predicted = 0) {
    Record(key, Find(key), cond, observed, predicted);
  }
  // The same for the operator whose model is `model` (Find(key), so nullptr
  // before the first observation). Returns the operator's model, created on
  // its first observation; a null `model` for a seen operator finds its
  // model.
  OperatorModel* Record(const OperatorKey& key, OperatorModel* model, const ExecConditions& cond,
                        DurationNs observed, DurationNs predicted);

  // Fitted scaling curve for an operator, if enough distinct TPC points have
  // been observed (used by the right-sizer). Returns false otherwise.
  bool GetScalingFit(const OperatorKey& key, ScalingFit* fit) const {
    return GetScalingFit(Find(key), fit);
  }
  static bool GetScalingFit(const OperatorModel* model, ScalingFit* fit);

  // Distinct TPC allocations observed for the operator.
  int DistinctTpcPoints(const OperatorKey& key) const { return DistinctTpcPoints(Find(key)); }
  static int DistinctTpcPoints(const OperatorModel* model);

  // Learned frequency sensitivity s in [0,1]; negative when no cross-
  // frequency evidence exists yet (the DVFS manager then assumes s = 1).
  double FreqSensitivity(const OperatorKey& key) const { return FreqSensitivity(Find(key)); }
  static double FreqSensitivity(const OperatorModel* model);

  // Accuracy accounting: mispredictions are absolute errors > 50us (§7.4).
  const PredictionStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PredictionStats{}; }
  // Sorts the error digest; call once recording is done, before reading
  // error percentiles through stats().
  void FinalizeStats() { stats_.abs_error_us.Finalize(); }

  static constexpr double kMispredictionThresholdUs = 50.0;

  // Operators with at least one observation.
  size_t num_operators() const { return models_.size(); }
  // Signature comparisons Find has made since construction: the index's
  // work count, deterministic for a deterministic run.
  uint64_t signature_compares() const { return signature_compares_; }

 private:
  // One operator at an index position.
  struct IndexEntry {
    uint64_t signature;
    OperatorModel* model;
  };

  double FreqFactor(int freq_mhz, double sensitivity) const;

  GpuSpec spec_;
  // Operator index: queue id -> batch ordinal -> the operators seen at that
  // position, in first-seen order. Grown only by Record.
  std::vector<std::vector<std::vector<IndexEntry>>> index_;
  // Owns the models the index points to, one allocation each, so none ever
  // moves. (A std::deque would allocate even while empty, on every node.)
  std::vector<std::unique_ptr<OperatorModel>> models_;
  mutable uint64_t signature_compares_ = 0;
  // Per-queue running mean used as a prior for unseen operators, indexed by
  // queue (stream) id; a queue with count 0 has no prior yet.
  std::vector<double> queue_mean_;
  std::vector<uint64_t> queue_count_;
  // Refit scratch: an operator's (tpcs, canonical ns) points in allocation
  // order. Every Record reuses it, so a refit allocates only while the most
  // points seen so far grows.
  std::vector<double> fit_tpcs_;
  std::vector<double> fit_latency_;
  PredictionStats stats_;
};

}  // namespace lithos

#endif  // LITHOS_CORE_LATENCY_PREDICTOR_H_
