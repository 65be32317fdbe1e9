#include "src/core/latency_predictor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace lithos {

namespace {
// EWMA smoothing for repeated observations under identical conditions.
constexpr double kEwmaAlpha = 0.3;
// TPC allocations are bucketed to integers for the per-allocation EWMA table.
int TpcBucket(double tpcs) { return std::max(1, static_cast<int>(std::lround(tpcs))); }
}  // namespace

double LatencyPredictor::FreqFactor(int freq_mhz, double sensitivity) const {
  if (freq_mhz <= 0 || freq_mhz >= spec_.max_mhz) {
    return 1.0;
  }
  const double ratio = static_cast<double>(spec_.max_mhz) / static_cast<double>(freq_mhz);
  return 1.0 + sensitivity * (ratio - 1.0);
}

LatencyPredictor::OperatorModel* LatencyPredictor::Find(const OperatorKey& key) {
  return const_cast<OperatorModel*>(std::as_const(*this).Find(key));
}

const LatencyPredictor::OperatorModel* LatencyPredictor::Find(const OperatorKey& key) const {
  // A negative queue id wraps to a huge index and misses like an unseen one.
  const size_t q = static_cast<size_t>(key.queue_id);
  if (q >= index_.size() || key.ordinal >= index_[q].size()) {
    return nullptr;
  }
  const std::vector<IndexEntry>& entries = index_[q][key.ordinal];
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].signature == key.signature) {
      signature_compares_ += i + 1;
      return entries[i].model;
    }
  }
  signature_compares_ += entries.size();
  return nullptr;
}

DurationNs LatencyPredictor::Predict(const OperatorKey& key, const OperatorModel* model,
                                     const ExecConditions& cond) const {
  const double frac = std::clamp(cond.block_fraction, 1e-9, 1.0);

  if (model == nullptr) {
    // Unseen operator: queue-wide mean, else the fixed default. The
    // prior is deliberately rough; it only has to be good enough to decide
    // whether a first execution is worth atomizing.
    double base = static_cast<double>(kDefaultLatency);
    const size_t q = static_cast<size_t>(key.queue_id);
    if (q < queue_count_.size() && queue_count_[q] > 0) {
      base = queue_mean_[q];
    }
    return static_cast<DurationNs>(base * frac * FreqFactor(cond.freq_mhz, 1.0));
  }

  const OperatorModel& m = *model;
  const double ff = FreqFactor(cond.freq_mhz, m.freq_sensitivity);

  if (m.by_tpcs.size() >= 2) {
    // Enough distinct allocations: the fitted l = m/t + b.
    const double lat = m.fit.Latency(std::max(cond.tpcs, 1e-6));
    return static_cast<DurationNs>(std::max(1.0, lat * frac * ff));
  }

  // One allocation point: conservative optimal-linear-scaling extrapolation
  // (an operator seen at 100% of the GPU is predicted to take 2x at 50%).
  const auto& [t0, canonical] = *m.by_tpcs.begin();
  const double scale = static_cast<double>(t0) / std::max(cond.tpcs, 1e-6);
  return static_cast<DurationNs>(std::max(1.0, canonical * scale * frac * ff));
}

LatencyPredictor::OperatorModel* LatencyPredictor::Record(const OperatorKey& key,
                                                          OperatorModel* model,
                                                          const ExecConditions& cond,
                                                          DurationNs observed,
                                                          DurationNs predicted) {
  LITHOS_CHECK_GT(observed, 0);
  const double frac = std::clamp(cond.block_fraction, 1e-9, 1.0);

  LITHOS_CHECK_GE(key.queue_id, 0);
  const size_t q = static_cast<size_t>(key.queue_id);
  if (model == nullptr) {
    if (q >= index_.size()) {
      index_.resize(q + 1);
    }
    std::vector<std::vector<IndexEntry>>& by_ordinal = index_[q];
    if (key.ordinal >= by_ordinal.size()) {
      by_ordinal.resize(static_cast<size_t>(key.ordinal) + 1);
    }
    std::vector<IndexEntry>& entries = by_ordinal[key.ordinal];
    for (const IndexEntry& e : entries) {
      if (e.signature == key.signature) {
        model = e.model;
        break;
      }
    }
    if (model == nullptr) {
      model = models_.emplace_back(std::make_unique<OperatorModel>()).get();
      entries.push_back(IndexEntry{key.signature, model});
    }
  }
  OperatorModel& m = *model;

  // Estimate frequency sensitivity when the same allocation has been seen at
  // f_max: s = (l_f / l_fmax - 1) / (f_max/f - 1).
  const int bucket = TpcBucket(cond.tpcs);
  if (cond.freq_mhz > 0 && cond.freq_mhz < spec_.max_mhz) {
    auto bit = m.by_tpcs.find(bucket);
    if (bit != m.by_tpcs.end() && bit->second > 0) {
      const double l_fmax = bit->second * frac;
      const double k_obs = static_cast<double>(observed) / l_fmax - 1.0;
      const double denom =
          static_cast<double>(spec_.max_mhz) / static_cast<double>(cond.freq_mhz) - 1.0;
      if (denom > 1e-9) {
        const double s = std::clamp(k_obs / denom, 0.0, 1.0);
        m.freq_sensitivity = m.sensitivity_known
                                 ? (1.0 - kEwmaAlpha) * m.freq_sensitivity + kEwmaAlpha * s
                                 : s;
        m.sensitivity_known = true;
      }
    }
  }

  // Canonicalise to full grid at f_max using the current sensitivity belief.
  const double ff = FreqFactor(cond.freq_mhz, m.freq_sensitivity);
  const double canonical = static_cast<double>(observed) / frac / ff;

  auto [bit, inserted] = m.by_tpcs.emplace(bucket, canonical);
  if (!inserted) {
    bit->second = (1.0 - kEwmaAlpha) * bit->second + kEwmaAlpha * canonical;
  }
  m.last_tpcs = cond.tpcs;
  ++m.observations;
  if (m.by_tpcs.size() >= 2) {
    // Refit l = m/t + b over the canonical points, in allocation order.
    fit_tpcs_.clear();
    fit_latency_.clear();
    for (const auto& [t, l] : m.by_tpcs) {
      fit_tpcs_.push_back(static_cast<double>(t));
      fit_latency_.push_back(l);
    }
    m.fit = FitInverseScaling(fit_tpcs_, fit_latency_);
  }

  // Queue-wide running mean prior.
  if (q >= queue_count_.size()) {
    queue_count_.resize(q + 1, 0);
    queue_mean_.resize(q + 1, 0.0);
  }
  uint64_t& qc = queue_count_[q];
  double& qm = queue_mean_[q];
  ++qc;
  qm += (canonical - qm) / static_cast<double>(qc);

  // Accuracy accounting (§7.4): misprediction if |error| > 50us.
  if (predicted > 0) {
    ++stats_.predictions;
    const double err_us = std::abs(static_cast<double>(observed - predicted)) / kMicrosecond;
    stats_.abs_error_us.Add(err_us);
    if (err_us > kMispredictionThresholdUs) {
      ++stats_.mispredictions;
    }
  }
  return model;
}

bool LatencyPredictor::GetScalingFit(const OperatorModel* model, ScalingFit* fit) {
  if (model == nullptr || model->by_tpcs.size() < 2) {
    return false;
  }
  *fit = model->fit;
  return true;
}

int LatencyPredictor::DistinctTpcPoints(const OperatorModel* model) {
  return model == nullptr ? 0 : static_cast<int>(model->by_tpcs.size());
}

double LatencyPredictor::FreqSensitivity(const OperatorModel* model) {
  if (model == nullptr || !model->sensitivity_known) {
    return -1.0;
  }
  return model->freq_sensitivity;
}

}  // namespace lithos
