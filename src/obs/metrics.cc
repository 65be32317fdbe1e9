#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace lithos {

namespace {

// <name>/count, /mean, /p50, /p99 — the one histogram expansion for Rows()
// and snapshots. The mean is summed before Finalize(), in insertion order,
// as ClusterDispatcher::Collect takes it, so a snapshot's mean is
// bit-identical to Collect's over the same samples.
void AppendHistogram(const std::string& name, Histogram& h,
                     std::vector<std::pair<std::string, double>>* rows) {
  const double mean = h.Mean();
  h.Finalize();
  rows->emplace_back(name + "/count", static_cast<double>(h.count()));
  rows->emplace_back(name + "/mean", mean);
  rows->emplace_back(name + "/p50", h.Percentile(50));
  rows->emplace_back(name + "/p99", h.Percentile(99));
}

}  // namespace

double MetricsRegistry::PhaseSnapshot::ValueOf(const std::string& metric) const {
  const auto it = std::find_if(values.begin(), values.end(),
                               [&metric](const auto& entry) { return entry.first == metric; });
  if (it == values.end()) {
    std::fprintf(stderr, "no metric '%s' in snapshot '%s'\n", metric.c_str(), name.c_str());
  }
  LITHOS_CHECK(it != values.end());
  return it->second;
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(const std::string& name,
                                                      Type type) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    LITHOS_CHECK(e.type == type);  // one name, one instrument type
    return e;
  }
  const size_t pos = entries_.size();
  entries_.emplace_back();
  Entry& e = entries_.back();
  e.name = name;
  e.type = type;
  switch (type) {
    case Type::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case Type::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case Type::kHistogram:
      e.histogram = std::make_unique<Histogram>();
      break;
    case Type::kTimeSeries:
      // Constructed by timeseries(): the width lives in the instrument.
      break;
  }
  index_.emplace(name, pos);
  return e;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *FindOrCreate(name, Type::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *FindOrCreate(name, Type::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return *FindOrCreate(name, Type::kHistogram).histogram;
}

TimeSeries& MetricsRegistry::timeseries(const std::string& name,
                                        int64_t width_ns) {
  Entry& e = FindOrCreate(name, Type::kTimeSeries);
  if (e.timeseries == nullptr) {
    e.timeseries = std::make_unique<TimeSeries>(width_ns);
  }
  LITHOS_CHECK(e.timeseries->width_ns() == width_ns);
  return *e.timeseries;
}

void MetricsRegistry::BeginPhase(const std::string& name) {
  if (phase_open_) {
    EndPhase();
  }
  phase_open_ = true;
  phase_name_ = name;
  phase_counter_base_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].type == Type::kCounter) {
      phase_counter_base_[i] = entries_[i].counter->value();
    }
  }
}

MetricsRegistry::PhaseSnapshot MetricsRegistry::Capture(
    const std::string& name, const std::map<size_t, uint64_t>& counter_base) {
  PhaseSnapshot snap;
  snap.name = name;
  for (size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.type == Type::kCounter) {
      const uint64_t value = e.counter->value();
      auto it = counter_base.find(i);
      const uint64_t base = it == counter_base.end() ? 0 : it->second;
      // A counter Reset() mid-phase restarts its window at zero.
      const uint64_t delta = value >= base ? value - base : value;
      snap.values.emplace_back(e.name, static_cast<double>(delta));
    } else if (e.type == Type::kGauge) {
      snap.values.emplace_back(e.name, e.gauge->value());
    } else if (e.type == Type::kHistogram) {
      AppendHistogram(e.name, *e.histogram, &snap.values);
    }
    // Time series are already windowed by sim-time; read them directly.
  }
  return snap;
}

MetricsRegistry::PhaseSnapshot MetricsRegistry::Snapshot(const std::string& name) {
  return Capture(name, {});
}

void MetricsRegistry::EndPhase() {
  LITHOS_CHECK(phase_open_);
  phases_.push_back(Capture(phase_name_, phase_counter_base_));
  phase_open_ = false;
  phase_counter_base_.clear();
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Rows() {
  std::vector<std::pair<std::string, double>> rows;
  for (Entry& e : entries_) {
    switch (e.type) {
      case Type::kCounter:
        rows.emplace_back(e.name, static_cast<double>(e.counter->value()));
        break;
      case Type::kGauge:
        rows.emplace_back(e.name, e.gauge->value());
        break;
      case Type::kHistogram:
        AppendHistogram(e.name, *e.histogram, &rows);
        break;
      case Type::kTimeSeries: {
        const TimeSeries& ts = *e.timeseries;
        rows.emplace_back(e.name + "/windows",
                          static_cast<double>(ts.windows().size()));
        rows.emplace_back(e.name + "/count",
                          static_cast<double>(ts.total_count()));
        break;
      }
    }
  }
  return rows;
}

}  // namespace lithos
