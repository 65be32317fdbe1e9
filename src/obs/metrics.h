// MetricsRegistry: named counters, gauges, and histograms with per-phase
// snapshotting.
//
// Any layer registers a named instrument once and bumps it through a cached
// pointer — the hot path is a plain integer increment, no map lookup.
// Benches then emit `Rows()` into the existing JsonEmitter so
// `bench/out/BENCH_*.json` carries the registry verbatim.
//
// Determinism contract: instruments are registered and iterated in
// registration order, values derive only from simulation state, and nothing
// here reads a wall clock — so registry output is byte-identical across runs
// and `--jobs` values like every other simulation output.
//
// Phases: BeginPhase()/EndPhase() bracket a measurement window (e.g. the
// pre/during/post windows of a fault scenario). EndPhase() snapshots every
// counter as its delta over the window, every gauge at its current value and
// every histogram over the samples it holds (expanded as in Rows()),
// appending a copyable PhaseSnapshot to phases(); Snapshot() takes the same
// kind of snapshot with counters at their absolute value (e.g. run totals).
// A histogram is not windowed by the registry: its owner clears it when a
// window opens (ClusterDispatcher::BeginMeasurement does so for
// fleet/latency_ms). Time series are excluded from snapshots — they are
// already windowed by sim-time; read them directly.
#ifndef LITHOS_OBS_METRICS_H_
#define LITHOS_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/stats.h"

namespace lithos {

// Monotonic event count (resettable for measurement windows).
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  void Reset() { value_ = 0; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Point-in-time or accumulated double (request-milliseconds, GPU-ms, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  void Reset() { value_ = 0; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Sample distribution backed by PercentileDigest; inherits its contract:
// Finalize() before reading percentiles, Add() un-finalizes.
class Histogram {
 public:
  void Add(double x) { digest_.Add(x); }
  void Finalize() { digest_.Finalize(); }
  void Clear() { digest_.Clear(); }
  size_t count() const { return digest_.count(); }
  double Mean() const { return digest_.Mean(); }
  double Percentile(double q) const { return digest_.Percentile(q); }
  PercentileDigest& digest() { return digest_; }
  const PercentileDigest& digest() const { return digest_; }

 private:
  PercentileDigest digest_;
};

// Exponentially weighted moving average over discrete observations. Used as
// the per-(model,node) and per-zone baseline in the gray-failure detector:
// cheap, O(1) state, and deterministic (no wall clock, pure arithmetic).
// warm() gates consumers until enough samples have landed for the average to
// mean something.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.3) : alpha_(alpha) {}

  void Observe(double x) {
    value_ = samples_ == 0 ? x : alpha_ * x + (1.0 - alpha_) * value_;
    ++samples_;
  }
  void Reset() {
    value_ = 0;
    samples_ = 0;
  }
  double value() const { return value_; }
  uint64_t samples() const { return samples_; }
  bool warm(uint64_t min_samples) const { return samples_ >= min_samples; }

 private:
  double alpha_;
  double value_ = 0;
  uint64_t samples_ = 0;
};

// Windowed time-series rollup: observations land in fixed-width sim-time
// windows (window index = t / width), each keeping count/sum/min/max. Windows
// are created on first observation, so sparse series stay sparse. Time
// series are excluded from phase snapshots — their samples are already
// windowed by sim-time; read windows() directly.
class TimeSeries {
 public:
  struct Window {
    int64_t index = 0;  // window start = index * width
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
  };

  explicit TimeSeries(int64_t width_ns) : width_ns_(width_ns) {
    LITHOS_CHECK(width_ns > 0);
  }

  void Observe(int64_t time_ns, double value) {
    const int64_t index = time_ns / width_ns_;
    if (windows_.empty() || windows_.back().index != index) {
      LITHOS_CHECK(windows_.empty() || index > windows_.back().index);
      windows_.push_back(Window{index, 0, 0, value, value});
    }
    Window& w = windows_.back();
    ++w.count;
    w.sum += value;
    if (value < w.min) w.min = value;
    if (value > w.max) w.max = value;
  }

  int64_t width_ns() const { return width_ns_; }
  const std::vector<Window>& windows() const { return windows_; }
  uint64_t total_count() const {
    uint64_t n = 0;
    for (const Window& w : windows_) n += w.count;
    return n;
  }

 private:
  int64_t width_ns_;
  std::vector<Window> windows_;  // ascending window index
};

class MetricsRegistry {
 public:
  struct PhaseSnapshot {
    std::string name;
    // (instrument name, value): counters as window deltas (absolute values
    // for Snapshot()), gauges at their end-of-window value, histograms as
    // <name>/count, /mean, /p50, /p99 over their current samples, in
    // registration order.
    std::vector<std::pair<std::string, double>> values;

    // Looks up `metric`; a name the snapshot does not hold is a checked error.
    double ValueOf(const std::string& metric) const;
    // A counter's value as an integer (counters are exact in a double).
    uint64_t Count(const std::string& metric) const {
      return static_cast<uint64_t>(ValueOf(metric));
    }
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the instrument with `name`, registering it on first use. The
  // reference is stable for the registry's lifetime (cache it on hot paths).
  // Re-requesting a name with a different instrument type is a checked error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  // Windowed rollup with fixed sim-time windows. The width is fixed at
  // registration; re-requesting with a different width is a checked error.
  TimeSeries& timeseries(const std::string& name, int64_t width_ns);

  // Opens a measurement window. A still-open window is closed first.
  void BeginPhase(const std::string& name);
  // Closes the window opened by BeginPhase() and appends its snapshot
  // (finalizing every histogram).
  void EndPhase();
  const std::vector<PhaseSnapshot>& phases() const { return phases_; }
  // Every counter, gauge and histogram at its current value, labelled
  // `name`. Leaves any open phase untouched (but finalizes histograms).
  PhaseSnapshot Snapshot(const std::string& name);

  // Flat (name, value) rows in registration order: counters and gauges as
  // their current value; histograms expanded to <name>/count, <name>/mean,
  // <name>/p50, <name>/p99 (finalizing them as a side effect). Suitable for
  // feeding straight into JsonEmitter.
  std::vector<std::pair<std::string, double>> Rows();

  size_t num_instruments() const { return entries_.size(); }

 private:
  enum class Type { kCounter, kGauge, kHistogram, kTimeSeries };

  struct Entry {
    std::string name;
    Type type;
    // Exactly one is non-null; unique_ptr keeps references stable as the
    // entry vector grows.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<TimeSeries> timeseries;
  };

  Entry& FindOrCreate(const std::string& name, Type type);
  // Counters as their delta from `counter_base` (indexed by entry position;
  // a missing entry baselines at zero), gauges at their current value,
  // histograms expanded by AppendHistogram.
  PhaseSnapshot Capture(const std::string& name,
                        const std::map<size_t, uint64_t>& counter_base);

  std::vector<Entry> entries_;  // registration order
  std::map<std::string, size_t> index_;

  bool phase_open_ = false;
  std::string phase_name_;
  // Counter values captured at BeginPhase(), indexed by entry position.
  // Counters registered mid-phase baseline at zero (map misses).
  std::map<size_t, uint64_t> phase_counter_base_;
  std::vector<PhaseSnapshot> phases_;
};

}  // namespace lithos

#endif  // LITHOS_OBS_METRICS_H_
