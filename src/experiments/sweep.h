// Parallel sweep runner: the experiment-execution layer under every
// grid-shaped bench. A bench declares a flat grid of named scenario points —
// each a pure closure (own config, own Simulator, own seeded Rng streams)
// producing that point's result struct — and the runner executes them on a
// thread pool sized by --jobs / $LITHOS_JOBS (default: the hardware
// concurrency) that claims points from one shared counter, collecting
// results back in declaration order.
//
// Determinism contract (see docs/harness.md): because every point is a pure
// function of its config and results are collected by declaration index, the
// rendered tables and JSON metrics of a sweep are byte-identical for any
// worker count — `--jobs 8` must reproduce `--jobs 1` exactly. Points must
// not share mutable state; shared inputs (model tables, GpuSpec, workload
// registries) are immutable after construction and passed by const&.
#ifndef LITHOS_EXPERIMENTS_SWEEP_H_
#define LITHOS_EXPERIMENTS_SWEEP_H_

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace lithos {

// Resolves a worker count: `requested` when > 0, else $LITHOS_JOBS, else
// std::thread::hardware_concurrency(); never less than 1.
int ResolveSweepJobs(int requested);

// Extracts `--jobs N`, `--jobs=N`, or `-j N` from a bench's argv. Returns 0
// when absent so ResolveSweepJobs falls through to the environment. A flag
// with a malformed or non-positive value is reported on stderr (and likewise
// falls through) rather than being silently dropped.
int ParseJobsArg(int argc, char** argv);

// One scenario point of a sweep grid. The name labels the point in error
// messages and progress output; `run` must be safe to invoke on any thread.
template <typename Result>
struct SweepPoint {
  std::string name;
  std::function<Result()> run;
};

// Wall-clock profile of one executed point (self-profiling diagnostics).
struct SweepPointProfile {
  std::string name;  // the point's name, or "#<i>" for unnamed grids
  double seconds = 0;
};

class SweepRunner {
 public:
  // jobs = 0 resolves via ResolveSweepJobs ($LITHOS_JOBS / hardware).
  explicit SweepRunner(int jobs = 0) : jobs_(ResolveSweepJobs(jobs)) {}

  int jobs() const { return jobs_; }
  // Points executed and wall-clock seconds spent across all Run calls.
  size_t points_run() const { return points_run_; }
  double wall_seconds() const { return wall_seconds_; }

  // Executes body(i) for every i in [0, n) across the pool and returns when
  // all complete. Workers claim the next unrun index from one shared
  // counter, so a run of slow points (e.g. one heavyweight system) spreads
  // over the pool instead of serialising the sweep.
  // With one worker the same loop runs inline on the caller — identical
  // semantics, no threads. Exceptions are captured per point (each failure
  // is reported on stderr with the point's name when `name_of` is given)
  // and the first in declaration order is rethrown once every point has run.
  void RunIndexed(size_t n, const std::function<void(size_t)>& body,
                  const std::function<std::string(size_t)>& name_of = {});

  // Runs a grid of named points; results come back in declaration order.
  template <typename Result>
  std::vector<Result> Run(const std::vector<SweepPoint<Result>>& points) {
    std::vector<Result> results(points.size());
    RunIndexed(
        points.size(), [&](size_t i) { results[i] = points[i].run(); },
        [&](size_t i) { return points[i].name; });
    return results;
  }

  // Convenience overload for grids that need no point names.
  template <typename Result>
  std::vector<Result> Run(const std::vector<std::function<Result()>>& points) {
    std::vector<Result> results(points.size());
    RunIndexed(points.size(), [&](size_t i) { results[i] = points[i](); });
    return results;
  }

  // The `n` slowest points run so far, slowest first. Per-point wall times
  // are collected into per-index slots during the run and merged after the
  // pool joins, so the listing is identical for any worker count (wall
  // *durations* still vary run to run — this is diagnostics, never metrics).
  std::vector<SweepPointProfile> SlowestPoints(size_t n) const;

  // One-line execution summary plus the slowest points on stderr — never
  // stdout, which must stay byte-identical across worker counts.
  void PrintSummary(const std::string& label) const;

 private:
  int jobs_;
  size_t points_run_ = 0;
  double wall_seconds_ = 0;
  std::vector<SweepPointProfile> profiles_;  // one entry per executed point
};

}  // namespace lithos

#endif  // LITHOS_EXPERIMENTS_SWEEP_H_
