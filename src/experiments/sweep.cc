#include "src/experiments/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

namespace lithos {

int ResolveSweepJobs(int requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("LITHOS_JOBS"); env != nullptr && env[0] != '\0') {
    const int jobs = std::atoi(env);
    if (jobs > 0) {
      return jobs;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

int ParseJobsValue(const char* flag, const char* value) {
  const int jobs = std::atoi(value);
  if (jobs > 0) {
    return jobs;
  }
  std::fprintf(stderr,
               "warning: ignoring '%s %s' (expected a positive integer); "
               "falling back to $LITHOS_JOBS or hardware concurrency\n",
               flag, value);
  return 0;
}

}  // namespace

int ParseJobsArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      return ParseJobsValue("--jobs=", arg + 7);
    }
    if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "warning: '%s' given without a value; falling back to "
                             "$LITHOS_JOBS or hardware concurrency\n",
                     arg);
        return 0;
      }
      return ParseJobsValue(arg, argv[i + 1]);
    }
  }
  return 0;
}

void SweepRunner::RunIndexed(size_t n, const std::function<void(size_t)>& body,
                             const std::function<std::string(size_t)>& name_of) {
  const auto start = std::chrono::steady_clock::now();
  points_run_ += n;

  // Workers take the next unclaimed index from one shared counter, so a
  // run of slow points spreads over every worker instead of queueing behind
  // one. Results land in per-index slots, so completion order never affects
  // collection order. With one worker the counter walks [0, n) in
  // declaration order — the serial loop — on the caller with no threads
  // spawned, so exception semantics (run everything, rethrow the first by
  // index) are identical for every worker count.
  const size_t workers = std::max<size_t>(1, std::min(static_cast<size_t>(jobs_), n));
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  // Per-index wall times: each slot is written by exactly the worker that
  // claimed the point, then merged post-join — no locks, no races.
  std::vector<double> point_seconds(n, 0.0);

  auto worker = [&] {
    for (size_t i = next++; i < n; i = next++) {
      const auto point_start = std::chrono::steady_clock::now();
      try {
        body(i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[sweep] point %zu%s%s%s failed: %s\n", i,
                     name_of ? " '" : "", name_of ? name_of(i).c_str() : "",
                     name_of ? "'" : "", e.what());
        errors[i] = std::current_exception();
      } catch (...) {
        std::fprintf(stderr, "[sweep] point %zu%s%s%s failed with a non-std exception\n", i,
                     name_of ? " '" : "", name_of ? name_of(i).c_str() : "",
                     name_of ? "'" : "");
        errors[i] = std::current_exception();
      }
      point_seconds[i] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - point_start)
              .count();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) {
    t.join();
  }
  for (size_t i = 0; i < n; ++i) {
    profiles_.push_back(
        {name_of ? name_of(i) : "#" + std::to_string(i), point_seconds[i]});
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      wall_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      std::rethrow_exception(e);
    }
  }

  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::vector<SweepPointProfile> SweepRunner::SlowestPoints(size_t n) const {
  std::vector<SweepPointProfile> sorted = profiles_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SweepPointProfile& a, const SweepPointProfile& b) {
                     return a.seconds > b.seconds;
                   });
  if (sorted.size() > n) {
    sorted.resize(n);
  }
  return sorted;
}

void SweepRunner::PrintSummary(const std::string& label) const {
  std::fprintf(stderr, "[sweep] %s: %zu points on %d worker%s in %.2fs\n", label.c_str(),
               points_run_, jobs_, jobs_ == 1 ? "" : "s", wall_seconds_);
  for (const SweepPointProfile& p : SlowestPoints(3)) {
    std::fprintf(stderr, "[sweep]   slowest: %-40s %.2fs\n", p.name.c_str(), p.seconds);
  }
}

}  // namespace lithos
