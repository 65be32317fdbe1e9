// Host-time instrumentation the benchmark wraps around its own calls into
// each layer of the program. Nothing here changes what the simulation does:
// the timers read the host clock only, never simulated state.
#ifndef PERFBENCH_SRC_TIMING_H_
#define PERFBENCH_SRC_TIMING_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/backend.h"

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double HostSecondsSince(int64_t start_ns) {
  return static_cast<double>(HostNowNs() - start_ns) * 1e-9;
}

// The call sites timed from outside the program.
enum class Site : int {
  kDispatch = 0,   // FleetDispatcher::Dispatch from the arrival generator
  kLithosReady,    // LithosBackend::OnStreamReady / CancelInFlight
  kBaselineReady,  // baseline backend OnStreamReady / CancelInFlight
  kDetectTick,     // GrayNodeDetector::Tick
  kRemedyTick,     // RemediationController::Tick
};
inline constexpr int kNumSites = 5;

// Nested host-time spans. A span re-entered on a site that is already open
// is folded into the outer one (outermost call only). Each closed span adds
// its duration to its site's total and its self time (duration minus the
// spans nested inside it); spans with no enclosing span add to covered_ns(),
// so every nested interval is counted once.
class SiteClock {
 public:
  struct Totals {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    uint64_t calls = 0;
  };

  void Begin(Site site) {
    const int s = static_cast<int>(site);
    if (depth_[s]++ > 0) {
      return;
    }
    frames_.push_back({site, HostNowNs(), 0});
  }

  void End(Site site) {
    const int s = static_cast<int>(site);
    if (--depth_[s] > 0) {
      return;
    }
    const Frame frame = frames_.back();
    frames_.pop_back();
    const int64_t duration = HostNowNs() - frame.start_ns;
    Totals& t = totals_[s];
    t.total_ns += duration;
    t.self_ns += duration - frame.child_ns;
    ++t.calls;
    if (frames_.empty()) {
      covered_ns_ += duration;
    } else {
      frames_.back().child_ns += duration;
    }
  }

  const Totals& totals(Site site) const { return totals_[static_cast<int>(site)]; }
  int64_t covered_ns() const { return covered_ns_; }

 private:
  struct Frame {
    Site site;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::array<int, kNumSites> depth_{};
  std::array<Totals, kNumSites> totals_{};
  std::vector<Frame> frames_;
  int64_t covered_ns_ = 0;
};

// RAII span; a null clock makes it a no-op (the untimed runs).
class ScopedSpan {
 public:
  ScopedSpan(SiteClock* clock, Site site) : clock_(clock), site_(site) {
    if (clock_ != nullptr) {
      clock_->Begin(site_);
    }
  }
  ~ScopedSpan() {
    if (clock_ != nullptr) {
      clock_->End(site_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SiteClock* clock_;
  Site site_;
};

// Forwarding backend installed through the public Driver::SetBackend: every
// call goes to the node's own backend, with the entry points the driver
// drives timed under `site`. Install it before any client registers, so the
// wrapped backend sees each registration exactly once.
class TimedBackend : public lithos::Backend {
 public:
  TimedBackend(lithos::Backend* inner, SiteClock* clock, Site site, lithos::Simulator* sim,
               lithos::ExecutionEngine* engine)
      : Backend(sim, engine), inner_(inner), clock_(clock), site_(site) {}

  std::string Name() const override { return inner_->Name(); }
  void OnStreamReady(lithos::Stream* stream) override {
    ScopedSpan span(clock_, site_);
    inner_->OnStreamReady(stream);
  }
  void OnClientRegistered(const lithos::Client& client) override {
    inner_->OnClientRegistered(client);
  }
  bool CancelInFlight(lithos::Stream* stream) override {
    ScopedSpan span(clock_, site_);
    return inner_->CancelInFlight(stream);
  }
  void ResetAccounting() override { inner_->ResetAccounting(); }

 private:
  lithos::Backend* inner_;
  SiteClock* clock_;
  Site site_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMING_H_
