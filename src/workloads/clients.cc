#include "src/workloads/clients.h"

#include <algorithm>

#include "src/common/check.h"

namespace lithos {

// --- BatchingInferenceServer ----------------------------------------------------

BatchingInferenceServer::BatchingInferenceServer(Driver* driver, Client* client,
                                                 ProfileFactory factory, int max_batch,
                                                 DurationNs max_queue_delay,
                                                 RequestRecorder* recorder)
    : driver_(driver),
      sim_(driver->sim()),
      stream_(driver->CuStreamCreate(client)),
      factory_(std::move(factory)),
      max_batch_(max_batch),
      max_queue_delay_(max_queue_delay),
      recorder_(recorder) {
  LITHOS_CHECK_GT(max_batch_, 0);
}

void BatchingInferenceServer::Submit() {
  const TimeNs now = sim_->Now();
  recorder_->RecordArrival(now);
  queue_.push_back(now);
  MaybeLaunch();
}

void BatchingInferenceServer::MaybeLaunch() {
  if (busy_ || queue_.empty()) {
    return;
  }
  const TimeNs now = sim_->Now();
  const bool batch_full = static_cast<int>(queue_.size()) >= max_batch_;
  const bool oldest_expired = now - queue_.front() >= max_queue_delay_;
  if (batch_full || oldest_expired) {
    if (delay_timer_ != 0) {
      sim_->Cancel(delay_timer_);
      delay_timer_ = 0;
    }
    LaunchBatch();
    return;
  }
  if (delay_timer_ == 0) {
    // Wait for the batch to fill, but no longer than the oldest request's
    // remaining delay budget (Triton's dynamic-batching rule). An armed timer
    // is left untouched: the deadline tracks the oldest queued request, which
    // only changes when a batch launches (and cancels the timer above).
    const TimeNs deadline = queue_.front() + max_queue_delay_;
    delay_timer_ = sim_->ScheduleAt(deadline, [this] {
      delay_timer_ = 0;
      MaybeLaunch();
    });
  }
}

void BatchingInferenceServer::LaunchBatch() {
  const int batch = std::min<int>(max_batch_, static_cast<int>(queue_.size()));
  std::vector<TimeNs> arrivals(queue_.begin(), queue_.begin() + batch);
  queue_.erase(queue_.begin(), queue_.begin() + batch);
  busy_ = true;

  auto cached = profile_cache_.find(batch);
  if (cached == profile_cache_.end()) {
    cached = profile_cache_.emplace(batch, factory_(batch)).first;
  }
  const ModelProfileRef& profile = cached->second;

  for (const KernelDesc& op : profile->ops) {
    driver_->CuLaunchKernel(stream_, &op);
  }
  driver_->CuStreamAddCallback(stream_, [this, arrivals = std::move(arrivals)] {
    const TimeNs done = sim_->Now();
    for (TimeNs arrival : arrivals) {
      recorder_->RecordCompletion(arrival, done);
    }
    busy_ = false;
    MaybeLaunch();
  });
}

// --- LlmInferenceServer ------------------------------------------------------------

LlmInferenceServer::LlmInferenceServer(Driver* driver, Client* client, ShapeFactory factory,
                                       uint64_t trace_seed, RequestRecorder* recorder)
    : driver_(driver),
      sim_(driver->sim()),
      stream_(driver->CuStreamCreate(client)),
      factory_(std::move(factory)),
      trace_(trace_seed),
      recorder_(recorder) {}

void LlmInferenceServer::Submit() {
  const TimeNs now = sim_->Now();
  recorder_->RecordArrival(now);
  queue_.push_back(now);
  MaybeLaunch();
}

void LlmInferenceServer::MaybeLaunch() {
  if (busy_ || queue_.empty()) {
    return;
  }
  const TimeNs arrival = queue_.front();
  queue_.pop_front();
  busy_ = true;

  ModelProfileRef profile = factory_(trace_.Sample());
  retired_profiles_.push_back(profile);  // keep alive while kernels reference it

  for (const KernelDesc& op : profile->ops) {
    driver_->CuLaunchKernel(stream_, &op);
  }
  driver_->CuStreamAddCallback(stream_, [this, arrival] {
    recorder_->RecordCompletion(arrival, sim_->Now());
    busy_ = false;
    // Old profiles are only safe to drop once the stream drained past them;
    // keep the most recent two (in-flight + next).
    if (retired_profiles_.size() > 2) {
      retired_profiles_.erase(retired_profiles_.begin());
    }
    MaybeLaunch();
  });
}

// --- PoissonArrivals ------------------------------------------------------------------

void PoissonArrivals::Start(TimeNs until) { ScheduleNext(until); }

void PoissonArrivals::ScheduleNext(TimeNs until) {
  const DurationNs gap = FromSeconds(rng_.Exponential(mean_gap_s_));
  const TimeNs at = sim_->Now() + std::max<DurationNs>(gap, 1);
  if (at > until) {
    return;
  }
  sim_->ScheduleAt(at, [this, until] {
    on_arrival_();
    ScheduleNext(until);
  });
}

// --- ClosedLoopRunner -------------------------------------------------------------------

ClosedLoopRunner::ClosedLoopRunner(Driver* driver, Client* client, ModelProfileRef profile)
    : driver_(driver),
      sim_(driver->sim()),
      stream_(driver->CuStreamCreate(client)),
      profile_(std::move(profile)) {}

void ClosedLoopRunner::Start() { LaunchIteration(); }

double ClosedLoopRunner::FractionalIterations() const {
  const double total = static_cast<double>(profile_->ops.size()) + 1.0;  // ops + marker
  const double remaining = static_cast<double>(stream_->QueueDepth());
  const double frac = std::clamp(1.0 - remaining / total, 0.0, 1.0);
  return static_cast<double>(iterations_) + frac;
}

void ClosedLoopRunner::LaunchIteration() {
  if (stopped_) {
    return;
  }
  const TimeNs start = sim_->Now();
  for (const KernelDesc& op : profile_->ops) {
    driver_->CuLaunchKernel(stream_, &op);
  }
  driver_->CuStreamAddCallback(stream_, [this, start] {
    if (sim_->Now() >= warmup_end_ && start >= warmup_end_) {
      ++iterations_;
      iteration_ms_.Add(ToMillis(sim_->Now() - start));
    }
    LaunchIteration();
  });
}

}  // namespace lithos
