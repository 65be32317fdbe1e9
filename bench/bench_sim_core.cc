// Event-core throughput: micro benchmarks of the discrete-event simulator
// (events/sec, new slab/d-ary-heap core vs the pre-PR priority_queue +
// unordered_map core), a timer-churn micro of constant-delay timers on FIFO
// lanes vs the heap, a whole-GPU MPS churn micro of the execution engine's
// hot path, two LithOS dispatch micros (stacking mix, fleet node) of the
// per-GPU OS hot path, plus end-to-end wall-clock of the two scenario
// families every figure rides on — single-GPU inference stacking and the
// fleet-autoscale day. Emits BENCH_sim_core.json so CI can gate event-core
// regressions (scripts/check_bench_regression.py against
// bench/baselines/BENCH_sim_core_baseline.json).
//
// The pre-PR core is embedded below (namespace legacy) so the speedup ratio
// is measured in one binary on one machine — absolute events/sec vary across
// runners, the ratio much less.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/autoscale/fleet_controller.h"
#include "src/common/table.h"
#include "src/core/lithos_backend.h"
#include "src/driver/driver.h"
#include "src/experiments/harness.h"
#include "src/gpu/execution_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace legacy {

// The seed-era simulator, verbatim: heap-allocated std::function callbacks
// keyed by id in an unordered_map, lazy-deletion priority_queue (Cancel()
// leaves a tombstone the pop loop skips later).
using lithos::DurationNs;
using lithos::TimeNs;
using EventId = uint64_t;

class Simulator {
 public:
  Simulator() = default;
  TimeNs Now() const { return now_; }

  EventId ScheduleAt(TimeNs at, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{at, next_seq_++, id});
    callbacks_.emplace(id, std::move(fn));
    return id;
  }

  EventId ScheduleAfter(DurationNs delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  void Cancel(EventId id) { callbacks_.erase(id); }

  bool Step() {
    while (!queue_.empty()) {
      const Event ev = queue_.top();
      queue_.pop();
      auto it = callbacks_.find(ev.id);
      if (it == callbacks_.end()) {
        continue;  // Cancelled.
      }
      std::function<void()> fn = std::move(it->second);
      callbacks_.erase(it);
      now_ = ev.at;
      fn();
      return true;
    }
    return false;
  }

  void RunToCompletion() {
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (callbacks_.find(top.id) == callbacks_.end()) {
        queue_.pop();
        continue;
      }
      Step();
    }
  }

 private:
  struct Event {
    TimeNs at;
    uint64_t seq;
    EventId id;
    bool operator>(const Event& other) const {
      if (at != other.at) {
        return at > other.at;
      }
      return seq > other.seq;
    }
  };

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::unordered_map<EventId, std::function<void()>> callbacks_;
};

}  // namespace legacy

using namespace lithos;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- Micro 1: schedule/fire ring --------------------------------------------
// A ring of `ring` outstanding events; every firing schedules a successor
// until `total` events have fired. The callback is a 32-byte functor passed
// directly, like the engine's `[this, id]` completion lambdas: the new core
// stores it inline in the event slot, the legacy core wraps it in a
// std::function whose captures exceed the SBO — one heap allocation per
// event, exactly the pre-PR cost.
template <typename Sim>
struct RingTick {
  Sim* sim;
  int64_t* fired;
  int ring;
  int64_t total;
  void operator()() const {
    ++*fired;
    if (*fired + ring <= total) {
      sim->ScheduleAfter(100, RingTick{sim, fired, ring, total});
    }
  }
};

template <typename Sim>
double RingEventsPerSec(int64_t total, int ring) {
  Sim sim;
  int64_t fired = 0;
  for (int i = 0; i < ring; ++i) {
    sim.ScheduleAfter(i + 1, RingTick<Sim>{&sim, &fired, ring, total});
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunToCompletion();
  return static_cast<double>(fired) / SecondsSince(t0);
}

// The same ring with a TraceRecorder attached: every schedule and fire
// appends a 32-byte record into a preallocated ring buffer, so this measures
// the *enabled* tracing cost (the disabled path is the nullptr branch the
// plain run above already pays). The traced/untraced ratio is
// machine-stable; CI gates it through the wall_metrics baseline.
double RingEventsPerSecTraced(int64_t total, int ring, TraceRecorder* trace) {
  Simulator sim;
  sim.SetTrace(trace);
  int64_t fired = 0;
  for (int i = 0; i < ring; ++i) {
    sim.ScheduleAfter(i + 1, RingTick<Simulator>{&sim, &fired, ring, total});
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunToCompletion();
  return static_cast<double>(fired) / SecondsSince(t0);
}

// --- Micro 2: cancel/reschedule churn ---------------------------------------
// `pending` events parked at a horizon; `ops` operations each move one event
// to a new timestamp — the engine's checkpoint/reschedule pattern. The legacy
// core can only cancel + re-insert (each op grows the queue by a tombstone);
// the new core either removes in place or, with `use_reschedule`, sifts the
// entry without touching the slab at all. Rate counts ops + the final drain.
constexpr TimeNs kChurnHorizon = 1'000'000'000;

struct ChurnRng {
  uint64_t state = 0x9E3779B97F4A7C15ull;
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  }
};

template <typename Sim>
double ChurnCancelReinsertPerSec(int64_t ops, int pending) {
  Sim sim;
  int64_t fired = 0;
  auto cb = [&fired] { ++fired; };
  std::vector<uint64_t> ids(static_cast<size_t>(pending));
  for (int i = 0; i < pending; ++i) {
    ids[static_cast<size_t>(i)] = sim.ScheduleAt(kChurnHorizon + i, cb);
  }
  ChurnRng rng;
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t op = 0; op < ops; ++op) {
    const uint64_t r = rng.Next();
    const size_t j = static_cast<size_t>(r % static_cast<uint64_t>(pending));
    const TimeNs at = kChurnHorizon + static_cast<TimeNs>(r % 1'000'000u);
    sim.Cancel(ids[j]);
    ids[j] = sim.ScheduleAt(at, cb);
  }
  sim.RunToCompletion();
  return static_cast<double>(ops + fired) / SecondsSince(t0);
}

double ChurnReschedulePerSec(int64_t ops, int pending) {
  Simulator sim;
  int64_t fired = 0;
  auto cb = [&fired] { ++fired; };
  std::vector<EventId> ids(static_cast<size_t>(pending));
  for (int i = 0; i < pending; ++i) {
    ids[static_cast<size_t>(i)] = sim.ScheduleAt(kChurnHorizon + i, cb);
  }
  ChurnRng rng;
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t op = 0; op < ops; ++op) {
    const uint64_t r = rng.Next();
    const size_t j = static_cast<size_t>(r % static_cast<uint64_t>(pending));
    const TimeNs at = kChurnHorizon + static_cast<TimeNs>(r % 1'000'000u);
    sim.Reschedule(ids[j], at);
  }
  sim.RunToCompletion();
  return static_cast<double>(ops + fired) / SecondsSince(t0);
}

// --- Micro 2b: constant-delay timer churn ------------------------------------
// The fleet request lifecycle in miniature: each request arms a hedge timer
// and an attempt timeout (two constant delays), its completion fires a short
// service time later and cancels both, and the slot admits the next
// request. `in_flight` requests run at once (perfbench `region` keeps ~120).
// With `lanes` the timers go on the simulator's FIFO timer lanes, where
// only each lane's head sits in the heap and a cancel is O(1); without,
// every timer is a heap entry. Services are shorter than either delay, so
// timers are only ever cancelled, as almost all are in the fleet. The rate
// counts simulator operations (3 schedules, 1 fire, 2 cancels per request).
class TimerChurn {
 public:
  static constexpr DurationNs kHedgeDelay = FromMillis(75);
  static constexpr DurationNs kTimeout = FromMillis(250);

  TimerChurn(bool lanes, int64_t total, int in_flight)
      : lanes_(lanes),
        total_(total),
        hedge_lane_(sim_.TimerLane(kHedgeDelay)),
        timeout_lane_(sim_.TimerLane(kTimeout)),
        requests_(static_cast<size_t>(in_flight)) {}

  double EventsPerSec() {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < requests_.size(); ++i) {
      Admit(i);
    }
    sim_.RunToCompletion();
    const double seconds = SecondsSince(t0);
    const SimCounters& c = sim_.counters();
    return static_cast<double>(c.scheduled + c.fired + c.canceled) / seconds;
  }

 private:
  struct Request {
    EventId hedge = 0;
    EventId timeout = 0;
  };

  void Admit(size_t i) {
    ++admitted_;
    Request& r = requests_[i];
    auto expire = [] {};
    if (lanes_) {
      r.hedge = sim_.ScheduleOnLane(hedge_lane_, expire);
      r.timeout = sim_.ScheduleOnLane(timeout_lane_, expire);
    } else {
      r.hedge = sim_.ScheduleAfter(kHedgeDelay, expire);
      r.timeout = sim_.ScheduleAfter(kTimeout, expire);
    }
    // 1-16 ms of service, spread so completions interleave.
    const DurationNs service = FromMicros(1000 + static_cast<int64_t>(rng_.Next() % 15000));
    sim_.ScheduleAfter(service, [this, i] { Complete(i); });
  }

  void Complete(size_t i) {
    sim_.Cancel(requests_[i].hedge);
    sim_.Cancel(requests_[i].timeout);
    if (admitted_ < total_) {
      Admit(i);
    }
  }

  Simulator sim_;
  const bool lanes_;
  const int64_t total_;
  const TimerLaneId hedge_lane_;
  const TimerLaneId timeout_lane_;
  std::vector<Request> requests_;
  ChurnRng rng_;
  int64_t admitted_ = 0;
};

// --- Micro 3: whole-GPU MPS churn ------------------------------------------
// `k` concurrent equal-weight grants share every TPC of an A100, as on a
// fleet node under MPS; each completion launches a successor until `total`
// grants have completed. Every launch and completion checkpoints and
// reschedules all co-tenants, so the rate measures the engine's per-mutation
// cost: per-TPC bookkeeping plus one latency evaluation per rate change.
class MpsChurn {
 public:
  MpsChurn(int64_t total, int k)
      : engine_(&sim_, spec_),
        all_(spec_.AllTpcs()),
        kernel_(MakeKernel("mps", 4096, FromMicros(200), 0.9, 0.5, spec_)),
        total_(total),
        k_(k) {}

  // Launch->complete cycles per wall second.
  double GrantsPerSec() {
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < k_; ++c) {
      Launch(c);
    }
    sim_.RunToCompletion();
    return static_cast<double>(completed_) / SecondsSince(t0);
  }

 private:
  void Launch(int client) {
    WorkItem item;
    item.kernel = &kernel_;
    item.client_id = client;
    item.on_complete = [this](const GrantInfo& info) {
      ++completed_;
      if (launched_ < total_) {
        Launch(info.client_id);
      }
    };
    ++launched_;
    engine_.Launch(std::move(item), all_);
  }

  Simulator sim_;
  const GpuSpec spec_ = GpuSpec::A100();
  ExecutionEngine engine_;
  const TpcMask all_;
  const KernelDesc kernel_;
  const int64_t total_;
  const int k_;
  int64_t launched_ = 0;
  int64_t completed_ = 0;
};

// --- Micro 4: LithOS dispatch ----------------------------------------------
// One A100 under LithosBackend, each client a closed loop that launches its
// next kernel a think time after the previous one completes. Two mixes:
//  * kStacking has the stacking mix's shape: two HP clients at 75/25 quotas
//    and a quota-less BE client (no think time). The kernels are long enough
//    to atomize, and the BE loop steals the HP regions while the HP loops
//    think, so atoms go through the TPC Scheduler grant with stealing and
//    reclaim, the atom plan, the right-size choice and the predictor update.
//  * kFleetNode has a fleet LithOS node's shape: three quota-0 HP clients,
//    as the cluster dispatcher registers them, whose kernels can fill the
//    device. Every TPC is in the free pool, so each head's probe grant and
//    each atom's grant and release covers whatever part of the device is
//    free, most often all of it.
class LithosDispatch {
 public:
  enum class Mix { kStacking, kFleetNode };

  LithosDispatch(Mix mix, TimeNs horizon)
      : engine_(&sim_, spec_),
        driver_(&sim_, &engine_),
        backend_(&sim_, &engine_),
        horizon_(horizon) {
    driver_.SetBackend(&backend_);
    const int total = spec_.TotalTpcs();
    if (mix == Mix::kFleetNode) {
      AddLoop(PriorityClass::kHighPriority, 0, FromMicros(500),
              MakeKernel("fleet_a", 4000, FromMicros(800), 0.95, 0.7, spec_, 64));
      AddLoop(PriorityClass::kHighPriority, 0, FromMillis(1),
              MakeKernel("fleet_b", 6000, FromMillis(2), 0.9, 0.5, spec_, 64));
      AddLoop(PriorityClass::kHighPriority, 0, FromMillis(2),
              MakeKernel("fleet_c", 8000, FromMillis(3), 0.98, 0.8, spec_, 64));
      return;
    }
    const int hp_a_quota = total * 3 / 4;
    AddLoop(PriorityClass::kHighPriority, hp_a_quota, FromMillis(3),
            MakeKernel("hp_a", 4000, FromMicros(2500), 0.95, 0.7, spec_, 64));
    AddLoop(PriorityClass::kHighPriority, total - hp_a_quota, FromMillis(5),
            MakeKernel("hp_b", 6000, FromMillis(4), 0.9, 0.5, spec_, 64));
    AddLoop(PriorityClass::kBestEffort, 0, 0,
            MakeKernel("be", 8000, FromMillis(8), 0.98, 0.8, spec_, 64));
  }

  // Atoms dispatched per wall second over the simulated horizon.
  double AtomsPerSec() {
    const auto t0 = std::chrono::steady_clock::now();
    for (Loop& loop : loops_) {
      Launch(&loop);
    }
    sim_.RunUntil(horizon_);
    return static_cast<double>(backend_.atoms_dispatched()) / SecondsSince(t0);
  }

  uint64_t atoms() const { return backend_.atoms_dispatched(); }
  uint64_t tpcs_stolen() const { return backend_.tpc_scheduler().stats().tpcs_stolen; }

 private:
  struct Loop {
    Stream* stream = nullptr;
    DurationNs think = 0;
    KernelDesc kernel;
  };

  void AddLoop(PriorityClass priority, int quota, DurationNs think, KernelDesc kernel) {
    Client* client = driver_.CuCtxCreate(kernel.name, priority, quota);
    loops_.push_back({driver_.CuStreamCreate(client), think, std::move(kernel)});
  }

  // One kernel then a marker, so each kernel is one operator the predictor
  // learns; the marker schedules the next kernel.
  void Launch(Loop* loop) {
    driver_.CuLaunchKernel(loop->stream, &loop->kernel);
    driver_.CuStreamAddCallback(loop->stream, [this, loop] {
      if (sim_.Now() < horizon_) {
        sim_.ScheduleAfter(loop->think, [this, loop] { Launch(loop); });
      }
    });
  }

  Simulator sim_;
  const GpuSpec spec_ = GpuSpec::A100();
  ExecutionEngine engine_;
  Driver driver_;
  LithosBackend backend_;
  const TimeNs horizon_;
  std::vector<Loop> loops_;
};

struct LithosDispatchRun {
  double atoms_per_sec = 0;  // best of the runs
  uint64_t atoms = 0;        // deterministic: the same in every run
  uint64_t tpcs_stolen = 0;
};

// A warm-up, then the best of `reps` fresh runs of the mix, so a burst of
// host load during one run does not read as a regression.
LithosDispatchRun BestLithosDispatch(LithosDispatch::Mix mix, TimeNs horizon, int reps) {
  LithosDispatch(mix, horizon / 10).AtomsPerSec();
  LithosDispatchRun best;
  for (int rep = 0; rep < reps; ++rep) {
    LithosDispatch run(mix, horizon);
    best.atoms_per_sec = std::max(best.atoms_per_sec, run.AtomsPerSec());
    best.atoms = run.atoms();
    best.tpcs_stolen = run.tpcs_stolen();
  }
  return best;
}

// --- End-to-end scenarios ----------------------------------------------------

StackingResult RunStackingScenario() {
  StackingConfig cfg;
  cfg.system = SystemKind::kLithos;
  cfg.warmup = bench::kWarmup;
  cfg.duration = FromSeconds(6);
  const GpuSpec spec = GpuSpec::A100();
  AppSpec a = bench::MakeHpApp("ResNet", AppRole::kHpLatency);
  AppSpec b = bench::MakeHpApp("Llama 3", AppRole::kHpThroughput);
  AppSpec be = bench::MakeBeInferenceApp("GPT-J");
  AssignInferenceOnlyQuotas(cfg.system, spec, &a, &b, &be);
  return RunStacking(cfg, {a, b, be});
}

AutoscaleResult RunAutoscaleScenario() {
  // Mirrors bench_cluster_autoscale's headline config: a 10-node pool over
  // two compressed fleet days under the predictive scaler.
  AutoscaleConfig config;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.num_nodes = 10;
  config.cluster.system = SystemKind::kLithos;
  config.cluster.aggregate_rps = 700.0;
  config.cluster.seconds_per_day = 6.0;
  config.cluster.warmup = FromSeconds(1);
  config.cluster.duration = FromSeconds(12);
  config.cluster.seed = 2026;
  config.scaling = ScalingPolicyKind::kPredictive;
  config.control_period = FromMillis(250);
  config.min_nodes = 2;
  return RunClusterAutoscale(config);
}

bool SameStacking(const StackingResult& x, const StackingResult& y) {
  if (x.apps.size() != y.apps.size()) {
    return false;
  }
  for (size_t i = 0; i < x.apps.size(); ++i) {
    if (x.apps[i].p99_ms != y.apps[i].p99_ms ||
        x.apps[i].throughput_rps != y.apps[i].throughput_rps ||
        x.apps[i].completed != y.apps[i].completed) {
      return false;
    }
  }
  return x.engine.energy_joules == y.engine.energy_joules &&
         x.engine.grants_completed == y.engine.grants_completed;
}

bool SameAutoscale(const AutoscaleResult& x, const AutoscaleResult& y) {
  return x.gpu_hours_per_day == y.gpu_hours_per_day &&
         x.joules_per_day == y.joules_per_day &&
         x.cluster.p99_ms == y.cluster.p99_ms && x.cluster.migrations == y.cluster.migrations &&
         x.mean_powered_on == y.mean_powered_on;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Event-core throughput: slab/d-ary-heap simulator vs pre-PR core",
      "infrastructure for every figure; events/sec gates scenario campaign size");

  const bench::BenchOptions bench_opts = bench::ParseBenchOptions(argc, argv);
  bench::JsonEmitter json("sim_core");

  // --- Micro -----------------------------------------------------------------
  constexpr int64_t kRingTotal = 2'000'000;
  constexpr int kRingSize = 64;
  constexpr int64_t kChurnOps = 2'000'000;
  constexpr int kChurnPending = 512;
  constexpr int64_t kTimerChurnRequests = 1'000'000;
  constexpr int kTimerChurnInFlight = 120;
  constexpr int64_t kMpsChurnGrants = 400'000;
  constexpr int kMpsChurnConcurrency = 8;
  constexpr TimeNs kLithosDispatchHorizon = FromSeconds(300);
  constexpr int kLithosDispatchReps = 3;

  // Warm both allocators once, then measure.
  RingEventsPerSec<Simulator>(kRingTotal / 10, kRingSize);
  RingEventsPerSec<legacy::Simulator>(kRingTotal / 10, kRingSize);

  const double ring_new = RingEventsPerSec<Simulator>(kRingTotal, kRingSize);
  const double ring_legacy = RingEventsPerSec<legacy::Simulator>(kRingTotal, kRingSize);
  // Ring recorder sized to one segment: appends stay allocation-free, the
  // recorder keeps the last 64K records (--trace writes them out). The
  // traced/untraced fraction takes the best of three interleaved runs per
  // side, so a burst of host load during one run does not read as tracing
  // overhead.
  TraceRecorder ring_trace(TraceRecorder::kSegmentRecords);
  double ring_untraced_best = 0;
  double ring_traced = 0;
  for (int rep = 0; rep < 3; ++rep) {
    ring_untraced_best =
        std::max(ring_untraced_best, RingEventsPerSec<Simulator>(kRingTotal, kRingSize));
    ring_trace.Clear();
    ring_traced =
        std::max(ring_traced, RingEventsPerSecTraced(kRingTotal, kRingSize, &ring_trace));
  }
  const double churn_new_cancel = ChurnCancelReinsertPerSec<Simulator>(kChurnOps, kChurnPending);
  const double churn_new_resched = ChurnReschedulePerSec(kChurnOps, kChurnPending);
  const double churn_legacy =
      ChurnCancelReinsertPerSec<legacy::Simulator>(kChurnOps, kChurnPending);
  // Best of three interleaved runs per side, so a burst of host load
  // during one run does not skew the lanes/heap ratio.
  TimerChurn(true, kTimerChurnRequests / 10, kTimerChurnInFlight).EventsPerSec();  // warm-up
  double timer_churn_heap = 0;
  double timer_churn_lanes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    timer_churn_heap = std::max(
        timer_churn_heap,
        TimerChurn(false, kTimerChurnRequests, kTimerChurnInFlight).EventsPerSec());
    timer_churn_lanes = std::max(
        timer_churn_lanes,
        TimerChurn(true, kTimerChurnRequests, kTimerChurnInFlight).EventsPerSec());
  }
  MpsChurn(kMpsChurnGrants / 10, kMpsChurnConcurrency).GrantsPerSec();  // warm-up
  const double mps_churn = MpsChurn(kMpsChurnGrants, kMpsChurnConcurrency).GrantsPerSec();
  const LithosDispatchRun lithos_dispatch = BestLithosDispatch(
      LithosDispatch::Mix::kStacking, kLithosDispatchHorizon, kLithosDispatchReps);
  const LithosDispatchRun whole_gpu_dispatch = BestLithosDispatch(
      LithosDispatch::Mix::kFleetNode, kLithosDispatchHorizon, kLithosDispatchReps);

  Table micro({"micro", "legacy Mev/s", "new Mev/s", "speedup"});
  const double ring_speedup = ring_new / ring_legacy;
  const double churn_speedup = churn_new_resched / churn_legacy;
  micro.AddRow({"schedule/fire ring", Table::Num(ring_legacy / 1e6, 2),
                Table::Num(ring_new / 1e6, 2), Table::Num(ring_speedup, 2)});
  micro.AddRow({"churn (cancel+reinsert)", Table::Num(churn_legacy / 1e6, 2),
                Table::Num(churn_new_cancel / 1e6, 2),
                Table::Num(churn_new_cancel / churn_legacy, 2)});
  micro.AddRow({"churn (reschedule)", Table::Num(churn_legacy / 1e6, 2),
                Table::Num(churn_new_resched / 1e6, 2), Table::Num(churn_speedup, 2)});
  micro.Print();

  const double ring_traced_fraction = ring_traced / ring_untraced_best;
  std::printf("\nTraced ring (binary recorder attached, %zu-record ring): %.2f Mev/s "
              "(%.0f%% of untraced)\n",
              TraceRecorder::kSegmentRecords, ring_traced / 1e6, 100 * ring_traced_fraction);
  const double timer_churn_speedup = timer_churn_lanes / timer_churn_heap;
  std::printf("Timer churn (%d requests in flight, 2 constant-delay timers each): heap %.2f "
              "Mev/s, lanes %.2f Mev/s (%.2fx)\n",
              kTimerChurnInFlight, timer_churn_heap / 1e6, timer_churn_lanes / 1e6,
              timer_churn_speedup);
  std::printf("Whole-GPU MPS churn (%d concurrent grants on all TPCs): %.3f M grants/s\n",
              kMpsChurnConcurrency, mps_churn / 1e6);
  std::printf("LithOS dispatch (2 HP at 75/25 quotas + 1 BE; %llu atoms, %llu TPCs stolen): "
              "%.3f M atoms/s\n",
              static_cast<unsigned long long>(lithos_dispatch.atoms),
              static_cast<unsigned long long>(lithos_dispatch.tpcs_stolen),
              lithos_dispatch.atoms_per_sec / 1e6);
  std::printf("LithOS whole-GPU dispatch (3 quota-0 HP clients; %llu atoms, %llu TPCs "
              "stolen): %.3f M atoms/s\n",
              static_cast<unsigned long long>(whole_gpu_dispatch.atoms),
              static_cast<unsigned long long>(whole_gpu_dispatch.tpcs_stolen),
              whole_gpu_dispatch.atoms_per_sec / 1e6);

  // Throughput numbers depend on the machine's wall clock, so they go in the
  // jobs-gated wall_metrics section (this bench is always a jobs=1 run).
  json.WallMetric("ring_events_per_sec_new", ring_new);
  json.WallMetric("ring_events_per_sec_legacy", ring_legacy);
  json.WallMetric("ring_speedup", ring_speedup);
  json.WallMetric("ring_events_per_sec_traced", ring_traced);
  json.WallMetric("ring_traced_fraction", ring_traced_fraction);
  json.WallMetric("churn_events_per_sec_new_cancel", churn_new_cancel);
  json.WallMetric("churn_events_per_sec_new_reschedule", churn_new_resched);
  json.WallMetric("churn_events_per_sec_legacy", churn_legacy);
  json.WallMetric("churn_speedup", churn_speedup);
  json.WallMetric("churn_cancel_speedup", churn_new_cancel / churn_legacy);
  json.WallMetric("timer_churn_events_per_sec", timer_churn_lanes);
  json.WallMetric("timer_churn_events_per_sec_heap", timer_churn_heap);
  json.WallMetric("timer_churn_speedup", timer_churn_speedup);
  json.WallMetric("mps_churn_grants_per_sec", mps_churn);
  json.WallMetric("lithos_dispatch_atoms_per_sec", lithos_dispatch.atoms_per_sec);
  json.WallMetric("lithos_whole_gpu_atoms_per_sec", whole_gpu_dispatch.atoms_per_sec);

  // --- End-to-end ------------------------------------------------------------
  std::printf("\nEnd-to-end scenario wall-clock (same seed run twice; metrics must be identical)\n");

  auto t0 = std::chrono::steady_clock::now();
  const StackingResult stack1 = RunStackingScenario();
  const double stack_ms_1 = SecondsSince(t0) * 1e3;
  t0 = std::chrono::steady_clock::now();
  const StackingResult stack2 = RunStackingScenario();
  const double stack_ms = std::min(stack_ms_1, SecondsSince(t0) * 1e3);
  const bool stack_same = SameStacking(stack1, stack2);

  t0 = std::chrono::steady_clock::now();
  const AutoscaleResult fleet1 = RunAutoscaleScenario();
  const double fleet_ms_1 = SecondsSince(t0) * 1e3;
  t0 = std::chrono::steady_clock::now();
  const AutoscaleResult fleet2 = RunAutoscaleScenario();
  const double fleet_ms = std::min(fleet_ms_1, SecondsSince(t0) * 1e3);
  const bool fleet_same = SameAutoscale(fleet1, fleet2);

  Table e2e({"scenario", "wall ms", "deterministic", "headline"});
  char headline[96];
  std::snprintf(headline, sizeof(headline), "HP A p99 %.2f ms",
                stack1.apps[0].p99_ms);
  e2e.AddRow({"inference stacking (LithOS)", Table::Num(stack_ms, 1),
              stack_same ? "yes" : "NO", headline});
  std::snprintf(headline, sizeof(headline), "%.1f GPU-h/day, p99 %.2f ms",
                fleet1.gpu_hours_per_day, fleet1.cluster.p99_ms);
  e2e.AddRow({"fleet autoscale (2 days, predictive)", Table::Num(fleet_ms, 1),
              fleet_same ? "yes" : "NO", headline});
  e2e.Print();

  json.WallMetric("stacking_wall_ms", stack_ms);
  json.Metric("stacking_deterministic", stack_same ? 1 : 0);
  json.Metric("stacking_hp_a_p99_ms", stack1.apps[0].p99_ms);
  // The predictor's operator count and index work, pinned exactly: a lookup
  // that scans more than its (queue, ordinal) position changes the count.
  json.Metric("stacking_predictor_operators", static_cast<double>(stack1.predictor_operators));
  json.Metric("stacking_predictor_signature_compares",
              static_cast<double>(stack1.predictor_signature_compares));
  json.WallMetric("autoscale_wall_ms", fleet_ms);
  json.Metric("autoscale_deterministic", fleet_same ? 1 : 0);
  json.Metric("autoscale_gpu_hours_per_day", fleet1.gpu_hours_per_day);
  json.Metric("autoscale_p99_ms", fleet1.cluster.p99_ms);
  json.Metric("autoscale_joules_per_day", fleet1.joules_per_day);

  // Event-core work done by the two scenarios, routed through the registry
  // so the JSON carries the simulator's schedule/cancel/reschedule counters
  // (deterministic: pure functions of the seeds).
  MetricsRegistry registry;
  registry.counter("stacking/events_scheduled").Inc(stack1.sim.scheduled);
  registry.counter("stacking/events_fired").Inc(stack1.sim.fired);
  registry.counter("stacking/events_canceled").Inc(stack1.sim.canceled);
  registry.counter("stacking/events_rescheduled").Inc(stack1.sim.rescheduled);
  registry.counter("autoscale/events_scheduled").Inc(fleet1.sim.scheduled);
  registry.counter("autoscale/events_fired").Inc(fleet1.sim.fired);
  registry.counter("autoscale/events_canceled").Inc(fleet1.sim.canceled);
  registry.counter("autoscale/events_rescheduled").Inc(fleet1.sim.rescheduled);
  for (const auto& [name, value] : registry.Rows()) {
    std::string key = name;
    for (char& c : key) {
      if (c == '/') {
        c = '_';
      }
    }
    json.Metric(key, value);
  }

  json.Write();
  bench::WriteTraceIfRequested(ring_trace, bench_opts);
  return (stack_same && fleet_same) ? 0 : 1;
}
