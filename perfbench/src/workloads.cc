#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "src/autoscale/fleet_controller.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet_dispatcher.h"
#include "src/core/lithos_backend.h"
#include "src/experiments/harness.h"
#include "src/fault/fault_injector.h"
#include "src/obs/detect.h"
#include "src/remediate/remediation_controller.h"
#include "src/workloads/clients.h"
#include "src/workloads/fleet.h"
#include "src/workloads/zoo.h"

namespace perfbench {

using namespace lithos;

namespace {

// --- Helpers -----------------------------------------------------------------

// FNV-1a over the bytes of every simulated output.
class Hasher {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Lines(const std::vector<std::string>& lines) {
    U64(lines.size());
    for (const std::string& line : lines) {
      Str(line);
    }
  }
  void Samples(const std::vector<double>& xs) {
    U64(xs.size());
    Bytes(xs.data(), xs.size() * sizeof(double));
  }
  void Sim(const SimCounters& c) {
    U64(c.scheduled);
    U64(c.fired);
    U64(c.canceled);
    U64(c.rescheduled);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// Independent, reproducible stream seeds derived from the workload seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
}

double Percentile(const std::vector<double>& samples, size_t lo, size_t hi, double q) {
  PercentileDigest digest;
  for (size_t i = lo; i < hi; ++i) {
    digest.Add(samples[i]);
  }
  digest.Finalize();
  return digest.Percentile(q);
}

double Mean(const std::vector<double>& samples) {
  double sum = 0;
  for (double x : samples) {
    sum += x;
  }
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double CountAtOrBelow(const std::vector<double>& samples, double limit) {
  return static_cast<double>(std::count_if(samples.begin(), samples.end(),
                                           [limit](double x) { return x <= limit; }));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Split-half check on p99 and completed rate. `samples` are in completion
// order; [0, n_mid) completed in the first half of the window and
// [n_mid, n_end) in the second. The p99 limit sits below the 1.8x gap that
// warm-up transients left in bench_cluster_resilience's pre-fault window,
// and above what random stragglers and remediation drains move on region.
// The completed counts fail only when they differ by more than 5% and by
// more than three standard deviations of Poisson noise (stack completes
// ~4000 requests per half, where 5% is ~2.3 sigma).
constexpr double kMaxHalfP99Ratio = 1.5;
constexpr double kMaxHalfRateRatio = 1.05;

void SplitHalf(const std::vector<double>& samples, size_t n_mid, size_t n_end,
               double half_seconds, Rep* rep) {
  rep->half_p99_ms[0] = Percentile(samples, 0, n_mid, 99);
  rep->half_p99_ms[1] = Percentile(samples, n_mid, n_end, 99);
  rep->half_rate[0] = static_cast<double>(n_mid) / half_seconds;
  rep->half_rate[1] = static_cast<double>(n_end - n_mid) / half_seconds;
  auto spread = [](double a, double b) {
    return std::max(a, b) / std::max(1e-12, std::min(a, b));
  };
  const double n1 = static_cast<double>(n_mid);
  const double n2 = static_cast<double>(n_end - n_mid);
  const bool rate_ok = spread(n1, n2) <= kMaxHalfRateRatio ||
                       std::abs(n1 - n2) <= 3.0 * std::sqrt(n1 + n2);
  rep->stationary = spread(rep->half_p99_ms[0], rep->half_p99_ms[1]) <= kMaxHalfP99Ratio &&
                    rate_ok;
}

// Runs the simulator to `until` in `slices` equal steps of simulated time,
// appending each step's host time to rep->slice_s and adding it to run_s.
// Splitting RunUntil() adds no events, so the simulation is unchanged.
void RunSliced(Simulator& sim, TimeNs until, int slices, Rep* rep) {
  const TimeNs from = sim.Now();
  for (int i = 1; i <= slices; ++i) {
    const int64_t start = HostNowNs();
    sim.RunUntil(from + (until - from) * i / slices);
    const double seconds = HostSecondsSince(start);
    rep->slice_s.push_back(seconds);
    rep->run_s += seconds;
  }
}
constexpr int kSlicesPerHalf = 16;

void Ledger(Rep* rep, bool ok, const char* fmt, unsigned long long a, unsigned long long b,
            unsigned long long c, unsigned long long d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  rep->ledger_ok = ok;
  rep->ledger = buf;
}

// Every per-layer count, zero until a workload sets it.
std::map<std::string, double> ZeroCounts() {
  std::map<std::string, double> c;
  for (const char* name :
       {"gpu.tpc_util", "driver.launches_per_request", "core.atoms", "core.tpcs_stolen",
        "core.mispredict_rate", "cluster.attempts_per_request", "cluster.retries",
        "cluster.hedge_win_ratio", "cluster.timeouts", "cluster.shed",
        "cluster.switches_per_request", "cluster.failed_frac", "autoscale.migrations",
        "autoscale.power_cycles", "autoscale.mean_powered_on", "autoscale.provisioned_util",
        "fault.applied", "obs.verdicts", "remediate.actions", "remediate.rollbacks",
        "remediate.deferrals", "workloads.requests"}) {
    c[name] = 0;
  }
  return c;
}

// Sums the LithOS scheduler counters over every node that runs LithOS.
void CoreCounts(const std::vector<Backend*>& backends, Rep* rep, Hasher* h) {
  uint64_t atoms = 0, stolen = 0, predictions = 0, mispredictions = 0;
  for (Backend* b : backends) {
    if (auto* lithos = dynamic_cast<LithosBackend*>(b)) {
      atoms += lithos->atoms_dispatched();
      stolen += lithos->tpc_scheduler().stats().tpcs_stolen;
      predictions += lithos->predictor().stats().predictions;
      mispredictions += lithos->predictor().stats().mispredictions;
    }
  }
  rep->counts["core.atoms"] = static_cast<double>(atoms);
  rep->counts["core.tpcs_stolen"] = static_cast<double>(stolen);
  rep->counts["core.mispredict_rate"] =
      Ratio(static_cast<double>(mispredictions), static_cast<double>(predictions));
  h->U64(atoms);
  h->U64(stolen);
  h->U64(predictions);
  h->U64(mispredictions);
}

// --- Arrival generators -------------------------------------------------------

// Open-loop Poisson arrivals for one single-GPU service, until `until`.
class ServiceArrivals {
 public:
  ServiceArrivals(Simulator* sim, double rps, uint64_t seed, TimeNs until,
                  std::function<void()> submit)
      : sim_(sim), mean_gap_s_(1.0 / rps), rng_(seed), until_(until),
        submit_(std::move(submit)) {}

  void Start() { ScheduleNext(); }
  uint64_t issued() const { return issued_; }

 private:
  void ScheduleNext() {
    const TimeNs at =
        sim_->Now() + std::max<DurationNs>(FromSeconds(rng_.Exponential(mean_gap_s_)), 1);
    if (at >= until_) {
      return;
    }
    sim_->ScheduleAt(at, [this] {
      ++issued_;
      submit_();
      ScheduleNext();
    });
  }

  Simulator* sim_;
  double mean_gap_s_;
  Rng rng_;
  TimeNs until_;
  std::function<void()> submit_;
  uint64_t issued_ = 0;
};

// Per-model fleet arrivals: the aggregate rate split by popularity share,
// following the fleet's diurnal curve by Lewis thinning when the dispatcher
// compresses days. Each accepted arrival is one timed Dispatch() call.
class FleetArrivals {
 public:
  FleetArrivals(Simulator* sim, FleetDispatcher* fleet, uint64_t seed, TimeNs warmup,
                TimeNs until, SiteClock* clock)
      : sim_(sim), fleet_(fleet), warmup_(warmup), until_(until), clock_(clock) {
    const std::vector<double> shares = PopularityShares(fleet->models());
    for (size_t m = 0; m < shares.size(); ++m) {
      const double mean_rate = fleet->config().aggregate_rps * shares[m];
      streams_.push_back({Rng(StreamSeed(seed, 100 + m)), mean_rate,
                          mean_rate * fleet->PeakNormalizedRps()});
    }
  }

  void Start() {
    for (size_t m = 0; m < streams_.size(); ++m) {
      ScheduleNext(static_cast<int>(m));
    }
  }
  uint64_t issued() const { return issued_; }
  uint64_t issued_in_window() const { return issued_in_window_; }

 private:
  struct ModelStream {
    Rng rng;
    double mean_rate;
    double peak_rate;
  };

  double RateNow(const ModelStream& s) const {
    const double spd = fleet_->config().seconds_per_day;
    return spd > 0 ? s.mean_rate * fleet_->fleet().NormalizedRps(ToSeconds(sim_->Now()) / spd)
                   : s.mean_rate;
  }

  void ScheduleNext(int m) {
    ModelStream& s = streams_[static_cast<size_t>(m)];
    const TimeNs at =
        sim_->Now() + std::max<DurationNs>(FromSeconds(s.rng.Exponential(1.0 / s.peak_rate)), 1);
    if (at >= until_) {
      return;
    }
    sim_->ScheduleAt(at, [this, m] {
      ModelStream& stream = streams_[static_cast<size_t>(m)];
      if (stream.rng.NextDouble() * stream.peak_rate <= RateNow(stream)) {
        ++issued_;
        if (sim_->Now() >= warmup_) {
          ++issued_in_window_;
        }
        ScopedSpan span(clock_, Site::kDispatch);
        fleet_->Dispatch(m);
      }
      ScheduleNext(m);
    });
  }

  Simulator* sim_;
  FleetDispatcher* fleet_;
  TimeNs warmup_;
  TimeNs until_;
  SiteClock* clock_;
  std::vector<ModelStream> streams_;
  uint64_t issued_ = 0;
  uint64_t issued_in_window_ = 0;
};

// Detector tick (and the remediation tick right after it) every window up
// to the horizon, each call timed.
struct DetectTicker {
  Simulator* sim = nullptr;
  FleetDispatcher* fleet = nullptr;
  GrayNodeDetector* detector = nullptr;
  RemediationController* remedy = nullptr;
  SiteClock* clock = nullptr;
  TimeNs horizon = 0;
  DurationNs window = 0;
  std::vector<uint8_t> known_down;

  void Schedule(TimeNs at) {
    if (at > horizon) {
      return;
    }
    sim->ScheduleAt(at, [this, at] {
      for (size_t n = 0; n < known_down.size(); ++n) {
        known_down[n] = fleet->NodeFailed(static_cast<int>(n)) ? 1 : 0;
      }
      {
        ScopedSpan span(clock, Site::kDetectTick);
        detector->Tick(at, fleet->detector_feed(), known_down);
      }
      if (remedy != nullptr) {
        ScopedSpan span(clock, Site::kRemedyTick);
        remedy->Tick(at);
      }
      Schedule(at + window);
    });
  }
};

// --- stack --------------------------------------------------------------------

Rep RunStack(uint64_t seed, Instruments* inst) {
  const GpuSpec spec = GpuSpec::A100();
  const TimeNs warmup = FromSeconds(2);
  const TimeNs horizon = FromSeconds(10);
  const TimeNs mid = warmup + (horizon - warmup) / 2;
  Rep rep;
  rep.counts = ZeroCounts();
  TraceRecorder* trace = inst != nullptr ? &inst->trace : nullptr;
  SiteClock* clock = inst != nullptr ? &inst->clock : nullptr;

  const int64_t setup_start = HostNowNs();
  Simulator sim;
  sim.SetTrace(trace);
  GpuNode node(&sim, 0, spec, SystemKind::kLithos, LithosConfig{});
  node.engine()->SetTrace(trace, 0, -1);
  std::unique_ptr<TimedBackend> timed;
  if (inst != nullptr) {
    timed = std::make_unique<TimedBackend>(node.backend(), clock, Site::kLithosReady, &sim,
                                           node.engine());
    node.driver()->SetBackend(timed.get());
  }

  // Table-2 services with the standard 75/25 quotas (Figs. 13-15).
  const int64_t build_start = HostNowNs();
  const InferenceServiceSpec svc_a = ServiceFor("ResNet");
  const InferenceServiceSpec svc_b = ServiceFor("Llama 3");
  const int quota_a = (spec.TotalTpcs() * 3) / 4;
  const int quota_b = spec.TotalTpcs() - quota_a;
  Driver* driver = node.driver();
  Client* client_a = driver->CuCtxCreate("ResNet/0", PriorityClass::kHighPriority, quota_a);
  Client* client_b = driver->CuCtxCreate("Llama 3/1", PriorityClass::kHighPriority, quota_b);
  Client* client_be = driver->CuCtxCreate("GPT-J/2", PriorityClass::kBestEffort, 0);
  RequestRecorder rec_a, rec_b;
  rec_a.SetWarmupEnd(warmup);
  rec_b.SetWarmupEnd(warmup);
  BatchingInferenceServer server_a(
      driver, client_a,
      [spec](int batch) { return MakeInferenceByName("ResNet", spec, batch); }, svc_a.max_batch,
      FromMillis(2), &rec_a);
  LlmInferenceServer server_b(
      driver, client_b,
      [spec](const LlmRequestShape& shape) {
        return MakeLlama3Inference(spec, shape.prompt_len, shape.output_len);
      },
      StreamSeed(seed, 3), &rec_b);
  ClosedLoopRunner best_effort(driver, client_be, MakeInferenceByName("GPT-J", spec, 1));
  best_effort.SetWarmupEnd(warmup);
  ServiceArrivals arrivals_a(&sim, svc_a.load_rps, StreamSeed(seed, 1), horizon,
                             [&server_a] { server_a.Submit(); });
  ServiceArrivals arrivals_b(&sim, svc_b.load_rps, StreamSeed(seed, 2), horizon,
                             [&server_b] { server_b.Submit(); });
  rep.build_s = HostSecondsSince(build_start);

  arrivals_a.Start();
  arrivals_b.Start();
  best_effort.Start();
  sim.ScheduleAt(warmup, [&node] { node.engine()->ResetStats(); });
  rep.setup_s = HostSecondsSince(setup_start);

  RunSliced(sim, mid, kSlicesPerHalf, &rep);
  const size_t n_mid = rec_a.latency_ms().count();
  RunSliced(sim, horizon, kSlicesPerHalf, &rep);

  // Window totals at the horizon, before the drain.
  const size_t n_end = rec_a.latency_ms().count();
  const uint64_t done_in_window = rec_a.completed() + rec_b.completed();
  const EngineStats stats = node.engine()->Stats();
  const double be_iterations = best_effort.FractionalIterations();

  // Stop the arrivals (the generators end at the horizon) and the
  // best-effort loop, then run the simulator dry.
  best_effort.Stop();
  sim.RunToCompletion();

  const std::vector<double> lat_a = rec_a.latency_ms().samples();
  const std::vector<double> lat_b = rec_b.latency_ms().samples();
  const double seconds = ToSeconds(horizon - warmup);
  rep.requests = arrivals_a.issued() + arrivals_b.issued();
  rep.latency_samples = lat_a.size();
  rep.p50_ms = Percentile(lat_a, 0, lat_a.size(), 50);
  rep.mean_ms = Mean(lat_a);
  rep.p99_ms = Percentile(lat_a, 0, lat_a.size(), 99);
  rep.slo_attainment =
      Ratio(CountAtOrBelow(lat_a, ToMillis(svc_a.slo)), static_cast<double>(rec_a.issued()));
  rep.goodput_per_gpu = be_iterations / seconds;
  rep.joules_per_request = Ratio(stats.energy_joules, static_cast<double>(done_in_window));
  const uint64_t issued = rec_a.issued() + rec_b.issued();
  const uint64_t completed = rec_a.completed() + rec_b.completed();
  rep.completed_frac = Ratio(static_cast<double>(completed), static_cast<double>(issued));
  SplitHalf(lat_a, n_mid, n_end, seconds / 2, &rep);
  Ledger(&rep, completed == issued && sim.pending_events() == 0,
         "dispatched=%llu completed=%llu failed=%llu shed=%llu", issued, completed, 0, 0);
  rep.sim = sim.counters();

  Hasher h;
  h.Samples(lat_a);
  h.Samples(lat_b);
  h.U64(rec_a.issued());
  h.U64(rec_b.issued());
  h.U64(best_effort.iterations());
  h.F64(be_iterations);
  h.F64(stats.energy_joules);
  h.F64(stats.busy_tpc_seconds);
  h.U64(stats.grants_completed);
  h.U64(stats.grants_aborted);
  h.U64(driver->launches_issued());
  h.Sim(rep.sim);
  CoreCounts({node.backend()}, &rep, &h);
  rep.hash = h.value();

  rep.counts["gpu.tpc_util"] =
      Ratio(stats.busy_tpc_seconds, stats.elapsed_seconds * spec.TotalTpcs());
  rep.counts["driver.launches_per_request"] =
      Ratio(static_cast<double>(driver->launches_issued()), static_cast<double>(rep.requests));
  rep.counts["workloads.requests"] = static_cast<double>(rep.requests);
  return rep;
}

// --- region and diurnal ---------------------------------------------------------

struct FleetSpec {
  ClusterConfig cluster;
  AutoscaleConfig control;
  TimeNs warmup = 0;
  TimeNs horizon = 0;
  DurationNs slo = FromMillis(45);  // bench_cluster_serving's fleet SLO
  bool faults = false;              // fault injection + detector + remediation
};

// Region-scale fault mix: Poisson stragglers, Poisson rack crashes with
// Weibull repairs, and one zone partition centred on the window midpoint so
// both halves of the split-half check see the same share of it.
FaultScenarioConfig RegionFaults(uint64_t seed, TimeNs mid, TimeNs horizon) {
  FaultScenarioConfig faults;
  faults.name = "region";
  faults.seed = StreamSeed(seed, 7);
  faults.horizon = horizon;
  // About 0.3% of requests land on a straggler before hedging or remediation
  // steers around it: well inside the 1% tail, so p99 stays a property of
  // queueing rather than of which nodes a seed happens to slow down.
  faults.stragglers_per_second = 2.0;
  faults.straggler_slowdown = 0.15;
  faults.straggler_duration = FromMillis(1500);
  faults.rack_crashes_per_second = 0.5;
  faults.rack_repair = RepairModel::Weibull(0.7, 0.8);
  faults.partitions = {{/*zone=*/3, mid - FromMillis(250), FromMillis(500)}};
  return faults;
}

Rep RunFleet(const FleetSpec& fs, uint64_t seed, Instruments* inst) {
  const TimeNs warmup = fs.warmup;
  const TimeNs horizon = fs.horizon;
  const TimeNs mid = warmup + (horizon - warmup) / 2;
  Rep rep;
  rep.counts = ZeroCounts();
  TraceRecorder* trace = inst != nullptr ? &inst->trace : nullptr;
  SiteClock* clock = inst != nullptr ? &inst->clock : nullptr;

  const int64_t setup_start = HostNowNs();
  Simulator sim;
  sim.SetTrace(trace);
  FleetDispatcher fleet(&sim, fs.cluster);
  fleet.SetTrace(trace);
  fleet.SetSpanSink(inst != nullptr ? &inst->spans : nullptr);
  std::vector<Backend*> backends;
  std::vector<std::unique_ptr<TimedBackend>> timed;
  for (const std::unique_ptr<GpuNode>& node : fleet.nodes()) {
    backends.push_back(node->backend());
    if (inst != nullptr) {
      LITHOS_CHECK(node->driver()->clients().empty());
      const Site site = dynamic_cast<LithosBackend*>(node->backend()) != nullptr
                            ? Site::kLithosReady
                            : Site::kBaselineReady;
      timed.push_back(std::make_unique<TimedBackend>(node->backend(), clock, site, &sim,
                                                     node->engine()));
      node->driver()->SetBackend(timed.back().get());
    }
  }

  FleetController controller(&sim, &fleet, fs.control);
  controller.SetTrace(trace);

  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<GrayNodeDetector> detector;
  std::unique_ptr<RemediationController> remedy;
  DetectTicker ticker;
  if (fs.faults) {
    const int64_t arm_start = HostNowNs();
    injector = std::make_unique<FaultInjector>(&sim, &fleet, RegionFaults(seed, mid, horizon));
    injector->SetTrace(trace);
    injector->Arm();
    rep.arm_s = HostSecondsSince(arm_start);

    // Detector and remediation settings of bench_fleet_remediate, which
    // runs this operating point.
    DetectorConfig detect;
    detect.window = fs.control.control_period;
    detect.straggler_inflation = 2.8;
    detect.warmup_windows = 4;
    std::vector<int> node_zone(static_cast<size_t>(fs.cluster.num_nodes));
    for (int n = 0; n < fs.cluster.num_nodes; ++n) {
      node_zone[static_cast<size_t>(n)] = fleet.ZoneOfNode(n);
    }
    detector = std::make_unique<GrayNodeDetector>(
        detect, fs.cluster.num_nodes, static_cast<int>(fleet.models().size()),
        fs.cluster.num_zones, std::move(node_zone), &fleet.metrics());
    RemediationConfig remediation;
    remediation.drain_score = 3.0;
    remedy = std::make_unique<RemediationController>(&sim, &fleet, &controller, detector.get(),
                                                     remediation);
    remedy->SetTrace(trace);
    ticker = {&sim, &fleet, detector.get(), remedy.get(), clock, horizon, detect.window,
              std::vector<uint8_t>(static_cast<size_t>(fs.cluster.num_nodes), 0)};
    ticker.Schedule(detect.window);
  }

  sim.ScheduleAt(warmup, [&fleet, &controller] {
    for (const std::unique_ptr<GpuNode>& node : fleet.nodes()) {
      node->engine()->ResetStats();
    }
    fleet.BeginMeasurement();
    controller.ResetAccounting();
  });
  fleet.SetWarmupEnd(warmup);

  const int64_t build_start = HostNowNs();
  FleetArrivals arrivals(&sim, &fleet, seed, warmup, horizon, clock);
  rep.build_s = HostSecondsSince(build_start);
  arrivals.Start();
  controller.Start(horizon);
  rep.setup_s = HostSecondsSince(setup_start);

  const Histogram& latency = fleet.metrics().histogram("fleet/latency_ms");
  RunSliced(sim, mid, kSlicesPerHalf, &rep);
  const size_t n_mid = latency.count();
  RunSliced(sim, horizon, kSlicesPerHalf, &rep);

  // Window totals at the horizon, before the drain.
  const size_t n_end = latency.count();
  double energy = 0, busy = 0, capacity = 0;
  for (const std::unique_ptr<GpuNode>& node : fleet.nodes()) {
    const EngineStats& stats = node->engine()->Stats();
    energy += stats.energy_joules;
    busy += stats.busy_tpc_seconds;
    capacity += stats.elapsed_seconds * fs.cluster.spec.TotalTpcs();
  }
  const double request_gpu_ms = fleet.metrics().gauge("fleet/completed_request_ms").value();
  const double powered_on_s = controller.PoweredOnNodeSeconds();
  const uint64_t power_cycles = controller.power_ons() + controller.power_offs();

  // The generator stops at the horizon, and so do the control, detector and
  // remediation ticks; run the simulator dry so every request settles.
  sim.RunUntil(horizon + FromSeconds(120));

  const std::vector<double> samples = latency.digest().samples();
  const double seconds = ToSeconds(horizon - warmup);
  const uint64_t dispatched = fleet.dispatched();
  const uint64_t completed = fleet.completed();
  const uint64_t failed = fleet.failed();
  const uint64_t shed = fleet.metrics().counter("fleet/shed").value();
  rep.requests = arrivals.issued();
  rep.latency_samples = samples.size();
  rep.p50_ms = Percentile(samples, 0, samples.size(), 50);
  rep.mean_ms = Mean(samples);
  rep.p99_ms = Percentile(samples, 0, samples.size(), 99);
  rep.slo_attainment = Ratio(CountAtOrBelow(samples, ToMillis(fs.slo)),
                             static_cast<double>(arrivals.issued_in_window()));
  rep.goodput_per_gpu = Ratio(request_gpu_ms, powered_on_s);
  rep.joules_per_request = Ratio(energy, static_cast<double>(n_end));
  rep.completed_frac = Ratio(static_cast<double>(completed), static_cast<double>(dispatched));
  SplitHalf(samples, n_mid, n_end, seconds / 2, &rep);
  Ledger(&rep,
         dispatched == arrivals.issued() && dispatched == completed + failed + shed &&
             sim.pending_events() == 0,
         "dispatched=%llu completed=%llu failed=%llu shed=%llu", dispatched, completed, failed,
         shed);
  rep.sim = sim.counters();

  if (inst != nullptr) {
    // Every request id must settle exactly once: no open span, and no span
    // flagged for a duplicate or malformed settle.
    const std::vector<RequestSpan> spans = inst->spans.Spans();
    uint64_t open = 0, flagged = 0;
    for (const RequestSpan& span : spans) {
      open += span.outcome == RequestOutcome::kOpen ? 1 : 0;
      flagged += span.partial ? 1 : 0;
    }
    rep.spans_checked = true;
    rep.spans_ok = spans.size() == dispatched && open == 0 && flagged == 0;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "spans=%zu open=%llu duplicate_or_partial=%llu",
                  spans.size(), static_cast<unsigned long long>(open),
                  static_cast<unsigned long long>(flagged));
    rep.spans = buf;
  }

  // Collect() finalizes the histogram, so it runs after the samples were
  // copied in completion order.
  const ClusterResult window = fleet.Collect(horizon - warmup);
  Hasher h;
  h.Samples(samples);
  for (const auto& [name, value] : fleet.metrics().Rows()) {
    h.Str(name);
    h.F64(value);
  }
  h.U64(window.dispatched);
  h.U64(window.total_model_switches);
  h.F64(energy);
  h.F64(busy);
  h.F64(request_gpu_ms);
  h.F64(powered_on_s);
  h.U64(power_cycles);
  h.U64(controller.ticks());
  h.Lines(fleet.recovery_log());
  h.Sim(rep.sim);
  uint64_t launches = 0;
  for (const std::unique_ptr<GpuNode>& node : fleet.nodes()) {
    launches += node->driver()->launches_issued();
  }
  h.U64(launches);
  CoreCounts(backends, &rep, &h);

  const DetectorFeed& feed = fleet.detector_feed();
  uint64_t attempts = 0;
  for (uint64_t a : feed.node_attempts) {
    attempts += a;
  }
  auto counter = [&fleet](const char* name) {
    return static_cast<double>(fleet.metrics().counter(name).value());
  };
  const double hedges = counter("fleet/hedges");
  rep.counts["gpu.tpc_util"] = Ratio(busy, capacity);
  rep.counts["driver.launches_per_request"] =
      Ratio(static_cast<double>(launches), static_cast<double>(dispatched));
  rep.counts["cluster.attempts_per_request"] =
      Ratio(static_cast<double>(attempts), static_cast<double>(dispatched));
  rep.counts["cluster.retries"] = counter("fleet/retries");
  rep.counts["cluster.hedge_win_ratio"] = Ratio(counter("fleet/hedge_wins"), hedges);
  rep.counts["cluster.timeouts"] = counter("fleet/timeouts");
  rep.counts["cluster.shed"] = static_cast<double>(shed);
  rep.counts["cluster.switches_per_request"] =
      Ratio(static_cast<double>(window.total_model_switches),
            static_cast<double>(window.dispatched));
  rep.counts["cluster.failed_frac"] =
      Ratio(static_cast<double>(failed + shed), static_cast<double>(dispatched));
  rep.counts["autoscale.migrations"] = static_cast<double>(fleet.migrations());
  rep.counts["autoscale.power_cycles"] = static_cast<double>(power_cycles);
  rep.counts["autoscale.mean_powered_on"] = powered_on_s / seconds;
  rep.counts["autoscale.provisioned_util"] = Ratio(request_gpu_ms, powered_on_s * 1000.0);
  rep.counts["workloads.requests"] = static_cast<double>(rep.requests);
  if (fs.faults) {
    h.Lines(injector->trace());
    h.Lines(detector->Lines());
    h.Lines(remedy->Lines());
    rep.counts["fault.applied"] = static_cast<double>(injector->trace().size());
    rep.counts["obs.verdicts"] = static_cast<double>(detector->verdicts().size());
    rep.counts["remediate.actions"] = static_cast<double>(remedy->actions());
    rep.counts["remediate.rollbacks"] = static_cast<double>(remedy->rollbacks());
    rep.counts["remediate.deferrals"] = static_cast<double>(remedy->deferrals());
  }
  rep.hash = h.value();
  return rep;
}

ResilienceConfig FullResilience() {
  ResilienceConfig rc;
  rc.enabled = true;
  rc.max_attempts = 3;
  rc.attempt_timeout = FromMillis(250);
  rc.backoff_base = FromMillis(20);
  rc.backoff_cap = FromMillis(160);
  rc.hedge = true;
  rc.hedge_delay = FromMillis(75);
  rc.shed_watermark_ms = 60.0;
  return rc;
}

FleetSpec RegionSpec() {
  FleetSpec fs;
  fs.cluster.num_nodes = 1024;
  fs.cluster.num_zones = 8;
  fs.cluster.racks_per_zone = 4;
  fs.cluster.policy = PlacementPolicy::kModelAffinity;
  fs.cluster.system = SystemKind::kMps;
  fs.cluster.aggregate_rps = 24000.0;
  fs.cluster.seed = 2026;
  fs.cluster.resilience = FullResilience();
  fs.control.cluster = fs.cluster;
  fs.control.scaling = ScalingPolicyKind::kStaticPeak;
  fs.control.control_period = FromMillis(250);
  fs.control.max_migrations_per_period = 8;
  // 15 s measured: over 8 s a single unlucky rack crash could double p99 on
  // one seed; twice the window halves its weight in the tail.
  fs.warmup = FromSeconds(1);
  fs.horizon = FromSeconds(16);
  fs.faults = true;
  return fs;
}

FleetSpec DiurnalSpec() {
  FleetSpec fs;
  fs.cluster.num_nodes = 128;
  fs.cluster.policy = PlacementPolicy::kModelAffinity;
  fs.cluster.system = SystemKind::kLithos;
  fs.cluster.aggregate_rps = 8960.0;
  fs.cluster.seconds_per_day = 6.0;
  fs.cluster.seed = 2026;
  fs.control.cluster = fs.cluster;
  fs.control.scaling = ScalingPolicyKind::kPredictive;
  fs.control.control_period = FromMillis(250);
  fs.control.min_nodes = 2;
  // The default budget of 4 migrations per period cannot re-pack 128 nodes
  // in time: p99 rises to ~1.5 s. 64 keeps it near 24 ms.
  fs.control.max_migrations_per_period = 64;
  // Two whole compressed days, so each half of the window is one full day.
  fs.warmup = FromSeconds(1);
  fs.horizon = FromSeconds(13);
  return fs;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"stack", "region", "diurnal"};
  return names;
}

Rep RunWorkload(const std::string& workload, uint64_t seed, Instruments* inst) {
  if (workload == "stack") {
    return RunStack(seed, inst);
  }
  if (workload == "region") {
    return RunFleet(RegionSpec(), seed, inst);
  }
  LITHOS_CHECK(workload == "diurnal");
  return RunFleet(DiurnalSpec(), seed, inst);
}

}  // namespace perfbench
