// Tests for the workload layer: model-zoo calibration against the paper's
// Tables 1-2 and Figure 10 shapes, the fleet telemetry statistics of
// Figures 1/4/5/6, the LLM trace mixture, dynamic batching, and closed-loop
// runners.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/baselines/concurrent_backends.h"
#include "src/cluster/cluster.h"
#include "src/driver/driver.h"
#include "src/workloads/clients.h"
#include "src/workloads/fleet.h"
#include "src/workloads/trace.h"
#include "src/workloads/zoo.h"

namespace lithos {
namespace {

const GpuSpec& Spec() {
  static const GpuSpec spec = GpuSpec::A100();
  return spec;
}

TEST(ZooTest, TrainingIterationsMatchTable1) {
  // Paper Table 1 latencies at the listed batch sizes.
  struct Row {
    ModelProfileRef profile;
    double ms;
  };
  const std::vector<Row> rows = {
      {MakeVgg19Training(Spec()), 291},   {MakeResNet50Training(Spec()), 281},
      {MakeMobileNetV2Training(Spec()), 254}, {MakeDlrmTraining(Spec()), 74},
      {MakeBertLargeTraining(Spec()), 159},   {MakeLlama3Finetune(Spec()), 690},
  };
  for (const Row& row : rows) {
    EXPECT_NEAR(ToMillis(row.profile->IdealLatencyNs(Spec())), row.ms, row.ms * 0.02)
        << row.profile->name;
  }
}

TEST(ZooTest, TrainingMemoryMatchesTable1) {
  EXPECT_NEAR(MakeVgg19Training(Spec())->memory_gib, 17.4, 0.01);
  EXPECT_NEAR(MakeDlrmTraining(Spec())->memory_gib, 6.7, 0.01);
  EXPECT_NEAR(MakeLlama3Finetune(Spec())->memory_gib, 32.0, 0.01);
}

TEST(ZooTest, DlrmHasTheFig10OutlierKernel) {
  // Fig. 10(a): DLRM stands out with kernels exceeding 30ms.
  const ModelProfileRef dlrm = MakeDlrmTraining(Spec());
  EXPECT_GT(dlrm->MaxKernelLatencyNs(Spec()), FromMillis(25));
  // No other training model approaches that.
  EXPECT_LT(MakeResNet50Training(Spec())->MaxKernelLatencyNs(Spec()), FromMillis(15));
}

TEST(ZooTest, TrainingKernelLatencyGrowsWithBatch) {
  // Fig. 10(a): P99 kernel latency rises with training batch size.
  const auto small = MakeVgg19Training(Spec(), 30);
  const auto large = MakeVgg19Training(Spec(), 240);
  EXPECT_GT(large->KernelLatencyPercentileNs(Spec(), 99),
            2 * small->KernelLatencyPercentileNs(Spec(), 99));
}

TEST(ZooTest, LlmPrefillKernelsGrowWithPromptLength) {
  // Fig. 10(b): multi-ms kernels appear at large prompt lengths.
  const auto s = MakeLlama3Inference(Spec(), 128, 32);
  const auto l = MakeLlama3Inference(Spec(), 2048, 32);
  EXPECT_GT(l->KernelLatencyPercentileNs(Spec(), 99),
            3 * s->KernelLatencyPercentileNs(Spec(), 99));
  EXPECT_GT(l->KernelLatencyPercentileNs(Spec(), 99), FromMillis(1));
}

TEST(ZooTest, LlamaDecodeScalesPoorly) {
  // §4.5: the token-frequency-penalty kernel "does not scale".
  const auto llama = MakeLlama3Inference(Spec(), 512, 8);
  bool found_nonscaling = false;
  for (const KernelDesc& k : llama->ops) {
    if (k.name.find("token_freq_penalty") != std::string::npos) {
      found_nonscaling = true;
      EXPECT_EQ(k.MaxUsefulTpcs(Spec()), 1);
    }
  }
  EXPECT_TRUE(found_nonscaling);
}

TEST(ZooTest, InferenceServicesMatchTable2) {
  const auto services = InferenceServices();
  ASSERT_EQ(services.size(), 5u);
  EXPECT_EQ(services[0].model, "ResNet");
  EXPECT_DOUBLE_EQ(services[0].load_rps, 1000.0);
  EXPECT_EQ(services[0].slo, FromMillis(15));
  EXPECT_EQ(services[2].model, "Llama 3");
  EXPECT_EQ(services[2].slo, FromMillis(2000));
  EXPECT_EQ(services[4].framework, "TensorRT");
}

TEST(ZooTest, TrainingJobsMatchTable1Rows) {
  const auto jobs = TrainingJobs();
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[3].model, "DLRM");
  EXPECT_EQ(jobs[3].batch, 32768);
  EXPECT_EQ(jobs[3].iteration, FromMillis(74));
}

TEST(ZooTest, BatchingEconomyOfScale) {
  // Per-request cost falls as the batch widens (fixed per-batch base).
  const auto b1 = MakeBertLargeInference(Spec(), 1);
  const auto b32 = MakeBertLargeInference(Spec(), 32);
  const double per_req_1 = static_cast<double>(b1->IdealLatencyNs(Spec()));
  const double per_req_32 = static_cast<double>(b32->IdealLatencyNs(Spec())) / 32.0;
  EXPECT_LT(per_req_32, per_req_1 * 0.5);
}

TEST(ZooTest, ByNameLookupCoversAllModels) {
  for (const char* name : {"ResNet", "RetinaNet", "YOLO", "BERT", "Llama 3", "GPT-J"}) {
    EXPECT_NE(MakeInferenceByName(name, Spec(), 4), nullptr) << name;
  }
  for (const auto& job : TrainingJobs()) {
    EXPECT_NE(MakeTrainingByName(job.model, Spec()), nullptr) << job.model;
  }
}

// Two kernels share a launch signature exactly when they share the launch
// configuration it hashes (name, grid, threads per block, shared memory),
// over every kernel the experiments launch: the zoo's inference profiles at
// every dynamic batch size, LLM profiles at the trace's shapes, the training
// profiles, and the fleet's request, load, checkpoint and restore kernels.
TEST(ZooTest, LaunchSignaturesMatchLaunchConfigurations) {
  using Config = std::tuple<std::string, uint32_t, uint32_t, uint32_t, uint32_t, uint32_t>;
  std::map<Config, uint64_t> signature_of;
  std::map<uint64_t, Config> config_of;
  size_t kernels = 0;
  auto add = [&](const KernelDesc& k) {
    ++kernels;
    const Config config{k.name, k.grid_x, k.grid_y, k.grid_z, k.threads_per_block,
                        k.smem_per_block_bytes};
    const uint64_t signature = k.LaunchSignature();
    const auto [s, new_config] = signature_of.emplace(config, signature);
    ASSERT_EQ(s->second, signature) << k.name;
    const auto [c, new_signature] = config_of.emplace(signature, config);
    ASSERT_EQ(new_config, new_signature) << k.name << " collides with " << std::get<0>(c->second);
  };
  auto add_profile = [&](const ModelProfileRef& profile) {
    for (const KernelDesc& k : profile->ops) {
      add(k);
    }
  };
  for (const InferenceServiceSpec& service : InferenceServices()) {
    for (int batch = 1; batch <= service.max_batch; ++batch) {
      add_profile(MakeInferenceByName(service.model, Spec(), batch));
    }
  }
  AzureLlmTrace trace(7);
  std::vector<LlmRequestShape> shapes = {AzureLlmTrace::Small(), AzureLlmTrace::Medium(),
                                         AzureLlmTrace::Large()};
  for (int i = 0; i < 6; ++i) {
    shapes.push_back(trace.Sample());
  }
  for (const LlmRequestShape& shape : shapes) {
    add_profile(MakeLlama3Inference(Spec(), shape.prompt_len, shape.output_len));
    add_profile(MakeGptJInference(Spec(), shape.prompt_len, shape.output_len));
  }
  for (const TrainingJobSpec& job : TrainingJobs()) {
    add_profile(MakeTrainingByName(job.model, Spec()));
  }
  Simulator sim;
  ClusterConfig config;
  config.num_nodes = 1;
  const ClusterDispatcher dispatcher(&sim, config);
  for (int m = 0; m < static_cast<int>(dispatcher.models().size()); ++m) {
    const ClusterDispatcher::ModelKernels& k = dispatcher.model_kernels(m);
    for (const KernelDesc* kernel : {&k.request, &k.load, &k.checkpoint, &k.restore}) {
      add(*kernel);
    }
  }
  EXPECT_GT(signature_of.size(), 1000u);
  EXPECT_GT(kernels, signature_of.size());  // equal configurations do recur
}

TEST(FleetTest, DiurnalRpsRatioMatchesFig4) {
  FleetTelemetry fleet(1);
  EXPECT_NEAR(fleet.MaxMinRpsRatio(), 2.23, 0.15);
}

TEST(FleetTest, PopularitySpreadMatchesFig5) {
  FleetTelemetry fleet(1);
  // Several-hundred-x between model A and model M.
  EXPECT_GT(fleet.PopularitySpread(), 100);
  EXPECT_LT(fleet.PopularitySpread(), 1000);
  EXPECT_EQ(fleet.models().size(), 13u);
}

TEST(FleetTest, SizeSpreadMatchesFig6) {
  FleetTelemetry fleet(1);
  EXPECT_GT(fleet.SizeSpread(), 10);
}

TEST(FleetTest, WeekUtilizationMatchesFig1) {
  FleetTelemetry fleet(7);
  StreamingStats device, sm, membw, memcap;
  for (const FleetSample& s : fleet.Week()) {
    device.Add(s.device_util);
    sm.Add(s.sm_util);
    membw.Add(s.membw_util);
    memcap.Add(s.memcap_util);
  }
  EXPECT_NEAR(device.mean(), 0.27, 0.02);   // "averaging just 27%"
  EXPECT_NEAR(sm.mean(), 0.14, 0.02);       // "SM utilization ... 14%"
  EXPECT_NEAR(membw.mean(), 0.20, 0.02);    // "memory bandwidth ... 20%"
  EXPECT_NEAR(memcap.mean(), 0.28, 0.01);   // "steady at 28%"
  EXPECT_GT(device.max(), 0.33);            // 17%-40% range
  EXPECT_LT(device.min(), 0.20);
  // Memory capacity stays flat (models pinned for SLAs).
  EXPECT_LT(memcap.stddev(), 0.01);
}

TEST(TraceTest, BucketMixtureAndJitter) {
  AzureLlmTrace trace(3);
  int s = 0, m = 0, l = 0;
  for (int i = 0; i < 10000; ++i) {
    const LlmRequestShape shape = trace.Sample();
    EXPECT_GT(shape.prompt_len, 0);
    EXPECT_GT(shape.output_len, 0);
    if (shape.bucket == 'S') {
      ++s;
      EXPECT_LT(shape.prompt_len, 200);
    } else if (shape.bucket == 'M') {
      ++m;
    } else {
      ++l;
      EXPECT_GT(shape.prompt_len, 1024);
    }
  }
  EXPECT_NEAR(s / 10000.0, 0.50, 0.03);
  EXPECT_NEAR(m / 10000.0, 0.35, 0.03);
  EXPECT_NEAR(l / 10000.0, 0.15, 0.03);
}

class ServingTest : public ::testing::Test {
 protected:
  ServingTest()
      : engine_(&sim_, Spec()),
        driver_(&sim_, &engine_),
        backend_(&sim_, &engine_) {
    driver_.SetBackend(&backend_);
    client_ = driver_.CuCtxCreate("svc", PriorityClass::kHighPriority, 54);
  }

  Simulator sim_;
  ExecutionEngine engine_;
  Driver driver_;
  MpsBackend backend_;
  Client* client_;
};

TEST_F(ServingTest, BatchingServerFormsBatches) {
  RequestRecorder rec;
  int batches_built = 0;
  int max_batch_seen = 0;
  auto factory = [&](int batch) {
    ++batches_built;
    max_batch_seen = std::max(max_batch_seen, batch);
    return MakeBertLargeInference(Spec(), batch);
  };
  BatchingInferenceServer server(&driver_, client_, factory, 8, FromMillis(2), &rec);
  // Ten requests in a burst: first batch takes what is there, later ones
  // aggregate up to 8.
  for (int i = 0; i < 10; ++i) {
    server.Submit();
  }
  sim_.RunUntil(FromSeconds(1));
  EXPECT_EQ(rec.completed(), 10u);
  EXPECT_GT(max_batch_seen, 1);
  EXPECT_LE(max_batch_seen, 8);
}

TEST_F(ServingTest, BatchingServerHonoursQueueDelay) {
  RequestRecorder rec;
  auto factory = [](int batch) { return MakeBertLargeInference(Spec(), batch); };
  BatchingInferenceServer server(&driver_, client_, factory, 32, FromMillis(5), &rec);
  server.Submit();  // a single request must not wait for a full batch
  sim_.RunUntil(FromSeconds(1));
  EXPECT_EQ(rec.completed(), 1u);
  rec.Finalize();
  // Waited the 5ms delay window plus service time, not forever.
  EXPECT_LT(rec.latency_ms().Max(), 60.0);
  EXPECT_GE(rec.latency_ms().Max(), 5.0);
}

TEST_F(ServingTest, LlmServerServesTraceShapes) {
  RequestRecorder rec;
  auto factory = [](const LlmRequestShape& shape) {
    return MakeLlama3Inference(Spec(), shape.prompt_len, shape.output_len);
  };
  LlmInferenceServer server(&driver_, client_, factory, 5, &rec);
  for (int i = 0; i < 3; ++i) {
    server.Submit();
  }
  sim_.RunUntil(FromSeconds(20));
  EXPECT_EQ(rec.completed(), 3u);
  rec.Finalize();
  EXPECT_GT(rec.latency_ms().Median(), 100.0);  // sub-second to seconds
}

TEST_F(ServingTest, ClosedLoopRunnerIteratesAndCounts) {
  ClosedLoopRunner runner(&driver_, client_, MakeDlrmTraining(Spec()));
  runner.Start();
  sim_.RunUntil(FromSeconds(1));
  // DLRM iteration = 74ms: about 13 iterations in a second.
  EXPECT_NEAR(static_cast<double>(runner.iterations()), 13.0, 2.0);
  runner.Finalize();
  EXPECT_NEAR(runner.iteration_ms().Median(), 74.0, 8.0);
  EXPECT_GT(runner.FractionalIterations(), runner.iterations() - 1.0);
  runner.Stop();
  sim_.RunToCompletion();
}

TEST_F(ServingTest, PoissonArrivalsApproximateRate) {
  int count = 0;
  PoissonArrivals arrivals(&sim_, 500.0, 9, [&] { ++count; });
  arrivals.Start(FromSeconds(4));
  sim_.RunToCompletion();
  EXPECT_NEAR(count / 4.0, 500.0, 25.0);
}

}  // namespace
}  // namespace lithos
