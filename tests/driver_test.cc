// Tests for the driver shim: stream FIFO semantics, marker (synchronization)
// handling, batch ordinals, backend notification protocol, and head
// requeueing for reset-style schedulers.
#include <gtest/gtest.h>

#include <vector>

#include "src/driver/driver.h"
#include "src/gpu/execution_engine.h"
#include "src/sim/simulator.h"

namespace lithos {
namespace {

// Records notifications and lets the test drive dispatch manually.
class RecordingBackend : public Backend {
 public:
  RecordingBackend(Simulator* sim, ExecutionEngine* engine) : Backend(sim, engine) {}
  std::string Name() const override { return "recording"; }
  void OnStreamReady(Stream* stream) override { ready.push_back(stream); }
  void OnClientRegistered(const Client& client) override { clients.push_back(client.id); }

  std::vector<Stream*> ready;
  std::vector<int> clients;
};

class DriverTest : public ::testing::Test {
 protected:
  DriverTest()
      : engine_(&sim_, GpuSpec::A100()),
        driver_(&sim_, &engine_),
        backend_(&sim_, &engine_) {
    driver_.SetBackend(&backend_);
    client_ = driver_.CuCtxCreate("app", PriorityClass::kHighPriority, 10);
    stream_ = driver_.CuStreamCreate(client_);
    kernel_ = MakeKernel("k", 64, FromMicros(100), 0.9, 0.5, engine_.spec());
  }

  Simulator sim_;
  ExecutionEngine engine_;
  Driver driver_;
  RecordingBackend backend_;
  Client* client_;
  Stream* stream_;
  KernelDesc kernel_;
};

TEST_F(DriverTest, ClientRegistrationReachesBackend) {
  EXPECT_EQ(backend_.clients.size(), 1u);
  driver_.CuCtxCreate("other", PriorityClass::kBestEffort);
  EXPECT_EQ(backend_.clients.size(), 2u);
}

TEST_F(DriverTest, LaunchNotifiesOnEmptyToNonEmptyEdgeOnly) {
  driver_.CuLaunchKernel(stream_, &kernel_);
  EXPECT_EQ(backend_.ready.size(), 1u);
  driver_.CuLaunchKernel(stream_, &kernel_);
  driver_.CuLaunchKernel(stream_, &kernel_);
  // Still dispatchable; no duplicate notifications.
  EXPECT_EQ(backend_.ready.size(), 1u);
  EXPECT_EQ(stream_->QueueDepth(), 3u);
}

TEST_F(DriverTest, FifoHeadProtocol) {
  driver_.CuLaunchKernel(stream_, &kernel_);
  driver_.CuLaunchKernel(stream_, &kernel_);
  ASSERT_TRUE(stream_->HasDispatchableKernel());
  const LaunchRecord& head = stream_->BeginHead();
  EXPECT_EQ(head.kernel, &kernel_);
  EXPECT_TRUE(stream_->HeadInFlight());
  EXPECT_FALSE(stream_->HasDispatchableKernel());  // head claimed

  backend_.ready.clear();
  stream_->CompleteHead();
  // Next kernel becomes dispatchable and re-notifies.
  EXPECT_EQ(backend_.ready.size(), 1u);
  EXPECT_TRUE(stream_->HasDispatchableKernel());
  EXPECT_EQ(stream_->QueueDepth(), 1u);
}

TEST_F(DriverTest, MarkerOnIdleStreamFiresImmediately) {
  bool fired = false;
  driver_.CuStreamAddCallback(stream_, [&] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST_F(DriverTest, MarkerFiresAfterPrecedingKernelCompletes) {
  bool fired = false;
  driver_.CuLaunchKernel(stream_, &kernel_);
  driver_.CuStreamAddCallback(stream_, [&] { fired = true; });
  EXPECT_FALSE(fired);
  stream_->BeginHead();
  stream_->CompleteHead();
  EXPECT_TRUE(fired);
}

TEST_F(DriverTest, MultipleMarkersDrainInOrder) {
  std::vector<int> order;
  driver_.CuLaunchKernel(stream_, &kernel_);
  driver_.CuStreamAddCallback(stream_, [&] { order.push_back(1); });
  driver_.CuStreamAddCallback(stream_, [&] { order.push_back(2); });
  driver_.CuLaunchKernel(stream_, &kernel_);
  stream_->BeginHead();
  stream_->CompleteHead();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(stream_->HasDispatchableKernel());  // the second kernel
}

TEST_F(DriverTest, BatchOrdinalsResetAtMarkers) {
  driver_.CuLaunchKernel(stream_, &kernel_);
  driver_.CuLaunchKernel(stream_, &kernel_);
  driver_.CuStreamAddCallback(stream_, [] {});
  driver_.CuLaunchKernel(stream_, &kernel_);

  EXPECT_EQ(stream_->PeekHead().batch_ordinal, 0u);
  stream_->BeginHead();
  stream_->CompleteHead();
  EXPECT_EQ(stream_->PeekHead().batch_ordinal, 1u);
  stream_->BeginHead();
  stream_->CompleteHead();  // drains the marker too
  // Kernel after the marker restarts the ordinal (new batch).
  EXPECT_EQ(stream_->PeekHead().batch_ordinal, 0u);
}

TEST_F(DriverTest, InFlightHeadAccessor) {
  EXPECT_EQ(stream_->InFlightHead(), nullptr);
  driver_.CuLaunchKernel(stream_, &kernel_);
  EXPECT_EQ(stream_->InFlightHead(), nullptr);
  stream_->BeginHead();
  ASSERT_NE(stream_->InFlightHead(), nullptr);
  EXPECT_EQ(stream_->InFlightHead()->kernel, &kernel_);
}

TEST_F(DriverTest, StreamsAreIndependent) {
  Stream* other = driver_.CuStreamCreate(client_);
  driver_.CuLaunchKernel(stream_, &kernel_);
  driver_.CuLaunchKernel(other, &kernel_);
  EXPECT_EQ(backend_.ready.size(), 2u);
  stream_->BeginHead();
  EXPECT_TRUE(other->HasDispatchableKernel());
}

TEST_F(DriverTest, LaunchCountsTracked) {
  driver_.CuLaunchKernel(stream_, &kernel_);
  driver_.CuStreamAddCallback(stream_, [] {});
  EXPECT_EQ(driver_.launches_issued(), 2u);
}

}  // namespace
}  // namespace lithos
