// Unit tests for the discrete-event simulator: ordering, determinism,
// cancellation, clock semantics, and constant-delay timer lanes against
// plain ScheduleAfter.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace lithos {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, EqualTimestampsRunInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimeNs fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { fired_at = sim.Now(); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  sim.Cancel(id);
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownIsNoop) {
  Simulator sim;
  sim.Cancel(9999);  // Must not crash.
  bool fired = false;
  sim.ScheduleAt(1, [&] { fired = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelFromWithinEarlierEvent) {
  Simulator sim;
  bool fired = false;
  const EventId later = sim.ScheduleAt(20, [&] { fired = true; });
  sim.ScheduleAt(10, [&] { sim.Cancel(later); });
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(10, [&] { ++count; });
  sim.ScheduleAt(20, [&] { ++count; });
  sim.ScheduleAt(30, [&] { ++count; });
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(count, 3);
  // Clock advances to the deadline even past the last event.
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      sim.ScheduleAfter(1, chain);
    }
  };
  sim.ScheduleAt(0, chain);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), 99);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(1, [&] { ++count; });
  sim.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, PendingEventsCount) {
  Simulator sim;
  const EventId a = sim.ScheduleAt(1, [] {});
  sim.ScheduleAt(2, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunToCompletion();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ZeroDelayEventRunsAtSameTime) {
  Simulator sim;
  TimeNs inner = -1;
  sim.ScheduleAt(42, [&] {
    sim.ScheduleAfter(0, [&] { inner = sim.Now(); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(inner, 42);
}

// --- Cancel/Reschedule edge cases (slab heap, handle generations) -----------

TEST(SimulatorTest, CancelHeadOfQueue) {
  Simulator sim;
  std::vector<int> order;
  const EventId head = sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.Cancel(head);  // in-place removal of the heap minimum
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, RescheduleMovesEventEarlierAndLater) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(20, [&] { order.push_back(1); });
  const EventId movable = sim.ScheduleAt(40, [&] { order.push_back(2); });
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.Reschedule(movable, 10));  // sift up past both
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));

  order.clear();
  sim.ScheduleAt(sim.Now() + 10, [&] { order.push_back(1); });
  const EventId late = sim.ScheduleAt(sim.Now() + 20, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.Reschedule(late, sim.Now() + 50));  // sift down
  sim.ScheduleAt(sim.Now() + 30, [&] { order.push_back(3); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimulatorTest, RescheduleToEqualTimestampRunsAfterExisting) {
  // Reschedule re-stamps the sequence number: the moved event behaves exactly
  // like Cancel + ScheduleAt, i.e. it runs after events already scheduled at
  // the same timestamp — even events it originally preceded.
  Simulator sim;
  std::vector<int> order;
  const EventId moved = sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.Reschedule(moved, 10));
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SimulatorTest, RescheduleUnknownOrFiredReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Reschedule(9999, 10));
  bool fired = false;
  const EventId id = sim.ScheduleAt(5, [&] { fired = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sim.Reschedule(id, sim.Now() + 1));  // already fired
  // A stale id paired with an already-passed deadline (a caller racing its
  // own timer's firing) must also return false, not crash on the time check.
  EXPECT_FALSE(sim.Reschedule(id, 1));
  sim.Cancel(id);  // and cancelling stays a no-op
}

TEST(SimulatorTest, CancelInsideFiringCallback) {
  // An event cancelling itself mid-fire is a no-op (its slot is already
  // retired); cancelling a sibling at the same timestamp must still work.
  Simulator sim;
  bool sibling_fired = false;
  EventId self = 0;
  EventId sibling = 0;
  self = sim.ScheduleAt(10, [&] {
    sim.Cancel(self);     // no-op: currently firing
    sim.Cancel(sibling);  // removes the equal-timestamp sibling
  });
  sibling = sim.ScheduleAt(10, [&] { sibling_fired = true; });
  sim.RunToCompletion();
  EXPECT_FALSE(sibling_fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RescheduleFromWithinCallback) {
  Simulator sim;
  std::vector<TimeNs> fired;
  EventId target = 0;
  sim.ScheduleAt(10, [&] { sim.Reschedule(target, 50); });
  target = sim.ScheduleAt(20, [&] { fired.push_back(sim.Now()); });
  sim.ScheduleAt(30, [&] { fired.push_back(sim.Now()); });
  sim.RunToCompletion();
  EXPECT_EQ(fired, (std::vector<TimeNs>{30, 50}));
}

TEST(SimulatorTest, RecycledSlotDoesNotAliasOldHandle) {
  // Cancelling releases the slot; a new event may reuse it. The stale handle
  // must not resolve to the newcomer (generation mismatch).
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  const EventId a = sim.ScheduleAt(10, [&] { a_fired = true; });
  sim.Cancel(a);
  const EventId b = sim.ScheduleAt(10, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  sim.Cancel(a);                        // stale: must not touch b
  EXPECT_FALSE(sim.Reschedule(a, 99));  // stale: must not move b
  sim.RunToCompletion();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

// --- Constant-delay timer lanes ----------------------------------------------

TEST(SimulatorLaneTest, SameDelaySharesOneLane) {
  Simulator sim;
  const TimerLaneId a = sim.TimerLane(75);
  const TimerLaneId b = sim.TimerLane(250);
  EXPECT_NE(a, b);
  EXPECT_EQ(sim.TimerLane(75), a);
  EXPECT_EQ(sim.TimerLane(250), b);
}

TEST(SimulatorLaneTest, QueuedTimersCountAndFireInArmOrder) {
  Simulator sim;
  const TimerLaneId lane = sim.TimerLane(100);
  std::vector<int> order;
  const EventId first = sim.ScheduleOnLane(lane, [&] { order.push_back(1); });
  sim.ScheduleAt(50, [&] { order.push_back(0); });
  const EventId second = sim.ScheduleOnLane(lane, [&] { order.push_back(2); });
  sim.ScheduleOnLane(lane, [&] { order.push_back(3); });
  sim.ScheduleAt(100, [&] { order.push_back(4); });  // same instant, armed later
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.Cancel(second);  // queued: O(1), no heap work
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.Cancel(first);  // the lane head: its successor takes the heap slot
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 4}));
  EXPECT_EQ(sim.counters().canceled, 2u);
}

TEST(SimulatorLaneTest, RescheduledLaneTimerLeavesTheLane) {
  Simulator sim;
  const TimerLaneId lane = sim.TimerLane(100);
  std::vector<int> order;
  sim.ScheduleOnLane(lane, [&] { order.push_back(1); });
  const EventId queued = sim.ScheduleOnLane(lane, [&] { order.push_back(2); });
  sim.ScheduleOnLane(lane, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.Reschedule(queued, 10));  // earlier than its lane head
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

// Drives one Simulator through a pseudo-random op sequence. With `lanes`,
// the constant-delay timers are armed with ScheduleOnLane; without, with
// ScheduleAfter. Two drivers with the same seed must stay in lockstep:
// same fire order, clock, pending count, counters and kSim trace bytes.
class LaneDriver {
 public:
  static constexpr DurationNs kDelays[3] = {30, 70, 150};

  LaneDriver(bool lanes, uint64_t seed) : lanes_(lanes), state_(seed * 2654435761u + 1) {
    sim_.SetTrace(&trace_);
    for (DurationNs d : kDelays) {
      lane_ids_.push_back(sim_.TimerLane(d));
    }
  }

  Simulator& sim() { return sim_; }
  const std::vector<std::pair<int, TimeNs>>& fired() const { return fired_; }
  const std::vector<int64_t>& results() const { return results_; }
  std::vector<uint8_t> TraceBytes() const { return trace_.Serialize(); }

  void RandomOp() {
    switch (Rand() % 10) {
      case 0:
      case 1:
      case 2:
        ArmTimer(static_cast<int>(Rand() % 3));
        break;
      case 3:
        // Times on a coarse grid, so ordinary events collide with timer
        // deadlines and the (at, seq) tie-break decides.
        Schedule(sim_.Now() + 10 * static_cast<TimeNs>(Rand() % 20));
        break;
      case 4:
        CancelRandom();
        break;
      case 5:
        CancelLaneHead(static_cast<int>(Rand() % 3));
        break;
      case 6:
        RescheduleRandom();
        break;
      case 7:
        results_.push_back(sim_.Step() ? 1 : 0);
        break;
      default:
        sim_.RunUntil(sim_.Now() + 10 * static_cast<TimeNs>(Rand() % 8));
        break;
    }
  }

 private:
  uint64_t Rand() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  int NewTag(EventId id, int lane) {
    ids_.push_back(id);
    lane_of_.push_back(lane);
    results_.push_back(static_cast<int64_t>(id));
    return static_cast<int>(ids_.size()) - 1;
  }

  EventCallback Callback() {
    const int tag = static_cast<int>(ids_.size());
    return [this, tag] { OnFire(tag); };
  }

  void ArmTimer(int lane) {
    EventCallback cb = Callback();
    const EventId id = lanes_ ? sim_.ScheduleOnLane(lane_ids_[lane], std::move(cb))
                              : sim_.ScheduleAfter(kDelays[lane], std::move(cb));
    lane_arms_[lane].push_back(NewTag(id, lane));
  }

  void Schedule(TimeNs at) { NewTag(sim_.ScheduleAt(at, Callback()), -1); }

  void CancelRandom() {
    if (!ids_.empty()) {
      const size_t tag = Rand() % ids_.size();
      sim_.Cancel(ids_[tag]);
      lane_of_[tag] = -1;
    }
  }

  // Cancels the lane's earliest armed timer that is still on it: the lane
  // head, which makes the lane promote its successor.
  void CancelLaneHead(int lane) {
    std::vector<int>& arms = lane_arms_[lane];
    while (head_[lane] < arms.size() && lane_of_[arms[head_[lane]]] != lane) {
      ++head_[lane];
    }
    if (head_[lane] < arms.size()) {
      const int tag = arms[head_[lane]];
      sim_.Cancel(ids_[tag]);
      lane_of_[tag] = -1;
    }
  }

  void RescheduleRandom() {
    if (ids_.empty()) {
      return;
    }
    const size_t tag = Rand() % ids_.size();
    const TimeNs at = sim_.Now() + 10 * static_cast<TimeNs>(Rand() % 30);
    const bool moved = sim_.Reschedule(ids_[tag], at);
    results_.push_back(moved ? 2 : 3);
    if (moved) {
      lane_of_[tag] = -1;  // a rescheduled timer is an ordinary event
    }
  }

  void OnFire(int tag) {
    fired_.emplace_back(tag, sim_.Now());
    lane_of_[static_cast<size_t>(tag)] = -1;
    // Callbacks mutate the queue too: cancels (of queued timers, lane heads
    // or already-dead events), arms on the firing timer's own lane, and
    // reschedules.
    switch (Rand() % 8) {
      case 0:
        CancelRandom();
        break;
      case 1:
      case 2:
        ArmTimer(static_cast<int>(Rand() % 3));
        break;
      case 3:
        CancelLaneHead(static_cast<int>(Rand() % 3));
        break;
      case 4:
        RescheduleRandom();
        break;
      default:
        break;
    }
  }

  const bool lanes_;
  uint64_t state_;
  TraceRecorder trace_;
  Simulator sim_;
  std::vector<TimerLaneId> lane_ids_;
  std::vector<EventId> ids_;             // by tag
  std::vector<int> lane_of_;             // by tag: lane while queued on it, else -1
  std::vector<int> lane_arms_[3];        // tags in arm order, per lane
  size_t head_[3] = {0, 0, 0};           // first possibly-live entry of lane_arms_
  std::vector<std::pair<int, TimeNs>> fired_;
  std::vector<int64_t> results_;         // ids, Step and Reschedule results
};

class LaneDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LaneDifferentialTest, LanesMatchScheduleAfter) {
  LaneDriver heap(/*lanes=*/false, GetParam());
  LaneDriver lanes(/*lanes=*/true, GetParam());
  auto expect_same = [&](int step) {
    ASSERT_EQ(heap.sim().Now(), lanes.sim().Now()) << "step " << step;
    ASSERT_EQ(heap.sim().pending_events(), lanes.sim().pending_events()) << "step " << step;
    const SimCounters& a = heap.sim().counters();
    const SimCounters& b = lanes.sim().counters();
    ASSERT_EQ(a.scheduled, b.scheduled) << "step " << step;
    ASSERT_EQ(a.fired, b.fired) << "step " << step;
    ASSERT_EQ(a.canceled, b.canceled) << "step " << step;
    ASSERT_EQ(a.rescheduled, b.rescheduled) << "step " << step;
    ASSERT_EQ(heap.fired(), lanes.fired()) << "step " << step;
    ASSERT_EQ(heap.results(), lanes.results()) << "step " << step;
  };
  for (int step = 0; step < 4000; ++step) {
    heap.RandomOp();
    lanes.RandomOp();
    expect_same(step);
  }
  heap.sim().RunToCompletion();
  lanes.sim().RunToCompletion();
  expect_same(-1);
  EXPECT_EQ(lanes.sim().pending_events(), 0u);
  EXPECT_GT(lanes.sim().counters().fired, 1000u);
  EXPECT_GT(lanes.sim().counters().canceled, 250u);
  const std::vector<uint8_t> a = heap.TraceBytes();
  const std::vector<uint8_t> b = lanes.TraceBytes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneDifferentialTest, ::testing::Values(1, 2, 3, 42, 2026));

// Property: an arbitrary interleaving of schedules and cancels never executes
// a cancelled event and always respects time order.
class SimFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimFuzzTest, OrderAndCancellationInvariants) {
  Simulator sim;
  std::vector<TimeNs> fired;
  std::vector<EventId> ids;
  uint64_t state = GetParam() * 2654435761u + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 300; ++i) {
    const TimeNs at = static_cast<TimeNs>(next() % 1000);
    ids.push_back(sim.ScheduleAt(at, [&fired, &sim] { fired.push_back(sim.Now()); }));
  }
  // Reschedule a third of them to fresh timestamps (they must still fire,
  // once, at the new time).
  for (size_t i = 1; i < ids.size(); i += 3) {
    EXPECT_TRUE(sim.Reschedule(ids[i], static_cast<TimeNs>(next() % 1000)));
  }
  // Cancel a third of them.
  size_t cancelled = 0;
  for (size_t i = 0; i < ids.size(); i += 3) {
    sim.Cancel(ids[i]);
    ++cancelled;
  }
  sim.RunToCompletion();
  EXPECT_EQ(fired.size(), ids.size() - cancelled);
  for (size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzzTest, ::testing::Values(1, 7, 23, 99, 1234));

}  // namespace
}  // namespace lithos
