#include "src/sim/simulator.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace lithos {

uint32_t Simulator::AllocSlot(TimeNs at, EventCallback&& fn) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.at = at;
  s.seq = next_seq_++;
  s.fn = std::move(fn);
  return slot;
}

EventId Simulator::ScheduleAt(TimeNs at, EventCallback fn) {
  LITHOS_CHECK_GE(at, now_);
  LITHOS_CHECK(static_cast<bool>(fn));
  const uint32_t slot = AllocSlot(at, std::move(fn));
  Slot& s = slots_[slot];
  heap_.push_back(slot);
  s.heap_index = static_cast<int32_t>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
  ++counters_.scheduled;
  if (trace_ != nullptr) {
    trace_->Append(now_, TraceLayer::kSim, TraceKind::kEventSchedule, -1, -1,
                   static_cast<int32_t>(slot), at);
  }
  return MakeId(slot, s.generation);
}

TimerLaneId Simulator::TimerLane(DurationNs delay) {
  LITHOS_CHECK_GE(delay, 0);
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].delay == delay) {
      return static_cast<TimerLaneId>(i);
    }
  }
  lanes_.emplace_back();
  lanes_.back().delay = delay;
  return static_cast<TimerLaneId>(lanes_.size() - 1);
}

EventId Simulator::ScheduleOnLane(TimerLaneId lane_id, EventCallback fn) {
  LITHOS_CHECK_LT(lane_id, lanes_.size());
  LITHOS_CHECK(static_cast<bool>(fn));
  Lane& lane = lanes_[lane_id];
  const TimeNs at = now_ + lane.delay;
  const uint32_t slot = AllocSlot(at, std::move(fn));
  Slot& s = slots_[slot];
  s.lane = static_cast<int32_t>(lane_id);
  if (lane.head_in_heap) {
    // Every earlier timer on this lane has an earlier (at, seq): queue
    // behind them without touching the heap.
    s.heap_index = kOnLane;
    lane.queued.push_back({slot, s.generation});
    ++lane_queued_;
  } else {
    heap_.push_back(slot);
    s.heap_index = static_cast<int32_t>(heap_.size() - 1);
    SiftUp(heap_.size() - 1);
    lane.head_in_heap = true;
  }
  ++counters_.scheduled;
  if (trace_ != nullptr) {
    trace_->Append(now_, TraceLayer::kSim, TraceKind::kEventSchedule, -1, -1,
                   static_cast<int32_t>(slot), at);
  }
  return MakeId(slot, s.generation);
}

Simulator::Slot* Simulator::Resolve(EventId id) {
  const uint32_t slot = SlotOf(id);
  if (slot >= slots_.size()) {
    return nullptr;
  }
  Slot& s = slots_[slot];
  if (s.generation != GenOf(id) || s.heap_index == kFree) {
    return nullptr;
  }
  return &s;
}

void Simulator::Cancel(EventId id) {
  Slot* s = Resolve(id);
  if (s == nullptr) {
    return;  // Already fired, cancelled, or never existed.
  }
  ++counters_.canceled;
  if (trace_ != nullptr) {
    trace_->Append(now_, TraceLayer::kSim, TraceKind::kEventCancel, -1, -1,
                   static_cast<int32_t>(SlotOf(id)), s->at);
  }
  if (s->lane < 0) {
    RemoveFromHeap(static_cast<size_t>(s->heap_index));
  } else {
    if (s->heap_index == kOnLane) {
      --lane_queued_;  // its FIFO entry goes stale; promotion skips it
    } else {
      PromoteLaneHead(static_cast<size_t>(s->heap_index), s->lane);
    }
    s->lane = -1;
  }
  FreeSlot(SlotOf(id));
}

bool Simulator::Reschedule(EventId id, TimeNs at) {
  Slot* s = Resolve(id);
  if (s == nullptr) {
    // Stale before validating `at`: a caller racing its own timer's firing
    // may hold a dead id and a deadline the clock has already passed; the
    // contract is a false return, not a crash.
    return false;
  }
  LITHOS_CHECK_GE(at, now_);
  s->at = at;
  // Fresh sequence number: identical ordering to Cancel() + ScheduleAt(), so
  // callers can switch between the two without changing any schedule.
  s->seq = next_seq_++;
  if (s->lane >= 0) {
    // The timer leaves its lane for the heap (a lane head hands its heap
    // position to the next queued timer first).
    if (s->heap_index == kOnLane) {
      --lane_queued_;
    } else {
      PromoteLaneHead(static_cast<size_t>(s->heap_index), s->lane);
    }
    s->lane = -1;
    heap_.push_back(SlotOf(id));
    s->heap_index = static_cast<int32_t>(heap_.size() - 1);
    SiftUp(heap_.size() - 1);
  } else {
    const size_t pos = static_cast<size_t>(s->heap_index);
    if (!SiftUp(pos)) {
      SiftDown(pos);
    }
  }
  ++counters_.rescheduled;
  if (trace_ != nullptr) {
    trace_->Append(now_, TraceLayer::kSim, TraceKind::kEventReschedule, -1, -1,
                   static_cast<int32_t>(SlotOf(id)), at);
  }
  return true;
}

bool Simulator::SiftUp(size_t pos) {
  const uint32_t slot = heap_[pos];
  size_t i = pos;
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(slot, heap_[parent])) {
      break;
    }
    Place(i, heap_[parent]);
    i = parent;
  }
  if (i == pos) {
    return false;
  }
  Place(i, slot);
  return true;
}

void Simulator::SiftDown(size_t pos) {
  const uint32_t slot = heap_[pos];
  const size_t n = heap_.size();
  size_t i = pos;
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t last = std::min(first + kArity, n);
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], slot)) {
      break;
    }
    Place(i, heap_[best]);
    i = best;
  }
  if (i != pos) {
    Place(i, slot);
  }
}

void Simulator::RemoveFromHeap(size_t pos) {
  const size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  const uint32_t moved = heap_[last];
  heap_.pop_back();
  Place(pos, moved);
  // The root has no parent, so skip the SiftUp call (every fire removes it).
  if (pos == 0 || !SiftUp(pos)) {
    SiftDown(pos);
  }
}

void Simulator::PromoteLaneHead(size_t pos, int32_t lane_id) {
  Lane& lane = lanes_[static_cast<size_t>(lane_id)];
  while (!lane.queued.empty()) {
    const QueuedTimer next = lane.queued.front();
    lane.queued.pop_front();
    const Slot& s = slots_[next.slot];
    if (s.generation == next.generation && s.heap_index == kOnLane) {
      // The successor's (at, seq) is no earlier than the head's, so it can
      // only sink from the head's position.
      --lane_queued_;
      Place(pos, next.slot);
      SiftDown(pos);
      return;
    }
  }
  lane.head_in_heap = false;
  RemoveFromHeap(pos);
}

void Simulator::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.Reset();
  s.heap_index = kFree;
  ++s.generation;
  if (s.generation == 0) {
    s.generation = 1;  // 0 is reserved so arbitrary ids never resolve
  }
  free_slots_.push_back(slot);
}

void Simulator::FireTop() {
  const uint32_t slot = heap_[0];
  Slot& s = slots_[slot];
  LITHOS_CHECK_GE(s.at, now_);
  now_ = s.at;
  // Move the callback out and retire the slot *before* invoking: the callback
  // may schedule (growing the slab), cancel, or even reference its own id —
  // all safe once the slot is free.
  const uint64_t seq = s.seq;
  EventCallback fn = std::move(s.fn);
  // Promote before the callback runs, so a timer it arms on the same lane
  // queues behind the successor.
  if (s.lane < 0) {
    RemoveFromHeap(0);
  } else {
    PromoteLaneHead(0, s.lane);
    s.lane = -1;
  }
  FreeSlot(slot);
  ++counters_.fired;
  if (trace_ != nullptr) {
    trace_->Append(now_, TraceLayer::kSim, TraceKind::kEventFire, -1, -1,
                   static_cast<int32_t>(slot), static_cast<int64_t>(seq));
  }
  fn();
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  FireTop();
  return true;
}

void Simulator::RunUntil(TimeNs deadline) {
  // Each event is examined exactly once: the head is either beyond the
  // deadline (stop) or fired immediately. No tombstones exist, so the head is
  // always live.
  while (!heap_.empty() && slots_[heap_[0]].at <= deadline) {
    FireTop();
  }
  if (deadline != kTimeInfinity && deadline > now_) {
    now_ = deadline;
  }
}

}  // namespace lithos
