// Deterministic discrete-event simulation engine.
//
// Every component of the LithOS reproduction — the GPU execution engine, the
// driver shim, the LithOS scheduler, the baselines, the cluster dispatcher,
// and the fleet controller — is driven by this single event loop, so its
// per-event cost gates how many scenarios a simulation campaign can afford.
// The core is built for throughput:
//
//   * Events live in a slab (`slots_`) indexed by a d-ary heap of slot
//     indices. No per-event heap allocation: the callback is stored inline in
//     the slot via a small-buffer type-erased callable (EventCallback) for
//     captures up to kInlineBytes.
//   * EventIds encode (slot, generation); a stale handle — fired, cancelled,
//     or recycled — resolves to nothing, so Cancel()/Reschedule() on dead
//     events are safe no-ops.
//   * Cancel() removes the event from the heap in place (O(log n), no
//     tombstones); Reschedule() sifts the entry to its new timestamp instead
//     of cancel + re-insert.
//   * Constant-delay timers (ScheduleOnLane) queue on a per-delay FIFO
//     lane: their deadlines arrive sorted, so only each lane's first live
//     entry sits in the heap and cancelling a queued timer is O(1).
//
// Determinism contract: events at equal timestamps execute in insertion order
// (a monotonically increasing sequence number breaks ties), so a given seed
// always produces an identical schedule, which the test suite relies on.
// Reschedule() re-stamps the sequence number: a rescheduled event behaves
// exactly like Cancel() + ScheduleAt(), i.e. it runs after events already
// scheduled at its new timestamp. A lane timer keeps the (at, seq) it got
// when armed, so ScheduleOnLane() orders exactly like ScheduleAfter() with
// the lane's delay. See docs/simulator.md.
#ifndef LITHOS_SIM_SIMULATOR_H_
#define LITHOS_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"

namespace lithos {

class TraceRecorder;

// Handle identifying a scheduled event; used for cancellation and
// rescheduling. Encodes (slot index, generation) so handles of fired or
// cancelled events never alias a live one.
using EventId = uint64_t;

// Handle of a constant-delay timer lane (Simulator::TimerLane).
using TimerLaneId = uint32_t;

// Lifetime operation counts of one Simulator; the work measure behind
// events/sec benchmarks. Like every simulation output these are
// byte-identical across runs and `--jobs` values for a fixed configuration.
struct SimCounters {
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t canceled = 0;
  uint64_t rescheduled = 0;
};

// Type-erased move-only `void()` callable with inline small-buffer storage.
// Callables whose captures fit kInlineBytes (and are nothrow-movable) live
// inside the event slot itself; larger ones fall back to a single heap
// allocation. This is what makes ScheduleAt() allocation-free for the
// engine's `[this, id]`-style completion callbacks.
class EventCallback {
 public:
  static constexpr size_t kInlineBytes = 48;

  EventCallback() = default;
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  ~EventCallback() { Reset(); }

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename D>
  struct InlineOps {
    static D* Get(void* s) { return std::launder(reinterpret_cast<D*>(s)); }
    static void Invoke(void* s) { (*Get(s))(); }
    static void Relocate(void* dst, void* src) {
      D* from = Get(src);
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void Destroy(void* s) { Get(s)->~D(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename D>
  struct HeapOps {
    static D* Get(void* s) { return *std::launder(reinterpret_cast<D**>(s)); }
    static void Invoke(void* s) { (*Get(s))(); }
    static void Relocate(void* dst, void* src) { ::new (dst) D*(Get(src)); }
    static void Destroy(void* s) { delete Get(s); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (>= Now()). Returns an id that
  // can be passed to Cancel() or Reschedule().
  EventId ScheduleAt(TimeNs at, EventCallback fn);

  // Schedules `fn` to run `delay` from now.
  EventId ScheduleAfter(DurationNs delay, EventCallback fn) {
    LITHOS_CHECK_GE(delay, 0);
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Returns the FIFO lane of timers that fire `delay` (>= 0) after they are
  // armed; asking twice for one delay returns the same lane.
  TimerLaneId TimerLane(DurationNs delay);

  // Schedules `fn` to run the lane's delay from now. Orders, counts and
  // traces exactly like ScheduleAfter(delay, fn) — same slot, same (at, seq)
  // — but only the lane's earliest live timer occupies the heap, so arming
  // costs O(1) while the lane has a head and cancelling a queued timer is
  // O(1) with no heap work.
  EventId ScheduleOnLane(TimerLaneId lane, EventCallback fn);

  // Cancels a pending event in place (O(log n), no tombstone). Cancelling an
  // already-fired or unknown event is a no-op (schedulers frequently race
  // completion against their own timers).
  void Cancel(EventId id);

  // Moves a pending event to absolute time `at` (>= Now()), keeping its
  // callback and id. Equivalent to Cancel() + ScheduleAt() with the same
  // callback — the event is re-stamped behind events already scheduled at
  // `at` — but without destroying and re-creating the callback or the heap
  // entry. Returns false (and does nothing) when the event already fired or
  // was cancelled.
  bool Reschedule(EventId id, TimeNs at);

  // Runs until the event queue drains or `deadline` is reached, whichever is
  // first. The clock advances to the deadline if events remain beyond it.
  void RunUntil(TimeNs deadline);

  // Runs until the queue drains completely.
  void RunToCompletion() { RunUntil(kTimeInfinity); }

  // Executes exactly one event if available; returns false if the queue is
  // empty. Exposed for fine-grained engine tests.
  bool Step();

  size_t pending_events() const { return heap_.size() + lane_queued_; }

  // Operations since construction. Region-scale runs report `fired` as
  // their work measure (events/sec of wall time), and the determinism
  // contract extends to every count: two runs of the same configuration
  // fire the same events in the same order, so the counts — like every
  // other simulation output — are byte-identical across runs and `--jobs`
  // values. This holds per zone too: a multi-zone fleet shares this one
  // clock and one totally ordered (at, seq) queue, so per-zone event
  // interleavings are a deterministic function of the configuration, not of
  // which worker thread ran the sweep point.
  const SimCounters& counters() const { return counters_; }

  // Attaches a binary trace recorder (nullptr detaches): every schedule /
  // fire / cancel / reschedule appends a TraceLayer::kSim record. Disabled
  // tracing costs one predictable branch per operation; see
  // docs/observability.md.
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }

 private:
  // Slab entry. `heap_index` is the event's position in `heap_`, kFree when
  // the slot is free, or kOnLane while the timer waits behind its lane's
  // head; `generation` increments every time the slot is recycled so stale
  // EventIds never resolve. `lane` names the timer lane of a queued timer or
  // lane head (-1 for heap-only events); it sits in what would otherwise be
  // padding before `fn`.
  static constexpr int32_t kFree = -1;
  static constexpr int32_t kOnLane = -2;
  struct Slot {
    TimeNs at = 0;
    uint64_t seq = 0;
    uint32_t generation = 1;
    int32_t heap_index = kFree;
    int32_t lane = -1;
    EventCallback fn;
  };

  // A queued lane timer: the slot and the generation it was armed under. A
  // cancelled timer frees its slot at once and leaves its entry behind;
  // promotion skips entries whose slot no longer matches.
  struct QueuedTimer {
    uint32_t slot = 0;
    uint32_t generation = 0;
  };

  // One constant-delay lane: the timers armed behind the head, in arm
  // order — which, with one delay, is (at, seq) order.
  struct Lane {
    DurationNs delay = 0;
    bool head_in_heap = false;
    std::deque<QueuedTimer> queued;
  };

  static constexpr size_t kArity = 4;  // d-ary heap: shallower than binary

  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }
  static uint32_t GenOf(EventId id) { return static_cast<uint32_t>(id >> 32); }
  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  // Returns the live slot for `id`, or nullptr when the id is stale.
  Slot* Resolve(EventId id);

  // Heap order: earliest (at, seq) first; seq is unique, so the order is
  // total and pops are fully deterministic.
  bool Before(uint32_t a, uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    return sa.at != sb.at ? sa.at < sb.at : sa.seq < sb.seq;
  }

  void Place(size_t pos, uint32_t slot) {
    heap_[pos] = slot;
    slots_[slot].heap_index = static_cast<int32_t>(pos);
  }

  bool SiftUp(size_t pos);     // returns true when the entry moved
  void SiftDown(size_t pos);
  void RemoveFromHeap(size_t pos);
  // Replaces the lane head at heap position `pos` with the lane's next live
  // queued timer (which keeps its arm-time (at, seq)), or removes it when
  // the lane has none.
  void PromoteLaneHead(size_t pos, int32_t lane);
  uint32_t AllocSlot(TimeNs at, EventCallback&& fn);
  void FreeSlot(uint32_t slot);
  void FireTop();

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  SimCounters counters_;
  TraceRecorder* trace_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<uint32_t> heap_;  // slot indices, d-ary min-heap by (at, seq)
  std::vector<Lane> lanes_;
  size_t lane_queued_ = 0;  // live timers queued behind lane heads
};

}  // namespace lithos

#endif  // LITHOS_SIM_SIMULATOR_H_
