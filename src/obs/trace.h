// Binary event tracing: fixed-width records at simulation-time granularity.
//
// TraceRecorder is the repo's nanosecond-resolution observability primitive.
// Every instrumented layer — the event core, the execution engine, the
// cluster/fleet dispatchers, the fleet controller, and the fault injector —
// carries a `TraceRecorder*` that defaults to nullptr, so the disabled path
// is a single predictable branch per instrumentation point (no virtual call,
// no format string, no allocation). When a recorder is attached, each point
// appends one 32-byte TraceRecord into slab-backed storage:
//
//   * limit == 0: unbounded segment mode. Records append into fixed-size
//     slabs (kSegmentRecords each); a full slab allocates the next one, so
//     individual appends never move existing records.
//   * limit > 0: ring mode. One slab of `limit` records is preallocated up
//     front and old records are overwritten once full — appends are
//     allocation-free forever and the recorder retains the *last* `limit`
//     records (dropped() counts the overwritten ones).
//
// Determinism contract: every field of every record derives from simulation
// state (sim-time, ids, seeded schedules) — never from wall clocks, pointers,
// or thread identity. Two runs of the same seed therefore produce
// byte-identical trace files, across runs and across `--jobs` worker counts;
// CI enforces this with `cmp`. See docs/observability.md.
#ifndef LITHOS_OBS_TRACE_H_
#define LITHOS_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lithos {

// Which subsystem emitted a record. Values are part of the on-disk format —
// append only, never renumber (saved traces are read back by number).
enum class TraceLayer : uint8_t {
  kSim = 0,      // event core: schedule / fire / cancel / reschedule
  kEngine = 1,   // per-GPU execution engine: grants, checkpoints, DVFS, gating
  kCluster = 2,  // dispatcher: arrivals, placement, crashes, orphans, recovery
  kControl = 3,  // fleet controller: scaling targets, drains, power lifecycle
  kFault = 4,    // fault injector: every applied fault
};
inline constexpr int kNumTraceLayers = 5;

// What happened. Values are part of the on-disk format — append only, never
// renumber. Kinds are grouped by layer in disjoint decades so a kind alone
// identifies its layer when eyeballing raw dumps.
enum class TraceKind : uint8_t {
  // TraceLayer::kSim — arg = event slot index.
  kEventSchedule = 0,    // payload = absolute fire time (ns)
  kEventFire = 1,        // payload = event sequence number
  kEventCancel = 2,      // payload = fire time it will no longer run at (ns)
  kEventReschedule = 3,  // payload = new absolute fire time (ns)

  // TraceLayer::kEngine — arg = client id unless noted.
  kGrantLaunch = 10,      // payload = granted TPC count
  kGrantComplete = 11,    // payload = grant duration (ns); enables spans
  kGrantAbort = 12,       // payload = grant duration so far (ns)
  kGrantCheckpoint = 13,  // payload = progress in parts-per-million
  kDvfsRequest = 14,      // arg = requested MHz
  kDvfsApply = 15,        // arg = new current MHz
  kEnginePowerGate = 16,  // payload = 1 gated, 0 ungated

  // TraceLayer::kCluster — arg = model index unless noted. 20-22 and 25 are
  // retired: per-request events are the request-correlation kinds 60-68.
  kNodeCrash = 23,           // payload = queued GPU work written off (ns)
  kNodeRevive = 24,          // payload = down duration (ns); enables spans
  kRecoverReplica = 26,      // replica restored onto node after a crash
  kDropLostReplica = 27,     // replica abandoned (no healthy target)
  kMigration = 28,           // arg = model, node = destination

  // TraceLayer::kControl — node/zone = -1 for fleet-wide records.
  kScaleTarget = 30,  // arg = desired active nodes, payload = current active
  kDrainBegin = 31,   // node begins Active -> Draining
  kPowerOff = 32,     // drained node power-gates
  kPowerOn = 33,      // node wakes (or rejoins after repair)

  // TraceLayer::kFault — arg = FaultKind enum value.
  kFaultApplied = 40,  // payload = factor in parts-per-million (when scalar)

  // TraceLayer::kCluster, resilience decade. 52-53 and 55-58 are retired:
  // the request-correlation kinds carry deferred finishes and deliveries,
  // retries and hedges (kReqAttemptLaunch), sheds and timeouts.
  kNodePartition = 50,      // arg = -1; payload = outstanding GPU work (ns)
  kNodeHeal = 51,           // arg = -1; payload = partition duration (ns); spans
  kDeferredOrphaned = 54,   // arg = -1; deferred delivery to a settled request

  // TraceLayer::kCluster, request-correlation decade — payload = request id
  // for every kind, so SpanBuilder can stitch per-request span trees from a
  // trace alone. `arg` carries the attempt index in its low 16 bits; bit 16
  // flags a hedge attempt (launch) or a deferred delivery (complete).
  kReqArrival = 60,        // arg = model index
  kReqAttemptLaunch = 61,  // node/zone = target; arg bit 16 = hedge
  kReqComplete = 62,       // arg = winning attempt; arg bit 16 = deferred
  kReqDeferredFinish = 63, // compute finished behind a partition
  kReqAttemptOrphan = 64,  // attempt lost to a crash epoch bump
  kReqAttemptTimeout = 65, // attempt abandoned by the per-attempt timer
  kReqAttemptCancel = 66,  // hedge loser cancelled after the winner landed
  kReqFail = 67,           // arg = model index; request exhausted retries
  kReqShed = 68,           // arg = model index; admission shed

  // TraceLayer::kControl, remediation decade — the self-healing control
  // plane's action lifecycle (src/remediate/). node/zone name the target;
  // zone-level records (partition verdicts, herd rebalances) carry node = -1.
  kRemedyVerdict = 70,       // arg = Verdict::Kind; payload = score in ppm
  kRemedyQuarantine = 71,    // payload = quarantine window (ns)
  kRemedyDrainStart = 72,    // arg = 0 drain, 1 forced restart
  kRemedyDrainDone = 73,     // arg = 0 drain, 1 forced restart; payload = held ns
  kRemedyRebalanceMove = 74, // herd re-spread forced; payload = imbalance ppm
  kRemedyRollback = 75,      // false positive undone; arg = demoted verdict index
  kRemedyGovernorDefer = 76, // arg = RemedyDeferReason; action held, not issued
};

// Helpers for the request-correlation `arg` encoding above.
inline constexpr int32_t kReqArgFlagBit = 1 << 16;
inline constexpr int32_t ReqArg(int attempt, bool flag) {
  return static_cast<int32_t>(attempt) | (flag ? kReqArgFlagBit : 0);
}
inline constexpr int ReqArgAttempt(int32_t arg) { return arg & 0xFFFF; }
inline constexpr bool ReqArgFlag(int32_t arg) {
  return (arg & kReqArgFlagBit) != 0;
}

const char* TraceLayerName(TraceLayer layer);
const char* TraceKindName(TraceKind kind);

// One fixed-width trace record. Field order is chosen so the struct has no
// implicit padding; the struct is written to disk verbatim (little-endian
// hosts only, which CI covers). `node`, `zone`, and `arg` are -1 when not
// applicable.
struct TraceRecord {
  int64_t time_ns;    // simulation time of the event
  uint8_t layer;      // TraceLayer
  uint8_t kind;       // TraceKind
  uint16_t reserved;  // always 0
  int32_t node;       // GPU node index, -1 if n/a
  int32_t zone;       // zone index, -1 if n/a
  int32_t arg;        // kind-specific id (client/model/slot/MHz), -1 if n/a
  int64_t payload;    // kind-specific 64-bit payload
};
static_assert(sizeof(TraceRecord) == 32, "records are fixed 32-byte rows");

// On-disk header preceding the record array (all little-endian).
struct TraceFileHeader {
  char magic[8];         // "LITHTRC1"
  uint32_t version;      // kTraceFormatVersion
  uint32_t record_size;  // sizeof(TraceRecord)
  uint64_t record_count; // records present in the file
  uint64_t total;        // records ever appended (>= record_count)
  uint64_t dropped;      // records overwritten by ring wraparound
};
static_assert(sizeof(TraceFileHeader) == 40, "header is fixed 40 bytes");

inline constexpr char kTraceMagic[8] = {'L', 'I', 'T', 'H', 'T', 'R', 'C', '1'};
inline constexpr uint32_t kTraceFormatVersion = 1;

class TraceRecorder {
 public:
  // Records per slab in unbounded segment mode (2 MiB slabs).
  static constexpr size_t kSegmentRecords = size_t{1} << 16;

  // limit == 0: unbounded segment mode; limit > 0: ring of `limit` records.
  explicit TraceRecorder(size_t limit = 0);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Restricts recording to the given layers (bit i = TraceLayer i). Useful
  // for fleet-scale traces where sim-layer events would flood the ring.
  void SetLayerMask(uint32_t mask) { layer_mask_ = mask; }
  static constexpr uint32_t LayerBit(TraceLayer layer) {
    return uint32_t{1} << static_cast<uint32_t>(layer);
  }

  void Append(int64_t time_ns, TraceLayer layer, TraceKind kind, int32_t node,
              int32_t zone, int32_t arg, int64_t payload) {
    if ((layer_mask_ & LayerBit(layer)) == 0) {
      return;
    }
    TraceRecord& r = NextSlot();
    r.time_ns = time_ns;
    r.layer = static_cast<uint8_t>(layer);
    r.kind = static_cast<uint8_t>(kind);
    r.reserved = 0;
    r.node = node;
    r.zone = zone;
    r.arg = arg;
    r.payload = payload;
  }

  // Records ever appended (including ones later overwritten by the ring).
  uint64_t total() const { return total_; }
  // Records lost to ring wraparound (0 in segment mode).
  uint64_t dropped() const;
  // Records currently retained.
  size_t size() const;
  bool empty() const { return size() == 0; }

  // Retained records in chronological (append) order; ring contents are
  // unwrapped so index 0 is the oldest retained record.
  std::vector<TraceRecord> Records() const;

  // Header + records, exactly the bytes WriteFile() emits.
  std::vector<uint8_t> Serialize() const;

  // Writes the binary trace file; returns false on I/O failure.
  bool WriteFile(const std::string& path) const;

  // Discards all records (keeps mode, limit, and layer mask).
  void Clear();

 private:
  // Returns the slot the next record lands in, advancing the cursor.
  TraceRecord& NextSlot() {
    ++total_;
    if (limit_ > 0) {
      if (ring_.size() < limit_) {
        ring_.emplace_back();  // reserved up front: never reallocates
        return ring_.back();
      }
      TraceRecord& r = ring_[ring_next_];
      ring_next_ = ring_next_ + 1 == limit_ ? 0 : ring_next_ + 1;
      return r;
    }
    if (segments_.empty() || segments_.back().size() == kSegmentRecords) {
      segments_.emplace_back();
      segments_.back().reserve(kSegmentRecords);
    }
    segments_.back().emplace_back();
    return segments_.back().back();
  }

  size_t limit_ = 0;  // 0 = segment mode
  uint32_t layer_mask_ = 0xFFFFFFFFu;
  uint64_t total_ = 0;
  // Ring mode: one preallocated slab; ring_next_ is the overwrite cursor once
  // the ring is full (it equals the oldest retained record's position).
  std::vector<TraceRecord> ring_;
  size_t ring_next_ = 0;
  // Segment mode: stable slabs, no record ever moves after being written.
  std::vector<std::vector<TraceRecord>> segments_;
};

// A trace file read back: its header and the records it carries.
struct TraceFile {
  TraceFileHeader header;
  std::vector<TraceRecord> records;
};

// Reads a file TraceRecorder::WriteFile wrote. Returns false, with a
// one-line reason naming `path` in `*error`, when the file cannot be opened
// or read, its magic, version or record size do not match this build, or
// its record_count does not fit the file's size. The count is checked
// before the record array is allocated, so a corrupt header cannot ask for
// terabytes.
bool ReadTraceFile(const std::string& path, TraceFile* out, std::string* error);

}  // namespace lithos

#endif  // LITHOS_OBS_TRACE_H_
