#!/usr/bin/env python3
"""Convert a binary LithOS trace to Chrome/Perfetto trace-event JSON.

Zero-dependency twin of tools/trace_export.cc --chrome: load the output in
chrome://tracing or https://ui.perfetto.dev. The binary format is defined in
src/obs/trace.h — a 40-byte little-endian header ("LITHTRC1", version,
record size, counts) followed by fixed 32-byte records:

    int64 time_ns | u8 layer | u8 kind | u16 reserved
    | i32 node | i32 zone | i32 arg | i64 payload

Mapping (identical to the C++ exporter):
  * pid = zone + 1 (pid 0 collects fleet-wide records), tid = node + 1.
  * Kinds whose payload is a duration (grant-complete, node-revive) become
    complete "X" spans ending at the record's timestamp.
  * Request-correlation kinds 60-68 (payload = request id) become flow
    events: first primary launch "s", retry/hedge launches "t", completion
    "f" — Perfetto draws the request's causal arrows across nodes.
  * Everything else is a thread-scoped instant "i".
  * Chrome timestamps are microseconds; nanosecond precision is kept in the
    fractional part.

Usage: trace_to_chrome.py <trace.bin> [out.json]   (stdout by default)
"""

import json
import struct
import sys

HEADER_FMT = "<8sIIQQQ"
RECORD_FMT = "<qBBHiiiq"
MAGIC = b"LITHTRC1"
VERSION = 1

LAYER_NAMES = {0: "sim", 1: "engine", 2: "cluster", 3: "control", 4: "fault"}
KIND_NAMES = {
    0: "event_schedule", 1: "event_fire", 2: "event_cancel", 3: "event_reschedule",
    10: "grant_launch", 11: "grant_complete", 12: "grant_abort", 13: "grant_checkpoint",
    14: "dvfs_request", 15: "dvfs_apply", 16: "engine_power_gate",
    23: "node_crash", 24: "node_revive", 26: "recover_replica",
    27: "drop_lost_replica", 28: "migration",
    30: "scale_target", 31: "drain_begin", 32: "power_off", 33: "power_on",
    40: "fault_applied",
    50: "node_partition", 51: "node_heal", 54: "deferred_orphaned", 55: "request_retry",
    56: "request_hedge", 57: "request_shed", 58: "request_timeout",
    60: "req_arrival", 61: "req_attempt_launch", 62: "req_complete",
    63: "req_deferred_finish", 64: "req_attempt_orphan",
    65: "req_attempt_timeout", 66: "req_attempt_cancel", 67: "req_fail",
    68: "req_shed",
    70: "remedy_verdict", 71: "remedy_quarantine", 72: "remedy_drain_start",
    73: "remedy_drain_done", 74: "remedy_rebalance_move", 75: "remedy_rollback",
    76: "remedy_governor_defer",
}

# kind -> span name for records whose payload is the activity's duration (ns);
# the record marks the end of the activity.
SPAN_KINDS = {11: "grant", 24: "node-down", 51: "partitioned", 73: "remedy-drain"}

# Request-correlation records (kinds 60-68, payload = request id) map to
# Chrome flow events so Perfetto draws each request's causal arrows across
# nodes: the first primary attempt launch starts the flow ("s"), later
# launches (retries / hedges, arg bit 16) are steps ("t"), and the
# completion finishes it ("f"). One event per record, same as the instants.
KIND_REQ_ATTEMPT_LAUNCH = 61
KIND_REQ_COMPLETE = 62
REQ_ARG_FLAG_BIT = 1 << 16


def flow_phase(kind, arg):
    if kind == KIND_REQ_ATTEMPT_LAUNCH:
        primary_first = (arg & 0xFFFF) == 0 and not (arg & REQ_ARG_FLAG_BIT)
        return "s" if primary_first else "t"
    if kind == KIND_REQ_COMPLETE:
        return "f"
    return None


def load_trace(path):
    with open(path, "rb") as f:
        data = f.read()
    header_size = struct.calcsize(HEADER_FMT)
    if len(data) < header_size:
        sys.exit(f"{path}: too short for a trace header")
    magic, version, record_size, record_count, total, dropped = struct.unpack_from(
        HEADER_FMT, data)
    if magic != MAGIC:
        sys.exit(f"{path}: bad magic {magic!r} (not a LithOS trace)")
    if version != VERSION:
        sys.exit(f"{path}: unsupported version {version}")
    if record_size != struct.calcsize(RECORD_FMT):
        sys.exit(f"{path}: record size {record_size} != expected "
                 f"{struct.calcsize(RECORD_FMT)}")
    expected = header_size + record_count * record_size
    if len(data) < expected:
        sys.exit(f"{path}: truncated ({len(data)} bytes, expected {expected})")
    records = list(struct.iter_unpack(RECORD_FMT, data[header_size:expected]))
    return {"total": total, "dropped": dropped}, records


def to_chrome(records):
    events = []
    max_zone = max((r[5] for r in records), default=-1)
    for zone in range(-1, max_zone + 1):
        events.append({
            "ph": "M", "pid": zone + 1, "name": "process_name",
            "args": {"name": "fleet0" if zone < 0 else f"zone {zone}"},
        })
    for time_ns, layer, kind, _reserved, node, zone, arg, payload in records:
        pid, tid = zone + 1, node + 1
        common = {
            "pid": pid, "tid": tid,
            "cat": LAYER_NAMES.get(layer, f"layer{layer}"),
            "args": {"arg": arg, "payload": payload},
        }
        flow = flow_phase(kind, arg)
        if flow is not None:
            event = {
                "ph": flow, "id": payload, "ts": time_ns / 1e3,
                "name": "req", **common,
            }
            if flow == "f":
                event["bp"] = "e"
            events.append(event)
        elif kind in SPAN_KINDS:
            events.append({
                "ph": "X", "ts": (time_ns - payload) / 1e3, "dur": payload / 1e3,
                "name": SPAN_KINDS[kind], **common,
            })
        else:
            events.append({
                "ph": "i", "ts": time_ns / 1e3, "s": "t",
                "name": KIND_NAMES.get(kind, f"kind{kind}"), **common,
            })
    return {"traceEvents": events}


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__.strip().splitlines()[-1])
    _header, records = load_trace(argv[1])
    doc = to_chrome(records)
    if len(argv) == 3:
        with open(argv[2], "w") as f:
            json.dump(doc, f)
        print(f"wrote {argv[2]} ({len(doc['traceEvents'])} events)", file=sys.stderr)
    else:
        json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main(sys.argv)
