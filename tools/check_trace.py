#!/usr/bin/env python3
"""Validate observability artifacts emitted by the simulator.

Two modes:

  check_trace.py trace  backup.trace.json [flags]  # Chrome trace-event file
  check_trace.py report BENCH_foo.json             # structured bench report

Trace mode checks what Perfetto / chrome://tracing require to load the
file and what the exporter promises: a traceEvents array, thread_name /
process_name metadata for every track and process, monotonically
non-decreasing timestamps per track, balanced B/E span pairs per track,
counter events carrying a numeric value, flow events ("s"/"f") carrying a
name and an id, and an otherData block with the ring's dropped-events
counter. Optional flags tighten the contract for cross-node traces:

  --require-flows          at least one matched s->f flow pair
  --require-processes=N    at least N distinct process rows
  --require-cross-node     one trace id spans events on >= 2 processes
  --require-incarnation    some event carries args.incarnation >= 1

Report mode checks the BENCH_*.json contract used by downstream tooling:
the top-level keys are bench, sim_elapsed_s, config and a non-empty jobs
list, plus the bench-specific scheduler and interference sections and
nothing else; every job is OK and every phase's CPU utilization lies in
[0, 1]. When the report embeds a scheduler section it also checks the
night's results: every volume is counted once as a deadline hit or miss,
no volume finishes after the night ends, and the makespan is the night's
end minus its start.

Exit code 0 when the file validates; 1 with a message on stderr when not.
"""

import json
import sys


def fail(msg):
    sys.stderr.write(f"check_trace: {msg}\n")
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def check_trace(path, flags):
    require_flows = "--require-flows" in flags
    require_cross_node = "--require-cross-node" in flags
    require_incarnation = "--require-incarnation" in flags
    require_processes = 0
    for f in flags:
        if f.startswith("--require-processes="):
            require_processes = int(f.split("=", 1)[1])
        elif f not in ("--require-flows", "--require-cross-node",
                       "--require-incarnation"):
            fail(f"unknown trace flag {f!r}")

    doc = load(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing, not a list, or empty")
    other = doc.get("otherData")
    if not isinstance(other, dict) or "dropped_events" not in other:
        fail("otherData.dropped_events missing — ring truncation invisible")

    named_tracks = {}   # tid -> track name from thread_name metadata
    named_procs = {}    # pid -> process name from process_name metadata
    last_ts = {}        # tid -> last timestamp seen
    open_spans = {}     # tid -> stack depth of open B spans
    flow_starts = {}    # id -> count of "s"
    flow_ends = {}      # id -> count of "f"
    trace_pids = {}     # trace id -> set of pids its events landed on
    max_incarnation = 0
    counts = {"B": 0, "E": 0, "i": 0, "C": 0, "M": 0, "s": 0, "f": 0}

    for n, e in enumerate(events):
        ph = e.get("ph")
        if ph not in counts:
            fail(f"event {n}: unexpected ph {ph!r}")
        counts[ph] += 1
        if ph == "M":
            kind = e.get("name")
            name = e.get("args", {}).get("name")
            if not name:
                fail(f"event {n}: {kind} metadata without args.name")
            if kind == "thread_name":
                named_tracks[e.get("tid")] = name
            elif kind == "process_name":
                named_procs[e.get("pid")] = name
            else:
                fail(f"event {n}: unexpected metadata record {kind!r}")
            continue
        tid, ts = e.get("tid"), e.get("ts")
        if tid is None or ts is None:
            fail(f"event {n}: missing tid or ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"event {n}: bad ts {ts!r}")
        if tid in last_ts and ts < last_ts[tid]:
            fail(f"event {n}: ts {ts} regressed on tid {tid} "
                 f"(last was {last_ts[tid]})")
        last_ts[tid] = ts
        args = e.get("args")
        if isinstance(args, dict):
            trace_id = args.get("trace")
            if trace_id is not None:
                trace_pids.setdefault(trace_id, set()).add(e.get("pid"))
            inc = args.get("incarnation")
            if isinstance(inc, int):
                max_incarnation = max(max_incarnation, inc)
        if ph == "B":
            if not e.get("name"):
                fail(f"event {n}: B span without a name")
            open_spans[tid] = open_spans.get(tid, 0) + 1
        elif ph == "E":
            open_spans[tid] = open_spans.get(tid, 0) - 1
            if open_spans[tid] < 0:
                fail(f"event {n}: E without matching B on tid {tid}")
        elif ph == "i":
            if not e.get("name"):
                fail(f"event {n}: instant without a name")
        elif ph == "C":
            if not isinstance(args, dict) or not args:
                fail(f"event {n}: counter without args")
            for v in args.values():
                if not isinstance(v, (int, float)):
                    fail(f"event {n}: non-numeric counter value {v!r}")
        elif ph in ("s", "f"):
            if not e.get("name"):
                fail(f"event {n}: flow event without a name")
            fid = e.get("id")
            if fid is None:
                fail(f"event {n}: flow event without an id")
            (flow_starts if ph == "s" else flow_ends)[fid] = 1

    for tid, depth in open_spans.items():
        if depth != 0:
            fail(f"tid {tid}: {depth} unbalanced span(s)")
    unnamed = set(last_ts) - set(named_tracks)
    if unnamed:
        fail(f"tracks without thread_name metadata: {sorted(unnamed)}")
    if counts["B"] == 0:
        fail("no spans at all — job phase tracks missing")
    if counts["C"] == 0:
        fail("no counter samples at all — resource tracks missing")

    # A flow start without an end is legal (a frame the connection gave up
    # on), but a cross-node trace must land at least one arrow.
    matched_flows = len(set(flow_starts) & set(flow_ends))
    if require_flows and matched_flows == 0:
        fail("no matched s->f flow pair (frames never stitched cross-node)")
    if len(named_procs) < require_processes:
        fail(f"only {len(named_procs)} process row(s), "
             f"need {require_processes}")
    if require_cross_node:
        spanning = [t for t, pids in trace_pids.items() if len(pids) >= 2]
        if not spanning:
            fail("no trace id spans two processes — nodes not merged")
    if require_incarnation and max_incarnation < 1:
        fail("no event with args.incarnation >= 1 — reconnect not traced")

    print(f"{path}: OK — {len(events)} events, {len(named_tracks)} tracks, "
          f"{len(named_procs)} processes ({counts['B']} spans, "
          f"{counts['i']} instants, {counts['C']} counter samples, "
          f"{matched_flows} matched flows, "
          f"max incarnation {max_incarnation})")


def check_night(sched):
    night = sched.get("night")
    counters = sched.get("counters")
    volumes = sched.get("volumes")
    if not isinstance(night, dict) or not isinstance(counters, dict) or \
            not isinstance(volumes, list):
        fail("scheduler: night, counters or volumes missing")
    counted = counters.get("deadline_hits", 0) + \
        counters.get("deadline_misses", 0)
    if counted != len(volumes):
        fail(f"scheduler: {counted} deadline hits + misses for "
             f"{len(volumes)} volumes")
    end = night.get("end_s")
    for vol in volumes:
        if vol.get("finished_s", 0) > end:
            fail(f"volume {vol.get('name')!r} finished at "
                 f"{vol.get('finished_s')} s, after the night ended at "
                 f"{end} s")
    span = end - night.get("start_s")
    if abs(night.get("makespan_s") - span) > 1e-6:
        fail(f"scheduler: makespan_s {night.get('makespan_s')} != "
             f"end_s - start_s = {span}")
    return len(volumes)


REPORT_KEYS = ("bench", "sim_elapsed_s", "config", "jobs")
OPTIONAL_REPORT_KEYS = ("scheduler", "interference")


def check_report(path):
    doc = load(path)
    if not isinstance(doc, dict):
        fail("report is not a JSON object")
    for key in REPORT_KEYS:
        if key not in doc:
            fail(f"missing top-level key {key!r}")
    for key in doc:
        if key not in REPORT_KEYS + OPTIONAL_REPORT_KEYS:
            fail(f"unexpected top-level key {key!r}")

    jobs = doc["jobs"]
    if not isinstance(jobs, list) or not jobs:
        fail("jobs missing or empty")
    for job in jobs:
        name = job.get("name", "<unnamed>")
        for key in ("status", "elapsed_s", "mb_per_s", "faults", "phases"):
            if key not in job:
                fail(f"job {name!r}: missing {key!r}")
        if job["status"] != "OK":
            fail(f"job {name!r}: status {job['status']!r}")
        for phase in job["phases"]:
            u = phase.get("cpu_utilization")
            if u is None or not 0.0 <= u <= 1.0:
                fail(f"job {name!r} phase {phase.get('name')!r}: "
                     f"cpu_utilization {u!r} outside [0, 1]")

    night = ""
    if "scheduler" in doc:
        night = f", {check_night(doc['scheduler'])} scheduled volumes"

    print(f"{path}: OK — {len(jobs)} jobs{night}")


def main():
    if len(sys.argv) < 3 or sys.argv[1] not in ("trace", "report"):
        sys.stderr.write(__doc__)
        sys.exit(2)
    mode, path, flags = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "trace":
        check_trace(path, flags)
    else:
        if flags:
            fail("report mode takes no flags")
        check_report(path)


if __name__ == "__main__":
    main()
