"""Pure helpers of the host-cost benchmark: span self times, the tail
percentile, per-phase RSS attribution and the report output check.

run.py feeds these with what perfbench_harness measured; the tests in
test_ledger.py exercise them on hand-made inputs.
"""

import hashlib
import json

# Ledger row of each span name. Rows cover every span on the calling
# thread, so the self times of all rows sum to the traced call's wall.
# A span this table does not name counts toward phase.self_s.
SPAN_ROWS = {
    "build": "core.build_s",
    "tactic_sweep": "core.tactic_sweep_s",
    "cache_lookup": "core.tactic_sweep_s",
    "context_setup": "runtime.context_setup_s",
    "serve_build": "phase.build_s",
    "serve_load_version": "phase.build_s",
    "fleet_build": "phase.build_s",
    "stream_build": "phase.build_s",
    "serve_control": "phase.control_s",
    "fleet_control": "phase.control_s",
    "fleet_rollout": "phase.control_s",
    "stream_control": "phase.control_s",
    "serve_replay": "phase.replay_s",
    "fleet_replay": "phase.replay_s",
    "stream_replay": "phase.replay_s",
    "serve_watch": "phase.watch_s",
    "bench_report_json": "report.serialize_s",
    "bench_metrics_json": "obs.snapshot_s",
}
OPTIMIZER_PASS_PREFIX = "pass:"  # optimizer passes are builder work
SELF_ROW = "phase.self_s"
LEDGER_ROWS = sorted(set(SPAN_ROWS.values()) | {SELF_ROW})

# Phase a sample of resident memory belongs to: that of the nearest
# enclosing phase.* span, else "self" (everything else in the call).
SPAN_PHASES = {name: row[len("phase."):-len("_s")]
               for name, row in SPAN_ROWS.items()
               if row.startswith("phase.")}
RSS_PHASES = ("build", "control", "replay", "self")

CALL_SPAN = "bench_call"


def span_row(name):
    if name.startswith(OPTIMIZER_PASS_PREFIX):
        return "core.build_s"
    return SPAN_ROWS.get(name, SELF_ROW)


def self_times(spans):
    """Self time in ns of each span, keyed by its index in `spans`.

    `spans` holds (name, thread, start_ns, end_ns) tuples. A span's
    self time is its duration minus the part of it that its direct
    children on the same thread cover; spans on other threads never
    count as children.
    """
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][1], spans[i][2], -spans[i][3]))
    children = {i: [] for i in order}
    stack = []
    for i in order:
        _, thread, start, end = spans[i]
        while stack and not (spans[stack[-1]][1] == thread and
                             spans[stack[-1]][2] <= start and
                             end <= spans[stack[-1]][3]):
            stack.pop()
        if stack:
            children[stack[-1]].append((start, end))
        stack.append(i)
    out = {}
    for i, kids in children.items():
        start, end = spans[i][2], spans[i][3]
        covered, reach = 0, start
        for cs, ce in sorted(kids):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[i] = (end - start) - covered
    return out


def call_thread_spans(spans):
    """The spans recorded on the thread that made the call."""
    call = next(s for s in spans if s[0] == CALL_SPAN)
    return call, [s for s in spans if s[1] == call[1]]


def ledger(spans):
    """Seconds of self time per ledger row on the calling thread."""
    _, mine = call_thread_spans(spans)
    rows = dict.fromkeys(LEDGER_ROWS, 0)
    for i, ns in self_times(mine).items():
        rows[span_row(mine[i][0])] += ns
    return {row: ns * 1e-9 for row, ns in rows.items()}


def rss_peaks_mb(spans, samples):
    """Peak VmRSS (MB) per phase of one traced call.

    `samples` holds (ns, kB) pairs from one sampler thread. A sample
    belongs to the nearest enclosing span that names a phase. A phase
    that no sample fell into reports the last sample taken before it
    began, its resident size on entry.
    """
    call, mine = call_thread_spans(spans)
    order = sorted(mine, key=lambda s: (s[2], -s[3]))  # parents first
    peaks, entry = {}, {}
    stack, nxt, last = [], 0, None
    for t, kb in sorted(samples):
        while nxt < len(order) and order[nxt][2] <= t:
            span = order[nxt]
            while stack and stack[-1][3] < span[2]:
                stack.pop()
            stack.append(span)
            phase = SPAN_PHASES.get(span[0])
            if phase and phase not in entry and last is not None:
                entry[phase] = last
            nxt += 1
        while stack and stack[-1][3] < t:
            stack.pop()
        last = kb
        if not call[2] <= t <= call[3]:
            continue
        phase = next((SPAN_PHASES[s[0]] for s in reversed(stack)
                      if s[0] in SPAN_PHASES), "self")
        peaks[phase] = max(peaks.get(phase, 0), kb)
    return {p: peaks.get(p, entry.get(p, 0)) / 1024.0 for p in RSS_PHASES}


def tail_percentile(values, beyond=10):
    """Highest nearest-rank percentile with `beyond` samples above it.

    Returns (percentile, value), or None when the sample is too small
    to have any such percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    rank = n - beyond
    return 100.0 * rank / n, xs[rank - 1]


def fnv1a64(text):
    """The harness's per-call report hash (64-bit FNV-1a, hex)."""
    h = 0xcbf29ce484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001b3) & 0xffffffffffffffff
    return "%016x" % h


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def conservation_problems(kind, report):
    """Accounting identities every report of `kind` must satisfy."""
    problems = []
    if kind in ("serve", "fleet"):
        for m in report["models"]:
            if m["offered"] != m["completed"] + m["shed"]:
                problems.append("%s: offered %d != completed %d + shed %d"
                                % (m["model"], m["offered"],
                                   m["completed"], m["shed"]))
    if kind == "fleet":
        if report["offered"] != report["completed"] + report["shed"]:
            problems.append("fleet: offered != completed + shed")
        if report["unaccounted"] != 0:
            problems.append("fleet: %d requests unaccounted"
                            % report["unaccounted"])
    if kind == "stream":
        for m in report["models"]:
            if m["produced"] != (m["completed"] + m["dropped"] +
                                 m["in_flight"]):
                problems.append(
                    "%s: produced %d != completed %d + dropped %d + "
                    "in_flight %d" % (m["model"], m["produced"],
                                      m["completed"], m["dropped"],
                                      m["in_flight"]))
            # skip_to_latest is the lane sized to overload, so the
            # eviction path must have run.
            if m["policy"] == "skip_to_latest" and m["dropped"] <= 0:
                problems.append("%s: overloaded lane dropped no frames"
                                % m["model"])
    return problems


def check_report(kind, text, digest=None):
    """Problems with one report's bytes: unparsable, broken
    conservation, or (when `digest` is given) not the committed
    bytes."""
    if digest is not None and sha256(text) != digest:
        return ["report bytes differ from the committed digest"]
    try:
        report = json.loads(text)
    except ValueError as e:
        return ["report is not JSON: %s" % e]
    try:
        return conservation_problems(kind, report)
    except (KeyError, TypeError) as e:
        return ["report lacks a conservation field: %s" % e]
