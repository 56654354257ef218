#!/usr/bin/env python3
"""Host-cost benchmark of the EdgeRT simulator entrypoints.

Run from the repository root:

  python3 perfbench/run.py --workload serve_mix --seed 1 \
      --seconds 20 --trace 0

Without --workload it runs every workload in turn, each in its own
process, and prints one block per workload.

Builds perfbench_harness (the simulator libraries plus harness.cc)
into .bench_build/perfbench on first use, runs it and prints every
metric by name and unit. The last line of a workload's block is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, measured with tracing off;
--trace 1 reports the per-layer ledger from a separate traced run.

Exit codes: 0 all output checks passed; 1 an output check failed (the
result line is still printed); 2 the build or the harness failed (no
result line).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import ledger  # noqa: E402

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("fleet_scale", "serve_mix", "stream_cameras")

BUILD_TIMEOUT_S = 840


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    # Configure every time: it is a no-op on a good tree and repairs
    # one that an interrupted first run left half-configured.
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench_harness"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def measure(args):
    out = subprocess.run(
        [str(HARNESS), args.workload, str(args.seed), str(args.seconds),
         str(args.trace)],
        stdout=subprocess.PIPE, check=True,
        timeout=min(160, 60 + 3 * args.seconds))
    return json.loads(out.stdout)


def counter_sum(metrics, name):
    """Sum of every counter called `name`, under any prefix (the fleet
    merges node registries as fleet.<group>.<name>)."""
    return sum(v for k, v in metrics["counters"].items()
               if k.split("{", 1)[0].endswith(name))


def failed_calls(run, digest):
    """Count calls whose report is wrong; print each problem."""
    kind, ref = run["kind"], run["report"]
    ref_digest = digest if run["seed"] == run["default_seed"] else None
    problems = ledger.check_report(kind, ref, ref_digest)
    ref_hash = ledger.fnv1a64(ref)
    failed = 0
    for i, call in enumerate(run["calls"]):
        bad = list(problems)
        if call["hash"] != ref_hash:
            bad.append("report bytes differ from the first call's")
        for p in bad:
            log("output check failed (call %d): %s" % (i, p))
        failed += bool(bad)
    attempted = len(run["calls"])
    if "check" in run:
        check = run["check"]
        bad = ledger.check_report(kind, check["report"], digest)
        if digest is None:
            bad.append("no committed digest in %s" % DIGESTS.name)
        if check["hash"] != ledger.fnv1a64(check["report"]):
            bad.append("report bytes changed in transit")
        for p in bad:
            log("output check failed (seed %d): %s"
                % (run["default_seed"], p))
        failed += bool(bad)
        attempted += 1
    return attempted, failed


def operating_point(run):
    """Simulated results of the run: model outputs, never gated."""
    report = json.loads(run["report"])
    metrics = json.loads(run["metrics"])
    parts = []
    if run["kind"] == "fleet":
        parts.append("p99 %.3f ms, shed %d of %d"
                     % (report["latency_ms"]["p99"], report["shed"],
                        report["offered"]))
    for m in report["models"] if run["kind"] == "serve" else []:
        parts.append("%s p99 %.3f ms, shed %d of %d"
                     % (m["model"], m["latency_ms"]["p99"], m["shed"],
                        m["offered"]))
    for m in report["models"] if run["kind"] == "stream" else []:
        parts.append("%s stale %.2f%%, dropped %d of %d"
                     % (m["model"], m["stale_rate_pct"], m["dropped"],
                        m["produced"]))
    parts.append("gpusim launches %d"
                 % counter_sum(metrics, "gpusim.kernel.launches"))
    return "; ".join(parts)


def drop_pct(run):
    report = json.loads(run["report"])
    if run["kind"] == "stream":
        lost = sum(m["dropped"] for m in report["models"])
        total = sum(m["produced"] for m in report["models"])
    else:
        lost = sum(m["shed"] for m in report["models"])
        total = sum(m["offered"] for m in report["models"])
    return 100.0 * lost / total if total else 0.0


def end_to_end(run):
    walls = [c["wall_s"] for c in run["calls"]]
    cpus = [c["cpu_s"] for c in run["calls"]]
    wall = statistics.median(walls)
    tail_pct, tail = ledger.tail_percentile(walls)
    n = len(walls)
    return [
        ("wall_s", wall, "s", "median of %d calls" % n),
        ("wall_s_tail", tail, "s",
         "p%.1f of %d calls, 10 beyond it" % (tail_pct, n)),
        ("sim_speed", run["duration_s"] * run["units"] / wall, "dev-s/s",
         "%g s simulated x %d %s / wall_s"
         % (run["duration_s"], run["units"],
            "nodes" if run["kind"] == "fleet" else "devices")),
        ("cpu_s", statistics.median(cpus), "s",
         "median user+sys of %d calls" % n),
        ("peak_rss_mb", run["max_rss_kb"] / 1024.0, "MB",
         "process ru_maxrss"),
        ("setup_s", statistics.median(run["setup_wall_s"]), "s",
         "median of %d calls at the shortest duration, one after each "
         "timed call" % len(run["setup_wall_s"])),
    ]


def per_layer(run):
    # calls[0] is the cold call under the RSS sampler; the harness makes
    # at least five traced and five untraced calls after it.
    calls = run["calls"]
    traced = [c for c in calls[1:] if c["traced"]]
    untraced = [c["wall_s"] for c in calls if not c["traced"]]
    # The median traced call's own ledger, so its rows sum to its wall.
    mid = sorted(traced, key=lambda c: c["wall_s"])[(len(traced) - 1) // 2]
    rows = ledger.ledger(mid["spans"])
    total = sum(rows.values())
    if abs(total - mid["wall_s"]) > 1e-6:
        raise RuntimeError("ledger rows sum to %.9f s, traced wall is "
                           "%.9f s" % (total, mid["wall_s"]))
    metrics = json.loads(run["metrics"])
    launches = counter_sum(metrics, "gpusim.kernel.launches")
    measured = counter_sum(metrics, "builder.tactic.measured")
    served = counter_sum(metrics, "builder.tactic.cache_served")
    rss = ledger.rss_peaks_mb(calls[0]["spans"], run["rss_samples"])
    overhead = (statistics.median(c["wall_s"] for c in traced) /
                statistics.median(untraced) - 1.0) * 100.0
    # Only serve spans its watch phase, so the row is a share: a time
    # that reads 0 on every fleet and stream run would look unmeasured.
    watch = rows.pop("phase.watch_s")
    out = [(row, secs, "s", "self time") for row, secs in rows.items()]
    out += [
        ("phase.watch_pct", 100.0 * watch / total, "%",
         "self time of serve_watch, share of traced_wall_s"),
        ("core.builds", counter_sum(metrics, "builder.builds"), "count",
         "builder.builds"),
        ("core.timing_cache.hit_pct",
         100.0 * served / (measured + served) if measured + served
         else 0.0, "%", "tactic timings served from the cache"),
        ("runtime.inferences",
         counter_sum(metrics, "runtime.inference.enqueued"), "count",
         "runtime.inference.enqueued"),
        ("queue.drop_pct", drop_pct(run), "%",
         "frames dropped of produced, or requests shed of offered"),
        ("gpusim.launches", launches, "count", "gpusim.kernel.launches"),
        ("gpusim.memcpy_chunks",
         counter_sum(metrics, "gpusim.memcpy.chunks"), "count",
         "gpusim.memcpy.chunks"),
        ("gpusim.us_per_launch",
         rows["phase.replay_s"] * 1e6 / launches if launches else 0.0,
         "us", "phase.replay_s / gpusim.launches"),
        ("trace_overhead_pct", overhead, "%",
         "median traced vs untraced wall, %d vs %d calls"
         % (len(traced), len(untraced))),
        ("traced_wall_s", mid["wall_s"], "s",
         "the median traced call the rows above sum to"),
        ("host.cold_minor_faults", calls[0]["minor_faults"], "count",
         "ru_minflt delta of the cold first call, as a fresh CLI pays"),
    ]
    out += [("phase.%s.rss_peak_mb" % p, rss[p], "MB",
             "VmRSS peak, cold traced call") for p in ledger.RSS_PHASES]
    return sorted(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: each in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2
    rc = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        rc = max(rc, run_workload(args))
    return rc


def run_workload(args):
    """Measure one workload in its own harness process and print its
    block, ending with the result line. Returns the exit code."""
    try:
        run = measure(args)
        digest = json.loads(DIGESTS.read_text()).get(args.workload)
        rows = per_layer(run) if args.trace else end_to_end(run)
    except (OSError, ValueError, RuntimeError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2
    attempted, failed = failed_calls(run, digest)

    print("workload %s | seed %d | %s | %s simulated s x %d %s"
          % (args.workload, args.seed,
             "traced run" if args.trace else "tracing off",
             run["duration_s"], run["units"],
             "nodes" if run["kind"] == "fleet" else "devices"))
    for name, value, unit, note in rows:
        print("  %-28s %14.6f %-8s %s" % (name, value, unit, note))
    print("  %-28s %14.6f %-8s %d of %d checked calls failed"
          % ("fail_pct", 100.0 * failed / attempted, "%", failed,
             attempted))
    print("operating point (model outputs, not validated against Jetson "
          "hardware): " + operating_point(run))
    if "check" in run:
        print("report sha256 at seed %d: %s"
              % (run["default_seed"], ledger.sha256(run["check"]["report"])))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
