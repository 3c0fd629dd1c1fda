"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload registry-analysis --seed 1 \\
        --seconds 8 --trace 0

One client drives the program in a closed loop: it sends the next
operation only after the last one returned. The program runs with its
defaults (every ``REPRO_*`` variable is cleared, so ``repro.parallel``
pools are as wide as the CPU count). A run is exactly one round of
the workload's operations, the same work whatever the machine's speed
(every round is longer than the benchmark's 8 s, so ``--seconds`` is
accepted but does not change the run). It checks every answer outside
the timed region, prints attempted and failed operations per class, and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload with every layer's public entry points wrapped and
reports the per-layer metrics instead, writing all spans to
``.bench_run/trace-<workload>-<seed>.json``.
"""

import time

#: setup_s counts from here: interpreter start-up aside, it includes
#: every import of the program.
STARTED = time.perf_counter()

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_run")

# Every module imported from here on, the program's and the standard
# library's, is compiled from source: no bytecode is read or written, so
# set-up time does not depend on which ``__pycache__`` directories the
# checkout happens to hold. The directory is never created.
sys.pycache_prefix = os.path.join(WORK_DIR, "no-bytecode")
sys.dont_write_bytecode = True

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
from collections import Counter

#: Faults the program is known to have: (operation class, start of the
#: failure's description). An operation that raises, or whose answer
#: fails its check, with a matching description is counted in
#: ``failed``; any other failure makes the run incorrect.
KNOWN_FAULTS = (
    # Address-line typos escape the parser (both frontends).
    ("typo", "ValueError: invalid IPv4 address"),
    # service_reachable reports a delivered packet as failing from a NAT
    # interface toward the translating device's own addresses.
    ("service_nat", "CheckFailed: negative example"),
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=8.0,
        help="the benchmark's run length; a run is always one round",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="do the set-up, print its duration as JSON and exit",
    )
    return parser.parse_args(argv)


def nearest_rank(sorted_values, fraction):
    """The sample at rank ceil(fraction * n): always a measured value,
    so a percentile never interpolates across two latency modes."""
    index = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[index]


def describe_failure(exc):
    message = str(exc).split(":")[0].strip()
    return f"{type(exc).__name__}: {message}" if message else type(exc).__name__


def known_fault(kind, reason):
    return any(kind == k and reason.startswith(head) for k, head in KNOWN_FAULTS)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(
            f"error: the program's sources are missing ({src}/repro); "
            f"run from the root of a repro checkout"
        )
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [HERE, src]
    import workloads

    return workloads


def setup_only(args):
    workloads = import_program()
    os.makedirs(WORK_DIR, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, WORK_DIR)
    workload.setup()
    elapsed = time.perf_counter() - STARTED
    if hasattr(workload, "close"):
        workload.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


def child_setup_seconds(args):
    """Set-up time of a fresh interpreter on the same inputs."""
    completed = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child failed: {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def run(args):
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(sorted(workloads.WORKLOADS))}"
        )
    os.makedirs(WORK_DIR, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True

    workload = workloads.make(args.workload, args.seed, WORK_DIR)
    try:
        workload.setup()
        setup_seconds = time.perf_counter() - STARTED
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = measure(workload, tracer)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    result["setup_s"] = setup_seconds
    result["setup_samples"] = workload.SETUP_SAMPLES
    result["setup_rss_mb"] = setup_rss_mb
    del workload
    gc.collect()
    return finish(args, result, tracer)


def measure(workload, tracer):
    """Run one round of the workload, timing each operation and checking
    its answer outside the timed region: right after the operation, or,
    for a workload whose checks would use the program's live state
    (``CHECK_AFTER_TIMED``), after the whole timed phase and after the
    peak memory has been read."""
    attempted = Counter()
    failed = Counter()
    check_failures = []
    latencies = []
    deferred = []
    timed = 0.0

    def check(op, answer, elapsed):
        try:
            op.check(answer)
        except Exception as exc:  # a wrong answer, or a crash checking it
            reason = describe_failure(exc)
            if known_fault(op.kind, reason):
                failed[(op.kind, reason)] += 1
            else:
                check_failures.append(f"{op.kind} {op.network}: {exc!r}"[:400])
        else:
            latencies.append(elapsed)

    if tracer is not None:
        tracer.phase = "timed"
    for number, op in enumerate(workload.round(), 1):
        attempted[op.kind] += 1
        if tracer is not None:
            tracer.begin_op(number)
        started = time.perf_counter()
        try:
            answer = op.run()
        except Exception as exc:  # the run goes on; the class reports it
            timed += time.perf_counter() - started
            failed[(op.kind, describe_failure(exc))] += 1
            if tracer is not None:
                tracer.end_op(workload.live_engines())
            continue
        elapsed = time.perf_counter() - started
        timed += elapsed
        if tracer is not None:
            tracer.end_op(workload.live_engines())
        if workload.CHECK_AFTER_TIMED:
            deferred.append((op, answer, elapsed))
            continue
        if tracer is not None:
            tracer.active = False
        check(op, answer, elapsed)
        del answer
        if tracer is not None:
            tracer.active = True
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
    for op, answer, elapsed in deferred:
        check(op, answer, elapsed)
    return {
        "attempted": attempted,
        "failed": failed,
        "check_failures": check_failures,
        "latencies": sorted(latencies),
        "timed": timed,
        "peak_rss_mb": peak_rss_mb,
    }


def finish(args, result, tracer):
    attempted, failed = result["attempted"], result["failed"]
    failed_by_kind = Counter()
    for (kind, _reason), count in failed.items():
        failed_by_kind[kind] += count
    print(f"{args.workload} seed={args.seed} "
          f"timed={result['timed']:.3f}s peak RSS after set-up "
          f"{result['setup_rss_mb']:.1f} MB, after the timed phase "
          f"{result['peak_rss_mb']:.1f} MB")
    print(f"{'class':26s} {'attempted':>9s} {'failed':>7s}  exception")
    for kind in sorted(attempted):
        reasons = "; ".join(
            f"{reason} (x{count})"
            for (k, reason), count in sorted(failed.items())
            if k == kind
        )
        print(f"{kind:26s} {attempted[kind]:9d} {failed_by_kind[kind]:7d}  {reasons}")
    unexpected = [key for key in failed if not known_fault(*key)]
    for kind, reason in unexpected:
        print(f"UNEXPECTED FAILURE: {kind}: {reason}")
    for line in result["check_failures"][:20]:
        print(f"CHECK FAILED: {line}")
    correct = not result["check_failures"] and not unexpected

    latencies = result["latencies"]
    ops_per_s = len(latencies) / result["timed"] if result["timed"] > 0 else 0.0
    if latencies:
        # Reported, not gated: see "Latency percentiles" in the README.
        print(f"latency over {len(latencies)} completed operations: "
              f"p50 {nearest_rank(latencies, 0.5) * 1000:.3f} ms, "
              f"p90 {nearest_rank(latencies, 0.9) * 1000:.3f} ms")
    if tracer is None:
        setups = [result["setup_s"]] + [
            child_setup_seconds(args) for _ in range(result["setup_samples"] - 1)
        ]
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        from tracing import METRICS

        path = os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.dump(path, {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "traced_ops_per_s": ops_per_s,
        })
        tracer.uninstall()
        setup_totals = tracer.totals("setup")
        timed_totals = tracer.totals("timed")
        print(f"traced ops_per_s={ops_per_s:.4f} (compare with untraced runs: "
              f"python3 perfbench/steady.py --overhead)")
        print(f"{'per-layer metric':34s} {'setup':>12s} {'timed':>12s}")
        for name in METRICS:
            print(f"{name:34s} {setup_totals[name]:12.4f} {timed_totals[name]:12.4f}")
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        metrics = {
            name: {"value": timed_totals[name], "unit": unit}
            for name, (unit, _better) in METRICS.items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_only:
        return setup_only(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
