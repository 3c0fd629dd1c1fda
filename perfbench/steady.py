"""Steadiness check: run one workload N times and report the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload question-stream --runs 10 \\
        --seed 7 [--vary-seed] [--checkout DIR ...] [--overhead]

Each run is a fresh ``perfbench/run.py`` process. With one checkout (the
default is this one) it prints, for every end-to-end metric, the median,
the first and third quartiles and the spread (Q3 - Q1) / median, next to
the metric's bound from ``BENCHMARK.json``. With two checkouts the runs
alternate between them (A B B A ...) and it also prints how far the
second checkout's median moved from the first's. ``--vary-seed`` gives
run i the seed ``seed + i``. ``--overhead`` alternates untraced and
traced runs of one checkout and reports the tracing overhead as the gap
between their median ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> Dict:
    completed = subprocess.run(
        [
            sys.executable, os.path.join(checkout, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"run failed in {checkout} (exit {completed.returncode}):\n"
            f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    traced = re.search(r"^traced ops_per_s=([0-9.]+)", completed.stdout, re.M)
    if traced:
        result["metrics"]["ops_per_s"] = {
            "value": float(traced.group(1)), "unit": "1/s",
        }
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--checkout", action="append", default=None)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    checkouts = [os.path.abspath(c) for c in (args.checkout or [ROOT])]
    if len(checkouts) > 2:
        parser.error("give at most two checkouts")

    sides = (
        [(checkouts[0], 0), (checkouts[0], 1)] if args.overhead
        else [(checkout, 0) for checkout in checkouts]
    )
    results: Dict[int, List[Dict]] = {i: [] for i in range(len(sides))}
    for run in range(args.runs):
        seed = args.seed + run if args.vary_seed else args.seed
        # ABBA order, so slow drift of the machine hits both sides alike.
        order = list(range(len(sides)))
        if run % 2:
            order.reverse()
        for side in order:
            checkout, trace = sides[side]
            result = run_once(checkout, args.workload, seed, seconds, trace)
            results[side].append(result)
            print(
                f"run {run + 1}/{args.runs} seed={seed} "
                f"{os.path.basename(checkout)} trace={trace} "
                f"correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']} "
                + " ".join(
                    f"{name}={m['value']:.4f}"
                    for name, m in result["metrics"].items() if name in bounds
                ),
                flush=True,
            )

    summaries = []
    for side, runs in results.items():
        checkout, trace = sides[side]
        print(f"\n== {args.workload} @ {checkout} (trace={trace}, {len(runs)} runs, "
              f"run_seconds={seconds}) ==")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"failed share: {', '.join(f'{s:.6f}' for s in shares)}"
              f"{'' if len(shares) == 1 else '  (NOT CONSTANT)'}")
        print(f"correct in every run: {all(r['correct'] for r in runs)}")
        summary = {}
        for name in [n for n in bounds if n in runs[0]["metrics"]]:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            summary[name] = stats
            bound = bounds[name]["bound"]
            verdict = (
                f"bound {bound:.2f}  "
                + ("ok" if stats["spread"] <= bound else "OVER BOUND")
                + (", < bound/3" if stats["spread"] < bound / 3 else "")
            )
            print(f"{name:14s} median {stats['median']:12.4f}  q1 {stats['q1']:12.4f}  "
                  f"q3 {stats['q3']:12.4f}  spread {stats['spread']:.4f}  {verdict}")
        summaries.append(summary)

    if args.overhead:
        untraced = summaries[0]["ops_per_s"]["median"]
        traced = summaries[1]["ops_per_s"]["median"]
        print(f"\ntracing overhead: {1 - traced / untraced:+.2%} of untraced "
              f"ops_per_s ({untraced:.4f} -> {traced:.4f})")
    elif len(summaries) == 2:
        print("\nsecond checkout vs first (median, worse by share of first):")
        for name, metric in bounds.items():
            change = worse_by(
                summaries[0][name]["median"], summaries[1][name]["median"],
                metric["better"],
            )
            print(f"{name:14s} worse by {change:+.4f}  bound {metric['bound']:.2f}  "
                  + ("ok" if change <= metric["bound"] else "REGRESSION"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
