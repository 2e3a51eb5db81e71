#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed for each named workload (each run in its
own process, one after another) and prints, per metric, the median of
the runs and the distance between the first and third quartile as a
share of that median, next to the metric's bound from BENCHMARK.json::

    python3 perfbench/spread.py --workloads paper_dynamic --seeds 0-9
    python3 perfbench/spread.py --seeds 0-9 --save a.json
    python3 perfbench/spread.py --compare a.json b.json

``--compare`` checks that the medians of a second set are not worse than
those of the first by more than each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(workloads, seed_list, seconds):
    values = {}
    for name in workloads:
        for seed in seed_list:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            res = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not res["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, "
                      f"correct={res['correct']}")
            for metric, entry in res["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(
                    entry["value"])
            # Unscaled wall time, for comparison only (not gated).
            full = json.loads((ROOT / ".perfbench" /
                               f"result-{name}-trace0.json").read_text())
            values[name].setdefault("wall_p50_s", []).append(
                full["wall_p50_s"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={e['value']:.4g}" for m, e in res["metrics"].items()),
                flush=True)
    return values


def report(values) -> None:
    for name, metrics in values.items():
        print(f"== {name}")
        for metric, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            if metric not in METRICS:
                print(f"  {metric:<12} median {med:10.4f}  spread "
                      f"{share:6.1%}  not gated (n={len(vals)})")
                continue
            bound = METRICS[metric]["bound"]
            flag = "" if share < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {metric:<12} median {med:10.4f}  spread {share:6.1%}"
                  f"  bound {bound:.0%} (n={len(vals)}){flag}")


def compare(first, second) -> int:
    worse = 0
    for name, metrics in first.items():
        for metric, vals in metrics.items():
            if metric not in METRICS:
                continue
            a = statistics.median(vals)
            b = statistics.median(second[name][metric])
            spec = METRICS[metric]
            change = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            bad = change > spec["bound"]
            worse += bad
            print(f"{name:<16} {metric:<12} {a:10.4f} -> {b:10.4f} "
                  f"worse by {change:+.1%} (bound {spec['bound']:.0%})"
                  f"{'  <-- REGRESSION' if bad else ''}")
    return 1 if worse else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--save", help="write the measured values here (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text())
                         for p in args.compare)
        return compare(first, second)
    values = measure(args.workloads, args.seeds, args.seconds)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    report(values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
