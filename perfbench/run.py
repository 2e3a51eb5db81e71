#!/usr/bin/env python3
"""Benchmark of the ``repro`` simulator: end-to-end and per-layer numbers.

Run from the repository root::

    python3 perfbench/run.py --workload paper_dynamic --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15 [--record-history]

One workload runs in this single process, with no threads.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` wraps each layer's public
seams in spans (see ``tracer.py``) and reports the per-layer metrics
instead.  Times are wall times scaled to a fixed reference host speed
(``workloads.Stopwatch``), so that drift in the host's CPU speed moves
them less.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when any output digest,
count check or zero-call guard fails.

``--workload all`` runs every workload in its own child process, once
untraced and twice traced, and prints the end-to-end metrics, the
per-layer table, the tracing overhead and whether every count repeated
exactly between the two traced runs.  See ``NOTES.md`` for why each
workload and metric was chosen.
"""

from __future__ import annotations

import os
import sys

# Single-threaded numerics and no on-disk trace cache: set before numpy
# or repro is imported, in this process and in every child it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REPRO_TRACE_CACHE", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
HISTORY = HERE / "history.jsonl"
WORKLOAD_NAMES = ("paper_dynamic", "static_grid", "observed_whatif")

#: Set-up is repeated this many times per untraced run; ``setup_s`` is
#: the median cold import plus the median workload set-up.  Two, not
#: more: an ``observed_whatif`` set-up takes 8-16 s on a shared 2-vCPU
#: host, and every run must stay well inside the benchmark's time budget.
SETUP_REPEATS = 2
#: Cold imports per untraced run.  One takes about 0.5 s and is most of
#: ``setup_s`` on ``paper_dynamic`` and ``static_grid``, where its spread
#: between single samples reached 30%, so it gets more repeats.
IMPORT_REPEATS = 5
#: Modules a workload process imports (timed in fresh interpreters).
IMPORTS = ("repro.experiments.campaign, repro.experiments.runner, "
           "repro.scheduler.simulator, repro.obs.telemetry, repro.whatif")

#: End-to-end metrics (untraced runs) and their units.
E2E_UNITS = {"op_p50_s": "s", "ops_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def per_layer_units(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_event"):
        return "us"
    if name.endswith("_bytes_copied"):
        return "bytes"
    return "count"


def is_count(key: str) -> bool:
    """Work counts (and ratios of them), which must repeat exactly for
    the same code and seed; everything else is a time."""
    return not key.endswith(("_s", "_us_per_event"))


#: Counts that repeat between runs but not between the iterations of one
#: run: a COW page is copied once, then cached across rollbacks.
RUN_REPEATING = ("whatif.cow_bytes_copied",)


def cold_import() -> None:
    """A fresh interpreter imports the workload modules."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", f"import {IMPORTS}"], cwd=ROOT,
                   env=env, check=True)


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or ``None`` below twenty samples."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def _direct(_name, fn, *args):
    return fn(*args)


# ----------------------------------------------------------------------
# One workload, one process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record_reference: bool = False) -> dict:
    from tracer import Tracer, install, layer_metrics
    from workloads import KNOWN_DEFECT, OK, WORKLOADS, Stopwatch

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    if trace:
        install(tracer)
    span = tracer.call if trace else _direct
    counts = tracer.counts if trace else Counter()
    workload = WORKLOADS[name](OUT)
    problems = []

    # Traced and recording runs report no setup_s: one set-up suffices.
    # Set-up times are scaled to the reference host speed, like the ops.
    repeats = 1 if trace or record_reference else SETUP_REPEATS
    import_s = []
    for _ in range(IMPORT_REPEATS if repeats > 1 else 0):
        watch = Stopwatch(_direct)
        cold_import()
        import_s.append(watch.split()[1])
    prep_s = []
    state = None
    for _ in range(repeats):
        state = None
        gc.collect()
        watch = Stopwatch(span)
        state = span("bench.setup", workload.setup, seed, watch)
        watch.split()
        prep_s.append(watch.scaled_s)
    setup_totals = tracer.totals()

    ops, deltas = [], []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        before = tracer.totals()
        ops_i = workload.iteration(state, span, counts)
        after = tracer.totals()
        ops.extend(ops_i)
        deltas.append({k: v - before.get(k, 0) for k, v in after.items()})
        if time.perf_counter() - t_start >= seconds:
            break
    run_s = time.perf_counter() - t_start

    # -- output checks ---------------------------------------------------
    ref = {} if record_reference else \
        load_reference().get(name, {}).get(str(seed), {})
    seen = {}
    failed = 0
    for op in ops:
        bad = ""
        if op.status not in (OK, KNOWN_DEFECT):
            bad = f"raised {op.detail}"
        elif op.status == OK and op.digest is not None:
            if seen.setdefault(op.key, op.digest) != op.digest:
                bad = "digest differs from an earlier iteration"
            elif ref.get(op.key, KNOWN_DEFECT) not in (op.digest, KNOWN_DEFECT):
                bad = "digest differs from the stored reference"
        elif op.status == KNOWN_DEFECT and ref.get(op.key, KNOWN_DEFECT) \
                != KNOWN_DEFECT:
            bad = f"raised where the reference succeeded: {op.detail}"
        if bad:
            failed += 1
            problems.append(f"{op.key}: {bad}")
    if not ref and not record_reference:
        print(f"note: no stored reference for seed {seed}; outputs are "
              "checked across iterations only")

    # -- count checks and zero-call guards (traced) ---------------------
    layers, spans = {}, {}
    if trace:
        keys = sorted({k for d in deltas for k in d})
        for key in keys:
            if is_count(key) and key not in RUN_REPEATING \
                    and len({d.get(key, 0) for d in deltas}) > 1:
                problems.append(f"count {key} differs between iterations: "
                                f"{[d.get(key, 0) for d in deltas]}")
        one = {}
        for key in keys:
            if is_count(key):
                first = deltas[0].get(key, 0)
            else:
                first = statistics.fmean(d.get(key, 0.0) for d in deltas)
            one[key] = setup_totals.get(key, 0) + first
        layers = layer_metrics(one)
        spans = {key[:-len(".calls")]: [one[key]] for key in keys
                 if key.endswith(".calls")}
        for span_name, row in spans.items():
            row += [one[span_name + ".self_s"], one[span_name + ".total_s"]]
        guards = {"obs.emit.calls": ("paper_dynamic", "static_grid"),
                  "obs.serialize.calls": ("paper_dynamic", "static_grid"),
                  "policies.update.calls": ("static_grid",)}
        for key, where in guards.items():
            if name in where and layers[key] != 0:
                problems.append(f"zero-call guard: {key} = {layers[key]} "
                                f"on {name}")
        n_spans = tracer.dump(OUT / f"spans-{name}.npz")
        print(f"wrote {n_spans} spans to {OUT / f'spans-{name}.npz'}")

    # -- end-to-end metrics ---------------------------------------------
    lat = [op.latency_s if op.status == OK else math.inf for op in ops]
    wall = [op.wall_s if op.status == OK else math.inf for op in ops]
    n_ok = sum(op.status == OK for op in ops)
    known = sum(op.status == KNOWN_DEFECT for op in ops)
    e2e = {
        "op_p50_s": statistics.median(lat),
        "ops_per_s": n_ok / sum(op.latency_s for op in ops),
        "setup_s": (statistics.median(import_s) if import_s else 0.0)
        + statistics.median(prep_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if record_reference and not problems:
        write_reference(name, seed, workload, state, deltas, ops)
    return {
        "workload": name, "unit": workload.unit, "units": workload.units,
        "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "correct": not problems, "attempted": len(ops), "failed": failed,
        "known_defect": known, "iterations": len(deltas),
        "run_s": run_s, "samples": len(lat), "tail": tail(lat),
        "wall_p50_s": statistics.median(wall),
        "setup_samples": {"import_s": import_s, "prep_s": prep_s},
        "e2e": e2e, "per_layer": layers, "spans": spans,
        "problems": problems,
    }


def write_reference(name, seed, workload, state, deltas, ops) -> None:
    """Store the first iteration's digests as the seed's reference."""
    from workloads import KNOWN_DEFECT

    first = ops[:len(ops) // len(deltas)]
    entry = {op.key: (KNOWN_DEFECT if op.status == KNOWN_DEFECT
                      else op.digest)
             for op in first if op.digest is not None
             or op.status == KNOWN_DEFECT}
    if hasattr(workload, "isolated_digests"):
        for key, isolated in workload.isolated_digests(state, first).items():
            if isolated != entry[key]:
                raise SystemExit(f"{key}: answer after a failed query "
                                 "differs from a fresh session's; not "
                                 "recording")
    ref = load_reference()
    ref.setdefault(name, {})[str(seed)] = entry
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entry)} reference digests for {name} seed {seed}")


def print_result(res: dict) -> None:
    unit, units = res["unit"], res["units"]
    print(f"{res['workload']} seed={res['seed']} trace={res['trace']}: "
          f"{res['attempted']} {units} in {res['iterations']} iterations, "
          f"{res['run_s']:.2f} s")
    n = res["samples"]
    e2e = res["e2e"]
    print(f"  op_p50_s     {e2e['op_p50_s']:.4f} s    (median {unit} "
          f"latency at reference speed, n={n}; wall "
          f"{res['wall_p50_s']:.4f} s)")
    if res["tail"] is None:
        print(f"  op_tail_s    n/a         (needs >= 20 {units}, n={n})")
    else:
        pct, value = res["tail"]
        print(f"  op_tail_s    {value:.4f} s    (p{pct:.1f}, 10 {units} "
              f"beyond it, n={n})")
    print(f"  ops_per_s    {e2e['ops_per_s']:.4f} 1/s  ({units} completed "
          f"per second, n={n})")
    s = res["setup_samples"]
    print(f"  setup_s      {e2e['setup_s']:.4f} s    (median cold import "
          f"n={len(s['import_s'])} + median set-up n={len(s['prep_s'])})")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    err = (res["failed"] + res["known_defect"]) / res["attempted"]
    print(f"  error_frac   {err:.4f}      (failed={res['failed']} "
          f"known_defect={res['known_defect']} "
          f"attempted={res['attempted']})")
    for problem in res["problems"]:
        print(f"  FAIL {problem}")


def result_line(res: dict) -> str:
    if res["trace"]:
        metrics = {k: {"value": v, "unit": per_layer_units(k)}
                   for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in res["e2e"].items()}
    return json.dumps({"correct": res["correct"],
                       "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


# ----------------------------------------------------------------------
# All workloads, one child process per run
# ----------------------------------------------------------------------
def child(name: str, seed: int, seconds: float, trace: int) -> dict:
    result = OUT / f"result-{name}-trace{trace}.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write("".join(f"    | {line}\n" for line in
                             proc.stdout.splitlines()[:-1]))
    return json.loads(result.read_text())


def src_loc() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def run_all(seed: int, seconds: float, record: bool) -> int:
    ok = True
    row = {"date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
           "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version()},
           "src_loc": src_loc(), "seed": seed, "seconds": seconds,
           "workloads": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}")
        plain = child(name, seed, seconds, 0)
        traced = child(name, seed, seconds, 1)
        again = child(name, seed, seconds, 1)
        print_result(plain)
        overhead = traced["e2e"]["op_p50_s"] / plain["e2e"]["op_p50_s"] - 1
        print(f"  tracing overhead on op_p50_s: {overhead:+.1%} "
              f"(traced {traced['e2e']['op_p50_s']:.4f} s)")
        spans = traced["spans"]
        traced_s = sum(r[1] for r in spans.values())
        print(f"  spans over one set-up + one iteration ({traced_s:.3f} s "
              "traced):")
        print(f"    {'span':<34} {'calls':>9} {'self_s':>9} {'self':>6} "
              f"{'incl_s':>9}")
        for span_name, (calls, self_s, incl_s) in sorted(
                spans.items(), key=lambda kv: -kv[1][1]):
            print(f"    {span_name:<34} {calls:>9} {self_s:>9.4f} "
                  f"{self_s / traced_s:>6.1%} {incl_s:>9.4f}")
        layers = traced["per_layer"]
        print("  per-layer metrics (BENCHMARK.json per_layer):")
        for key in sorted(layers):
            print(f"    {key:<42} {layers[key]:>14.6g} "
                  f"{per_layer_units(key)}")
        diff = [k for k in layers
                if is_count(k) and layers[k] != again["per_layer"].get(k)]
        print(f"  counts repeat exactly between traced runs: "
              f"{'yes' if not diff else 'NO ' + ', '.join(diff)}")
        for res in (traced, again):
            for problem in res["problems"]:
                print(f"  FAIL (traced) {problem}")
        ok &= plain["correct"] and traced["correct"] and again["correct"] \
            and not diff
        row["workloads"][name] = {
            "e2e": plain["e2e"], "samples": plain["samples"],
            "tail": plain["tail"], "known_defect": plain["known_defect"],
            "attempted": plain["attempted"], "per_layer": layers,
            "tracing_overhead": overhead,
        }
    if record:
        with open(HISTORY, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"appended a row to {HISTORY}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's output digests as the seed's "
                         "reference")
    ap.add_argument("--record-history", action="store_true",
                    help="with --workload all: append the results to "
                         "history.jsonl")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.record_history)
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.record_reference)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1))
    print_result(res)
    print(result_line(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
