"""The three benchmark workloads, each driving public ``repro`` entry points.

Every workload is a closed loop with one caller and no think time.  A
workload has a repeatable ``setup(seed, watch)``, whose median duration
is part of ``setup_s`` (a long set-up calls ``watch.split()`` between its
stages, so that each stage is scaled by the probes next to it), and an
``iteration(state, span, counts)`` that performs one fixed unit of work
and returns one :class:`Op` per timed operation:

``paper_dynamic``
    one scenario per iteration, from ``Scenario`` to JSONL records on
    disk (the op is the scenario);
``static_grid``
    one 48-cell serial campaign per iteration (the op is a cell, timed
    from the campaign's progress callback);
``observed_whatif``
    one round of ten uncached queries on each of three observed what-if
    sessions (the op is a query).

``span(name, fn, *args)`` runs ``fn`` (inside a tracer span when the run
is traced); ``counts`` receives work counters only the workload can see.

Operations are timed with a :class:`Stopwatch`, which reports each one
both in wall seconds and in seconds at a fixed reference host speed (see
:func:`probe`).  The gated metrics use the second.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.errors import AllocationError
from repro.experiments import campaign, runner
from repro.experiments.scenarios import FIG5_MEMORY_LEVELS, Scenario
from repro.obs.telemetry import Telemetry
from repro.scheduler import simulator
from repro.whatif import AddMemNodes, SubmitJob, SwapPolicy, WhatIf

OK, KNOWN_DEFECT, ERROR = "ok", "known_defect", "error"


#: Iterations of the speed probe's loop, and the probe's time on the
#: reference host (a 2-vCPU x86-64 virtual machine, CPython 3, idle).
PROBE_LOOPS = 200_000
REF_PROBE_S = 0.014


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed.

    On a shared host the CPU speed a process gets drifts by up to 2x over
    minutes, and the simulator's wall time drifts with it.  Dividing by a
    probe run next to the operation removes most of that drift.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


class Stopwatch:
    """Times consecutive operations in wall seconds and in seconds at the
    reference host speed.

    A probe runs when the stopwatch starts and at every :meth:`split`,
    outside the timed intervals.  An operation's scaled time is its wall
    time times ``REF_PROBE_S`` over the mean of the probes on either side
    of it.
    """

    def __init__(self, span):
        self.span = span
        self.probe_s = span("bench.probe", probe)
        self.t0 = perf_counter()
        #: Sum of the scaled times of every split so far.
        self.scaled_s = 0.0

    def split(self) -> Tuple[float, float]:
        """(wall, scaled) seconds since the start or the last split."""
        wall = perf_counter() - self.t0
        before = self.probe_s
        self.probe_s = self.span("bench.probe", probe)
        self.t0 = perf_counter()
        scaled = wall * 2.0 * REF_PROBE_S / (before + self.probe_s)
        self.scaled_s += scaled
        return wall, scaled


@dataclass
class Op:
    """One timed operation and its output digest."""

    key: str
    latency_s: float  # at the reference host speed
    wall_s: float
    status: str = OK
    digest: Optional[str] = None
    detail: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True,
                      default=lambda o: o.item() if hasattr(o, "item") else str(o))


def paper_scenario(seed: int) -> Scenario:
    """The paper's headline configuration: synthetic, dynamic, memory
    level 50, 25% large jobs, 1024 nodes, 1000 jobs."""
    return Scenario(trace="synthetic", policy="dynamic", memory_level=50,
                    frac_large=0.25, n_nodes=1024, n_jobs=1000, seed=seed)


class PaperDynamic:
    name = "paper_dynamic"
    unit, units = "scenario", "scenarios"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self, seed: int, watch: Stopwatch):
        out = self.out_dir / self.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return paper_scenario(seed), out / "records.jsonl"

    @staticmethod
    def _scenario_to_disk(scenario: Scenario, path: Path) -> str:
        runner.clear_caches()
        wl = runner.base_workload(scenario)
        result = simulator.simulate(
            wl.fresh_jobs(), scenario.system_config(),
            policy=scenario.policy, profiles=wl.profiles,
        )
        lines = [_json({**asdict(r), "state": r.state.name})
                 for r in result.records]
        lines.append(_json({"summary": result.summary()}))
        text = "".join(line + "\n" for line in lines)
        path.write_text(text)
        return text

    def iteration(self, state, span, counts) -> List[Op]:
        scenario, path = state
        watch = Stopwatch(span)
        text = span("bench.op", self._scenario_to_disk, scenario, path)
        wall, scaled = watch.split()
        return [Op("scenario", scaled, wall, digest=digest(text))]


#: Fig. 5 slice: both non-dynamic policies x all memory levels x three
#: overestimations, at medium scale with 25% large jobs (48 cells).
GRID_POLICIES = ("baseline", "static")
GRID_OVERESTIMATIONS = (0.0, 0.25, 0.6)


class StaticGrid:
    name = "static_grid"
    unit, units = "cell", "cells"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self, seed: int, watch: Stopwatch):
        scenarios = [
            Scenario(trace="synthetic", policy=policy, memory_level=level,
                     frac_large=0.25, overestimation=ovr, n_nodes=256,
                     n_jobs=700, seed=seed)
            for policy in GRID_POLICIES
            for level in FIG5_MEMORY_LEVELS
            for ovr in GRID_OVERESTIMATIONS
        ]
        return scenarios, self.out_dir / self.name

    def iteration(self, state, span, counts) -> List[Op]:
        scenarios, out = state
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        path = out / "campaign.jsonl"
        runner.clear_caches()
        splits = []
        watch = Stopwatch(span)
        span("bench.op", campaign.run_campaign, scenarios, path,
             lambda *_: splits.append(watch.split()), 1)
        lines = []
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                rec.pop("elapsed_s")
                lines.append(_json(rec))
        ops = [Op(f"cell{i}", scaled, wall)
               for i, (wall, scaled) in enumerate(splits)]
        if len(ops) != len(scenarios) or len(lines) != len(scenarios):
            for op in ops:
                op.status = ERROR
            ops[-1].detail = (f"{len(ops)} cells reported, {len(lines)} "
                              f"records for {len(scenarios)} scenarios")
        # One digest covers the whole campaign file; it rides on the last
        # cell, which is the one that completed it.
        ops[-1].key = "campaign"
        ops[-1].digest = digest("\n".join(lines))
        return ops


#: Fork points as fractions of the base run's makespan.
FORK_FRACTIONS = (0.6, 0.75, 0.9)

#: Trace seed of the what-if base timeline, the same in every run.  Query
#: latency is set by the length of the replayed suffix, which varies
#: widely between traces, so ``--seed`` draws the counterfactuals asked
#: instead.  At this trace the known defect shows at two of three forks.
WHATIF_TRACE_SEED = 0


def queries(seed: int) -> tuple:
    """The uncached queries every session answers, in this order.

    The six submitted jobs span 4 to 128 nodes; their runtime and memory
    request come from ``seed``.  The mid-run ``SwapPolicy("baseline")``
    is the known defect (see NOTES.md); the ``AddMemNodes`` queries after
    it check that a failed query leaves the session answering correctly.
    """
    rng = random.Random(seed)
    submits = tuple(
        SubmitJob(n_nodes=n,
                  base_runtime=float(rng.randrange(1800, 3601, 60)),
                  mem_request_mb=rng.choice((32768, 65536, 98304, 131072)))
        for n in (4, 8, 16, 32, 64, 128)
    )
    return submits + (
        SwapPolicy("static"),
        SwapPolicy("baseline"),
        AddMemNodes(n_nodes=16, extra_mb_per_node=65536),
        AddMemNodes(n_nodes=64, extra_mb_per_node=131072),
    )


def is_known_defect(pert, exc: Exception) -> bool:
    """``BaselinePolicy.plan`` sizes idle nodes by capacity and ignores
    memory they still lend, so a mid-run swap to baseline can raise."""
    return (isinstance(pert, SwapPolicy) and pert.name == "baseline"
            and isinstance(exc, AllocationError))


class ObservedWhatIf:
    name = "observed_whatif"
    unit, units = "query", "queries"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    @staticmethod
    def session(wl, config, at: float) -> WhatIf:
        return WhatIf(wl.fresh_jobs(), config, policy="dynamic", at=at,
                      profiles=wl.profiles, telemetry=Telemetry(),
                      capture_observability=True)

    def setup(self, seed: int, watch: Stopwatch):
        scenario = paper_scenario(WHATIF_TRACE_SEED)
        runner.clear_caches()
        wl = runner.base_workload(scenario)
        config = scenario.system_config()
        base = simulator.simulate(wl.fresh_jobs(), config, policy="dynamic",
                                  profiles=wl.profiles)
        watch.split()
        sessions = []
        for frac in FORK_FRACTIONS:
            sessions.append(
                (frac, self.session(wl, config, frac * base.makespan)))
            watch.split()
        return {"wl": wl, "config": config, "makespan": base.makespan,
                "sessions": sessions, "queries": queries(seed),
                "cow_bytes": 0}

    @staticmethod
    def _cow_bytes(sessions) -> int:
        return sum(s.stats()["cow_bytes_copied"] for _, s in sessions)

    @staticmethod
    def answer(session: WhatIf, frac: float, pert, span, watch: Stopwatch):
        """One uncached query as an :class:`Op`, plus its report (``None``
        when it raised)."""
        key = f"{frac}:{pert.key()}"
        try:
            report = span("bench.op", session.query, pert, False)
        except Exception as exc:  # noqa: BLE001 - classified and reported
            wall, scaled = watch.split()
            status = KNOWN_DEFECT if is_known_defect(pert, exc) else ERROR
            return Op(key, scaled, wall, status,
                      detail=f"{type(exc).__name__}: {exc}"), None
        wall, scaled = watch.split()
        return Op(key, scaled, wall,
                  digest=digest(_json(report.variant))), report

    def iteration(self, state, span, counts) -> List[Op]:
        ops = []
        watch = Stopwatch(span)
        for frac, session in state["sessions"]:
            for pert in state["queries"]:
                op, report = self.answer(session, frac, pert, span, watch)
                if report is not None:
                    counts["whatif.events_replayed"] += report.events_replayed
                if op.status == KNOWN_DEFECT:
                    counts["whatif.known_defect_raises"] += 1
                ops.append(op)
        cow = self._cow_bytes(state["sessions"])
        counts["whatif.cow_bytes_copied"] += cow - state["cow_bytes"]
        state["cow_bytes"] = cow
        return ops

    def isolated_digests(self, state, ops: List[Op]) -> Dict[str, str]:
        """Answers, each from a fresh session, to every query that came
        after a known-defect failure in its session."""
        out = {}
        for frac, _ in state["sessions"]:
            failed = False
            for pert in state["queries"]:
                key = f"{frac}:{pert.key()}"
                op = next(o for o in ops if o.key == key)
                if failed and op.status == OK:
                    fresh = self.session(state["wl"], state["config"],
                                         frac * state["makespan"])
                    out[key] = self.answer(fresh, frac, pert, _direct,
                                           Stopwatch(_direct))[0].digest
                failed = failed or op.status == KNOWN_DEFECT
        return out


def _direct(_name, fn, *args):
    return fn(*args)


WORKLOADS = {w.name: w for w in (PaperDynamic, StaticGrid, ObservedWhatIf)}
