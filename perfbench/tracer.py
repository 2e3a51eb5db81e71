"""In-memory span tracer wrapped around the public seams of ``repro``.

The traced run (``run.py --trace 1``) calls :func:`install`, which
replaces public functions and methods of each layer with wrappers that
record one span per call: name, start, end and the parent span.  Spans
stay in compact in-memory arrays and are written out once, at the end
(:meth:`Tracer.dump`).  A span's *self time* is its duration minus the
time its direct child spans cover, so the self times of all spans add
up to the traced wall time without double counting.

Nothing under ``src/`` knows about the tracer: every wrapper is set from
here, on module or class attributes.  Names copied into another module
by ``from ... import`` are wrapped where they are called.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Optional

#: Event kind -> handler span suffix (``scheduler.handler.<suffix>``).
HANDLER_NAMES = {
    "JOB_SUBMIT": "submit",
    "SCHED_PASS": "sched",
    "JOB_FINISH": "finish",
    "MEM_UPDATE": "mem_update",
    "JOB_KILL": "kill",
    "SAMPLE": "sample",
    "TELEMETRY": "telemetry",
}


class Tracer:
    """Nested spans plus work counters recorded at the same seams."""

    def __init__(self) -> None:
        self.names: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        #: open spans: [span id, name, time covered by direct children]
        self._stack: list = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: work counters that are not span counts (events, repairs, ...)
        self.counts: Counter = Counter()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``.

        A call made directly inside a span of the same name (a subclass
        method calling ``super()``) joins the open span instead of
        opening a second one, so each layer call is counted once.
        """
        stack = self._stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        # The span's slot is taken on entry, so its index is the id its
        # children record as their parent.
        span_id = len(self.span_end)
        self.span_name.append(self.names.setdefault(name, len(self.names)))
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [span_id, name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            self.span_start[span_id] = t0
            self.span_end[span_id] = t1

    def traced(self, name: str, fn: Callable,
               pre: Optional[Callable] = None,
               post: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``pre(args)`` / ``post(state, result,
        args)`` record work counters around the call."""
        call = self.call

        if pre is None and post is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
            return wrapper

        stack = self._stack

        @functools.wraps(fn)
        def wrapper_counted(*args, **kwargs):
            if stack and stack[-1][1] == name:  # joins the open span
                return fn(*args, **kwargs)
            state = pre(args) if pre is not None else None
            result = call(name, fn, *args, **kwargs)
            if post is not None:
                post(state, result, args)
            return result
        return wrapper_counted

    def wrap(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Replace ``owner.attr`` (module function, method or
        classmethod) with its traced version."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(self.traced(name, raw.__func__, pre, post)))
        else:
            setattr(owner, attr, self.traced(name, raw, pre, post))

    def totals(self) -> Dict[str, float]:
        """Flat snapshot of every counter, for per-iteration deltas."""
        out: Dict[str, float] = {}
        for name, n in self.calls.items():
            out[name + ".calls"] = n
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".total_s"] = self.total_s[name]
        out.update(self.counts)
        return out

    def dump(self, path) -> int:
        """Write every span to ``path`` (``.npz``); returns the count."""
        import numpy as np

        names = sorted(self.names, key=self.names.get)
        np.savez(
            path,
            names=np.array(names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_end)


def install(tracer: Tracer) -> None:
    """Wrap the public seams of every layer the benchmark reports."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.memorypool import MemoryPool, SortedFreeIndex
    from repro.core.engine import Engine
    from repro.experiments import campaign, parallel, runner
    from repro.jobs.usage import UsageTrace
    from repro.metrics.records import SimulationResult
    from repro.obs.blame import BlameAccumulator
    from repro.obs.provenance import ProvenanceLog
    from repro.obs.telemetry import Telemetry
    from repro.policies.base import AllocationPolicy
    from repro.policies.baseline import BaselinePolicy
    from repro.policies.dynamic import DynamicDisaggregatedPolicy
    from repro.policies.static import StaticDisaggregatedPolicy
    from repro.scheduler import controller, simulator
    from repro.slowdown.model import ContentionModel
    from repro.whatif import api as whatif_api
    from repro.whatif.snapshot import SimSnapshot

    counts = tracer.counts
    wrap = tracer.wrap

    def count_success(key):
        def post(_state, result, _args):
            if result is not None:
                counts[key] += 1
        return post

    # traces: generation through the runner's copy of the name.
    wrap(runner, "synthetic_workload", "traces.generate")
    wrap(UsageTrace, "max_in", "jobs.max_in")

    # policies: Monitor->Decider->Actuator and allocation planning.
    def count_resize(_state, outcome, _args):
        if outcome.resized:
            counts["policies.update.resized"] += 1

    for cls in (AllocationPolicy, DynamicDisaggregatedPolicy):
        wrap(cls, "update", "policies.update", post=count_resize)
    for cls in (BaselinePolicy, StaticDisaggregatedPolicy,
                DynamicDisaggregatedPolicy):
        wrap(cls, "plan", "policies.plan",
             post=count_success("policies.plan.ok"))

    # cluster: pool planning, whole-allocation ledger updates, and the
    # sorted-free index (its public repair/rebuild counters are rolled
    # back by what-if restores, so count the increments per sync call).
    wrap(MemoryPool, "plan_borrow", "cluster.pool.plan_borrow",
         post=count_success("cluster.pool.plan_borrow.ok"))
    wrap(Cluster, "apply", "cluster.apply_release")
    wrap(Cluster, "release", "cluster.apply_release")

    def index_pre(args):
        return args[0].repairs, args[0].rebuilds

    def index_post(state, _result, args):
        counts["cluster.index.repairs"] += args[0].repairs - state[0]
        counts["cluster.index.rebuilds"] += args[0].rebuilds - state[1]

    wrap(SortedFreeIndex, "nodes_in_order", "cluster.index.sync",
         pre=index_pre, post=index_post)

    # scheduler: one span per event handler (registered via Engine.on)
    # and the backfill shadow computation.
    engine_on = Engine.on

    def traced_on(engine, kind, handler):
        name = "scheduler.handler." + HANDLER_NAMES.get(kind.name,
                                                        kind.name.lower())
        engine_on(engine, kind, tracer.traced(name, handler))

    Engine.on = traced_on
    wrap(controller, "shadow_time", "scheduler.backfill")
    wrap(simulator, "simulate", "scheduler.simulate")
    wrap(runner, "simulate", "scheduler.simulate")

    # slowdown: contention repricing.
    wrap(ContentionModel, "slowdown", "slowdown.slowdown")
    wrap(ContentionModel, "affected_jobs", "slowdown.affected_jobs")

    # core: the dispatch loop; handler spans are its children, so its
    # self time is dispatch alone.
    def events_pre(args):
        return args[0].events_processed

    def events_post(before, _result, args):
        counts["core.events"] += args[0].events_processed - before

    wrap(Engine, "run", "core.run", pre=events_pre, post=events_post)

    # obs: provenance emission and every serialisation path.
    wrap(ProvenanceLog, "emit", "obs.emit")
    wrap(ProvenanceLog, "to_jsonl", "obs.serialize")
    wrap(BlameAccumulator, "to_dict", "obs.serialize")
    wrap(Telemetry, "export", "obs.serialize")
    wrap(whatif_api, "metrics_jsonl", "obs.serialize")
    wrap(whatif_api, "event_log_jsonl", "obs.serialize")

    # whatif: snapshot capture and O(changed) rollback.
    def pages_post(_state, pages, _args):
        counts["whatif.pages_restored"] += pages

    wrap(SimSnapshot, "capture", "whatif.capture")
    wrap(SimSnapshot, "restore", "whatif.restore", post=pages_post)
    wrap(whatif_api.WhatIf, "query", "whatif.query")

    # experiments + metrics: campaign loop, cached runner, summaries.
    def run_pre(_args):
        return tracer.calls["scheduler.simulate"]

    def run_post(sims_before, _result, _args):
        if tracer.calls["scheduler.simulate"] == sims_before:
            counts["experiments.run.cache_hits"] += 1

    wrap(campaign, "run_campaign", "experiments.campaign")
    wrap(runner, "run", "experiments.run", pre=run_pre, post=run_post)
    wrap(parallel, "run", "experiments.run", pre=run_pre, post=run_post)
    wrap(SimulationResult, "summary", "metrics.summary")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from counter totals (see BENCHMARK.json)."""

    def calls(name):
        return t.get(name + ".calls", 0)

    def self_s(name):
        return t.get(name + ".self_s", 0.0)

    out: Dict[str, float] = {}
    for name in ("traces.generate", "jobs.max_in", "policies.update",
                 "policies.plan", "cluster.pool.plan_borrow",
                 "cluster.apply_release", "cluster.index.sync",
                 "scheduler.backfill",
                 "slowdown.slowdown", "slowdown.affected_jobs",
                 "obs.emit", "obs.serialize", "whatif.capture",
                 "whatif.restore", "metrics.summary"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for kind in ("submit", "sched", "finish", "mem_update"):
        name = "scheduler.handler." + kind
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    out["policies.update.resize_ratio"] = _ratio(
        t.get("policies.update.resized", 0), calls("policies.update"))
    out["policies.plan.success_ratio"] = _ratio(
        t.get("policies.plan.ok", 0), calls("policies.plan"))
    out["cluster.pool.plan_borrow.success_ratio"] = _ratio(
        t.get("cluster.pool.plan_borrow.ok", 0),
        calls("cluster.pool.plan_borrow"))
    out["cluster.index.repairs"] = t.get("cluster.index.repairs", 0)
    out["cluster.index.rebuilds"] = t.get("cluster.index.rebuilds", 0)
    events = t.get("core.events", 0)
    out["core.events"] = events
    out["core.dispatch.self_s"] = self_s("core.run")
    out["core.host_us_per_event"] = _ratio(
        t.get("core.run.total_s", 0.0) * 1e6, events)
    out["experiments.campaign.self_s"] = self_s("experiments.campaign")
    out["experiments.run.calls"] = calls("experiments.run")
    out["experiments.result_cache_hit_ratio"] = _ratio(
        t.get("experiments.run.cache_hits", 0), calls("experiments.run"))
    for key in ("whatif.pages_restored", "whatif.cow_bytes_copied",
                "whatif.events_replayed", "whatif.known_defect_raises"):
        out[key] = t.get(key, 0)
    out["bench.unattributed_s"] = self_s("bench.op") + self_s("bench.setup")
    return out
