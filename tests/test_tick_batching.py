"""Tick-batched Monitor→Decider→Actuator and the range-max kernels.

The vectorised usage queries must equal the scalar ones element-wise
(ties at breakpoints included), and one ``update_tick`` over a tick's
running jobs must leave exactly the state that the scalar per-job loop
leaves — ledgers, allocations, free log, RNG stream, outcomes —
including borrows, OOM kills and noisy monitoring.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.config import SystemConfig
from repro.core.errors import AllocationError, TraceError
from repro.jobs.usage import PackedUsage, UsageTrace
from repro.policies.base import UpdateOutcome
from repro.policies.dynamic import DynamicDisaggregatedPolicy

from conftest import make_job

# ----------------------------------------------------------------------
# Range-max kernels
# ----------------------------------------------------------------------
gaps = st.one_of(
    st.floats(1e-6, 1e-3), st.floats(0.5, 600.0), st.floats(1e5, 1e7)
)
trace_strategy = st.lists(
    st.tuples(gaps, st.integers(0, 200_000)), min_size=1, max_size=9
).map(lambda pts: UsageTrace(
    np.concatenate([[0.0], np.cumsum([g for g, _ in pts[1:]])]),
    [m for _, m in pts],
))


def _probe_points(trace, extra):
    """Breakpoints exactly, their neighbours, out-of-range and random."""
    t = trace.times
    return np.concatenate([
        t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
        [-1.0, t[-1] + 1.0, t[-1] * 2 + 5.0], extra,
    ])


@given(trace=trace_strategy,
       extra=st.lists(st.floats(-10.0, 2e7), max_size=10),
       window=st.floats(0.0, 1e6))
@settings(max_examples=150, deadline=None)
def test_many_kernels_equal_scalar(trace, extra, window):
    ps = _probe_points(trace, extra)
    assert trace.usage_at_many(ps).tolist() == [trace.usage_at(p) for p in ps]
    p1 = ps + window
    assert trace.max_in_many(ps, p1).tolist() == [
        trace.max_in(a, b) for a, b in zip(ps, p1)
    ]


@given(traces=st.lists(trace_strategy, min_size=1, max_size=8),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_packed_queries_equal_scalar(traces, data):
    packed = PackedUsage(traces)
    # One query per curve, drawn at or next to a breakpoint or anywhere.
    p0 = []
    for tr in traces:
        base = data.draw(st.sampled_from(tr.times.tolist() + [-3.0, 1e9]))
        nudge = data.draw(st.sampled_from([-np.inf, 0.0, np.inf]))
        p0.append(base if nudge == 0.0 else float(np.nextafter(base, nudge)))
    p0 = np.array(p0)
    p1 = p0 + np.array([
        data.draw(st.sampled_from([0.0, 1e-6, 300.0, 1e6])) for _ in traces
    ])
    assert packed.usage_at(p0).tolist() == [
        tr.usage_at(p) for tr, p in zip(traces, p0)
    ]
    assert packed.max_in(p0, p1).tolist() == [
        tr.max_in(a, b) for tr, a, b in zip(traces, p0, p1)
    ]


def test_max_in_many_rejects_empty_window():
    trace = UsageTrace([0.0, 10.0], [1, 2])
    with pytest.raises(TraceError):
        trace.max_in_many([5.0], [4.0])


# ----------------------------------------------------------------------
# update_tick == the scalar per-job loop, job by job
# ----------------------------------------------------------------------
CONFIG = SystemConfig(n_nodes=10, normal_mem_gb=32, large_mem_gb=64,
                      frac_large_nodes=0.25)

job_strategy = st.tuples(
    st.integers(1, 3),                                   # nodes
    st.integers(4_000, 40_000),                          # request MB
    st.lists(st.integers(500, 150_000), min_size=1, max_size=5),  # phases
    st.booleans(),                                       # imbalanced ranks
)


def _world(specs, noise, headroom):
    """A cluster with the specified jobs started where they fit."""
    cluster = Cluster(CONFIG)
    policy = DynamicDisaggregatedPolicy(
        cluster, monitor_noise=noise, headroom_mb=headroom, monitor_seed=7)
    jobs = []
    for jid, (n_nodes, request, phases, imbalanced) in enumerate(specs):
        job = make_job(jid=jid, n_nodes=n_nodes, runtime=3000.0,
                       request_mb=request)
        job.usage = UsageTrace(np.arange(len(phases)) * 400.0, phases)
        if imbalanced and n_nodes > 1:
            job.node_scale = (1.0,) + (0.5,) * (n_nodes - 1)
        alloc = policy.plan(job)
        if alloc is not None:
            cluster.apply(jid, alloc)
            jobs.append(job)
    return cluster, policy, jobs


def _reference_update(policy, job, progress, window):
    """The scalar per-job Monitor→Decider→Actuator step that the batch
    replaced: scalar usage queries and RNG draws, per-rank rounding and
    the per-node actuation path for every node."""
    out = UpdateOutcome()
    c = policy.cluster
    alloc = c.allocations.get(job.jid)
    if job.jid in policy._pinned or alloc is None:
        return out
    reference = job.usage.max_in(progress, progress + window)
    if policy.monitor_noise > 0.0:
        noise = 1.0 + policy._monitor_rng.normal(0.0, policy.monitor_noise)
        observed = int(round(reference * max(noise, 0.0)))
        reference = max(observed, job.usage.usage_at(progress))
    reference += policy.headroom_mb
    if reference > policy._observed_peak.get(job.jid, 0):
        policy._observed_peak[job.jid] = reference
    deltas = []
    for rank, node in enumerate(alloc.nodes):
        demand = reference
        if job.node_scale is not None:
            scale = job.node_scale[rank % len(job.node_scale)]
            demand = int(round(reference * scale))
        delta = demand - int(c.local_used_mb[node] + c.remote_held_mb[node])
        if delta:
            deltas.append((node, delta))
    with c.defer_demand():
        for node, delta in deltas:
            if delta < 0:
                policy._shrink(job.jid, alloc, node, -delta, out)
            elif not policy._grow(job.jid, alloc, node, delta, out):
                out.oom = True
                break
    if not out.oom:
        out.resized = out.freed_mb > 0 or out.grown_mb > 0
    return out


def _sequential(cluster, policy, jobs, progresses, windows):
    outs = []
    for job, p, w in zip(jobs, progresses, windows):
        out = _reference_update(policy, job, p, w)
        if out.oom:  # the controller's kill releases before the next job
            cluster.release(job.jid)
        outs.append((job.jid, out))
    return _effective(outs)


def _batched(cluster, policy, jobs, progresses, windows):
    outs = []
    for job, out in policy.update_tick(jobs, progresses, windows):
        if out.oom:
            cluster.release(job.jid)
        outs.append((job.jid, out))
    return _effective(outs)


def _effective(outs):
    """Outcomes the controller acts on (an empty one changes nothing)."""
    empty = vars(UpdateOutcome())
    return [(jid, vars(o)) for jid, o in outs if vars(o) != empty]


def _state(cluster, policy):
    return (
        cluster.local_used_mb.tolist(), cluster.lent_mb.tolist(),
        cluster.remote_held_mb.tolist(), cluster.free_local().tolist(),
        {jid: a.snapshot_state() for jid, a in cluster.allocations.items()},
        [dict(d) for d in cluster.lender_jobs], list(cluster._free_log),
        cluster.generation, cluster.memory_node_count,
        cluster.startable_count, dict(policy._observed_peak),
        policy._monitor_rng.bit_generator.state,
    )


@given(specs=st.lists(job_strategy, min_size=1, max_size=8),
       ticks=st.lists(st.floats(0.0, 2400.0), min_size=1, max_size=4),
       noise=st.sampled_from([0.0, 0.1]),
       headroom=st.sampled_from([0, 512]))
@settings(max_examples=80, deadline=None)
def test_update_tick_equals_scalar_per_job_loop(specs, ticks, noise, headroom):
    worlds = [_world(specs, noise, headroom) for _ in range(2)]
    for progress in ticks:
        results = []
        for (cluster, policy, jobs), run in zip(
                worlds, (_sequential, _batched)):
            live = [j for j in jobs if j.jid in cluster.allocations]
            results.append(run(cluster, policy, live,
                               [progress] * len(live), [300.0] * len(live)))
            cluster.check_invariants()
        (seq, bat) = results
        assert seq == bat
        assert _state(*worlds[0][:2]) == _state(*worlds[1][:2])


def test_update_tick_skips_pinned_and_unallocated(small_config):
    cluster = Cluster(small_config)
    policy = DynamicDisaggregatedPolicy(cluster)
    jobs = [make_job(jid=j, request_mb=20_000, peak_mb=5_000) for j in range(3)]
    for job in jobs[:2]:
        cluster.apply(job.jid, policy.plan(job))
    policy._pinned.add(0)
    resized = [job.jid for job, out in
               policy.update_tick(jobs, [0.0] * 3, [300.0] * 3)]
    assert resized == [1]


# ----------------------------------------------------------------------
# Bulk local-resize funnel
# ----------------------------------------------------------------------
def test_resize_local_many_matches_per_node_funnels(small_config):
    bulk, single = Cluster(small_config), Cluster(small_config)
    for c in (bulk, single):
        policy = DynamicDisaggregatedPolicy(c)
        c.apply(1, policy.plan(make_job(jid=1, n_nodes=3, request_mb=20_000)))
    nodes = np.array(bulk.allocations[1].nodes, dtype=np.int64)
    deltas = np.array([-5_000, 7_000, -20_000], dtype=np.int64)
    bulk.resize_local_many(1, nodes, deltas)
    for node, delta in zip(nodes.tolist(), deltas.tolist()):
        if delta < 0:
            single.shrink_local(1, node, -delta)
        else:
            single.grow_local(1, node, delta)
    assert _state(bulk, policy)[:10] == _state(single, policy)[:10]
    bulk.check_invariants()


@pytest.mark.parametrize("delta", [0, -20_001, 10**9])
def test_resize_local_many_rejects_invalid(small_config, delta):
    cluster = Cluster(small_config)
    policy = DynamicDisaggregatedPolicy(cluster)
    cluster.apply(1, policy.plan(make_job(jid=1, request_mb=20_000)))
    node = cluster.allocations[1].nodes[0]
    with pytest.raises(AllocationError):
        cluster.resize_local_many(1, np.array([node]), np.array([delta]))
