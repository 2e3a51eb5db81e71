"""Tick-batched Monitor→Decider→Actuator and the range-max kernels.

The vectorised usage queries must equal the scalar ones element-wise
(ties at breakpoints included), and one ``update_tick`` over a tick's
running jobs must leave exactly the state that the scalar per-job loop
leaves — ledgers, allocations, free log, RNG stream, outcomes —
including borrows, OOM kills and noisy monitoring.  The plan-then-commit
Actuator must equal the per-node path with one scalar funnel call per
change, and one ``Cluster.resize`` commit must equal its ops applied one
at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.cluster.memorypool import STRATEGIES
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
    # rank imbalance: uniform, a heavy first rank, or a heavy last rank
    # (earlier light ranks shrink and release lenders that the heavy
    # last rank may re-borrow in the same tick)
    st.sampled_from([None, "first", "last"]),
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
        if imbalanced == "first" and n_nodes > 1:
            job.node_scale = (1.0,) + (0.5,) * (n_nodes - 1)
        elif imbalanced == "last" and n_nodes > 1:
            job.node_scale = (0.5,) * (n_nodes - 1) + (1.0,)
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
    _reference_actuate(policy, job.jid, alloc, deltas, out)
    if not out.oom:
        out.resized = out.freed_mb > 0 or out.grown_mb > 0
    return out


def _reference_actuate(policy, jid, alloc, deltas, out):
    """The per-node Actuator path that plan-then-commit replaced: one
    scalar funnel call per change, borrowing against the live ledger."""
    with policy.cluster.defer_demand():
        for node, delta in deltas:
            if delta < 0:
                _reference_shrink(policy.cluster, jid, alloc, node, -delta, out)
            elif not _reference_grow(policy, jid, alloc, node, delta, out):
                out.oom = True
                break


def _reference_shrink(c, jid, alloc, node, excess, out):
    """Release ``excess`` MB on ``node``: remote first, then local."""
    remote_map = alloc.remote_mb.get(node)
    if remote_map:
        # Most-loaded lenders first.
        for lender in sorted(remote_map, key=lambda l: -remote_map[l]):
            if excess <= 0:
                break
            give = min(remote_map[lender], excess)
            c.remove_remote(jid, node, lender, give, alloc=alloc)
            out.freed_mb += give
            out.touched_nodes.append(lender)
            excess -= give
    if excess > 0:
        local = alloc.local_mb.get(node, 0)
        give = min(local, excess)
        if give > 0:
            c.shrink_local(jid, node, give, alloc=alloc)
            out.freed_mb += give
            out.touched_nodes.append(node)


def _reference_grow(policy, jid, alloc, node, deficit, out):
    """Acquire ``deficit`` MB on ``node``: local first, then remote;
    ``False`` when the pool cannot cover the remainder (OOM)."""
    c = policy.cluster
    free_local = int(
        c.capacity_mb[node] - c.local_used_mb[node] - c.lent_mb[node]
    )
    take = min(free_local, deficit)
    if take > 0:
        c.grow_local(jid, node, take, alloc=alloc)
        out.grown_mb += take
        out.touched_nodes.append(node)
        deficit -= take
    if deficit == 0:
        return True
    # Any node but this one may lend — including the job's own nodes.
    plan = policy.pool.plan_borrow(deficit, exclude=[node], near=node)
    if plan is None:
        return False
    for lender, mb in plan:
        c.add_remote(jid, node, lender, mb, alloc=alloc)
        out.grown_mb += mb
        out.touched_nodes.append(lender)
    return True


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


def _ledgers(cluster):
    return (
        cluster.local_used_mb.tolist(), cluster.lent_mb.tolist(),
        cluster.remote_held_mb.tolist(), cluster.free_local().tolist(),
        {jid: a.snapshot_state() for jid, a in cluster.allocations.items()},
        [dict(d) for d in cluster.lender_jobs], list(cluster._free_log),
        cluster.generation, cluster.memory_node_count,
        cluster.startable_count,
    )


def _state(cluster, policy):
    return _ledgers(cluster) + (
        dict(policy._observed_peak), policy._monitor_rng.bit_generator.state,
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


#: Two jobs where, at progress 0, job 1's nodes 4 and 5 return memory to
#: lender 7 and its heavy last rank (node 6) then borrows from 7 again.
REBORROW_SPECS = [(3, 34_000, [75_000, 20_000, 60_000, 500, 60_000], None),
                  (3, 38_000, [75_000, 40_000], "last")]


def test_update_tick_reborrows_a_lender_released_in_the_same_tick(
        monkeypatch):
    commits = []
    resize = Cluster.resize

    def spy(cluster, jid, ops, alloc=None):
        commits.append(list(ops))
        return resize(cluster, jid, ops, alloc)

    monkeypatch.setattr(Cluster, "resize", spy)
    worlds = [_world(REBORROW_SPECS, 0.0, 0) for _ in range(2)]
    results = []
    for (cluster, policy, jobs), run in zip(worlds, (_sequential, _batched)):
        del commits[:]
        results.append(run(cluster, policy, jobs, [0.0] * 2, [300.0] * 2))
        cluster.check_invariants()
    assert results[0] == results[1]
    assert _state(*worlds[0][:2]) == _state(*worlds[1][:2])

    def reborrows(ops):
        released = set()
        for _, lender, mb in ops:
            if lender >= 0 and mb > 0 and lender in released:
                return True
            if lender >= 0 and mb < 0:
                released.add(lender)
        return False

    assert any(map(reborrows, commits))


# ----------------------------------------------------------------------
# Plan-then-commit Actuator == the per-node scalar path
# ----------------------------------------------------------------------
def _borrowing_world(draw):
    """A cluster where job 1 holds local and borrowed memory (lenders may
    be its own nodes), beside a job 2 that fills some other nodes."""
    nodes = draw(st.lists(st.integers(0, 9), min_size=2, max_size=4,
                          unique=True))
    local = {n: draw(st.sampled_from([0, 8_000, 16_000, 24_000, 30_000]))
             for n in nodes}
    remote = {}
    for n in nodes:
        lenders = draw(st.lists(st.integers(0, 9).filter(lambda l: l != n),
                                max_size=2, unique=True))
        if lenders:
            remote[n] = {l: draw(st.sampled_from([1, 4_000, 12_000]))
                         for l in lenders}
    others = [n for n in range(10) if n not in nodes]
    filler = draw(st.lists(st.sampled_from(others), max_size=4, unique=True))
    fill_mb = draw(st.sampled_from([0, 16_000, 30_000]))
    deltas = []
    for n in nodes:
        held = local[n] + sum(remote.get(n, {}).values())
        delta = draw(st.sampled_from([-held, -(held // 2), -1, 1, 5_000,
                                      20_000, 40_000]))
        if delta:
            deltas.append((n, delta))
    strategy = draw(st.sampled_from(STRATEGIES))

    def build():
        cluster = Cluster(CONFIG)
        policy = DynamicDisaggregatedPolicy(cluster)
        policy.pool.strategy = strategy
        if filler:
            cluster.apply(2, JobAllocation(
                nodes=filler, local_mb={n: fill_mb for n in filler}))
        alloc = JobAllocation(nodes=list(nodes), local_mb=dict(local),
                              remote_mb={n: dict(m) for n, m in remote.items()})
        cluster.apply(1, alloc)
        return cluster, policy, alloc

    return build, deltas


def _actuate_both(build, deltas):
    """Run the Actuator and the reference path on twin worlds."""
    (c1, p1, a1), (c2, p2, a2) = build(), build()
    out1, out2 = UpdateOutcome(), UpdateOutcome()
    if deltas:
        p1._actuate(1, a1, np.array([n for n, _ in deltas], dtype=np.int64),
                    np.array([d for _, d in deltas], dtype=np.int64), out1)
    _reference_actuate(p2, 1, a2, deltas, out2)
    c1.check_invariants()
    assert vars(out1) == vars(out2)
    assert _state(c1, p1) == _state(c2, p2)
    return c1, out1


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_actuate_equals_scalar_per_node_path(data):
    try:
        build, deltas = _borrowing_world(data.draw)
        build()
    except AllocationError:
        return  # the drawn layout over-commits a node
    _actuate_both(build, deltas)


def test_actuate_reborrows_a_lender_released_in_the_same_tick():
    """Node 2 returns 20 GB to memory node 5; node 3 then borrows 18 GB,
    and node 5 — now the most-free node — lends it back in the same
    commit.  Node 5 stops and starts being a memory node within one
    commit, and the job's lender_jobs entry is deleted and re-added."""
    def build():
        cluster = Cluster(CONFIG)
        policy = DynamicDisaggregatedPolicy(cluster)
        others = [0, 1, 4, 6, 7, 8, 9]
        cluster.apply(2, JobAllocation(nodes=others, local_mb={
            n: int(cluster.capacity_mb[n]) - 8_000 for n in others}))
        alloc = JobAllocation(nodes=[2, 3], local_mb={2: 8_000, 3: 30_000},
                              remote_mb={2: {5: 20_000}})
        cluster.apply(1, alloc)
        assert cluster.is_memory_node()[5]
        return cluster, policy, alloc

    free_3 = 32 * 1024 - 30_000
    cluster, out = _actuate_both(build, [(2, -20_000), (3, free_3 + 18_000)])
    assert out.touched_nodes == [5, 3, 5]
    assert cluster.allocations[1].remote_mb == {3: {5: 18_000}}
    assert cluster.is_memory_node()[5]
    assert cluster._free_log[-3:] == [5, 3, 5]


def test_actuate_commits_the_ops_planned_before_an_oom():
    def build():
        cluster = Cluster(CONFIG)
        policy = DynamicDisaggregatedPolicy(cluster)
        alloc = JobAllocation(nodes=[2, 3], local_mb={2: 30_000, 3: 1_000})
        cluster.apply(1, alloc)
        return cluster, policy, alloc

    cluster, out = _actuate_both(build, [(2, -10_000), (3, 10**7)])
    assert out.oom and out.freed_mb == 10_000
    assert cluster.allocations[1].local_mb == {2: 20_000, 3: 32 * 1024}


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
# One columnar commit == its ops through the one-op funnels
# ----------------------------------------------------------------------
def _one_op(cluster, node, lender, mb):
    if lender < 0:
        (cluster.grow_local if mb > 0 else cluster.shrink_local)(
            1, node, abs(mb))
    else:
        (cluster.add_remote if mb > 0 else cluster.remove_remote)(
            1, node, lender, abs(mb))


def _funnel_world():
    cluster = Cluster(CONFIG)
    cluster.apply(1, JobAllocation(
        nodes=[0, 2, 3], local_mb={0: 20_000, 2: 8_000, 3: 4_000},
        remote_mb={2: {5: 20_000, 3: 2_000}}))
    cluster.apply(2, JobAllocation(nodes=[6], local_mb={6: 10_000}))
    return cluster


op_strategy = st.tuples(
    st.sampled_from([0, 2, 3, 4]),                  # compute node (4: not)
    st.sampled_from([-1, -1, 0, 3, 5, 6, 7]),       # lender (-1: local)
    st.sampled_from([-20_000, -9_000, -2_000, -1, 1, 2_000, 9_000,
                     17_000, 40_000]),
)


@given(ops=st.lists(op_strategy, max_size=12))
@settings(max_examples=200, deadline=None)
def test_resize_equals_its_ops_one_at_a_time(ops):
    """Columns, aggregates, memory-node counts, free log, generation,
    lender_jobs and allocation maps (with their dict orders and sealed
    caches) equal the one-op funnels applied in order."""
    single, bulk = _funnel_world(), _funnel_world()
    valid = []
    for node, lender, mb in ops:
        try:
            _one_op(single, node, lender, mb)
        except AllocationError:
            continue
        valid.append((node, lender, mb))
    touched = bulk.resize(1, valid)
    assert touched == [n if l < 0 else l for n, l, _ in valid]
    bulk.check_invariants()
    assert _ledgers(bulk) == _ledgers(single)
    assert bulk.free_log_overflows == single.free_log_overflows


@pytest.mark.parametrize("op", [
    (0, -1, 0),
    (0, -1, -20_001),
    (0, -1, 10**9),
    (4, -1, 100),
    (2, 2, 100),
    (2, 5, -20_001),
    (2, 7, -1),
    (0, 6, 30_000),
], ids=["zero", "shrink-beyond-held", "grow-beyond-free",
        "not-a-compute-node", "self-lend", "return-beyond-borrowed",
        "return-unborrowed", "borrow-beyond-lender-free"])
def test_resize_rejects_invalid_op_before_writing(op):
    """An invalid op raises before anything is written, even after
    valid ops in the same commit."""
    cluster = _funnel_world()
    before = _ledgers(cluster)
    with pytest.raises(AllocationError):
        cluster.resize(1, [(3, -1, 100), (0, 5, 1_000), op])
    assert _ledgers(cluster) == before
    cluster.check_invariants()


def test_resize_checks_ops_against_the_running_state():
    """Each op is checked after the ops before it: a lender may lend
    what an earlier op returned to it, but not more than it then has."""
    cluster = _funnel_world()
    free_5 = int(cluster.free_local()[5])
    cluster.resize(1, [(2, 5, -20_000), (3, 5, free_5 + 20_000)])
    with pytest.raises(AllocationError):
        cluster.resize(1, [(0, -1, 1), (0, -1, -20_002)])
    cluster.check_invariants()


def test_one_op_funnels_reject_non_positive_mb():
    cluster = _funnel_world()
    for call in (lambda: cluster.grow_local(1, 0, -5),
                 lambda: cluster.shrink_local(1, 0, 0),
                 lambda: cluster.add_remote(1, 0, 5, -1),
                 lambda: cluster.remove_remote(1, 2, 5, 0),
                 lambda: cluster.add_remote(1, 0, -1, 100)):
        with pytest.raises(AllocationError):
            call()
