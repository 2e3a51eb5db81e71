"""What-if forks must be byte-identical to fresh end-to-end runs.

The COW snapshot engine (repro.whatif) promises that a fork — rollback
to the fork point, inject a perturbation, replay the suffix — produces
*exactly* the simulation a fresh run with the perturbation baked in
would have produced: same records, same metrics, same telemetry stream,
same provenance.  These tests hold it to that promise, alongside unit
coverage of the fork cache, the snapshot-hygiene seams (tombstone
compaction, columnar shape guards), the sampler-livelock regression,
and the prefix-memoized campaign path built on t=0 forks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.config import SystemConfig
from repro.core.errors import SimulationError
from repro.core.events import EventKind, EventQueue
from repro.cluster.columns import NodeColumns
from repro.jobs.job import Job
from repro.jobs.usage import UsageTrace
from repro.obs.export import metrics_jsonl
from repro.obs.provenance import ProvenanceEvent
from repro.obs.telemetry import Telemetry, event_log_jsonl
from repro.scheduler.simulator import build_simulation, simulate
from repro.traces.pipeline import synthetic_workload
from repro.whatif import (
    AddMemNodes,
    ForkCache,
    SimSnapshot,
    SubmitJob,
    SwapPolicy,
    WhatIf,
)

CONFIG = SystemConfig.from_memory_level(100, n_nodes=48)


def _workload(n_jobs=60, n_nodes=48, seed=7):
    return synthetic_workload(
        n_jobs=n_jobs, n_system_nodes=n_nodes, seed=seed
    )


def _extra_job(jobs, at, n_nodes=4, runtime=1800.0, mem_mb=32768):
    """The job :class:`SubmitJob` would inject, as a fresh-run input."""
    jid = max(j.jid for j in jobs) + 1
    return Job(
        jid=jid,
        submit_time=at,
        n_nodes=n_nodes,
        base_runtime=runtime,
        walltime_limit=runtime * 1.5,
        mem_request_mb=mem_mb,
        usage=UsageTrace.constant(mem_mb),
        profile=0,
    )


def _record_key(r):
    return (r.jid, r.state, r.queue_time, r.start_time, r.finish_time)


# ----------------------------------------------------------------------
# Fork/replay parity with fresh end-to-end runs
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(frac=st.floats(0.05, 0.95), seed=st.integers(0, 3))
def test_submit_fork_matches_fresh_run(frac, seed):
    """A SubmitJob fork at a random point == the job baked in from t=0."""
    wl = _workload(n_jobs=40, seed=seed)
    base = simulate(wl.fresh_jobs(), CONFIG, policy="dynamic",
                    profiles=wl.profiles)
    at = frac * base.makespan
    if any(j.submit_time == at for j in wl.jobs):
        at += 0.5  # avoid submit-order ties (documented SubmitJob caveat)

    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=at,
                     profiles=wl.profiles)
    pert = SubmitJob(n_nodes=4, base_runtime=1800.0, mem_request_mb=32768)
    forked = session.query(pert).result

    jobs = wl.fresh_jobs()
    fresh = simulate(jobs + [_extra_job(jobs, at)], CONFIG,
                     policy="dynamic", profiles=wl.profiles)
    assert forked.records == fresh.records
    assert forked.summary() == fresh.summary()


def test_fork_parity_includes_observability():
    """Telemetry, provenance, blame and event streams all match."""
    wl = _workload()
    base = simulate(wl.fresh_jobs(), CONFIG, policy="dynamic",
                    profiles=wl.profiles)
    at = 0.4 * base.makespan
    pert = SubmitJob(n_nodes=4, base_runtime=1800.0, mem_request_mb=32768)

    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=at,
                     profiles=wl.profiles, telemetry=Telemetry(),
                     capture_observability=True)
    report = session.query(pert)

    jobs = wl.fresh_jobs()
    telemetry = Telemetry()
    handle = build_simulation(jobs + [_extra_job(jobs, at)], CONFIG,
                              policy="dynamic", profiles=wl.profiles,
                              telemetry=telemetry)
    fresh = handle.finish()

    assert report.result.records == fresh.records
    obs = report.observability
    assert obs["metrics_jsonl"] == metrics_jsonl(telemetry.registry)
    assert obs["provenance_jsonl"] == telemetry.provenance.to_jsonl()
    assert obs["blame"] == telemetry.blame.to_dict()
    assert obs["events_jsonl"] == event_log_jsonl(handle.event_log)


# ----------------------------------------------------------------------
# Observed sessions: queries encode only the replayed suffix
# ----------------------------------------------------------------------
#: One observed session answers these in a row (each reuses the prefix).
_OBSERVED_QUERIES = (
    SubmitJob(n_nodes=4, base_runtime=1800.0, mem_request_mb=32768),
    SwapPolicy("static"),
    SwapPolicy("baseline"),
    AddMemNodes(n_nodes=2, extra_mb_per_node=32768),
    SubmitJob(n_nodes=2, base_runtime=600.0, mem_request_mb=16384),
)


def _fresh_dumps(wl, at, pert, telemetry):
    """Full dumps of a fresh run paused at ``at`` and perturbed there,
    plus its ``(provenance, event log)`` eviction counts."""
    handle = build_simulation(wl.fresh_jobs(), CONFIG, policy="dynamic",
                              profiles=wl.profiles, telemetry=telemetry)
    handle.run_until(at, inclusive=False)
    pert.apply(handle)
    handle.finish()
    dumps = {
        "metrics_jsonl": metrics_jsonl(telemetry.registry),
        "provenance_jsonl": telemetry.provenance.to_jsonl(),
        "blame": telemetry.blame.to_dict(),
        "events_jsonl": event_log_jsonl(handle.event_log),
    }
    return dumps, (telemetry.provenance.dropped, handle.event_log.dropped)


def _observed_queries_match_fresh_runs(wl, at, **ring):
    """Ask every :data:`_OBSERVED_QUERIES` of one observed session and
    compare each report's dumps with a fresh run's; returns the fresh
    runs' eviction counts."""
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=at,
                     profiles=wl.profiles, telemetry=Telemetry(**ring),
                     capture_observability=True)
    evictions = []
    for pert in _OBSERVED_QUERIES:
        report = session.query(pert, use_cache=False)
        fresh, dropped = _fresh_dumps(wl, at, pert, Telemetry(**ring))
        assert report.observability == fresh, pert.key()
        evictions.append(dropped)
    return evictions


def _base_run(wl):
    """Makespan and ``(provenance, event log)`` totals of the base run."""
    telemetry = Telemetry()
    handle = build_simulation(wl.fresh_jobs(), CONFIG, policy="dynamic",
                              profiles=wl.profiles, telemetry=telemetry)
    result = handle.finish()
    return result.makespan, (telemetry.provenance.next_eid,
                             len(handle.event_log))


def test_observed_session_reuses_prefix_across_queries():
    wl = _workload()
    makespan, _ = _base_run(wl)
    evictions = _observed_queries_match_fresh_runs(wl, 0.5 * makespan)
    assert not any(p or e for p, e in evictions)


@pytest.mark.parametrize("ring_delta", [
    "half",  # the base run and every query evict
    -1,      # the base run evicts; the policy swaps log less and do not
    +1,      # only queries that add events evict
])
def test_observed_queries_survive_ring_eviction(ring_delta):
    """Ring buffers small enough that entries from before the fork are
    evicted after it, sized from the base run's provenance and event-log
    totals: each stream's prefix must be dropped wherever that happens."""
    wl = _workload()
    makespan, totals = _base_run(wl)
    n_prov, n_log = (
        n // 2 if ring_delta == "half" else n + ring_delta for n in totals
    )
    evictions = _observed_queries_match_fresh_runs(
        wl, 0.5 * makespan, max_prov_entries=n_prov, max_log_entries=n_log)
    submit, static_swap = evictions[0], evictions[1]
    assert submit[0] > 0 and submit[1] > 0
    assert (static_swap == (0, 0)) == (ring_delta != "half")


def test_reused_query_encodes_only_the_replayed_suffix(monkeypatch):
    wl = _workload()
    makespan, _ = _base_run(wl)
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic",
                     at=0.5 * makespan, profiles=wl.profiles,
                     telemetry=Telemetry(), capture_observability=True)
    fork_len = len(session.handle.controller.telemetry.provenance)
    encoded = []
    to_row = ProvenanceEvent.to_row

    def counting_to_row(event):
        encoded.append(event.eid)
        return to_row(event)

    monkeypatch.setattr(ProvenanceEvent, "to_row", counting_to_row)
    report = session.query(_OBSERVED_QUERIES[0])
    n_rows = report.observability["provenance_jsonl"].count("\n")
    assert 0 < fork_len < n_rows
    assert len(encoded) == n_rows - fork_len


def test_serializers_resume_from_an_encoded_prefix():
    """Default arguments dump everything; ``start``/``prefix`` with the
    encoding of the first ``start`` entries produce the same bytes."""
    wl = _workload()
    telemetry = Telemetry()
    handle = build_simulation(wl.fresh_jobs(), CONFIG, policy="dynamic",
                              profiles=wl.profiles, telemetry=telemetry)
    handle.finish()
    reg, prov, log = telemetry.registry, telemetry.provenance, handle.event_log

    def lines(text, a, b):
        return "".join(text.splitlines(keepends=True)[a:b])

    full = metrics_jsonl(reg)
    head = len(reg.counters) + len(reg.gauges) + len(reg.histograms)
    k = len(reg.series) // 3
    assert metrics_jsonl(reg, k, lines(full, head, head + k)) == full
    full = prov.to_jsonl()
    k = len(prov) // 3
    assert prov.to_jsonl(k, lines(full, 0, k)) == full
    full = event_log_jsonl(log)
    k = len(log) // 3
    assert event_log_jsonl(log, k, lines(full, 0, k)) == full


#: Queries asked in a row of one session at memory level 25, where the
#: suffix borrows, releases and OOM-kills: each restore must roll back
#: the lender and compute-node rows that the previous query's remote ops
#: wrote.
_BORROWING_QUERIES = (
    SubmitJob(n_nodes=16, base_runtime=3600.0, mem_request_mb=65536),
    AddMemNodes(n_nodes=4, extra_mb_per_node=65536),
    SwapPolicy("static"),
    SubmitJob(n_nodes=4, base_runtime=900.0, mem_request_mb=16384),
)


def _oom_kills(telemetry):
    counter = telemetry.registry.counters.get("oom_kills")
    return counter.value if counter else 0


def test_borrowing_session_matches_fresh_runs(monkeypatch):
    # One-node COW pages: a row written without its own touch cannot
    # hide behind a neighbour's touch on the same page.
    arm_cow = Cluster.arm_cow
    monkeypatch.setattr(Cluster, "arm_cow",
                        lambda cluster, page_nodes=None: arm_cow(cluster, 1))
    config = SystemConfig.from_memory_level(25, n_nodes=256)
    wl = synthetic_workload(n_jobs=200, frac_large=0.5, n_system_nodes=256,
                            seed=1)
    base = simulate(wl.fresh_jobs(), config, policy="dynamic",
                    profiles=wl.profiles)
    at = 0.1 * base.makespan
    session = WhatIf(wl.fresh_jobs(), config, policy="dynamic", at=at,
                     profiles=wl.profiles)
    remote_ops = {"borrow": 0, "release": 0}
    resize = Cluster.resize

    def counting_resize(cluster, jid, ops, alloc=None):
        for _, lender, mb in ops:
            if lender >= 0:
                remote_ops["borrow" if mb > 0 else "release"] += 1
        return resize(cluster, jid, ops, alloc)

    kills = 0
    for pert in _BORROWING_QUERIES:
        forked = session.query(pert, use_cache=False).result
        telemetry = Telemetry()
        handle = build_simulation(wl.fresh_jobs(), config, policy="dynamic",
                                  profiles=wl.profiles, telemetry=telemetry)
        handle.run_until(at, inclusive=False)
        kills -= _oom_kills(telemetry)
        pert.apply(handle)
        monkeypatch.setattr(Cluster, "resize", counting_resize)
        fresh = handle.finish()
        monkeypatch.setattr(Cluster, "resize", resize)
        kills += _oom_kills(telemetry)
        assert forked.records == fresh.records, pert.key()
        assert forked.summary() == fresh.summary(), pert.key()
    # The suffixes really exercised the pool.
    assert remote_ops["borrow"] > 0 and remote_ops["release"] > 0
    assert kills > 0


def test_golden_large_cluster_parity():
    """The 1024-node golden check from the issue's acceptance criteria."""
    wl = synthetic_workload(n_jobs=200, n_system_nodes=1024, seed=11)
    config = SystemConfig.from_memory_level(100, n_nodes=1024)
    base = simulate(wl.fresh_jobs(), config, policy="dynamic",
                    profiles=wl.profiles)
    at = 0.6 * base.makespan
    session = WhatIf(wl.fresh_jobs(), config, policy="dynamic", at=at,
                     profiles=wl.profiles)
    pert = SubmitJob(n_nodes=64, base_runtime=3600.0, mem_request_mb=131072)
    forked = session.query(pert).result
    jobs = wl.fresh_jobs()
    fresh = simulate(jobs + [_extra_job(jobs, at, n_nodes=64,
                                        runtime=3600.0, mem_mb=131072)],
                     config, policy="dynamic", profiles=wl.profiles)
    assert forked.records == fresh.records
    assert forked.summary() == fresh.summary()


def test_session_stays_reusable_across_queries():
    """Queries leave the simulation parked at the fork point: the same
    query re-run (uncached) reproduces itself exactly."""
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    pert = SubmitJob(n_nodes=2, base_runtime=600.0, mem_request_mb=16384)
    first = session.query(pert, use_cache=False)
    session.query(AddMemNodes(2, 32768), use_cache=False)  # interleave
    again = session.query(pert, use_cache=False)
    assert first.result.records == again.result.records
    assert first.variant == again.variant


def test_swap_to_same_policy_is_identity():
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    report = session.query(SwapPolicy("dynamic"))
    assert all(d == 0.0 for d in report.deltas.values())


def test_add_memnodes_requires_idle_nodes():
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    with pytest.raises(SimulationError):
        session.query(AddMemNodes(10_000, 1024))


@pytest.mark.parametrize("n_nodes, extra_mb", [(-3, 65536), (0, 65536),
                                               (2, 0), (2, -1024)])
def test_add_memnodes_rejects_non_positive_sizes(n_nodes, extra_mb):
    with pytest.raises(ValueError):
        AddMemNodes(n_nodes, extra_mb)


@pytest.mark.parametrize("fields", [
    dict(n_nodes=0, base_runtime=3600.0, mem_request_mb=65536),
    dict(n_nodes=4, base_runtime=-5.0, mem_request_mb=65536),
    dict(n_nodes=4, base_runtime=float("nan"), mem_request_mb=65536),
    dict(n_nodes=4, base_runtime=3600.0, mem_request_mb=-1),
])
def test_submit_job_rejects_malformed_requests(fields):
    with pytest.raises(ValueError):
        SubmitJob(**fields)


def test_cow_fork_touches_few_pages():
    """A small perturbation on a big cluster copies a fraction of it."""
    wl = synthetic_workload(n_jobs=40, n_system_nodes=512, seed=5)
    config = SystemConfig.from_memory_level(100, n_nodes=512)
    session = WhatIf(wl.fresh_jobs(), config, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    session.query(SubmitJob(n_nodes=2, base_runtime=600.0,
                            mem_request_mb=16384))
    store = session.handle.cluster._cow
    assert 0 < store.bytes_copied < store.full_copy_bytes()


# ----------------------------------------------------------------------
# Fork cache
# ----------------------------------------------------------------------
def test_fork_cache_hit_returns_same_report():
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    pert = SubmitJob(n_nodes=2, base_runtime=600.0, mem_request_mb=16384)
    first = session.query(pert)
    second = session.query(pert)
    assert second is first
    assert session.replays == 1 and session.queries == 2
    assert session.cache.stats()["hits"] == 1


def test_fork_cache_miss_on_different_perturbation():
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    session.query(SubmitJob(n_nodes=2, base_runtime=600.0,
                            mem_request_mb=16384))
    session.query(SubmitJob(n_nodes=3, base_runtime=600.0,
                            mem_request_mb=16384))
    assert session.replays == 2
    assert session.cache.stats()["misses"] == 2


def test_fork_cache_eviction_is_lru():
    cache = ForkCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a"
    cache.put("c", 3)  # evicts "b" (cold end)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.stats()["evictions"] == 1
    assert len(cache) == 2


def test_fork_cache_capacity_validation():
    with pytest.raises(ValueError):
        ForkCache(capacity=0)


# ----------------------------------------------------------------------
# Snapshot hygiene seams
# ----------------------------------------------------------------------
def test_queue_compaction_drops_tombstones_before_snapshot():
    q = EventQueue()
    events = [q.push(float(i), EventKind.JOB_SUBMIT, payload=i)
              for i in range(10)]
    for ev in events[::2]:
        q.cancel(ev)
    assert len(q) == 5
    entries = q.snapshot_entries()  # compacts first
    assert len(entries) == 5
    assert not q._dead and len(q._heap) == 5
    assert sorted(e[3] for e in entries) == [1, 3, 5, 7, 9]
    # restore round-trips pop order and the live-kind counts
    q2 = EventQueue()
    q2.restore_entries(entries, seq=q._seq)
    assert [ev.payload for ev in q2.drain()] == [1, 3, 5, 7, 9]


def test_queue_live_kind_counts_survive_cancel_and_pop():
    q = EventQueue()
    s = q.push(10.0, EventKind.SAMPLE)
    q.push(20.0, EventKind.TELEMETRY)
    q.push(5.0, EventKind.JOB_FINISH)
    assert q.has_live_excluding(EventKind.SAMPLE, EventKind.TELEMETRY)
    q.pop()  # the JOB_FINISH
    assert not q.has_live_excluding(EventKind.SAMPLE, EventKind.TELEMETRY)
    assert q.has_live_excluding(EventKind.SAMPLE)
    q.cancel(s)
    assert not q.has_live_excluding(EventKind.TELEMETRY)


def test_dual_sampler_chains_terminate():
    """Regression: SAMPLE + TELEMETRY chains used to livelock forever.

    With both periodic chains active, each chain's reschedule predicate
    (``len(queue) > 0``) saw the *other* chain's next event after the
    workload drained, so they sustained each other indefinitely.
    """
    wl = _workload(n_jobs=5, n_nodes=16)
    config = SystemConfig.from_memory_level(100, n_nodes=16)
    res = simulate(wl.fresh_jobs(), config, policy="dynamic",
                   profiles=wl.profiles, sample_interval=300.0,
                   telemetry=Telemetry(sample_interval=300.0),
                   max_events=500_000)
    assert res.events_processed < 500_000  # terminated on its own
    assert res.all_jobs_ran()


def test_columns_restore_rejects_foreign_snapshot():
    cap8 = np.full(8, 65536, dtype=np.int64)
    cap4 = np.full(4, 65536, dtype=np.int64)
    big = NodeColumns(cap8.copy(), np.zeros(8, dtype=bool))
    small = NodeColumns(cap4.copy(), np.zeros(4, dtype=bool))
    snap = big.snapshot()
    with pytest.raises(ValueError, match="does not belong"):
        small.restore(snap)
    # ... and nothing was partially overwritten
    small.validate()


def test_columns_restore_rejects_wrong_dtype():
    cap = np.full(4, 65536, dtype=np.int64)
    store = NodeColumns(cap.copy(), np.zeros(4, dtype=bool))
    snap = store.snapshot()
    snap["free_local"] = snap["free_local"].astype(np.float64)
    with pytest.raises(ValueError, match="dtype"):
        store.restore(snap)


def test_capture_rearms_cow_and_invalidates_prior_snapshot():
    wl = _workload()
    handle = build_simulation(wl.fresh_jobs(), CONFIG, policy="dynamic",
                              profiles=wl.profiles)
    handle.run_until(5000.0, inclusive=False)
    snap = SimSnapshot.capture(handle)
    assert handle.cluster._cow is snap._cow
    handle.run_until(9000.0, inclusive=False)
    snap2 = SimSnapshot.capture(handle)
    assert snap2._cow is handle.cluster._cow
    assert snap2._cow is not snap._cow  # old snapshot's store retired


# ----------------------------------------------------------------------
# Prefix-memoized campaign path (t=0 policy forks)
# ----------------------------------------------------------------------
def test_policy_group_rows_match_per_cell_runs():
    from repro.experiments import runner
    from repro.experiments.parallel import _run_chunk, raw_result

    runner.clear_caches()
    from repro.experiments.scenarios import Scenario

    grid = [Scenario(policy=p, n_nodes=48, n_jobs=50, seed=2)
            for p in ("baseline", "static", "dynamic")]
    grouped = _run_chunk(grid, collect_telemetry=True)
    runner.clear_caches()
    per_cell = [raw_result(sc, collect_telemetry=True) for sc in grid]
    for g, c in zip(grouped, per_cell):
        g, c = dict(g), dict(c)
        g.pop("elapsed_s"), c.pop("elapsed_s")
        assert g == c
    runner.clear_caches()


def test_run_grid_worker_clamp_stays_on_pool_path(monkeypatch, caplog):
    import logging

    from repro.experiments import parallel, runner

    runner.clear_caches()
    from repro.experiments.scenarios import Scenario

    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
    grid = [Scenario(policy="static", n_nodes=48, n_jobs=50, seed=2)]
    with caplog.at_level(logging.WARNING, logger=parallel.__name__):
        raw = parallel.run_grid(grid, workers=8)
    assert any("clamping" in r.message for r in caplog.records)
    assert parallel.scenario_key(grid[0]) in raw
    runner.clear_caches()


# ----------------------------------------------------------------------
# On-disk trace cache
# ----------------------------------------------------------------------
def test_trace_cache_roundtrip(tmp_path, monkeypatch):
    from repro.traces import cache as tc

    monkeypatch.setenv(tc.TRACE_CACHE_ENV, str(tmp_path))
    wl = _workload(n_jobs=10, n_nodes=16)
    key = tc.cache_key("base_workload", "synthetic", 16, 10)
    assert tc.load_workload(key) is None  # cold
    assert tc.store_workload(key, wl)
    back = tc.load_workload(key)
    assert back is not None
    assert [j.jid for j in back.jobs] == [j.jid for j in wl.jobs]
    assert pickle.dumps(back.jobs) == pickle.dumps(wl.jobs)


def test_trace_cache_corrupt_entry_is_a_miss(tmp_path, monkeypatch):
    from repro.traces import cache as tc

    monkeypatch.setenv(tc.TRACE_CACHE_ENV, str(tmp_path))
    key = tc.cache_key("x")
    (tmp_path / f"trace-{key}.pkl").write_bytes(b"not a pickle")
    assert tc.load_workload(key) is None


def test_trace_cache_disabled_without_env(monkeypatch):
    from repro.traces import cache as tc

    monkeypatch.delenv(tc.TRACE_CACHE_ENV, raising=False)
    wl = _workload(n_jobs=5, n_nodes=16)
    assert tc.cache_dir() is None
    assert not tc.store_workload(tc.cache_key("y"), wl)
    assert tc.load_workload(tc.cache_key("y")) is None
