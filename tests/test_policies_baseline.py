"""Baseline policy: exclusive nodes, no disaggregation."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import SystemConfig
from repro.policies.baseline import BaselinePolicy

from conftest import make_job


@pytest.fixture
def cluster(small_config):
    return Cluster(small_config)  # 8x128GB + 24x64GB


@pytest.fixture
def policy(cluster):
    return BaselinePolicy(cluster)


def test_flags(policy):
    assert not policy.uses_disaggregation
    assert not policy.is_dynamic
    assert policy.name == "baseline"


def test_can_ever_run_by_capacity(policy):
    assert policy.can_ever_run(make_job(request_mb=64 * 1024))
    assert policy.can_ever_run(make_job(request_mb=128 * 1024, n_nodes=8))
    assert not policy.can_ever_run(make_job(request_mb=128 * 1024, n_nodes=9))
    assert not policy.can_ever_run(make_job(request_mb=128 * 1024 + 1))


def test_plan_gets_exclusive_whole_node_memory(policy, cluster, small_config):
    alloc = policy.plan(make_job(request_mb=1000, n_nodes=2))
    assert alloc is not None
    assert len(alloc.nodes) == 2
    # Exclusive memory: the whole node is allocated regardless of request.
    for n in alloc.nodes:
        assert alloc.local_mb[n] == cluster.capacity_mb[n]
    assert alloc.total_remote() == 0


def test_plan_best_fit_prefers_small_nodes(policy, cluster):
    alloc = policy.plan(make_job(request_mb=1000, n_nodes=1))
    assert not cluster.is_large[alloc.nodes[0]]


def test_plan_uses_large_nodes_when_needed(policy, cluster):
    alloc = policy.plan(make_job(request_mb=100 * 1024, n_nodes=1))
    assert cluster.is_large[alloc.nodes[0]]


def test_plan_none_when_busy(policy, cluster):
    job = make_job(request_mb=100 * 1024, n_nodes=8)
    alloc = policy.plan(job)
    cluster.apply(job.jid, alloc)
    assert policy.plan(make_job(jid=2, request_mb=100 * 1024, n_nodes=1)) is None


def test_plan_never_splits_memory(policy):
    """Even an oversized request is all-or-nothing per node."""
    assert policy.plan(make_job(request_mb=129 * 1024, n_nodes=1)) is None


def test_plan_skips_idle_nodes_still_lending(policy, cluster):
    """An idle node lending DRAM to a disaggregated job cannot be given
    away whole (possible after a mid-run policy swap)."""
    from repro.policies.static import StaticDisaggregatedPolicy

    static = StaticDisaggregatedPolicy(cluster)
    borrower = make_job(jid=9, request_mb=200 * 1024)
    cluster.apply(9, static.plan(borrower))
    lenders = set(cluster.allocations[9].lender_ids())
    assert lenders
    alloc = policy.plan(make_job(jid=1, request_mb=1000, n_nodes=31 - len(lenders)))
    assert alloc is not None and not lenders & set(alloc.nodes)
    cluster.apply(1, alloc)
    cluster.check_invariants()


def test_mid_run_swap_to_baseline_completes():
    """Regression: a swap to baseline at 0.6 of the makespan raised
    ``AllocationError: node 15 has 2337MB free, need 32768MB`` because the
    planner handed out idle nodes still lending memory."""
    from repro.scheduler.simulator import simulate
    from repro.traces.pipeline import synthetic_workload
    from repro.whatif import SwapPolicy, WhatIf

    wl = synthetic_workload(n_jobs=150, n_system_nodes=64, seed=2)
    config = SystemConfig.from_memory_level(25, n_nodes=64)
    base = simulate(wl.fresh_jobs(), config, policy="dynamic",
                    profiles=wl.profiles)
    session = WhatIf(wl.fresh_jobs(), config, policy="dynamic",
                     at=0.6 * base.makespan, profiles=wl.profiles)
    report = session.query(SwapPolicy("baseline"))
    result = report.result
    assert result.policy == "baseline"
    assert result.n_completed + len(result.unrunnable) == 150
