"""Dynamic disaggregated-memory policy (paper §2.2–2.3).

The initial allocation equals the submission-time request, exactly as in
the static policy.  Once the job runs, the Monitor reports its usage and
the Decider compares usage against the current allocation every update
window (~5 simulated minutes):

* usage **below** allocation → the Actuator deallocates the surplus,
  *remote memory first, then local*;
* usage **above** allocation → the Actuator allocates the deficit,
  *locally if possible, then remotely*, maximising the local-to-remote
  ratio;
* deficit unsatisfiable (the pool is exhausted) → **out of memory**: the
  job is terminated, its resources released, and it is resubmitted
  (Fail/Restart by default, Checkpoint/Restart optionally).

Fairness mitigation (paper §2.2): after ``max_oom_failures`` kills a job
is started with a *static, guaranteed* allocation and is no longer
resized.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cluster.allocation import JobAllocation
from ..cluster.cluster import Cluster
from ..core.rng import ensure_rng
from ..jobs.job import Job
from ..jobs.usage import PackedUsage
from .base import UpdateOutcome
from .static import StaticDisaggregatedPolicy


class DynamicDisaggregatedPolicy(StaticDisaggregatedPolicy):
    """Usage-tracking reallocation on top of the static admission rule."""

    name = "dynamic"
    uses_disaggregation = True
    is_dynamic = True

    def __init__(
        self,
        cluster: Cluster,
        headroom_mb: int = 0,
        max_oom_failures: int = 3,
        checkpoint_restart: bool = False,
        monitor_noise: float = 0.0,
        monitor_seed: int = 0,
        oom_priority_boost: bool = False,
        checkpoint_interval: Optional[float] = None,
    ):
        super().__init__(cluster)
        if headroom_mb < 0:
            raise ValueError(f"negative headroom {headroom_mb}")
        if max_oom_failures < 0:
            raise ValueError(f"negative max_oom_failures {max_oom_failures}")
        if monitor_noise < 0:
            raise ValueError(f"negative monitor_noise {monitor_noise}")
        self.headroom_mb = headroom_mb
        self.max_oom_failures = max_oom_failures
        self.checkpoint_restart = checkpoint_restart
        #: relative std-dev of the Monitor's usage readings (0 = perfect;
        #: real LDMS-style telemetry is sampled and noisy — ablation knob)
        self.monitor_noise = monitor_noise
        self._monitor_rng = ensure_rng(monitor_seed)
        #: paper §2.2 fairness mitigation: restarted jobs keep their
        #: original queue priority instead of re-queuing at the tail
        self.oom_priority_boost = oom_priority_boost
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        #: with C/R: work seconds between periodic checkpoints (None =
        #: an idealised checkpoint exactly at the kill point)
        self.checkpoint_interval = checkpoint_interval
        #: jobs pinned to a static guaranteed allocation after repeated OOMs
        self._pinned: Set[int] = set()
        #: highest per-node demand seen before each job's OOM kills
        self._observed_peak: dict[int, int] = {}
        #: per-job rank-scale vector aligned with ``alloc.nodes`` (a
        #: job's node_scale never changes, so this is computed once)
        self._rank_scale_cache: Dict[int, Optional[np.ndarray]] = {}
        #: batch geometry of the last tick's running set (a memo keyed on
        #: allocation identity, so forks need not capture it)
        self._layout: Optional[_TickLayout] = None

    # ------------------------------------------------------------------
    def _request_of(self, job: Job) -> int:
        """Pinned jobs are admitted with the demand that killed them, so
        the guaranteed allocation actually covers the observed usage."""
        if job.jid in self._pinned:
            return max(job.mem_request_mb, self._observed_peak.get(job.jid, 0))
        return job.mem_request_mb

    def plan(self, job: Job) -> Optional[JobAllocation]:
        if job.restarts >= self.max_oom_failures:
            self._pinned.add(job.jid)
        return super().plan(job)

    def is_pinned(self, job: Job) -> bool:
        return job.jid in self._pinned

    def on_finish(self, job: Job) -> None:
        self._pinned.discard(job.jid)
        self._observed_peak.pop(job.jid, None)
        self._rank_scale_cache.pop(job.jid, None)

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["pinned"] = set(self._pinned)
        state["observed_peak"] = dict(self._observed_peak)
        state["rank_scale_cache"] = {
            jid: (None if v is None else v.copy())
            for jid, v in self._rank_scale_cache.items()
        }
        # Generator state dicts are built fresh on access; hold as-is.
        state["monitor_rng"] = self._monitor_rng.bit_generator.state
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._pinned = set(state["pinned"])
        self._observed_peak = dict(state["observed_peak"])
        self._rank_scale_cache = {
            jid: (None if v is None else v.copy())
            for jid, v in state["rank_scale_cache"].items()
        }
        self._monitor_rng.bit_generator.state = state["monitor_rng"]

    # ------------------------------------------------------------------
    def update(self, job: Job, progress: float, window: float) -> UpdateOutcome:
        """One Monitor → Decider → Actuator step for one running job: a
        batch of one through :meth:`update_tick`."""
        outs = [out for _, out in self.update_tick([job], [progress], [window])]
        return outs[0] if outs else UpdateOutcome()

    def update_tick(
        self, jobs: Sequence[Job], progresses: Sequence[float],
        windows: Sequence[float],
    ) -> Iterator[Tuple[Job, UpdateOutcome]]:
        """One Monitor → Decider → Actuator step for a tick's running jobs.

        ``jobs`` arrive in job-id order with their work positions and the
        progress span until the next update; each enforced demand is the
        maximum usage in that span (paper §2.3).  Monitor and Decider run
        once over the whole batch — exact, because a job's per-node
        totals change only through its own actuation (nodes are
        CPU-exclusive).  The Actuator then resizes job by job, in order,
        yielding ``(job, outcome)`` for each job with a non-zero decision.
        It is a generator so that the caller settles one job's outcome (an
        OOM kill releases memory other jobs may borrow) before the next
        job actuates.  Phases run under ``self.obs.phase(...)``: Monitor
        and Decider once per tick, the Actuator once per resized job.
        """
        batch = [
            (job, p, w) for job, p, w in zip(jobs, progresses, windows)
            if job.jid not in self._pinned
            and job.jid in self.cluster.allocations
        ]
        if not batch:
            return
        jobs = [b[0] for b in batch]
        allocs = [self.cluster.allocations[job.jid] for job in jobs]
        layout = self._tick_layout(jobs, allocs)
        with self.obs.phase("monitor"):
            refs = self._monitor(jobs, layout.usage,
                                 np.array([b[1] for b in batch]),
                                 np.array([b[2] for b in batch]))
        with self.obs.phase("decider"):
            deltas = self._decide(layout, refs)
        prov = self.obs.provenance
        for k in np.unique(layout.owner[np.flatnonzero(deltas)]).tolist():
            job, alloc = jobs[k], allocs[k]
            lo, hi = layout.bounds[k], layout.bounds[k + 1]
            mask = deltas[lo:hi] != 0
            nodes, job_deltas = layout.nodes[lo:hi][mask], deltas[lo:hi][mask]
            if prov.enabled:
                # Decider verdict, parented on the job's last lifecycle
                # event; the resulting pool/cluster events hang off it.
                prov.scope = prov.emit(
                    "decide",
                    jid=job.jid,
                    reference_mb=int(refs[k]),
                    n_deltas=len(job_deltas),
                    grow_mb=int(job_deltas[job_deltas > 0].sum()),
                    shrink_mb=int(-job_deltas[job_deltas < 0].sum()),
                )
            out = UpdateOutcome()
            with self.obs.phase("actuator"):
                self._actuate(job.jid, alloc, nodes, job_deltas, out)
            if not out.oom:
                out.resized = out.freed_mb > 0 or out.grown_mb > 0
            yield job, out

    def _tick_layout(self, jobs: List[Job],
                     allocs: List[JobAllocation]) -> "_TickLayout":
        """The batch geometry for ``jobs``, rebuilt only when the set of
        running allocations changes (starts, finishes, kills, restores)."""
        layout = self._layout
        if layout is None or layout.key != tuple(map(id, allocs)):
            layout = self._layout = _TickLayout(
                jobs, allocs,
                [self._rank_scales(job, len(a.nodes))
                 for job, a in zip(jobs, allocs)],
            )
        return layout

    def _monitor(self, jobs: List[Job], usage: PackedUsage,
                 progress: np.ndarray, window: np.ndarray) -> np.ndarray:
        """Monitor: the usage readings the Decider will act on."""
        refs = usage.max_in(progress, progress + window)
        if self.monitor_noise > 0.0:
            # Noisy telemetry: the Decider sees a perturbed reading, but
            # never below the memory resident right now (the Monitor
            # cannot report less than what is mapped).  One draw per job
            # in job order, as a vector: the same stream as scalar draws.
            noise = 1.0 + self._monitor_rng.normal(
                0.0, self.monitor_noise, size=len(jobs))
            observed = np.rint(refs * np.maximum(noise, 0.0)).astype(np.int64)
            refs = np.maximum(observed, usage.usage_at(progress))
        refs = refs + self.headroom_mb
        peak = self._observed_peak
        for job, ref in zip(jobs, refs.tolist()):
            if ref > peak.get(job.jid, 0):
                peak[job.jid] = ref
        return refs

    def _rank_scales(self, job: Job, n_ranks: int) -> Optional[np.ndarray]:
        """Rank-scale vector for ``job`` (``None`` = uniform 1.0)."""
        try:
            return self._rank_scale_cache[job.jid]
        except KeyError:
            pass
        if job.node_scale is None:
            scales = None
        else:
            base = np.asarray(job.node_scale, dtype=np.float64)
            scales = base[np.arange(n_ranks) % len(base)]
        self._rank_scale_cache[job.jid] = scales
        return scales

    def _decide(self, layout: "_TickLayout", refs: np.ndarray) -> np.ndarray:
        """Decider: per-node resize deltas (MB) over the batch's nodes.

        A job's per-node totals are exactly ``local_used_mb +
        remote_held_mb`` on its (CPU-exclusive) nodes.  Per-node demand
        is the job's reading, scaled by rank where ranks have imbalanced
        footprints (paper Fig. 1a); ``np.rint`` rounds half-to-even like
        ``round``, and a unit scale reproduces the reading exactly.
        """
        demands = np.repeat(refs, layout.lengths)
        if layout.scales is not None:
            demands = np.rint(demands * layout.scales).astype(np.int64)
        c = self.cluster
        nodes = layout.nodes
        return demands - (c.local_used_mb[nodes] + c.remote_held_mb[nodes])

    def _actuate(self, jid: int, alloc: JobAllocation, nodes: np.ndarray,
                 deltas: np.ndarray, out: UpdateOutcome) -> None:
        """Actuator: plan one job's decided resizes, then commit them.

        The plan walks the nodes in order on a scratch copy of the free
        vector.  A shrink releases remote memory first, from the
        most-loaded lender, then local memory; a grow takes local memory
        first and borrows the rest through the pool.  Any node but the
        grower may lend, including the job's own later nodes and lenders
        that its earlier nodes just released.  A grow the pool cannot
        cover is an OOM; the ops planned before it still commit.  The
        commit is one :meth:`Cluster.resize`, under ``defer_demand`` so
        its demand notification fires as one sorted flush.
        """
        c = self.cluster
        free = c.free_local().copy()
        ops: List[Tuple[int, int, int]] = []
        synced = 0  # ``free`` reflects every remote op and ops[:synced]
        for node, delta in zip(nodes.tolist(), deltas.tolist()):
            if delta < 0:
                excess = -delta
                remote_map = alloc.remote_mb.get(node)
                if remote_map:
                    # Most-loaded lenders first, so memory nodes recover
                    # their ability to start jobs sooner.
                    for lender in sorted(remote_map,
                                         key=lambda l: -remote_map[l]):
                        give = min(remote_map[lender], excess)
                        ops.append((node, lender, -give))
                        free[lender] += give
                        excess -= give
                        if excess == 0:
                            break
                give = min(alloc.local_mb.get(node, 0), excess)
                if give > 0:
                    ops.append((node, -1, -give))
                continue
            take = min(free.item(node), delta)
            if take > 0:
                ops.append((node, -1, take))
            if take == delta:
                continue
            # A local op changes only its own node's free DRAM, which
            # matters from here on only as a lender's: sync them now.
            for n, lender, mb in ops[synced:]:
                if lender < 0:
                    free[n] -= mb
            synced = len(ops)
            lenders = self.pool.plan_borrow(
                delta - take, exclude=[node], near=node, free=free)
            if lenders is None:
                out.oom = True
                break
            for lender, mb in lenders:
                ops.append((node, lender, mb))
                free[lender] -= mb
            synced = len(ops)
        grown = freed = 0
        for _, _, mb in ops:
            if mb > 0:
                grown += mb
            else:
                freed -= mb
        out.grown_mb, out.freed_mb = grown, freed
        with c.defer_demand():
            out.touched_nodes = c.resize(jid, ops, alloc=alloc)


class _TickLayout:
    """Concatenated geometry of one tick's monitored jobs.

    ``nodes`` concatenates the jobs' compute nodes (job ``k`` owns
    ``nodes[bounds[k]:bounds[k + 1]]``), ``scales`` the matching rank
    scales (``None`` when every job is uniform), and ``usage`` packs the
    jobs' usage curves.  ``key`` identifies the allocations it was built
    from; holding them keeps those ids from being reused.
    """

    __slots__ = ("key", "allocs", "usage", "nodes", "lengths", "bounds",
                 "owner", "scales")

    def __init__(self, jobs: List[Job], allocs: List[JobAllocation],
                 scales: List[Optional[np.ndarray]]):
        self.allocs = allocs
        self.key = tuple(map(id, allocs))
        self.usage = PackedUsage([job.usage for job in jobs])
        per_job = [a.nodes_array() for a in allocs]
        self.nodes = np.concatenate(per_job)
        self.lengths = np.fromiter(map(len, per_job), np.int64, len(per_job))
        self.bounds = np.concatenate([[0], np.cumsum(self.lengths)]).tolist()
        self.owner = np.repeat(np.arange(len(per_job)), self.lengths)
        self.scales = None
        if any(sc is not None for sc in scales):
            self.scales = np.concatenate([
                np.ones(len(n)) if sc is None else sc
                for sc, n in zip(scales, per_job)
            ])
