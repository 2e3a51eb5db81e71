"""Baseline policy: exclusive nodes, no disaggregation (paper §3.5).

A job may only start when its per-node memory request fits entirely in
the local DRAM of each selected node; nodes are CPU- and memory-exclusive
(no lending at all).  Node selection is best-fit by capacity class so that
large-memory nodes are preserved for large-memory jobs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.allocation import JobAllocation
from ..jobs.job import Job
from .base import AllocationPolicy


class BaselinePolicy(AllocationPolicy):
    """No disaggregated memory: the job gets whole nodes or nothing."""

    name = "baseline"
    uses_disaggregation = False
    is_dynamic = False

    def can_ever_run(self, job: Job) -> bool:
        fits = self.cluster.capacity_mb >= job.mem_request_mb
        return int(fits.sum()) >= job.n_nodes

    def plan(self, job: Job) -> Optional[JobAllocation]:
        c = self.cluster
        # An idle node still lending memory to a running disaggregated job
        # (after a mid-run policy swap) cannot give its whole DRAM away.
        candidates = (
            (~c.busy) & (c.lent_mb == 0) & (c.capacity_mb >= job.mem_request_mb)
        )
        idx = np.flatnonzero(candidates)
        if len(idx) < job.n_nodes:
            return None
        # Best fit: smallest capacity first, stable by index.
        order = np.argsort(c.capacity_mb[idx], kind="stable")
        chosen = idx[order[: job.n_nodes]]
        alloc = JobAllocation(nodes=[int(n) for n in chosen])
        for n in alloc.nodes:
            # Exclusive access: the job owns the node's entire DRAM
            # (Table 4 note: "Baseline allocation also considers exclusive
            # access to the memory").
            alloc.local_mb[n] = int(c.capacity_mb[n])
        return alloc
