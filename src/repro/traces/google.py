"""Google Borg 2019-like trace generator (paper §3.1.3, [40, 42]).

The paper consumes the public 2019 Borg trace of cell *b* as a donor of
per-job **memory-usage shapes**: jobs are filtered down to best-effort
batch work that finished normally, memory (normalised to the largest
machine) is denormalised assuming 12 TB, and each 5-minute window's
maximum usage defines the usage level for that period.

We cannot ship the trace, so this module generates records with the same
schema and statistics that matter downstream: priority tiers, scheduling
classes, task counts, end statuses, runtimes, and phase-structured
memory-usage windows (5-minute average + maximum, normalised to [0, 1]).
The filtering/denormalisation pipeline then operates exactly as described
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Sequence

import numpy as np

from ..core.errors import TraceError
from ..core.rng import SeedLike, ensure_rng
from ..core.units import HOUR, MB_PER_GB
from ..jobs.usage import UsageTrace
from .shapes import phased_usage

#: Window length of the Borg usage table (paper: 5-minute windows).
WINDOW_S = 300.0

#: Assumed capacity of the largest machine, used for denormalisation
#: (paper: "the maximum capacity of a system in operation at the time was
#: 12 TB, so we used this figure").
DENORM_CAPACITY_MB = 12 * 1024 * MB_PER_GB


class Tier(Enum):
    """Borg priority tiers (coarse 2019-trace grouping)."""

    FREE = "free"
    BEST_EFFORT_BATCH = "best-effort-batch"
    MID = "mid"
    PRODUCTION = "production"
    MONITORING = "monitoring"


class EndStatus(Enum):
    FINISH = "finish"
    KILL = "kill"
    FAIL = "fail"
    EVICT = "evict"


@dataclass
class GoogleJob:
    """One Borg-like job with its windowed memory-usage table."""

    job_id: int
    tier: Tier
    scheduling_class: int
    n_tasks: int
    runtime: float
    end_status: EndStatus
    #: per 5-minute window, normalised to the largest machine [0, 1]
    avg_usage: np.ndarray = field(repr=False, default=None)
    max_usage: np.ndarray = field(repr=False, default=None)

    @property
    def peak_memory_mb(self) -> int:
        """Denormalised peak memory (MB) across all windows."""
        if self.max_usage is None or len(self.max_usage) == 0:
            return 0
        return int(round(float(self.max_usage.max()) * DENORM_CAPACITY_MB))

    def usage_trace(self) -> UsageTrace:
        """Denormalised usage curve: each window's **maximum** defines the
        usage level for that period (paper §3.2.2)."""
        if self.max_usage is None or len(self.max_usage) == 0:
            raise TraceError(f"google job {self.job_id} has no usage windows")
        times = np.arange(len(self.max_usage), dtype=np.float64) * WINDOW_S
        mem = np.round(self.max_usage * DENORM_CAPACITY_MB).astype(np.int64)
        # Merge equal consecutive windows for compactness.
        keep = np.concatenate([[True], np.diff(mem) != 0])
        return UsageTrace(times[keep], mem[keep])


_TIER_WEIGHTS = {
    Tier.FREE: 0.10,
    Tier.BEST_EFFORT_BATCH: 0.55,  # cell b: largest batch proportion [40]
    Tier.MID: 0.10,
    Tier.PRODUCTION: 0.20,
    Tier.MONITORING: 0.05,
}

_END_WEIGHTS = {
    EndStatus.FINISH: 0.70,
    EndStatus.KILL: 0.20,
    EndStatus.FAIL: 0.08,
    EndStatus.EVICT: 0.02,
}


def _clip(x: float, lo: float, hi: float) -> float:
    """Scalar ``np.clip`` (same value, without the array round trip)."""
    return min(max(x, lo), hi)


def generate(
    n_jobs: int,
    seed: SeedLike = None,
    median_runtime_s: float = 2 * HOUR,
    runtime_sigma: float = 1.3,
    median_peak_gb: float = 8.0,
    peak_sigma: float = 1.6,
    max_tasks: int = 512,
) -> List[GoogleJob]:
    """Generate a Borg-like job population with usage windows."""
    if n_jobs <= 0:
        raise TraceError(f"n_jobs must be positive, got {n_jobs}")
    rng = ensure_rng(seed)
    tiers = list(_TIER_WEIGHTS)
    tier_p = np.array(list(_TIER_WEIGHTS.values()))
    ends = list(_END_WEIGHTS)
    end_p = np.array(list(_END_WEIGHTS.values()))
    jobs: List[GoogleJob] = []
    for jid in range(n_jobs):
        tier = tiers[rng.choice(len(tiers), p=tier_p)]
        end = ends[rng.choice(len(ends), p=end_p)]
        sched_class = int(rng.integers(0, 4))
        runtime = float(
            _clip(
                rng.lognormal(np.log(median_runtime_s), runtime_sigma),
                WINDOW_S,
                14 * 24 * HOUR,
            )
        )
        n_tasks = int(_clip(np.round(rng.lognormal(np.log(8), 1.2)), 1, max_tasks))
        peak_mb = int(
            _clip(
                rng.lognormal(np.log(median_peak_gb * MB_PER_GB), peak_sigma),
                64,
                130 * MB_PER_GB,
            )
        )
        curve = phased_usage(rng, peak_mb, runtime)
        n_windows = max(int(np.ceil(runtime / WINDOW_S)), 1)
        t0 = np.arange(n_windows) * WINDOW_S
        t1 = np.minimum(t0 + WINDOW_S, runtime)
        maxima = curve.max_in_many(t0, t1).astype(np.float64)
        # Window averages: sample the curve mid-window (cheap, adequate).
        avgs = curve.usage_at_many((t0 + t1) / 2).astype(np.float64)
        avgs = np.minimum(avgs, maxima)
        jobs.append(
            GoogleJob(
                job_id=jid,
                tier=tier,
                scheduling_class=sched_class,
                n_tasks=n_tasks,
                runtime=runtime,
                end_status=end,
                avg_usage=avgs / DENORM_CAPACITY_MB,
                max_usage=maxima / DENORM_CAPACITY_MB,
            )
        )
    return jobs


def filter_batch(jobs: Sequence[GoogleJob]) -> List[GoogleJob]:
    """The paper's donor filter: best-effort batch, latency-insensitive,
    finished normally at least once (§3.2.2)."""
    return [
        j
        for j in jobs
        if j.tier is Tier.BEST_EFFORT_BATCH
        and j.scheduling_class <= 1
        and j.end_status is EndStatus.FINISH
    ]
