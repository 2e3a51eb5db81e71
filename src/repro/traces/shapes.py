"""Synthetic memory-usage curve shapes.

Both trace generators (Google-like and Grizzly-like) need per-job memory
usage curves whose *peak* is controlled and whose *average* sits well
below the peak — the gap the dynamic policy exploits (paper §3.3.1:
"the average usage is much lower than the maximum usage, which opens up
room for improvements").

A curve is a sequence of plateaus (allocation phases) with one plateau at
the peak; phase levels are Beta-distributed fractions of the peak and
phase widths are Dirichlet-distributed, which yields average/peak ratios
around 0.4–0.6 — consistent with the heatmap pair in Fig. 4.
"""

from __future__ import annotations

import numpy as np

from ..jobs.usage import UsageTrace


def phased_usage(
    rng: np.random.Generator,
    peak_mb: int,
    duration: float,
    min_phases: int = 2,
    max_phases: int = 8,
    level_alpha: float = 2.0,
    level_beta: float = 3.0,
) -> UsageTrace:
    """A phased usage curve over ``[0, duration)`` with maximum ``peak_mb``.

    One phase is pinned to the peak; ramp-style growth is more likely than
    decay (allocation tends to grow over a job's life).
    """
    if peak_mb <= 0:
        return UsageTrace.constant(max(peak_mb, 0))
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    k = int(rng.integers(min_phases, max_phases + 1))
    levels = rng.beta(level_alpha, level_beta, size=k)
    # Bias towards growth: sort a random prefix ascending.
    if rng.random() < 0.6:
        split = int(rng.integers(1, k + 1))
        levels[:split] = np.sort(levels[:split])
    # Pin the peak phase; prefer a late phase (strong-scaling ramps).
    peak_idx = int(min(k - 1, rng.integers(k // 2, k))) if k > 1 else 0
    levels[peak_idx] = 1.0
    widths = rng.dirichlet(np.ones(k) * 2.0) * duration
    times = np.concatenate([[0.0], np.cumsum(widths)[:-1]])
    mem = np.maximum(np.round(levels * peak_mb), 1).astype(np.int64)
    # Merge zero-width segments defensively (Dirichlet can emit tiny ones).
    keep = np.concatenate([[True], times[1:] - times[:-1] > 1e-9])
    return UsageTrace(times[keep], mem[keep])


def flat_usage(peak_mb: int) -> UsageTrace:
    """Degenerate shape: constant usage at the peak (no reclaim possible)."""
    return UsageTrace.constant(peak_mb)


def spike_usage(
    rng: np.random.Generator, peak_mb: int, duration: float, base_frac: float = 0.3
) -> UsageTrace:
    """A mostly-flat curve with one short spike to the peak.

    The most favourable shape for dynamic provisioning; used by tests and
    ablations to bound the policy's best case.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    base = max(int(peak_mb * base_frac), 1)
    spike_start = float(rng.uniform(0.3, 0.8)) * duration
    spike_len = max(duration * 0.05, 1.0)
    spike_end = min(spike_start + spike_len, duration * 0.99)
    return UsageTrace(
        [0.0, spike_start, spike_end], [base, peak_mb, base]
    )
