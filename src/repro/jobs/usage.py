"""Per-job memory-usage traces.

A :class:`UsageTrace` is a piecewise-constant function of *job progress*
(work seconds, not wall seconds): ``mem_mb[i]`` holds on
``[times[i], times[i+1])`` and the last value holds to the end of the job.
This matches the paper's simulator extension (§2.3): the memory demand for
a window is *the maximum usage in the trace between the current progress
and the next update*.

Traces can be compressed with the Ramer–Douglas–Peucker algorithm
(:mod:`repro.traces.rdp`), as the paper does for the Grizzly and Google
traces.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from ..core.errors import TraceError


class UsageTrace:
    """Piecewise-constant per-node memory usage versus job progress."""

    __slots__ = ("times", "mem_mb")

    def __init__(self, times: Sequence[float], mem_mb: Sequence[float]):
        t = np.asarray(times, dtype=np.float64)
        m = np.asarray(mem_mb, dtype=np.int64)
        if t.ndim != 1 or m.ndim != 1 or len(t) != len(m) or len(t) == 0:
            raise TraceError("times and mem_mb must be equal-length 1-D, non-empty")
        if t[0] != 0.0:
            raise TraceError(f"trace must start at progress 0, got {t[0]}")
        if (t[1:] <= t[:-1]).any():
            raise TraceError("trace times must be strictly increasing")
        if (m < 0).any():
            raise TraceError("memory usage cannot be negative")
        self.times = t
        self.mem_mb = m

    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, mem_mb: int) -> "UsageTrace":
        """A flat trace using ``mem_mb`` for the whole job."""
        return cls([0.0], [mem_mb])

    @classmethod
    def from_points(cls, points: Iterable[Tuple[float, float]]) -> "UsageTrace":
        pts = sorted(points)
        return cls([p[0] for p in pts], [p[1] for p in pts])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def usage_at(self, progress: float) -> int:
        """Memory in use at job progress ``progress`` (clamped to ends)."""
        idx = int(np.searchsorted(self.times, progress, side="right")) - 1
        if idx < 0:
            idx = 0
        return int(self.mem_mb[idx])

    def max_in(self, p0: float, p1: float) -> int:
        """Maximum usage over progress window ``[p0, p1]``.

        This is the demand the Decider enforces for the window (§2.3).
        """
        if p1 < p0:
            raise TraceError(f"empty window [{p0}, {p1}]")
        i0 = max(int(np.searchsorted(self.times, p0, side="right")) - 1, 0)
        i1 = max(int(np.searchsorted(self.times, p1, side="right")) - 1, i0)
        return int(self.mem_mb[i0 : i1 + 1].max())

    def usage_at_many(self, ps) -> np.ndarray:
        """Vectorised :meth:`usage_at` over an array of progress points."""
        idx = np.searchsorted(self.times, ps, side="right") - 1
        return self.mem_mb[np.maximum(idx, 0)]

    def max_in_many(self, p0s, p1s) -> np.ndarray:
        """Vectorised :meth:`max_in` over windows ``[p0s[k], p1s[k]]``."""
        p0s = np.asarray(p0s, dtype=np.float64)
        p1s = np.asarray(p1s, dtype=np.float64)
        if (p1s < p0s).any():
            raise TraceError("empty window in max_in_many")
        i0 = np.maximum(np.searchsorted(self.times, p0s, side="right") - 1, 0)
        i1 = np.maximum(np.searchsorted(self.times, p1s, side="right") - 1, i0)
        return range_max(np.append(self.mem_mb, 0), i0, i1)

    def peak(self) -> int:
        """Maximum usage over the whole job."""
        return int(self.mem_mb.max())

    def mean(self, duration: float) -> float:
        """Time-weighted average usage over ``[0, duration]``."""
        if duration <= 0:
            raise TraceError(f"duration must be positive, got {duration}")
        t = np.minimum(self.times, duration)
        widths = np.diff(np.append(t, duration))
        mean = float((self.mem_mb * widths).sum() / duration)
        # Clamp float round-off: the mean can never exceed the peak.
        return min(mean, float(self.peak()))

    # ------------------------------------------------------------------
    def rescaled(self, old_duration: float, new_duration: float) -> "UsageTrace":
        """Rescale the time axis from a job of ``old_duration`` to one of
        ``new_duration`` seconds.

        Used when grafting a donor (Google) usage curve onto a job with a
        different wallclock length (paper §3.2.2: "we scaled the runtime of
        the memory trace to match the wallclock duration of the job").
        """
        if old_duration <= 0 or new_duration <= 0:
            raise TraceError("durations must be positive")
        if float(self.times[-1]) > old_duration:
            raise TraceError(
                f"trace spans {self.times[-1]}s beyond duration {old_duration}s"
            )
        factor = new_duration / old_duration
        return UsageTrace(self.times * factor, self.mem_mb.copy())

    def scaled_mem(self, factor: float) -> "UsageTrace":
        """Scale the memory axis by ``factor`` (e.g. to match a target peak)."""
        if factor < 0:
            raise TraceError(f"negative memory scale {factor}")
        return UsageTrace(
            self.times.copy(), np.round(self.mem_mb * factor).astype(np.int64)
        )

    def compressed(self, epsilon_mb: float) -> "UsageTrace":
        """RDP-compress the trace with a vertical tolerance ``epsilon_mb``.

        Uses the vertical-distance RDP variant: time (seconds) and memory
        (MB) are incommensurable axes, and the tolerance is in MB.
        """
        from ..traces.rdp import VERTICAL, rdp_indices

        if len(self.times) <= 2:
            return UsageTrace(self.times.copy(), self.mem_mb.copy())
        pts = np.column_stack([self.times, self.mem_mb.astype(np.float64)])
        keep = rdp_indices(pts, epsilon_mb, metric=VERTICAL)
        return UsageTrace(self.times[keep], self.mem_mb[keep])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"UsageTrace({len(self.times)} points, peak={self.peak()}MB, "
            f"span={self.times[-1]:.0f}s)"
        )


def range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact ``values[lo[k] : hi[k] + 1].max()`` for every ``k``.

    One ``np.maximum.reduceat`` over interleaved ``[lo, hi + 1)`` bounds;
    ``values`` must carry one trailing pad element so that ``hi + 1`` is
    a valid index.  Requires ``lo <= hi`` element-wise.
    """
    bounds = np.empty(2 * len(lo), dtype=np.int64)
    bounds[0::2] = lo
    bounds[1::2] = hi + 1
    return np.maximum.reduceat(values, bounds)[0::2]


class PackedUsage:
    """Usage curves (at least one) packed CSR-style for one query per
    update tick.

    ``times``/``mem_mb`` concatenate the curves; curve ``k`` occupies
    ``[starts[k], ends[k])``.  Each curve is lifted onto its own band of
    the time axis (``k * band``) so one ``searchsorted`` locates every
    query; the located index is then corrected in the curve's own
    coordinates, so ties at breakpoints resolve exactly as
    :meth:`UsageTrace.usage_at` / :meth:`UsageTrace.max_in` do.
    """

    __slots__ = ("times", "mem_mb", "starts", "ends", "last", "_lifted",
                 "_base")

    def __init__(self, traces: Sequence[UsageTrace]):
        lengths = np.fromiter((len(t.times) for t in traces), np.int64,
                              len(traces))
        self.ends = np.cumsum(lengths)
        self.starts = self.ends - lengths
        self.times = np.concatenate([t.times for t in traces])
        # one trailing pad element for range_max
        self.mem_mb = np.concatenate([t.mem_mb for t in traces]
                                     + [np.zeros(1, np.int64)])
        self.last = self.times[self.ends - 1]
        band = float(np.ceil(self.last.max())) + 1.0
        self._base = np.arange(len(lengths), dtype=np.float64) * band
        self._lifted = self.times + np.repeat(self._base, lengths)

    def _locate(self, ps: np.ndarray) -> np.ndarray:
        """Per curve ``k``: index of the segment holding progress ``ps[k]``."""
        # Clamping to the curve's span keeps every query inside its band
        # without changing the segment it falls in.
        q = np.minimum(np.maximum(ps, 0.0), self.last)
        idx = np.searchsorted(self._lifted, q + self._base, side="right") - 1
        idx = np.minimum(np.maximum(idx, self.starts), self.ends - 1)
        # Rounding in the lift can only move a breakpoint onto the query
        # (never past it), so the candidate is at or after the true
        # segment; step back while the breakpoint lies beyond the query.
        while True:
            over = (idx > self.starts) & (self.times[idx] > q)
            if not over.any():
                return idx
            idx -= over

    def usage_at(self, ps: np.ndarray) -> np.ndarray:
        """Each curve k's ``usage_at(ps[k])``."""
        return self.mem_mb[self._locate(ps)]

    def max_in(self, p0s: np.ndarray, p1s: np.ndarray) -> np.ndarray:
        """Each curve k's ``max_in(p0s[k], p1s[k])``."""
        i0 = self._locate(p0s)
        i1 = np.maximum(self._locate(p1s), i0)
        return range_max(self.mem_mb, i0, i1)
