"""End-to-end trace generation (Fig. 3 pipeline)."""

import numpy as np
import pytest

from repro.core.errors import TraceError
from repro.traces.archer import LARGE_MEMORY_THRESHOLD_MB
from repro.traces.pipeline import grizzly_workload, synthetic_workload
from repro.traces.shapes import phased_usage, spike_usage


class TestSyntheticWorkload:
    def test_job_count_and_order(self, shared_workload):
        jobs = shared_workload.jobs
        assert len(jobs) == 300
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_request_equals_peak_at_zero_overestimation(self, shared_workload):
        for job in shared_workload.jobs:
            assert job.mem_request_mb == job.usage.peak()

    def test_overestimation_scales_requests(self):
        wl = synthetic_workload(n_jobs=50, overestimation=0.6,
                                n_system_nodes=64, seed=1)
        for job in wl.jobs:
            assert job.mem_request_mb == int(round(job.usage.peak() * 1.6))

    def test_frac_large_controlled(self):
        for frac in (0.0, 0.5, 1.0):
            wl = synthetic_workload(n_jobs=400, frac_large=frac,
                                    n_system_nodes=64, seed=2)
            measured = np.mean(
                [j.usage.peak() > LARGE_MEMORY_THRESHOLD_MB for j in wl.jobs]
            )
            assert measured == pytest.approx(frac, abs=0.08)

    def test_max_job_nodes_defaults_to_eighth(self):
        wl = synthetic_workload(n_jobs=300, n_system_nodes=64, seed=3)
        assert max(j.n_nodes for j in wl.jobs) <= 8

    def test_profiles_assigned(self, shared_workload):
        n_prof = len(shared_workload.profiles)
        assert all(0 <= j.profile < n_prof for j in shared_workload.jobs)

    def test_usage_varies_over_time(self, shared_workload):
        """Donor grafting must produce non-flat traces (Fig. 4a vs 4b)."""
        varying = sum(1 for j in shared_workload.jobs if len(j.usage) > 1)
        assert varying > len(shared_workload.jobs) * 0.5
        ratios = [
            j.usage.mean(j.base_runtime) / j.usage.peak()
            for j in shared_workload.jobs
        ]
        assert 0.3 < np.mean(ratios) < 0.9

    def test_walltime_at_least_runtime(self, shared_workload):
        for j in shared_workload.jobs:
            assert j.walltime_limit >= j.base_runtime

    def test_meta_fields(self, shared_workload):
        assert shared_workload.meta["kind"] == "synthetic"
        assert shared_workload.meta["n_jobs"] == 300

    def test_deterministic(self):
        a = synthetic_workload(n_jobs=40, n_system_nodes=32, seed=9)
        b = synthetic_workload(n_jobs=40, n_system_nodes=32, seed=9)
        for x, y in zip(a.jobs, b.jobs):
            assert x.submit_time == y.submit_time
            assert x.mem_request_mb == y.mem_request_mb
            assert np.array_equal(x.usage.mem_mb, y.usage.mem_mb)

    def test_validation(self):
        with pytest.raises(TraceError):
            synthetic_workload(n_jobs=0)
        with pytest.raises(TraceError):
            synthetic_workload(n_jobs=10, frac_large=1.5)


class TestGrizzlyWorkload:
    @pytest.fixture(scope="class")
    def wl(self):
        return grizzly_workload(n_system_nodes=128, scale_jobs=150, seed=4)

    def test_job_count_scaled(self, wl):
        assert len(wl.jobs) == 150

    def test_submission_times_generated(self, wl):
        submits = [j.submit_time for j in wl.jobs]
        assert submits == sorted(submits)
        assert max(submits) > 0

    def test_sizes_fit_system(self, wl):
        assert max(j.n_nodes for j in wl.jobs) <= 128

    def test_meta(self, wl):
        assert wl.meta["kind"] == "grizzly"
        assert 0 < wl.meta["week_utilization"] <= 0.95

    def test_overestimation_applied(self):
        wl = grizzly_workload(n_system_nodes=64, scale_jobs=50,
                              overestimation=0.5, seed=5)
        for j in wl.jobs:
            assert j.mem_request_mb == int(round(j.usage.peak() * 1.5))


class TestUsageShapes:
    def test_phased_usage_peak_pinned(self, rng):
        t = phased_usage(rng, peak_mb=10000, duration=3600.0)
        assert t.peak() == 10000
        assert t.times[-1] < 3600.0

    def test_phased_usage_average_below_peak(self, rng):
        ratios = []
        for _ in range(100):
            t = phased_usage(rng, peak_mb=10000, duration=1000.0)
            ratios.append(t.mean(1000.0) / t.peak())
        assert 0.35 < np.mean(ratios) < 0.8

    def test_phased_usage_validation(self, rng):
        with pytest.raises(ValueError):
            phased_usage(rng, peak_mb=100, duration=0.0)

    def test_spike_usage_shape(self, rng):
        t = spike_usage(rng, peak_mb=10000, duration=1000.0)
        assert t.peak() == 10000
        assert t.mean(1000.0) < 0.6 * t.peak()


@pytest.mark.parametrize("overestimation", [-0.01, -1.0, -2.0, float("nan")])
def test_workload_builders_reject_negative_overestimation(overestimation):
    """A negative factor would request less than the job uses (or less
    than nothing); both builders reject it before generating."""
    with pytest.raises(TraceError, match="negative overestimation"):
        synthetic_workload(n_jobs=5, n_system_nodes=16,
                           overestimation=overestimation, seed=0)
    with pytest.raises(TraceError, match="negative overestimation"):
        grizzly_workload(overestimation=overestimation, n_system_nodes=16,
                         scale_jobs=5, seed=0)
