"""Tests for the Arm-MAP-style sampling profiler.

Sampling is driven deterministically through ``sample_now()`` wherever
an assertion depends on *which* samples were taken: wall-clock-paced
sampling made share assertions flaky under scheduler jitter.  The
timer-thread lifecycle itself is still exercised, but only with
timing-independent assertions.
"""

import time

import pytest

from repro.monitor import Profiler, SamplingProfiler
from repro.problems import GaussianPulseProblem
from repro.v2d import Simulation, V2DConfig


class TestSamplerUnit:
    def test_samples_attribute_to_ancestors(self):
        prof = Profiler()
        sampler = SamplingProfiler(prof, interval=0.001)
        with prof.region("outer"):
            with prof.region("inner"):
                for _ in range(5):
                    sampler.sample_now()
        report = sampler.report()
        assert report.total == 5
        # inner was active for every sample; outer inherits every hit
        assert report.counts["inner"] == 5
        assert report.counts["outer"] == 5
        assert report.fraction("inner") == 1.0
        assert "MAP-style" in report.table()

    def test_shares_track_instrumented_time(self):
        # MAP-vs-TAU cross-validation, deterministically: take exactly
        # 8 samples in the heavy region and 2 in the light one, the
        # distribution a timer thread would produce for an 80/20 split.
        prof = Profiler()
        sampler = SamplingProfiler(prof, interval=0.001)
        with prof.region("run"):
            with prof.region("heavy"):
                for _ in range(8):
                    sampler.sample_now()
            with prof.region("light"):
                for _ in range(2):
                    sampler.sample_now()
        report = sampler.report()
        assert report.total == 10
        assert report.fraction("heavy") == 0.8
        assert report.fraction("light") == 0.2
        assert report.fraction("run") == 1.0       # ancestor of both

    def test_recursion_attributes_once(self):
        prof = Profiler()
        sampler = SamplingProfiler(prof, interval=0.001)
        with prof.region("f"):
            with prof.region("f"):
                sampler.sample_now()
        report = sampler.report()
        assert report.counts["f"] == 1             # recursion-safe

    def test_sample_now_outside_regions_is_a_noop(self):
        prof = Profiler()
        sampler = SamplingProfiler(prof, interval=0.001)
        sampler.sample_now()
        report = sampler.report()
        assert report.total == 0
        assert report.fraction("anything") == 0.0

    def test_timer_thread_lifecycle(self):
        # The threaded path still works; assertions are timing-free
        # (a stopped sampler returns whatever it got, possibly nothing).
        prof = Profiler()
        sampler = SamplingProfiler(prof, interval=0.001)
        sampler.start()
        with prof.region("outer"):
            time.sleep(0.02)
        report = sampler.stop()
        assert report.total >= 0
        assert set(report.counts) <= {"outer"}

    def test_lifecycle_errors(self):
        prof = Profiler()
        sampler = SamplingProfiler(prof, interval=0.01)
        with pytest.raises(RuntimeError):
            sampler.stop()
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
        sampler.stop()
        with pytest.raises(ValueError):
            SamplingProfiler(prof, interval=0.0)

    def test_active_regions_tracking(self):
        prof = Profiler()
        assert prof.active_regions() == []
        with prof.region("a"):
            active = prof.active_regions()
            assert [n.name for n in active] == ["a"]
            with prof.region("b"):
                assert [n.name for n in prof.active_regions()] == ["b"]
        assert prof.active_regions() == []


class _EntrySamplingProfiler(Profiler):
    """Profiler that takes one deterministic sample per region entry."""

    def __init__(self) -> None:
        super().__init__()
        self.sampler = SamplingProfiler(self, interval=0.001)

    def region(self, name, **kwargs):
        from contextlib import contextmanager

        @contextmanager
        def _enter():
            with super(_EntrySamplingProfiler, self).region(name, **kwargs) as node:
                self.sampler.sample_now()
                yield node

        return _enter()


class TestSamplerOnSimulation:
    def test_map_view_of_a_real_run(self):
        # The paper's MAP measurement: sample a real run and confirm
        # the solver dominates.  One sample per region entry replaces
        # wall-clock pacing, so the counts are exactly reproducible.
        cfg = V2DConfig(
            nx1=16, nx2=12, nsteps=2, dt=2e-4, precond="spai",
            solver_tol=1e-10,
        )
        sim = Simulation(cfg, GaussianPulseProblem())
        prof = _EntrySamplingProfiler()
        sim.profiler = prof
        sim.integrator.profiler = prof
        sim.run()
        report = prof.sampler.report()
        assert report.total > 10
        # Inclusive attribution: every MATVEC/PRECOND entry inside a
        # solve also hits BiCGSTAB, so the solver's share dominates.
        assert report.counts["BiCGSTAB"] >= report.counts["MATVEC"]
        assert report.fraction("BiCGSTAB") > 0.2
        # Exactly reproducible: a second identical run samples the
        # same counts (the fused solver's launch sequence is fixed).
        sim2 = Simulation(cfg, GaussianPulseProblem())
        prof2 = _EntrySamplingProfiler()
        sim2.profiler = prof2
        sim2.integrator.profiler = prof2
        sim2.run()
        assert prof2.sampler.report().counts == report.counts
