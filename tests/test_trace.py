"""Trace layer: tracer unit tests, export round-trips, end-to-end wiring.

Covers the span/event tracer itself (matched B/E pairs, async windows,
counters, per-thread tracks), the validator's rejection cases, the JSON
export round-trip, and -- the load-bearing guarantees -- that a traced
simulation covers every instrumented hot path with a valid timeline
while a run with tracing disabled stays bitwise-identical.
"""

import json
import threading

import numpy as np
import pytest

from repro.campaign import CampaignScheduler, CampaignSpec, ResultCache
from repro.linalg.operators import IdentityOperator
from repro.monitor.trace import (
    MetricsRegistry,
    TRACE_SCHEMA,
    Tracer,
    merge_summaries,
    merged_payload,
    validate_trace,
    write_trace,
)
from repro.problems import GaussianPulseProblem
from repro.resilience.escalation import solve_with_escalation
from repro.v2d import Simulation, V2DConfig, run_parallel
from repro.v2d.job import TIMING_KEY, run_job, strip_timing

#: Small shared configuration for the end-to-end runs.
CFG = dict(nx1=16, nx2=8, nsteps=2, dt=1e-3, precond="jacobi")


class TestMetricsRegistry:
    def test_inc_set_get_snapshot_reset(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2.5)
        m.set("b", 7.0)
        assert m.get("a") == pytest.approx(3.5)
        assert m.get("missing", -1.0) == -1.0
        snap = m.snapshot()
        m.reset()
        assert m.get("a") == 0.0
        assert snap == {"a": 3.5, "b": 7.0}  # snapshot detached

    def test_concurrent_increments_do_not_lose_updates(self):
        m = MetricsRegistry()

        def bump() -> None:
            for _ in range(500):
                m.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.get("n") == 2000.0


class TestTracer:
    def test_span_emits_matched_pair(self):
        tr = Tracer()
        with tr.span("work", rank=2, cat="solver", args={"k": 1}):
            pass
        begin, end = tr.events()
        assert begin["ph"] == "B" and end["ph"] == "E"
        assert begin["pid"] == 2 and end["pid"] == 2
        assert begin["ts"] <= end["ts"]
        assert begin["args"] == {"k": 1}
        assert tr.ranks() == [2]

    def test_span_closes_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("boom")
        assert [ev["ph"] for ev in tr.events()] == ["B", "E"]
        assert validate_trace(tr.to_payload()) == []

    def test_instant_and_counter(self):
        tr = Tracer()
        tr.instant("mark", rank=1, args={"n": 3})
        tr.counter("papi", {"flops": 10.0}, rank=1)
        inst, ctr = tr.events()
        assert inst["ph"] == "i" and inst["s"] == "t"
        assert ctr["ph"] == "C" and ctr["args"] == {"flops": 10.0}

    def test_counter_snapshot_skips_empty_registry(self):
        tr = Tracer()
        m = MetricsRegistry()
        tr.counter_snapshot(m)
        assert len(tr) == 0
        m.inc("x")
        tr.counter_snapshot(m)
        assert len(tr) == 1

    def test_async_window_ids_are_rank_scoped(self):
        a, b = Tracer(), Tracer()
        aid = a.async_begin("w", rank=0)
        a.async_end("w", aid, rank=0)
        bid = b.async_begin("w", rank=1)
        b.async_end("w", bid, rank=1)
        payload = merged_payload([a, b])
        assert validate_trace(payload) == []
        ids = {
            ev["id"] for ev in payload["traceEvents"] if ev["ph"] in ("b", "e")
        }
        assert len(ids) == 2  # same sequence numbers, distinct ranks

    def test_multi_thread_tracks_stay_valid(self):
        tr = Tracer()

        def worker(rank: int) -> None:
            with tr.span("w", rank=rank):
                tr.instant("m", rank=rank)

        threads = [
            threading.Thread(target=worker, args=(r,)) for r in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tr.ranks() == [0, 1, 2]
        assert validate_trace(tr.to_payload()) == []

    def test_summary_pairs_spans_by_name(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("a"):
            pass
        tr.instant("tick")
        summ = tr.summary()
        assert summ["schema"] == TRACE_SCHEMA
        assert summ["spans"]["a"]["count"] == 2
        assert summ["spans"]["b"]["count"] == 1
        assert summ["spans"]["a"]["us"] >= summ["spans"]["b"]["us"]
        assert summ["instants"] == {"tick": 1}

    def test_merge_summaries_folds_counts(self):
        a, b = Tracer(), Tracer()
        with a.span("s", rank=0):
            pass
        with b.span("s", rank=1):
            pass
        b.instant("m", rank=1)
        merged = merge_summaries([a.summary(), b.summary()])
        assert merged["spans"]["s"]["count"] == 2
        assert merged["instants"] == {"m": 1}
        assert merged["ranks"] == [0, 1]


class TestValidation:
    def test_rejects_non_object_payload(self):
        assert validate_trace([1, 2]) != []
        assert validate_trace({"nope": 1}) != []

    def test_unclosed_span_reported(self):
        tr = Tracer()
        tr._emit("B", "open", 0, "x")
        errs = validate_trace(tr.to_payload())
        assert any("unclosed span" in e for e in errs)

    def test_mismatched_end_name_reported(self):
        payload = {"traceEvents": [
            {"name": "a", "cat": "c", "ph": "B", "ts": 0, "pid": 0, "tid": 0},
            {"name": "b", "cat": "c", "ph": "E", "ts": 1, "pid": 0, "tid": 0},
        ]}
        assert any("innermost" in e for e in validate_trace(payload))

    def test_backwards_timestamp_reported(self):
        payload = {"traceEvents": [
            {"name": "a", "cat": "c", "ph": "i", "ts": 5, "pid": 0, "tid": 0},
            {"name": "b", "cat": "c", "ph": "i", "ts": 1, "pid": 0, "tid": 0},
        ]}
        assert any("backwards" in e for e in validate_trace(payload))

    def test_unmatched_async_end_reported(self):
        payload = {"traceEvents": [
            {"name": "w", "cat": "c", "ph": "e", "ts": 0, "pid": 0,
             "tid": 0, "id": "0.1"},
        ]}
        assert any("async end without begin" in e
                   for e in validate_trace(payload))

    def test_unknown_phase_reported(self):
        payload = {"traceEvents": [
            {"name": "a", "ph": "Z", "ts": 0, "pid": 0, "tid": 0},
        ]}
        assert any("unknown phase" in e for e in validate_trace(payload))


class TestExportRoundTrip:
    def test_write_validate_reload(self, tmp_path):
        tr = Tracer("unit")
        with tr.span("s", rank=1):
            tr.counter("c", {"v": 1.0}, rank=1)
        out = write_trace(
            tr.to_payload(metadata={"who": "test"}), tmp_path / "t.json"
        )
        data = json.loads(out.read_text())
        assert validate_trace(data) == []
        assert data["displayTimeUnit"] == "ms"
        assert data["metadata"]["schema"] == TRACE_SCHEMA
        assert data["metadata"]["who"] == "test"
        names = [ev["name"] for ev in data["traceEvents"]]
        assert "process_name" in names  # per-rank track labels survive

    def test_merged_payload_orders_body_by_timestamp(self):
        a, b = Tracer(), Tracer()
        with b.span("later", rank=1):
            pass
        with a.span("earlier", rank=0):
            pass
        payload = merged_payload([a, b])
        body = [ev for ev in payload["traceEvents"] if ev["ph"] != "M"]
        assert body == sorted(body, key=lambda ev: ev["ts"])
        assert validate_trace(payload) == []


class TestEndToEndWiring:
    def test_traced_run_covers_hot_paths_and_validates(self):
        cfg = V2DConfig(**CFG, trace=True)
        rep = Simulation(cfg, GaussianPulseProblem()).run()
        assert rep.tracer is not None
        payload = merged_payload([rep.tracer])
        assert validate_trace(payload) == []
        names = {ev.get("name") for ev in payload["traceEvents"]}
        for want in ("step", "solve_site_1", "solve_site_2", "solve_site_3",
                     "BiCGSTAB", "MATVEC", "PRECOND", "build_system",
                     "halo_exchange", "matter_update", "bicgstab_iter",
                     "papi"):
            assert want in names, f"missing span/event {want!r}"

    def test_decomposed_run_has_per_rank_tracks_and_halo_overlap(self):
        cfg = V2DConfig(**CFG, nprx2=2, trace=True)
        reports = run_parallel(cfg, GaussianPulseProblem())
        tracers = [rep.tracer for rep in reports]
        assert all(t is not None for t in tracers)
        payload = merged_payload(tracers)
        assert validate_trace(payload) == []
        pids = {ev["pid"] for ev in payload["traceEvents"]}
        assert pids == {0, 1}
        names = {ev.get("name") for ev in payload["traceEvents"]}
        assert {"halo_start", "halo_finish", "halo_inflight"} <= names

    def test_disabled_tracing_is_bitwise_identical(self):
        def final_state(trace: bool) -> np.ndarray:
            sim = Simulation(
                V2DConfig(**CFG, trace=trace), GaussianPulseProblem()
            )
            sim.run()
            return sim.integrator.E.interior.copy()

        assert np.array_equal(final_state(False), final_state(True))

    def test_disabled_tracing_attaches_no_tracer(self):
        rep = Simulation(V2DConfig(**CFG), GaussianPulseProblem()).run()
        assert rep.tracer is None

    def test_escalation_emits_attempt_spans(self):
        op = IdentityOperator((8,))
        tr = Tracer(rank=3)
        stats = solve_with_escalation(op, np.ones(8), tracer=tr)
        assert stats.ok
        names = {ev["name"] for ev in tr.events()}
        assert any(n.startswith("solve_attempt:") for n in names)
        assert tr.ranks() == [3]
        assert validate_trace(tr.to_payload()) == []

    def test_job_summary_carries_trace_under_timing(self):
        result = run_job(
            V2DConfig(**CFG, trace=True, profile=False),
            problem="gaussian-pulse",
        )
        trace = result[TIMING_KEY]["trace"]
        assert trace["spans"]["step"]["count"] == CFG["nsteps"]
        assert trace["spans"]["solve_site_1"]["count"] == CFG["nsteps"]
        # Volatile by construction: the deterministic view drops it.
        assert TIMING_KEY not in strip_timing(result)


class TestCampaignTracing:
    def _spec(self) -> CampaignSpec:
        return CampaignSpec.from_mapping({
            "campaign": {"name": "t", "seed": 1, "workers": 1, "retries": 1},
            "base": {"nx1": 12, "nx2": 8, "nsteps": 1, "dt": 2e-3,
                     "precond": "jacobi", "profile": False},
            "axes": {"topology": [[1, 1]]},
        })

    def test_scheduler_traces_job_lifecycles(self, tmp_path):
        spec = self._spec()
        tr = Tracer("campaign")
        result = CampaignScheduler(
            spec, cache=ResultCache(str(tmp_path)), workers=1, tracer=tr
        ).run()
        assert result.n_ok == 1
        job_phases = [
            ev["ph"] for ev in tr.events()
            if str(ev.get("name", "")).startswith("job:")
        ]
        assert "b" in job_phases and "e" in job_phases
        assert validate_trace(tr.to_payload()) == []

        # Warm rerun: the cache hit shows as an instant, no open window.
        tr2 = Tracer("campaign")
        CampaignScheduler(
            spec, cache=ResultCache(str(tmp_path)), workers=1, tracer=tr2
        ).run()
        assert any(ev["name"] == "job_cached" for ev in tr2.events())
        assert validate_trace(tr2.to_payload()) == []


class TestOneSpanSource:
    """``Profiler.region`` feeds the profile and the timeline alike.

    Whatever views are switched on, the physics is bitwise that of the
    uninstrumented run, and the two views count every shared region the
    same number of times -- also after crossing the mp result pipe.
    """

    TOPOLOGIES = {
        "serial": dict(),
        "threads2x1": dict(nprx1=2, transport="threads"),
        "mp2x1": dict(nprx1=2, transport="mp"),
    }

    @staticmethod
    def _run(topology: dict, profile: bool, trace: bool):
        from repro.parallel import CartComm, run_spmd

        cfg = V2DConfig(**CFG, **topology, profile=profile, trace=trace)

        def prog(comm):
            cart = CartComm.create(comm, cfg.nx1, cfg.nx2, cfg.nprx1, cfg.nprx2)
            sim = Simulation(cfg, GaussianPulseProblem(), cart=cart)
            return sim.run(), sim.integrator.E.interior.copy()

        if cfg.nranks == 1:
            sim = Simulation(cfg, GaussianPulseProblem())
            return [(sim.run(), sim.integrator.E.interior.copy())]
        return run_spmd(
            cfg.nranks, prog, timeout=120.0, transport=cfg.transport
        )

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize(
        "profile,trace", [(True, False), (False, True), (True, True)]
    )
    def test_views_agree_and_leave_physics_bitwise(self, topology, profile, trace):
        topo = self.TOPOLOGIES[topology]
        bare = self._run(topo, profile=False, trace=False)
        seen = self._run(topo, profile=profile, trace=trace)
        for (ref, e_ref), (rep, e_rep) in zip(bare, seen):
            assert ref.profiler is None and ref.tracer is None
            assert np.array_equal(e_ref, e_rep)
            assert [s.iterations for s in rep.steps] == [
                s.iterations for s in ref.steps
            ]
            assert rep.final_energy == ref.final_energy
            assert rep.counters.snapshot() == ref.counters.snapshot()
            assert (rep.profiler is not None) == profile
            assert (rep.tracer is not None) == trace
            if trace:
                assert validate_trace(rep.tracer.to_payload()) == []
                assert rep.tracer.ranks() == [rep.rank]
            if profile:
                assert rep.profiler.flat(rank=rep.rank)["BiCGSTAB"][2] == (
                    3 * CFG["nsteps"]
                )
            if profile and trace:
                flat = rep.profiler.flat(rank=rep.rank)
                spans = rep.tracer.summary()["spans"]
                shared = set(flat) & set(spans)
                assert {"MATVEC", "PRECOND", "PRECOND_SETUP", "BiCGSTAB",
                        "build_system", "halo_exchange", "solve_site_1"} <= shared
                for name in shared:
                    assert flat[name][2] == spans[name]["count"], name
                # Timeline-only vocabulary stays out of the profile.
                assert "step" in spans and "step" not in flat

    def test_trace_nesting_survives_a_raising_region(self):
        from repro.monitor import Profiler

        tr = Tracer(rank=1)
        prof = Profiler(tracer=tr, rank=1)
        with pytest.raises(RuntimeError):
            with prof.region("outer", cat="sim"):
                with prof.region("inner", cat="kernel", args={"k": 1}):
                    raise RuntimeError("boom")
        with prof.region("after"):
            pass
        assert validate_trace(tr.to_payload()) == []
        assert [(e["name"], e["ph"]) for e in tr.events()] == [
            ("outer", "B"), ("inner", "B"), ("inner", "E"), ("outer", "E"),
            ("after", "B"), ("after", "E"),
        ]
        flat = prof.flat(rank=1)
        assert {n: flat[n][2] for n in flat} == {"outer": 1, "inner": 1, "after": 1}
        assert prof.active_regions() == []
