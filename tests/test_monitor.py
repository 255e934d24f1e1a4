"""Unit tests for the perf/PAPI/TAU monitoring substrate."""

import threading
import time

import pytest

from repro.monitor import (
    Counters,
    EventSet,
    PAPI_EVENTS,
    Profiler,
    perf_stat,
)


class TestCounters:
    def test_accumulation(self):
        c = Counters()
        c.add_flops(100)
        c.add_traffic(64, 32)
        c.add_message(1024)
        c.add_message(1024)
        assert c.flops == 100
        assert c.bytes_moved == 96
        assert c.messages_sent == 2
        assert c.bytes_sent == 2048

    def test_arithmetic_intensity(self):
        c = Counters()
        assert c.arithmetic_intensity == 0.0
        c.add_flops(160)
        c.add_traffic(64, 16)
        assert c.arithmetic_intensity == pytest.approx(2.0)

    def test_snapshot_and_reset(self):
        c = Counters()
        c.add_flops(5)
        snap = c.snapshot()
        assert snap["flops"] == 5
        c.reset()
        assert c.flops == 0
        assert snap["flops"] == 5  # snapshot detached

    def test_merge_and_sub(self):
        a, b = Counters(), Counters()
        a.add_flops(3)
        b.add_flops(4)
        b.add_message(10)
        a.merge(b)
        assert a.flops == 7 and a.messages_sent == 1
        d = a - b
        assert d.flops == 3 and d.messages_sent == 0


class TestEventSet:
    def test_papi_style_measurement(self):
        c = Counters()
        es = EventSet(c, ["PAPI_DP_OPS", "PAPI_MSG_SND"])
        c.add_flops(10)  # before start: not counted
        es.start()
        c.add_flops(32)
        c.add_message(8)
        mid = es.read()
        assert mid == {"PAPI_DP_OPS": 32, "PAPI_MSG_SND": 1}
        c.add_flops(8)
        final = es.stop()
        assert final["PAPI_DP_OPS"] == 40

    def test_unknown_event_rejected(self):
        with pytest.raises(KeyError):
            EventSet(Counters(), ["PAPI_TOT_CYC_BOGUS"])

    def test_double_start_rejected(self):
        es = EventSet(Counters(), ["PAPI_DP_OPS"])
        es.start()
        with pytest.raises(RuntimeError):
            es.start()

    def test_read_before_start_rejected(self):
        es = EventSet(Counters(), ["PAPI_DP_OPS"])
        with pytest.raises(RuntimeError):
            es.read()

    def test_event_names_map_to_counter_fields(self):
        c = Counters()
        fields = c.snapshot().keys()
        for attr in PAPI_EVENTS.values():
            assert attr in fields


class TestPerfStat:
    def test_reports_both_events(self):
        with perf_stat() as ps:
            time.sleep(0.01)
        res = ps.result
        assert res is not None
        assert res.duration_time_ns >= 10_000_000
        assert res.wall_seconds >= 0.01
        assert res.cpu_cycles >= 0
        text = res.report()
        assert "duration_time" in text and "cpu-cycles" in text

    def test_result_filled_even_on_exception(self):
        with pytest.raises(RuntimeError):
            with perf_stat() as ps:
                raise RuntimeError("boom")
        assert ps.result is not None


class TestProfiler:
    def test_nesting_and_exclusive_time(self):
        p = Profiler()
        with p.region("solve"):
            time.sleep(0.01)
            with p.region("matvec"):
                time.sleep(0.02)
        flat = p.flat()
        assert flat["solve"][0] >= 0.03          # inclusive
        assert flat["matvec"][0] >= 0.02
        assert flat["solve"][1] < flat["solve"][0]  # exclusive < inclusive
        assert flat["solve"][2] == 1 and flat["matvec"][2] == 1

    def test_same_region_from_multiple_sites_merges_in_flat(self):
        p = Profiler()
        for parent in ("siteA", "siteB"):
            with p.region(parent):
                with p.region("matvec"):
                    pass
        assert p.flat()["matvec"][2] == 2

    def test_fractions(self):
        p = Profiler()
        with p.region("work"):
            time.sleep(0.01)
        assert p.inclusive_fraction("work") == pytest.approx(1.0, abs=0.05)
        assert p.exclusive_fraction("missing") == 0.0

    def test_reports_render(self):
        p = Profiler()
        with p.region("a"):
            with p.region("b"):
                pass
        flat_text = p.flat_profile()
        tree_text = p.tree_profile()
        assert "FLAT PROFILE" in flat_text and "a" in flat_text
        assert "CALL TREE" in tree_text and "b" in tree_text

    def test_empty_profiler(self):
        p = Profiler()
        assert p.total_time() == 0.0
        assert p.flat() == {}
        assert "no profile data" in p.tree_profile()

    def test_reset(self):
        p = Profiler()
        with p.region("x"):
            pass
        p.reset()
        assert p.flat() == {}


class TestProfilerInvariants:
    """``0 <= exclusive <= inclusive <= total`` must survive recursion,
    multi-thread per-rank trees, and reset/reuse."""

    @staticmethod
    def _assert_invariant(p: Profiler, rank: int = 0) -> None:
        total = p.total_time(rank)
        for name, (incl, excl, _calls) in p.flat(rank).items():
            assert 0.0 <= excl <= incl + 1e-12, name
            assert incl <= total + 1e-9, name

    def test_recursive_region_counts_inclusive_once(self):
        p = Profiler()

        def rec(depth: int) -> None:
            with p.region("rec"):
                time.sleep(0.002)
                if depth:
                    rec(depth - 1)

        with p.region("outer"):
            rec(3)
        incl, excl, calls = p.flat()["rec"]
        assert calls == 4                 # a recursive call is still a call
        assert incl >= 0.008              # the outermost window, once
        assert incl <= p.total_time()     # never depth-times-counted
        assert excl <= incl
        self._assert_invariant(p)

    def test_mutual_recursion_keeps_invariant(self):
        p = Profiler()

        def a(depth: int) -> None:
            with p.region("a"):
                time.sleep(0.001)
                if depth:
                    b(depth - 1)

        def b(depth: int) -> None:
            with p.region("b"):
                time.sleep(0.001)
                if depth:
                    a(depth)

        a(2)
        flat = p.flat()
        assert flat["a"][2] == 2 and flat["b"][2] == 2
        self._assert_invariant(p)

    def test_nested_region_attributed_to_requested_rank(self):
        p = Profiler()
        with p.region("outer", rank=0):
            with p.region("inner", rank=1) as node:
                assert node.parent is not None
                assert node.parent.name.endswith("(rank 1)")
        assert "inner" in p.flat(rank=1)
        assert "inner" not in p.flat(rank=0)
        assert p.flat(rank=0)["outer"][2] == 1

    def test_nesting_tracked_per_rank(self):
        p = Profiler()
        with p.region("outer", rank=0):
            with p.region("r1_outer", rank=1) as n_out:
                with p.region("r1_inner", rank=1) as n_in:
                    assert n_in.parent is n_out
        self._assert_invariant(p, rank=0)
        self._assert_invariant(p, rank=1)

    def test_multi_thread_per_rank_trees(self):
        p = Profiler()

        def worker(rank: int) -> None:
            with p.region("work", rank=rank):
                time.sleep(0.003)
                with p.region("inner", rank=rank):
                    time.sleep(0.001)

        threads = [
            threading.Thread(target=worker, args=(r,)) for r in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert p.ranks() == [0, 1, 2, 3]
        for r in range(4):
            flat = p.flat(rank=r)
            assert flat["work"][2] == 1 and flat["inner"][2] == 1
            self._assert_invariant(p, rank=r)

    def test_active_regions_prunes_dead_thread_entries(self):
        p = Profiler()
        node = None

        def worker() -> None:
            nonlocal node
            with p.region("w") as n:
                node = n

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        # Simulate the entry a thread killed mid-region would leak.
        p._active[t.ident] = node
        assert p.active_regions() == []

    def test_reset_discards_in_flight_region(self):
        p = Profiler()
        with p.region("old"):
            p.reset()
        assert p.flat() == {}
        assert p.active_regions() == []
        with p.region("new"):
            pass
        assert list(p.flat()) == ["new"]
        assert p.flat()["new"][2] == 1
        self._assert_invariant(p)

    def test_reset_between_nested_exits_then_reuse(self):
        p = Profiler()
        with p.region("outer"):
            with p.region("inner"):
                p.reset()
        assert p.flat() == {}
        with p.region("outer"):
            with p.region("inner"):
                pass
        flat = p.flat()
        assert flat["outer"][2] == 1 and flat["inner"][2] == 1
        self._assert_invariant(p)
