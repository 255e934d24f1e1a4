"""Unit tests for the five V2D kernels, their accounting, and the driver."""

import numpy as np
import pytest

from repro.backend import ScalarBackend, VectorBackend
from repro.kernels import KernelDriver, KernelSuite, MultiSpeciesStencil, StencilCoefficients
from repro.kernels.driver import PAPER_TABLE2_RATIOS, ROUTINES, format_table2
from repro.monitor import Counters


@pytest.fixture(params=["scalar", "vector"])
def suite(request):
    return KernelSuite(request.param, counters=Counters())


def rng():
    return np.random.default_rng(7)


class TestSuiteMath:
    def test_dprod(self, suite):
        r = rng()
        x, y = r.standard_normal(40), r.standard_normal(40)
        assert suite.dprod(x, y) == pytest.approx(float(np.dot(x, y)), rel=1e-12)

    def test_dprod_gang_matches_individual(self, suite):
        r = rng()
        pairs = [(r.standard_normal(16), r.standard_normal(16)) for _ in range(3)]
        ganged = suite.dprod_gang(pairs)
        singles = [suite.dprod(x, y) for x, y in pairs]
        np.testing.assert_allclose(ganged, singles, rtol=1e-12)

    def test_daxpy_dscal_ddaxpy(self, suite):
        r = rng()
        x, y, z = (r.standard_normal(25) for _ in range(3))
        np.testing.assert_allclose(suite.daxpy(2.0, x, y), 2.0 * x + y)
        np.testing.assert_allclose(suite.dscal(x, 0.5, y), x - 0.5 * y)
        np.testing.assert_allclose(suite.ddaxpy(2.0, x, 3.0, y, z), 2 * x + 3 * y + z)

    def test_matvec_banded(self, suite):
        r = rng()
        n = 20
        offsets = [0, -1, 1, -5, 5]
        bands = [r.standard_normal(n) for _ in offsets]
        x = r.standard_normal(n)
        got = suite.matvec_banded(offsets, bands, x)
        dense = np.zeros((n, n))
        for off, band in zip(offsets, bands):
            for i in range(n):
                if 0 <= i + off < n:
                    dense[i, i + off] = band[i]
        np.testing.assert_allclose(got, dense @ x, rtol=1e-12, atol=1e-12)


class TestAccounting:
    def test_flop_and_traffic_counts(self):
        c = Counters()
        s = KernelSuite("vector", counters=c)
        x, y = np.ones(100), np.ones(100)
        s.dprod(x, y)
        assert c.flops == 200
        assert c.bytes_loaded == 1600 and c.bytes_stored == 0
        assert c.dot_products == 1
        s.daxpy(1.0, x, y)
        assert c.flops == 400
        assert c.bytes_stored == 800

    def test_vector_vs_scalar_op_counts(self):
        x, y = np.ones(100), np.ones(100)
        cv, cs = Counters(), Counters()
        KernelSuite(VectorBackend(512), counters=cv).dprod(x, y)
        KernelSuite(ScalarBackend(), counters=cs).dprod(x, y)
        assert cv.vector_ops == 13  # ceil(100/8)
        assert cv.scalar_ops == 0
        assert cs.scalar_ops == 100
        assert cs.vector_ops == 0

    def test_gang_counts_all_pairs(self):
        c = Counters()
        s = KernelSuite("vector", counters=c)
        pairs = [(np.ones(10), np.ones(10))] * 4
        s.dprod_gang(pairs)
        assert c.flops == 80
        assert c.dot_products == 4

    def test_counters_optional(self):
        s = KernelSuite("vector")  # no counters
        assert s.dprod(np.ones(4), np.ones(4)) == pytest.approx(4.0)


class TestMultiSpeciesStencil:
    def _system(self, ns=2, n1=5, n2=4, coupled=True):
        r = rng()
        c = StencilCoefficients(
            diag=r.standard_normal((ns, n1, n2)) + 5.0,
            west=r.standard_normal((ns, n1, n2)),
            east=r.standard_normal((ns, n1, n2)),
            south=r.standard_normal((ns, n1, n2)),
            north=r.standard_normal((ns, n1, n2)),
            coupling=None,
        )
        if coupled:
            coup = r.standard_normal((ns, ns, n1, n2))
            for s in range(ns):
                coup[s, s] = 0.0
            c = StencilCoefficients(
                diag=c.diag, west=c.west, east=c.east, south=c.south,
                north=c.north, coupling=coup,
            )
        return c

    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_matches_reference(self, backend, coupled):
        ns, n1, n2 = 2, 5, 4
        c = self._system(ns, n1, n2, coupled)
        r = rng()
        xpad = r.standard_normal((ns, n1 + 2, n2 + 2))
        mv = MultiSpeciesStencil(c, KernelSuite(backend, counters=Counters()))
        got = mv.apply(xpad)

        want = np.zeros((ns, n1, n2))
        for s in range(ns):
            for i in range(n1):
                for j in range(n2):
                    want[s, i, j] = (
                        c.diag[s, i, j] * xpad[s, i + 1, j + 1]
                        + c.west[s, i, j] * xpad[s, i, j + 1]
                        + c.east[s, i, j] * xpad[s, i + 2, j + 1]
                        + c.south[s, i, j] * xpad[s, i + 1, j]
                        + c.north[s, i, j] * xpad[s, i + 1, j + 2]
                    )
                    if coupled:
                        for sp in range(ns):
                            if sp != s:
                                want[s, i, j] += (
                                    c.coupling[s, sp, i, j] * xpad[sp, i + 1, j + 1]
                                )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_coupling_diagonal_must_be_zero(self):
        ns, n1, n2 = 2, 3, 3
        coup = np.ones((ns, ns, n1, n2))
        with pytest.raises(ValueError, match="coupling diagonal"):
            StencilCoefficients(
                diag=np.ones((ns, n1, n2)),
                west=np.zeros((ns, n1, n2)),
                east=np.zeros((ns, n1, n2)),
                south=np.zeros((ns, n1, n2)),
                north=np.zeros((ns, n1, n2)),
                coupling=coup,
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StencilCoefficients(
                diag=np.ones((2, 3, 3)),
                west=np.ones((2, 3, 4)),
                east=np.ones((2, 3, 3)),
                south=np.ones((2, 3, 3)),
                north=np.ones((2, 3, 3)),
            )

    def test_zeros_constructor(self):
        c = StencilCoefficients.zeros(2, 4, 5, coupled=True)
        assert c.nspec == 2 and c.shape == (4, 5) and c.nunknowns == 40
        assert c.coupling is not None

    def test_padded_shape_enforced(self):
        c = StencilCoefficients.zeros(1, 4, 4)
        mv = MultiSpeciesStencil(c)
        with pytest.raises(ValueError):
            mv.apply(np.zeros((1, 4, 4)))


class TestKernelDriver:
    def test_runs_and_reports(self):
        driver = KernelDriver(n=64, reps=3, band_offset=8)
        res = driver.run("vector")
        assert set(res.cpu_seconds) == set(ROUTINES)
        assert all(v >= 0 for v in res.cpu_seconds.values())
        assert res.counters["MATVEC"]["matvecs"] == 3
        assert "MATVEC" in res.table()

    def test_counts_scale_with_reps_and_both_clocks_run(self):
        # One perf_stat window per routine: event counts stay exactly
        # reps x per-call, and wall and CPU seconds are both reported.
        once = KernelDriver(n=256, reps=1, band_offset=16).run("vector")
        many = KernelDriver(n=256, reps=40, band_offset=16).run("vector")
        for routine in ROUTINES:
            assert many.counters[routine] == {
                k: 40 * v for k, v in once.counters[routine].items()
            }
            assert many.wall_seconds[routine] > 0.0
            assert many.cpu_seconds[routine] > 0.0

    def test_compare_scalar_vs_vector(self):
        driver = KernelDriver(n=256, reps=5, band_offset=16)
        no_sve, sve, ratios = driver.compare()
        assert no_sve.backend == "scalar" and sve.backend == "vector"
        # The vectorized path must be substantially faster, as in Table II.
        for routine in ROUTINES:
            assert ratios[routine] < 1.0, f"{routine} did not speed up"
        table = format_table2(no_sve, sve)
        assert "SVE/No-SVE" in table

    def test_paper_ratio_constants(self):
        assert set(PAPER_TABLE2_RATIOS) == set(ROUTINES)
        assert all(0.1 < v < 0.35 for v in PAPER_TABLE2_RATIOS.values())

    def test_invalid_band_offset(self):
        with pytest.raises(ValueError):
            KernelDriver(n=10, band_offset=10)

    def test_deterministic_setup(self):
        d1 = KernelDriver(n=32, reps=1, band_offset=4, seed=1)
        d2 = KernelDriver(n=32, reps=1, band_offset=4, seed=1)
        r1, r2 = d1.run("vector"), d2.run("vector")
        assert r1.counters == r2.counters


class TestFusedCounterParity:
    """A fused op must count exactly the flops/bytes/SIMD ops of its
    unfused decomposition — only the launch count may reflect the
    fusion.  Otherwise fused-vs-unfused efficiency ratios (GF/s, AI,
    %-of-roofline) stop being comparable."""

    WORK_FIELDS = (
        "flops", "bytes_loaded", "bytes_stored",
        "vector_ops", "scalar_ops", "dot_products",
    )

    def _pair(self, backend):
        return (
            KernelSuite(backend, counters=Counters()),
            KernelSuite(backend, counters=Counters()),
        )

    def assert_work_parity(self, fused, unfused, launches_saved):
        for f in self.WORK_FIELDS:
            assert getattr(fused, f) == getattr(unfused, f), f
        assert unfused.kernel_calls - fused.kernel_calls == launches_saved

    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_daxpy_norm_counts_daxpy_plus_dprod(self, backend):
        r = rng()
        x, y = r.standard_normal(100), r.standard_normal(100)
        sf, su = self._pair(backend)
        out, val = sf.daxpy_norm(2.0, x, y)
        ref = su.daxpy(2.0, x, y)
        assert val == su.dprod(ref, ref)
        np.testing.assert_array_equal(out, ref)
        self.assert_work_parity(sf.counters, su.counters, launches_saved=1)
        assert sf.counters.fused_ops == 1 and su.counters.fused_ops == 0

    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_dscal_norm_counts_dscal_plus_dprod(self, backend):
        r = rng()
        c, y, w = (r.standard_normal(100) for _ in range(3))
        sf, su = self._pair(backend)
        out, val = sf.dscal_norm(c, 0.5, y, w=w)
        ref = su.dscal(c, 0.5, y)
        assert val == su.dprod(ref, w)
        np.testing.assert_array_equal(out, ref)
        self.assert_work_parity(sf.counters, su.counters, launches_saved=1)

    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    @pytest.mark.parametrize("ns", [1, 2])
    def test_apply_dots_counts_apply_plus_gang(self, backend, ns):
        r = rng()
        n1, n2 = 6, 5
        def coeffs():
            return StencilCoefficients(
                diag=r.standard_normal((ns, n1, n2)) + 5.0,
                west=r.standard_normal((ns, n1, n2)),
                east=r.standard_normal((ns, n1, n2)),
                south=r.standard_normal((ns, n1, n2)),
                north=r.standard_normal((ns, n1, n2)),
            )
        c = coeffs()
        xpad = r.standard_normal((ns, n1 + 2, n2 + 2))
        w = r.standard_normal((ns, n1, n2))

        sf, su = self._pair(backend)
        fused = MultiSpeciesStencil(c, suite=sf)
        unfused = MultiSpeciesStencil(c.copy(), suite=su)

        out_f, vals_f = fused.apply_dots(xpad, [None, w])
        out_u = unfused.apply(xpad)
        vals_u = su.dprod_gang([(out_u, out_u), (out_u, w)])

        np.testing.assert_array_equal(out_f, out_u)
        np.testing.assert_array_equal(vals_f, vals_u)
        self.assert_work_parity(sf.counters, su.counters, launches_saved=1)
        assert sf.counters.matvecs == su.counters.matvecs == 1
