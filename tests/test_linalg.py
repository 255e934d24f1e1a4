"""Unit tests for operators, assembly, BiCGSTAB/CG, and SPAI."""

import numpy as np
import pytest

from repro.kernels import KernelSuite, StencilCoefficients
from repro.linalg import (
    BandedOperator,
    BandedSPAIPreconditioner,
    IdentityOperator,
    IdentityPreconditioner,
    JacobiPreconditioner,
    SPAIPreconditioner,
    StencilOperator,
    assemble_csr,
    assemble_dense,
    band_offsets,
    bands_to_stencil,
    bicgstab,
    conjugate_gradient,
    spai_bands,
    sparsity_block,
    stencil_to_bands,
)
from repro.monitor import Counters
from repro.parallel import BoundaryCondition
from repro.testing import banded_system, diffusion_coeffs

RNG = np.random.default_rng(3)


# ---------------------------------------------------------------------------
# Operators vs assembled matrices
# ---------------------------------------------------------------------------
class TestStencilOperator:
    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET0, BoundaryCondition.REFLECT])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_matches_assembled_matrix(self, bc, coupled):
        coeffs = diffusion_coeffs(ns=2, n1=5, n2=4, coupled=coupled)
        op = StencilOperator(coeffs, bc=bc)
        A = assemble_dense(coeffs, bc)
        x = RNG.standard_normal(op.operand_shape)
        # Flatten with x1 fastest (the assembly's dictionary ordering).
        xflat = x.transpose(0, 2, 1).reshape(-1)
        got = op.apply(x).transpose(0, 2, 1).reshape(-1)
        np.testing.assert_allclose(got, A @ xflat, rtol=1e-12, atol=1e-12)

    def test_linearity(self):
        coeffs = diffusion_coeffs()
        op = StencilOperator(coeffs, bc=BoundaryCondition.REFLECT)
        x = RNG.standard_normal(op.operand_shape)
        y = RNG.standard_normal(op.operand_shape)
        np.testing.assert_allclose(
            op.apply(2.0 * x - 3.0 * y), 2.0 * op.apply(x) - 3.0 * op.apply(y),
            rtol=1e-11, atol=1e-11,
        )

    def test_operand_shape_and_size(self):
        op = StencilOperator(diffusion_coeffs(ns=2, n1=5, n2=4))
        assert op.operand_shape == (2, 5, 4)
        assert op.size == 40
        assert op.new_vector().shape == (2, 5, 4)

    def test_matmul_sugar(self):
        op = IdentityOperator((3, 2))
        x = RNG.standard_normal((3, 2))
        np.testing.assert_array_equal(op @ x, x)

    def test_shape_validation(self):
        op = StencilOperator(diffusion_coeffs())
        with pytest.raises(ValueError):
            op.apply(np.zeros((1, 2, 3)))

    def test_per_side_bc(self):
        coeffs = diffusion_coeffs(coupled=False)
        bc = {
            "west": BoundaryCondition.REFLECT,
            "east": BoundaryCondition.DIRICHLET0,
            "south": BoundaryCondition.REFLECT,
            "north": BoundaryCondition.DIRICHLET0,
        }
        op = StencilOperator(coeffs, bc=bc)
        A = assemble_dense(coeffs, bc)
        x = RNG.standard_normal(op.operand_shape)
        xflat = x.transpose(0, 2, 1).reshape(-1)
        np.testing.assert_allclose(
            op.apply(x).transpose(0, 2, 1).reshape(-1), A @ xflat, rtol=1e-12
        )


class TestBandedOperator:
    def test_matches_dense(self):
        n = 25
        offsets = [0, -1, 1, -5, 5]
        bands = [RNG.standard_normal(n) for _ in offsets]
        bands[0] = np.abs(bands[0]) + 3
        op = BandedOperator(offsets, bands)
        x = RNG.standard_normal(n)
        np.testing.assert_allclose(op.apply(x), op.to_dense() @ x, rtol=1e-12)

    def test_structural_zeros_enforced(self):
        op = BandedOperator([2], [np.ones(5)])
        assert op.bands[0][3] == 0.0 and op.bands[0][4] == 0.0
        op = BandedOperator([-2], [np.ones(5)])
        assert op.bands[0][0] == 0.0 and op.bands[0][1] == 0.0

    def test_diagonal(self):
        op = BandedOperator([0, 1], [np.full(4, 2.0), np.ones(4)])
        np.testing.assert_array_equal(op.diagonal(), [2, 2, 2, 2])
        op2 = BandedOperator([1], [np.ones(4)])
        np.testing.assert_array_equal(op2.diagonal(), np.zeros(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            BandedOperator([0, 0], [np.ones(3), np.ones(3)])
        with pytest.raises(ValueError):
            BandedOperator([0, 1], [np.ones(3)])
        with pytest.raises(ValueError):
            BandedOperator([0], [np.ones((3, 2))])


# ---------------------------------------------------------------------------
# Assembly and Fig. 1 structure
# ---------------------------------------------------------------------------
class TestAssembly:
    def test_band_offsets_paper_structure(self):
        offs = band_offsets(2, 200, 100)
        assert offs == [-200, -1, 0, 1, 200]
        offs_c = band_offsets(2, 200, 100, coupled=True)
        assert -20000 in offs_c and 20000 in offs_c

    def test_csr_equals_dense(self):
        coeffs = diffusion_coeffs(ns=2, n1=4, n2=3)
        csr = assemble_csr(coeffs)
        np.testing.assert_allclose(csr.toarray(), assemble_dense(coeffs))

    def test_five_bands_per_species_block(self):
        coeffs = diffusion_coeffs(ns=1, n1=6, n2=5, coupled=False)
        offsets, bands = stencil_to_bands(coeffs)
        assert offsets == [-6, -1, 0, 1, 6]

    def test_no_cross_block_contamination(self):
        # x1-band entries must vanish at x1 edges (no wraparound into
        # the adjacent grid row of the flattened ordering).
        coeffs = diffusion_coeffs(ns=1, n1=4, n2=3, coupled=False)
        A = assemble_dense(coeffs)
        # rows at i = nx1-1 have no +1 entry (last row has no +1 column)
        for j in range(2):
            row = 3 + j * 4
            assert A[row, row + 1] == 0.0
        # and rows at i = 0 (j > 0) have no -1 entry
        for j in range(1, 3):
            row = j * 4
            assert A[row, row - 1] == 0.0

    def test_reflect_folds_into_diagonal(self):
        coeffs = diffusion_coeffs(ns=1, n1=4, n2=3, coupled=False)
        A0 = assemble_dense(coeffs, BoundaryCondition.DIRICHLET0)
        Ar = assemble_dense(coeffs, BoundaryCondition.REFLECT)
        # Same off-diagonal pattern; diagonals differ on boundary rows.
        offd0 = A0 - np.diag(np.diag(A0))
        offdr = Ar - np.diag(np.diag(Ar))
        np.testing.assert_allclose(offd0, offdr)
        assert Ar[0, 0] != A0[0, 0]

    def test_roundtrip_bands_to_stencil(self):
        coeffs = diffusion_coeffs(ns=2, n1=5, n2=4, coupled=True)
        offsets, bands = stencil_to_bands(coeffs)
        back = bands_to_stencil(offsets, bands, 2, 5, 4)
        np.testing.assert_allclose(back.diag, coeffs.diag)
        # Interior off-diagonals round-trip; edges were structurally
        # zeroed by the banded form.
        np.testing.assert_allclose(back.west[:, 1:, :], coeffs.west[:, 1:, :])
        np.testing.assert_allclose(back.north[:, :, :-1], coeffs.north[:, :, :-1])
        np.testing.assert_allclose(back.coupling, coeffs.coupling)

    def test_sparsity_block_shape_and_bands(self):
        # The paper's system: 200 x 100 x 2 = 40,000 unknowns; the
        # upper-left 400x400 block shows diag, +/-1 and +/-200.
        pat = sparsity_block(200, 100, 2, block=400)
        assert pat.shape == (400, 400)
        assert pat[0, 0] and pat[0, 1] and pat[0, 200]
        assert not pat[0, 2] and not pat[0, 199]
        # x1-edge rows lack the +1 entry
        assert not pat[199, 200]
        # symmetric pattern
        np.testing.assert_array_equal(pat, pat.T)

    def test_sparsity_block_matches_assembly(self):
        coeffs = diffusion_coeffs(ns=2, n1=6, n2=4, coupled=False)
        A = assemble_dense(coeffs)
        pat = sparsity_block(6, 4, 2, block=48)
        np.testing.assert_array_equal(pat, A != 0.0)


# ---------------------------------------------------------------------------
# Krylov solvers
# ---------------------------------------------------------------------------
class TestBiCGSTAB:
    @pytest.mark.parametrize("ganged", [False, True])
    @pytest.mark.parametrize("backend", ["vector", "scalar"])
    def test_solves_stencil_system(self, ganged, backend):
        coeffs = diffusion_coeffs(ns=2, n1=6, n2=5)
        suite = KernelSuite(backend, counters=Counters())
        op = StencilOperator(coeffs, suite=suite)
        xtrue = np.random.default_rng(11).standard_normal(op.operand_shape)
        b = op.apply(xtrue)
        res = bicgstab(op, b, tol=1e-10, ganged=ganged, suite=suite)
        assert res.converged
        np.testing.assert_allclose(res.x, xtrue, rtol=1e-7, atol=1e-8)
        assert res.relative_residual <= 1e-10

    def test_ganged_uses_fewer_reductions(self):
        coeffs = diffusion_coeffs(ns=2, n1=8, n2=6)
        op = StencilOperator(coeffs)
        b = RNG.standard_normal(op.operand_shape)
        classic = bicgstab(op, b, tol=1e-10, ganged=False)
        ganged = bicgstab(op, b, tol=1e-10, ganged=True)
        assert classic.converged and ganged.converged
        per_it_classic = classic.reductions / classic.iterations
        per_it_ganged = ganged.reductions / ganged.iterations
        assert per_it_ganged < per_it_classic
        assert per_it_ganged <= 3.0   # ~2 + convergence checks
        assert per_it_classic >= 5.0

    def test_ganged_and_classic_agree(self):
        coeffs = diffusion_coeffs(ns=1, n1=7, n2=7, coupled=False)
        op = StencilOperator(coeffs)
        b = RNG.standard_normal(op.operand_shape)
        xa = bicgstab(op, b, tol=1e-12, ganged=False).x
        xb = bicgstab(op, b, tol=1e-12, ganged=True).x
        np.testing.assert_allclose(xa, xb, rtol=1e-8, atol=1e-9)

    def test_initial_guess(self):
        coeffs = diffusion_coeffs(ns=1, n1=5, n2=5, coupled=False)
        op = StencilOperator(coeffs)
        xtrue = RNG.standard_normal(op.operand_shape)
        b = op.apply(xtrue)
        exact_start = bicgstab(op, b, x0=xtrue, tol=1e-10)
        assert exact_start.converged and exact_start.iterations == 0

    def test_zero_rhs(self):
        op = StencilOperator(diffusion_coeffs(ns=1, n1=4, n2=4, coupled=False))
        res = bicgstab(op, np.zeros(op.operand_shape))
        assert res.converged and res.iterations == 0
        assert np.all(res.x == 0.0)

    def test_rhs_shape_rejected(self):
        op = StencilOperator(diffusion_coeffs())
        with pytest.raises(ValueError):
            bicgstab(op, np.zeros(5))

    def test_maxiter_reports_nonconverged(self):
        coeffs = diffusion_coeffs(ns=2, n1=8, n2=8)
        op = StencilOperator(coeffs)
        b = RNG.standard_normal(op.operand_shape)
        res = bicgstab(op, b, tol=1e-14, maxiter=1)
        assert not res.converged
        assert res.iterations == 1

    def test_callback_and_history(self):
        coeffs = diffusion_coeffs(ns=1, n1=6, n2=6, coupled=False)
        op = StencilOperator(coeffs)
        b = RNG.standard_normal(op.operand_shape)
        seen = []
        res = bicgstab(op, b, tol=1e-10, callback=lambda i, rn: seen.append((i, rn)))
        assert len(seen) == len(res.history)
        assert seen[-1][0] == res.iterations

    def test_banded_system(self):
        n = 60
        offsets = [0, -1, 1, -8, 8]
        bands = [RNG.standard_normal(n) * 0.3 for _ in offsets]
        bands[0] = np.abs(RNG.standard_normal(n)) + 2.5
        op = BandedOperator(offsets, bands)
        xtrue = RNG.standard_normal(n)
        b = op.apply(xtrue)
        res = bicgstab(op, b, tol=1e-11)
        assert res.converged
        np.testing.assert_allclose(res.x, xtrue, rtol=1e-7, atol=1e-8)

    def test_counters_updated(self):
        c = Counters()
        suite = KernelSuite("vector", counters=c)
        coeffs = diffusion_coeffs(ns=1, n1=5, n2=5, coupled=False)
        op = StencilOperator(coeffs, suite=suite)
        b = RNG.standard_normal(op.operand_shape)
        res = bicgstab(op, b, suite=suite)
        assert c.linear_solves == 1
        assert c.solver_iterations == res.iterations
        assert c.matvecs >= res.matvecs


class TestCG:
    def _sym_coeffs(self, n1=7, n2=6):
        # Symmetric operator: constant coefficients so west(i) == east(i-1).
        ns = 1
        w = np.full((ns, n1, n2), -1.0)
        d = np.full((ns, n1, n2), 4.5)
        return StencilCoefficients(diag=d, west=w.copy(), east=w.copy(),
                                   south=w.copy(), north=w.copy())

    def test_solves_symmetric_system(self):
        op = StencilOperator(self._sym_coeffs())
        xtrue = RNG.standard_normal(op.operand_shape)
        b = op.apply(xtrue)
        res = conjugate_gradient(op, b, tol=1e-11)
        assert res.converged
        np.testing.assert_allclose(res.x, xtrue, rtol=1e-8, atol=1e-9)

    def test_agrees_with_bicgstab(self):
        op = StencilOperator(self._sym_coeffs())
        b = RNG.standard_normal(op.operand_shape)
        xc = conjugate_gradient(op, b, tol=1e-12).x
        xb = bicgstab(op, b, tol=1e-12).x
        np.testing.assert_allclose(xc, xb, rtol=1e-8, atol=1e-9)

    def test_preconditioned_cg_converges_faster(self):
        op = StencilOperator(self._sym_coeffs(10, 10))
        b = RNG.standard_normal(op.operand_shape)
        plain = conjugate_gradient(op, b, tol=1e-10)
        jac = conjugate_gradient(
            op, b, tol=1e-10, M=JacobiPreconditioner.from_stencil(op.coeffs)
        )
        assert jac.converged
        assert jac.iterations <= plain.iterations + 1

    def test_zero_rhs(self):
        op = StencilOperator(self._sym_coeffs())
        res = conjugate_gradient(op, np.zeros(op.operand_shape))
        assert res.converged and res.iterations == 0

    def test_rhs_shape_rejected(self):
        op = StencilOperator(self._sym_coeffs())
        with pytest.raises(ValueError):
            conjugate_gradient(op, np.zeros(3))


# ---------------------------------------------------------------------------
# Preconditioners
# ---------------------------------------------------------------------------
class TestPreconditioners:
    def test_identity(self):
        x = RNG.standard_normal((2, 3, 3))
        p = IdentityPreconditioner()
        np.testing.assert_array_equal(p.apply(x), x)
        out = np.empty_like(x)
        assert p.apply(x, out=out) is out

    def test_jacobi_math(self):
        diag = np.array([2.0, 4.0, 8.0])
        p = JacobiPreconditioner(diag)
        np.testing.assert_allclose(p.apply(np.array([2.0, 4.0, 8.0])), [1, 1, 1])

    def test_jacobi_rejects_zero_diagonal(self):
        with pytest.raises(ValueError):
            JacobiPreconditioner(np.array([1.0, 0.0]))

    def test_spai_bands_improves_on_jacobi(self):
        # ||A M - I||_F must beat the Jacobi baseline.
        coeffs = diffusion_coeffs(ns=1, n1=8, n2=7, coupled=False)
        offsets, bands = stencil_to_bands(coeffs)
        moffs, mbands = spai_bands(offsets, bands)
        A = assemble_dense(coeffs)
        n = A.shape[0]
        M = BandedOperator(moffs, mbands).to_dense()
        Mj = np.diag(1.0 / np.diag(A))
        err_spai = np.linalg.norm(A @ M - np.eye(n))
        err_jac = np.linalg.norm(A @ Mj - np.eye(n))
        assert err_spai < err_jac

    def test_spai_exact_on_diagonal_matrix(self):
        # For a strictly diagonal A, SPAI on the banded pattern must
        # recover the exact inverse.
        n = 12
        d = np.abs(RNG.standard_normal(n)) + 1.0
        offsets = [0, -1, 1]
        bands = [d, np.zeros(n), np.zeros(n)]
        moffs, mbands = spai_bands(offsets, bands)
        k = moffs.index(0)
        np.testing.assert_allclose(mbands[k], 1.0 / d, rtol=1e-12)

    def test_spai_requires_symmetric_pattern(self):
        with pytest.raises(ValueError):
            spai_bands([0, 1], [np.ones(5), np.ones(5)])

    def test_spai_preconditioner_cuts_iterations(self):
        coeffs = diffusion_coeffs(ns=2, n1=9, n2=8)
        op = StencilOperator(coeffs)
        b = RNG.standard_normal(op.operand_shape)
        plain = bicgstab(op, b, tol=1e-10)
        spai = bicgstab(op, b, tol=1e-10, M=SPAIPreconditioner.from_stencil(coeffs))
        assert spai.converged
        assert spai.iterations < plain.iterations

    def test_spai_preconditioner_shares_answer(self):
        coeffs = diffusion_coeffs(ns=1, n1=6, n2=6, coupled=False)
        op = StencilOperator(coeffs)
        xtrue = RNG.standard_normal(op.operand_shape)
        b = op.apply(xtrue)
        res = bicgstab(op, b, tol=1e-11, M=SPAIPreconditioner.from_stencil(coeffs))
        assert res.converged
        np.testing.assert_allclose(res.x, xtrue, rtol=1e-7, atol=1e-8)

    def test_banded_spai_preconditioner(self):
        n = 80
        offsets = [0, -1, 1, -9, 9]
        bands = [RNG.standard_normal(n) * 0.4 for _ in offsets]
        bands[0] = np.abs(RNG.standard_normal(n)) + 3.0
        op = BandedOperator(offsets, bands)
        b = RNG.standard_normal(n)
        plain = bicgstab(op, b, tol=1e-10)
        spai = bicgstab(op, b, tol=1e-10, M=BandedSPAIPreconditioner(op))
        assert spai.converged
        assert spai.iterations <= plain.iterations

    def test_spai_reflect_bc(self):
        coeffs = diffusion_coeffs(ns=1, n1=6, n2=5, coupled=False)
        op = StencilOperator(coeffs, bc=BoundaryCondition.REFLECT)
        b = RNG.standard_normal(op.operand_shape)
        M = SPAIPreconditioner.from_stencil(coeffs, bc=BoundaryCondition.REFLECT)
        res = bicgstab(op, b, tol=1e-10, M=M)
        assert res.converged


# ---------------------------------------------------------------------------
# SPAI against a brute-force reference (no code shared with spai_bands)
# ---------------------------------------------------------------------------
def _dense(offsets, bands):
    n = bands[0].shape[0]
    A = np.zeros((n, n))
    for off, band in zip(offsets, bands):
        for i in range(max(0, -off), min(n, n - off)):
            A[i, i + off] = band[i]
    return A


def _spai_oracle(offsets, bands):
    """``argmin ||A m_j - e_j||`` over the pattern rows, column by column."""
    A = _dense(offsets, bands)
    n = A.shape[0]
    M = np.zeros((n, n))
    for j in range(n):
        rows = [j + off for off in offsets if 0 <= j + off < n]
        M[rows, j] = np.linalg.lstsq(A[:, rows], np.eye(n)[j], rcond=None)[0]
    return M


def _spai_case(name):
    if name == "banded-1d":
        op = BandedOperator(*banded_system(n=60, band_offset=9)[:2])
        return list(op.offsets), op.bands
    ns, bc = {
        "dirichlet": (1, BoundaryCondition.DIRICHLET0),
        "reflect": (1, BoundaryCondition.REFLECT),
        "coupled-ns2": (2, BoundaryCondition.DIRICHLET0),
        "coupled-ns3": (3, BoundaryCondition.DIRICHLET0),
    }[name]
    return stencil_to_bands(diffusion_coeffs(ns=ns, n1=6, n2=5, coupled=ns > 1), bc)


class TestSPAIOracle:
    @pytest.mark.parametrize(
        "case", ["dirichlet", "reflect", "coupled-ns2", "coupled-ns3", "banded-1d"]
    )
    def test_matches_columnwise_least_squares(self, case):
        offsets, bands = _spai_case(case)
        moffs, mbands = spai_bands(offsets, bands)
        assert list(moffs) == list(offsets)
        np.testing.assert_allclose(
            _dense(moffs, mbands), _spai_oracle(offsets, bands), rtol=1e-11, atol=1e-15
        )

    def test_ns3_merges_duplicate_coupling_offsets(self):
        # s=0->1 and s=1->2 share offset +blk: one band, nine in all.
        offsets, _ = _spai_case("coupled-ns3")
        assert len(offsets) == len(set(offsets)) == 9

    def test_singular_column_takes_the_ridge(self):
        # Column 7 of A all zero: every Gram matrix with row 7 among its
        # unknowns is singular, which must trigger the ridge retry, not
        # a NaN.  Columns whose pattern avoids row 7 keep their exact
        # least-squares answer up to the ridge (1e-10 relative).
        offsets, bands = _spai_case("banded-1d")
        n = bands[0].shape[0]
        for off, band in zip(offsets, bands):
            if 0 <= 7 - off < n:
                band[7 - off] = 0.0
        assert not _dense(offsets, bands)[:, 7].any()
        moffs, mbands = spai_bands(offsets, bands)
        M = _dense(moffs, mbands)
        assert np.all(np.isfinite(M))
        untouched = [j for j in range(n) if all(j + off != 7 for off in offsets)]
        np.testing.assert_allclose(
            M[:, untouched], _spai_oracle(offsets, bands)[:, untouched],
            rtol=1e-7, atol=1e-12,
        )

    def test_singular_despite_ridge_raises(self):
        offsets, bands = _spai_case("banded-1d")
        bands[offsets.index(0)][5] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            spai_bands(offsets, bands)
