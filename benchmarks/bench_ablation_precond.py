"""Ablation — SPAI vs Jacobi vs no preconditioner.

V2D preconditions with a sparse approximate inverse (ref. [7] compared
solver/preconditioner combinations for exactly these systems).  This
ablation measures iteration counts and wall time on a representative
radiation system for the three preconditioning choices, asserting the
quality ordering SPAI <= Jacobi <= none (iterations).
"""

import numpy as np
import pytest

from repro.grid import Mesh2D
from repro.linalg import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    SPAIPreconditioner,
    StencilOperator,
    bicgstab,
)
from repro.transport import ConstantOpacity, RadiationBasis, build_radiation_system

BASIS = RadiationBasis()


def radiation_system(mesh: Mesh2D, dt: float):
    n1, n2 = mesh.shape
    epad = np.abs(np.random.default_rng(2).standard_normal((2, n1 + 2, n2 + 2))) + 0.1
    return build_radiation_system(
        mesh, epad, np.ones(mesh.shape), np.ones(mesh.shape),
        dt=dt, basis=BASIS, opacity=ConstantOpacity(kappa_a=0.01, kappa_s=0.05),
    )


# A stiff radiation step (large dt * D / dx^2) where preconditioning
# actually matters.
MESH = Mesh2D.uniform(32, 24, extent1=(0, 1), extent2=(0, 1))
SYSTEM = radiation_system(MESH, dt=0.5)


def make_preconditioner(kind: str):
    if kind == "spai":
        return SPAIPreconditioner.from_stencil(SYSTEM.coeffs)
    if kind == "jacobi":
        return JacobiPreconditioner.from_stencil(SYSTEM.coeffs)
    return IdentityPreconditioner()


def solve(kind: str):
    op = StencilOperator(SYSTEM.coeffs)
    return bicgstab(op, SYSTEM.rhs, tol=1e-10, M=make_preconditioner(kind))


class TestPrecondAblation:
    @pytest.mark.parametrize("kind", ["none", "jacobi", "spai"])
    def test_bench_solve(self, benchmark, kind):
        res = benchmark(solve, kind)
        assert res.converged

    def test_bench_spai_setup(self, benchmark, bench_record):
        M = benchmark(SPAIPreconditioner.from_stencil, SYSTEM.coeffs)
        assert M.mcoeffs.shape == MESH.shape
        # The same set-up at the paper's size (40,000 unknowns), in the
        # ledger: it was 90 % of a paper-sized step before it was
        # rewritten, and `repro perf check` should see it come back.
        paper = radiation_system(
            Mesh2D.uniform(200, 100, extent1=(0, 2), extent2=(0, 1)), dt=5e-4
        )
        bench_record.time(
            lambda: SPAIPreconditioner.from_stencil(paper.coeffs),
            name="spai_setup_200x100x2",
            repeats=9,
            config={"nunknowns": paper.nunknowns},
        )

    def test_iteration_ordering(self, bench_record, write_report):
        iters = {k: solve(k).iterations for k in ("none", "jacobi", "spai")}
        bench_record.record(
            "iterations",
            {f"iters_{k}": (float(v), "count") for k, v in iters.items()},
            config={"nunknowns": SYSTEM.nunknowns, "tol": 1e-10},
        )
        report = "\n".join(
            [
                "ABLATION — preconditioner quality (BiCGSTAB iterations)",
                f"  system: {SYSTEM.nunknowns} unknowns, stiff dt",
                *(f"  {k:<8}: {v} iterations" for k, v in iters.items()),
            ]
        )
        write_report("ablation_precond", report)
        assert iters["spai"] <= iters["jacobi"] <= iters["none"]
        assert iters["spai"] < iters["none"]

    def test_all_reach_same_answer(self):
        xs = {k: solve(k).x for k in ("none", "jacobi", "spai")}
        np.testing.assert_allclose(xs["spai"], xs["none"], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(xs["jacobi"], xs["none"], rtol=1e-6, atol=1e-9)
