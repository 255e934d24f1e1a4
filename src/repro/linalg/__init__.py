"""Sparse linear algebra: V2D's Krylov solver stack.

* :mod:`repro.linalg.operators` -- matrix-free linear operators: the
  ghost-filling :class:`StencilOperator` (V2D's Matvec) and the
  :class:`BandedOperator` used by the Table-II driver.
* :mod:`repro.linalg.banded` -- assembly of the stencil operator into
  banded / CSR form for validation and for the Fig. 1 sparsity pattern.
* :mod:`repro.linalg.bicgstab` -- BiCGSTAB [van der Vorst 1992], both
  textbook and V2D's restructured variant that gangs inner products to
  cut global reductions per iteration from six to two.
* :mod:`repro.linalg.cg` -- Conjugate Gradient baseline (the method
  BiCGSTAB extends to non-symmetric systems).
* :mod:`repro.linalg.gmres` -- restarted GMRES baseline (the classic
  alternative weighed by the 2004 solver-comparison paper, ref. [7]).
* :mod:`repro.linalg.spai` -- sparse approximate inverse
  preconditioning [Swesty, Smolarski & Saylor 2004] plus Jacobi and
  identity baselines.
* :mod:`repro.linalg.ilu` -- banded ILU(0), the sequential competitor
  whose non-vectorizable triangular solves motivate SPAI on SIMD
  hardware.
"""

from repro._lazy import lazy_exports

# ``bicgstab`` and ``gmres`` each name a module and its function.  Once
# anything imports the module it becomes the package attribute, which a
# lazy name would never override, so these two are bound here.
from repro.linalg.bicgstab import bicgstab
from repro.linalg.gmres import gmres

__getattr__, __dir__ = lazy_exports(globals(), {
    ".banded": (
        "assemble_csr", "assemble_dense", "band_offsets", "pattern_report",
        "sparsity_block", "stencil_to_bands",
    ),
    ".bicgstab": (
        "REDUCTIONS_PER_ITER_CLASSIC", "REDUCTIONS_PER_ITER_GANGED", "DotContext",
        "SolveResult",
    ),
    ".cg": ("conjugate_gradient",),
    ".ilu": ("ILU0Factorization", "ILU0Preconditioner", "ilu0_banded"),
    ".operators": ("BandedOperator", "IdentityOperator", "LinearOperator", "StencilOperator"),
    ".spai": (
        "BandedSPAIPreconditioner", "IdentityPreconditioner", "JacobiPreconditioner",
        "Preconditioner", "SPAIPreconditioner", "bands_to_stencil", "spai_bands",
    ),
})

__all__ = [
    "LinearOperator",
    "StencilOperator",
    "BandedOperator",
    "IdentityOperator",
    "bicgstab",
    "SolveResult",
    "DotContext",
    "REDUCTIONS_PER_ITER_CLASSIC",
    "REDUCTIONS_PER_ITER_GANGED",
    "conjugate_gradient",
    "gmres",
    "ilu0_banded",
    "ILU0Factorization",
    "ILU0Preconditioner",
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "SPAIPreconditioner",
    "BandedSPAIPreconditioner",
    "spai_bands",
    "bands_to_stencil",
    "stencil_to_bands",
    "assemble_csr",
    "assemble_dense",
    "sparsity_block",
    "band_offsets",
    "pattern_report",
]
