"""Preconditioning: sparse approximate inverse (SPAI) and baselines.

"Preconditioning of the linear system is accomplished using a sparse
approximate inverse preconditioner" (paper Sec. I-C, citing Swesty,
Smolarski & Saylor 2004).

SPAI chooses M with a prescribed sparsity pattern (here: the pattern of
A itself) minimizing ``||A M - I||_F`` column by column.  Each column
is a tiny least-squares problem over the pattern; for a banded operator
its normal equations are an ``m x m`` Gram matrix (m = number of bands)
read off the diagonals of ``S = A^T A``.  :func:`spai_bands` forms
those diagonals as products of shifted band slices, holds entry
``(a, b)`` of all n Gram matrices as one length-n array, and factors
them together with an LDL^T whose every step is an array operation
across the n columns -- no scatter, no masks, no per-column LAPACK.

Crucially, the resulting M has the *same banded/stencil structure as
A*, so applying the preconditioner is just another matrix-free stencil
Matvec -- the paper observed SVE speedup "in the routines that applied
the preconditioner to the system matrix" precisely because those
routines are the same vectorizable kernels.

In decomposed runs SPAI is built from the tile-local (block-diagonal)
part of the operator, the standard parallel SPAI practice: the
preconditioner application then needs no halo exchange.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.grid.field import Field
from repro.kernels.stencil import StencilCoefficients
from repro.kernels.suite import KernelSuite
from repro.linalg.banded import stencil_to_bands
from repro.linalg.operators import BandedOperator, StencilOperator
from repro.parallel.halo import BoundaryCondition

Array = np.ndarray


class Preconditioner(ABC):
    """Applies ``M ~= A^-1`` to a vector (right preconditioning)."""

    @abstractmethod
    def apply(self, x: Array, out: Array | None = None) -> Array:
        """Compute ``M x``."""


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (baseline)."""

    def apply(self, x: Array, out: Array | None = None) -> Array:
        if out is None:
            return x.copy()
        out[...] = x
        return out


class JacobiPreconditioner(Preconditioner):
    """``M = diag(A)^-1`` (point-Jacobi / SPAI-0 baseline).

    Parameters
    ----------
    diagonal:
        The operator's main diagonal, operand-shaped.  Zero entries are
        rejected (a singular Jacobi preconditioner).
    """

    def __init__(self, diagonal: Array, suite: KernelSuite | None = None) -> None:
        if np.any(diagonal == 0.0):
            raise ValueError("Jacobi preconditioner requires a nonzero diagonal")
        self._inv = 1.0 / diagonal
        self.suite = suite if suite is not None else KernelSuite()

    @classmethod
    def from_stencil(
        cls, coeffs: StencilCoefficients, suite: KernelSuite | None = None
    ) -> "JacobiPreconditioner":
        return cls(coeffs.diag, suite=suite)

    @classmethod
    def from_banded(
        cls, op: BandedOperator, suite: KernelSuite | None = None
    ) -> "JacobiPreconditioner":
        return cls(op.diagonal(), suite=suite)

    def apply(self, x: Array, out: Array | None = None) -> Array:
        return self.suite.backend.mul(self._inv, x, out=out)


# ---------------------------------------------------------------------------
# Banded SPAI construction
# ---------------------------------------------------------------------------
def spai_bands(
    offsets: Sequence[int], bands: Sequence[Array], ridge: float = 0.0
) -> tuple[list[int], list[Array]]:
    """SPAI of a banded matrix, on the same banded pattern.

    Parameters
    ----------
    offsets, bands:
        Row-indexed banded form (``band[k][i] = A[i, i + offsets[k]]``)
        with structural zeros enforced at the matrix edges.  The offset
        set must be symmetric (``-d`` present for every ``d``) -- true
        for every operator in this package -- so that M's pattern
        equals A's.
    ridge:
        Optional Tikhonov term added to the normal equations (used as a
        retry when a column's little Gram matrix is singular).

    Returns
    -------
    (offsets, mbands):
        The banded form of M minimizing ``||A M - I||_F`` columnwise
        over the pattern.

    Notes
    -----
    Column j's unknowns are ``M[j + d, j]`` for the offsets ``d``; its
    Gram matrix is the principal submatrix of ``S = A^T A`` on those
    rows, and an unknown whose row lies outside the matrix is pinned to
    zero by an identity row.  The Gram matrices are symmetric positive
    semi-definite, so they are factored without pivoting; a pivot that
    is not ``> 0`` in any column (zero, negative by rounding, or NaN)
    means a singular system and triggers one retry with
    ``ridge = 1e-10 * max(1, mean|diag A|)**2``.  A pivot that fails
    with the ridge in place raises :class:`numpy.linalg.LinAlgError`.
    """
    offs = [int(o) for o in offsets]
    if sorted(offs) != sorted(-o for o in offs):
        raise ValueError("SPAI pattern requires a symmetric offset set")
    n = bands[0].shape[0]
    bmap = {o: np.asarray(b, dtype=float) for o, b in zip(offs, bands)}
    srt = sorted(offs)
    m = len(srt)

    def inside(lo: int, hi: int) -> tuple[int, int]:
        """Index range whose shifts by ``lo <= hi`` both stay in ``[0, n)``."""
        start = min(max(0, -lo), n)
        return start, max(start, min(n, n - hi))

    # S = A^T A as diagonals sd[e][u] = S[u, u + e], e >= 0 only (S is
    # symmetric).  Rows i of bands d_a <= d_b meet in column u = i + d_a.
    sd: dict[int, Array] = {}
    tmp = np.empty(n)
    for a, da in enumerate(srt):
        i0, i1 = inside(da, da)
        for db in srt[a:]:
            if db - da not in sd:
                sd[db - da] = np.zeros(n)
            np.multiply(bmap[da][i0:i1], bmap[db][i0:i1], out=tmp[i0:i1])
            sd[db - da][i0 + da : i1 + da] += tmp[i0:i1]

    # Normal equations of column j: unknown a is M[j + d_a, j], so
    # G[a, b][j] = S[j + d_a, j + d_b] and f[a][j] = A[j, j + d_a].  An
    # unknown whose row falls outside the matrix keeps an identity row
    # (and f = 0), which pins it to zero.  Upper triangle only, all n
    # systems in one block.
    block = np.zeros((m + m * (m + 1) // 2, n))
    f = list(block[:m])
    G = dict(zip(((a, b) for a in range(m) for b in range(a, m)), block[m:]))
    for a, da in enumerate(srt):
        j0, j1 = inside(da, da)
        f[a][j0:j1] = bmap[da][j0:j1]
        G[a, a][...] = 1.0
        for b in range(a, m):
            j0, j1 = inside(da, srt[b])
            G[a, b][j0:j1] = sd[srt[b] - da][j0 + da : j1 + da]
        G[a, a] += ridge

    # In-place LDL^T of all n Gram matrices at once (G[k, i], i > k,
    # becomes L[i][k]; G[k, k] the pivot), forward substitution fused in.
    for k in range(m):
        if not np.all(G[k, k] > 0.0):
            # Singular (or NaN) somewhere: what LAPACK's LinAlgError was.
            if ridge > 0.0:
                raise np.linalg.LinAlgError("SPAI Gram matrix singular despite ridge")
            scale = float(np.mean(np.abs(bmap[0]))) if 0 in bmap else 1.0
            # ``scale > 1`` is False for NaN too: the retry always has ridge > 0.
            return spai_bands(
                offsets, bands, ridge=1e-10 * scale**2 if scale > 1.0 else 1e-10
            )
        for i in range(k + 1, m):
            lik = G[k, i] / G[k, k]
            for c in range(i, m):
                G[i, c] -= np.multiply(lik, G[k, c], out=tmp)
            f[i] -= np.multiply(lik, f[k], out=tmp)
            G[k, i] = lik
    for k in range(m - 1, -1, -1):
        f[k] /= G[k, k]
        for i in range(k + 1, m):
            f[k] -= np.multiply(G[k, i], f[i], out=tmp)

    # Column j's unknown for offset d is M[j + d, j]: row-indexed band
    # -d of M, read at u = j + d.
    mbands: list[Array] = []
    for o in offs:
        u0, u1 = inside(o, o)
        band = np.zeros(n)
        band[u0:u1] = f[srt.index(-o)][u0 + o : u1 + o]
        mbands.append(band)
    return offs, mbands


def bands_to_stencil(
    offsets: Sequence[int],
    bands: Sequence[Array],
    ns: int,
    nx1: int,
    nx2: int,
) -> StencilCoefficients:
    """Inverse of :func:`repro.linalg.banded.stencil_to_bands`.

    Only the stencil offsets ``0, +/-1, +/-nx1`` and species-coupling
    offsets ``+/-k*nx1*nx2`` are representable; anything else raises.
    """
    blk = nx1 * nx2

    def unflatten(flat: Array) -> Array:
        # A view: every use below copies it straight into ``c``.
        return flat.reshape(ns, nx2, nx1).transpose(0, 2, 1)

    coupled = any(abs(o) >= blk and o != 0 for o in offsets)
    c = StencilCoefficients.zeros(ns, nx1, nx2, coupled=coupled)
    for off, band in zip(offsets, bands):
        if off == 0:
            c.diag[...] = unflatten(band)
        elif off == -1:
            c.west[...] = unflatten(band)
        elif off == 1:
            c.east[...] = unflatten(band)
        elif off == -nx1:
            c.south[...] = unflatten(band)
        elif off == nx1:
            c.north[...] = unflatten(band)
        elif off % blk == 0 and abs(off) // blk < ns:
            k = off // blk
            full = unflatten(band)
            for s in range(ns):
                sp = s + k
                if 0 <= sp < ns:
                    c.coupling[s, sp] = full[s]
        else:
            raise ValueError(f"band offset {off} is not stencil-representable")
    return c


class SPAIPreconditioner(Preconditioner):
    """Stencil-pattern SPAI applied as a matrix-free stencil Matvec.

    ``work`` is handed to the internal :class:`StencilOperator`: the
    ghost-padded workspace of the system operator this preconditions
    can serve both (they are applied one after the other).
    """

    def __init__(
        self,
        mcoeffs: StencilCoefficients,
        suite: KernelSuite | None = None,
        work: Field | None = None,
    ) -> None:
        self.suite = suite if suite is not None else KernelSuite()
        self._op = StencilOperator(
            mcoeffs, suite=self.suite, bc=BoundaryCondition.DIRICHLET0, cart=None,
            work=work,
        )
        self.mcoeffs = mcoeffs

    @classmethod
    def from_stencil(
        cls,
        coeffs: StencilCoefficients,
        bc: BoundaryCondition | dict[str, BoundaryCondition] = BoundaryCondition.DIRICHLET0,
        suite: KernelSuite | None = None,
        work: Field | None = None,
    ) -> "SPAIPreconditioner":
        """Build SPAI for the (tile-local) operator-with-BCs."""
        offsets, bands = stencil_to_bands(coeffs, bc)
        moffs, mbands = spai_bands(offsets, bands)
        ns, (n1, n2) = coeffs.nspec, coeffs.shape
        mcoeffs = bands_to_stencil(moffs, mbands, ns, n1, n2)
        return cls(mcoeffs, suite=suite, work=work)

    def apply(self, x: Array, out: Array | None = None) -> Array:
        return self._op.apply(x, out=out)


class BandedSPAIPreconditioner(Preconditioner):
    """SPAI for 1-D banded systems (the Table-II driver path)."""

    def __init__(self, op: BandedOperator, suite: KernelSuite | None = None) -> None:
        self.suite = suite if suite is not None else op.suite
        moffs, mbands = spai_bands(op.offsets, op.bands)
        self._mop = BandedOperator(moffs, mbands, suite=self.suite)

    def apply(self, x: Array, out: Array | None = None) -> Array:
        return self._mop.apply(x, out=out)
