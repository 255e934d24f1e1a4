"""Matrix-free linear operators.

"Because of its prohibitive size, the sparse linear system matrix is
never stored and the Krylov subspace methods are implemented in
matrix-free form by application of a finite-difference operator to
column vectors that are stored as Fortran arrays defined with the same
spatial shape as the 2D grid."  (paper, Sec. I-C)

:class:`StencilOperator` is that operator: it owns a ghost-padded
workspace, fills ghosts (physical boundary conditions and, when a
Cartesian topology is attached, halo exchange with neighbouring tiles)
and applies the multi-species 5-point stencil through the instrumented
kernel suite.  Solver vectors remain plain interior-shaped arrays
``(ns, nx1, nx2)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.backend.base import Backend
from repro.grid.field import Field
from repro.kernels.stencil import MultiSpeciesStencil, StencilCoefficients
from repro.kernels.suite import KernelSuite
from repro.parallel.cart import CartComm
from repro.parallel.halo import BoundaryCondition, HaloExchanger

Array = np.ndarray


class LinearOperator(ABC):
    """A matrix-free ``y = A x`` with known operand shape."""

    @property
    @abstractmethod
    def operand_shape(self) -> tuple[int, ...]:
        """Shape of the vectors this operator acts on."""

    @abstractmethod
    def apply(self, x: Array, out: Array | None = None) -> Array:
        """Compute ``A x`` (allocating ``out`` when not supplied)."""

    @property
    def size(self) -> int:
        """Number of unknowns."""
        n = 1
        for d in self.operand_shape:
            n *= d
        return n

    def new_vector(self) -> Array:
        """A zeroed vector of the operand shape."""
        return np.zeros(self.operand_shape)

    def apply_dots(
        self, x: Array, dots: Sequence[object], out: Array | None = None
    ) -> tuple[Array, Array]:
        """Fused ``A x`` plus ganged inner products against the result.

        ``dots`` entries follow the backend dot-spec forms (``None`` ->
        ``<Ax, Ax>``; array ``w`` -> ``<Ax, w>``; ``(a, b)`` tuple -> an
        independent pair).  Returns ``(Ax, values)`` with the values
        local to this rank.  The default is the unfused composition;
        operators with a fused kernel path override it.
        """
        out = self.apply(x, out=out)
        pairs = Backend._resolve_dot_pairs(out, dots)
        suite = getattr(self, "suite", None)
        if suite is not None:
            return out, suite.dprod_gang(pairs)
        return out, np.array([float(np.dot(a.ravel(), b.ravel())) for a, b in pairs])

    def __matmul__(self, x: Array) -> Array:
        return self.apply(x)


class StencilOperator(LinearOperator):
    """V2D's Matvec: ghost fill + multi-species 5-point stencil.

    Parameters
    ----------
    coeffs:
        The operator's stencil coefficients.
    suite:
        Instrumented kernel suite (chooses the execution backend).
    bc:
        Physical-boundary ghost-fill strategy (linear, so the operator
        stays linear).  Either one :class:`BoundaryCondition` or a
        per-side dict.
    cart:
        Optional Cartesian topology.  When given, ``coeffs`` describe
        this rank's tile and every :meth:`apply` performs a halo
        exchange; sides facing neighbouring tiles take their ghosts
        from the exchange, physical sides from ``bc``.
    tracer:
        Optional tracer handed to the internal halo exchanger, so the
        per-Matvec exchanges of decomposed solves land on the timeline.
    work:
        Ghost-padded (one layer) operand workspace to use instead of
        allocating one.  Every :meth:`apply` overwrites all of it, so
        operators that are never applied concurrently -- a system
        operator and its SPAI preconditioner -- can share one.
    """

    def __init__(
        self,
        coeffs: StencilCoefficients,
        suite: KernelSuite | None = None,
        bc: BoundaryCondition | dict[str, BoundaryCondition] = BoundaryCondition.DIRICHLET0,
        cart: CartComm | None = None,
        tracer=None,
        work: Field | None = None,
    ) -> None:
        self.coeffs = coeffs
        self.suite = suite if suite is not None else KernelSuite()
        self.bc = bc
        self.cart = cart
        self._stencil = MultiSpeciesStencil(coeffs, self.suite)
        ns, (n1, n2) = coeffs.nspec, coeffs.shape
        if cart is not None and cart.tile.shape != (n1, n2):
            raise ValueError(
                f"coefficients shape {(n1, n2)} does not match this rank's "
                f"tile {cart.tile.shape}"
            )
        if work is None:
            work = Field(ns, (n1, n2), nghost=1)
        elif (work.nspec, work.shape, work.nghost) != (ns, (n1, n2), 1):
            raise ValueError(
                f"workspace {work!r} does not fit {ns} species on {(n1, n2)} "
                "zones with one ghost layer"
            )
        self._work = work
        self._halo = (
            HaloExchanger(cart, bc, tracer=tracer) if cart is not None else None
        )

    # ------------------------------------------------------------------
    @property
    def operand_shape(self) -> tuple[int, ...]:
        ns, (n1, n2) = self.coeffs.nspec, self.coeffs.shape
        return (ns, n1, n2)

    def fill_ghosts(self, x: Array) -> Field:
        """Load ``x`` into the workspace and fill every ghost zone."""
        if x.shape != self.operand_shape:
            raise ValueError(f"operand shape {x.shape} != {self.operand_shape}")
        work = self._work
        work.interior = x
        if self._halo is not None:
            self._halo.exchange(work)
        else:
            for side in ("west", "east", "south", "north"):
                bc = self.bc if isinstance(self.bc, BoundaryCondition) else self.bc[side]
                if bc is BoundaryCondition.DIRICHLET0:
                    work.zero_side(side)
                else:
                    work.reflect_side(side)
        return work

    def apply(self, x: Array, out: Array | None = None) -> Array:
        work = self.fill_ghosts(x)
        return self._stencil.apply(work.data, out=out)

    def apply_dots(
        self, x: Array, dots: Sequence[object], out: Array | None = None
    ) -> tuple[Array, Array]:
        """Fused Matvec + ganged DPROD through the stencil kernel."""
        work = self.fill_ghosts(x)
        return self._stencil.apply_dots(work.data, dots, out=out)


class BandedOperator(LinearOperator):
    """1-D banded operator (the Table-II driver's system form)."""

    def __init__(
        self,
        offsets: Sequence[int],
        bands: Sequence[Array],
        suite: KernelSuite | None = None,
    ) -> None:
        if len(offsets) != len(bands):
            raise ValueError("offsets and bands must pair up")
        if len(set(offsets)) != len(offsets):
            raise ValueError("duplicate band offsets")
        n = bands[0].shape[0]
        for b in bands:
            if b.shape != (n,):
                raise ValueError("all bands must be 1-D of equal length")
        self.offsets = tuple(int(o) for o in offsets)
        self.bands = [np.asarray(b, dtype=float) for b in bands]
        # Entries whose column index falls outside the matrix are
        # structurally zero; enforce that so banded algebra (e.g. SPAI's
        # A^T A) can trust the band arrays.
        for off, band in zip(self.offsets, self.bands):
            if off > 0:
                band[n - off :] = 0.0
            elif off < 0:
                band[: -off] = 0.0
        self.n = n
        self.suite = suite if suite is not None else KernelSuite()

    @property
    def operand_shape(self) -> tuple[int, ...]:
        return (self.n,)

    def apply(self, x: Array, out: Array | None = None) -> Array:
        return self.suite.matvec_banded(self.offsets, self.bands, x, out=out)

    def diagonal(self) -> Array:
        """The main diagonal (used by the Jacobi preconditioner)."""
        try:
            k = self.offsets.index(0)
        except ValueError:
            return np.zeros(self.n)
        return self.bands[k]

    def to_dense(self) -> Array:
        """Dense equivalent (validation only; O(n^2) memory)."""
        dense = np.zeros((self.n, self.n))
        for off, band in zip(self.offsets, self.bands):
            for i in range(self.n):
                j = i + off
                if 0 <= j < self.n:
                    dense[i, j] = band[i]
        return dense


class IdentityOperator(LinearOperator):
    """``A = I`` (degenerate baseline / solver smoke tests)."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        self._shape = tuple(shape)

    @property
    def operand_shape(self) -> tuple[int, ...]:
        return self._shape

    def apply(self, x: Array, out: Array | None = None) -> Array:
        if out is None:
            return x.copy()
        out[...] = x
        return out
