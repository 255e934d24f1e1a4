"""BiCGSTAB with optional ganged inner products.

V2D's linear solver is "a restructured version of the BiCGSTAB
algorithm, which gangs inner products to reduce the number of parallel
global reduction operations required per iteration" (paper Sec. I-C).

Two variants are provided:

* ``ganged=False`` -- the textbook algorithm [van der Vorst 1992]:
  six global reductions per iteration (rho, the alpha denominator, the
  early-exit norm of s, the two omega dots, and the residual norm).
* ``ganged=True`` -- the restructured algorithm: inner products whose
  operands coexist are computed in one fused pass and carried by a
  single reduction.  The norm of ``s``, the norm of the new residual
  and the next iteration's ``rho`` are recovered from ganged dots via
  the identities::

      ||s||^2      = (r,r) - 2 a (r,v) + a^2 (v,v)
      ||r_new||^2  = (s,s) - 2 w (t,s) + w^2 (t,t)
      rho_new      = (r0^,s) - w (r0^,t)

  leaving exactly two reductions per iteration.

Both variants are right-preconditioned (``A M^-1 y = b``, ``x = M^-1
y``), so the preconditioner application is itself just another stencil
Matvec when ``M`` is a SPAI operator.

Derived norms are validated: whenever the derived residual norm signals
convergence, the solver recomputes the true residual (one extra Matvec)
and keeps iterating if rounding in the identities lied.

The ganged variant additionally has a *fused* form (``fused=True``, the
default): each Matvec and the ganged dots against its result become one
fused kernel launch (:meth:`LinearOperator.apply_dots`), the two-DAXPY
solution update becomes one DDAXPY, and all scratch vectors come from a
preallocated :class:`~repro.kernels.fused.SolverWorkspace` reused
across solves, so the inner loop is allocation-free.  On the vector
backend the fused iteration is bit-identical to the unfused ganged one
(same element operations, same association, same reduction order); on
the scalar backend the fused DDAXPY reassociates the update, so results
agree to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.kernels.fused import SolverWorkspace
from repro.kernels.suite import KernelSuite
from repro.linalg.operators import LinearOperator
from repro.linalg.spai import Preconditioner
from repro.monitor.trace import Tracer
from repro.parallel.comm import Communicator

Array = np.ndarray

#: Reduction counts per iteration, used by tests and the perf model.
REDUCTIONS_PER_ITER_CLASSIC = 6
REDUCTIONS_PER_ITER_GANGED = 2


class DotContext:
    """Global inner products: local fused pass + one reduction."""

    def __init__(self, suite: KernelSuite, comm: Communicator | None = None) -> None:
        self.suite = suite
        self.comm = comm
        self.reductions = 0

    def _reduce(self, local):
        """One global reduction of a locally computed value (or gang)."""
        self.reductions += 1
        if self.comm is not None and self.comm.size > 1:
            return self.comm.allreduce(local)
        if self.comm is not None:
            self.comm.counters.reductions += 1
        return local

    def dot(self, x: Array, y: Array) -> float:
        return float(self._reduce(self.suite.dprod(x, y)))

    def gang(self, pairs: Sequence[tuple[Array, Array]]) -> np.ndarray:
        """Several inner products, one global reduction."""
        return np.asarray(self._reduce(self.suite.dprod_gang(pairs)))

    def gang_matvec(
        self,
        op: LinearOperator,
        x: Array,
        dots: Sequence[object],
        out: Array | None = None,
    ) -> tuple[Array, np.ndarray]:
        """Fused Matvec + ganged dots, one global reduction."""
        out, local = op.apply_dots(x, dots, out=out)
        return out, np.asarray(self._reduce(local))

    def reduce_scalar(self, local: float) -> float:
        """Globally reduce one locally computed inner product."""
        return float(self._reduce(local))


@dataclass
class SolveResult:
    """Outcome of a Krylov solve."""

    x: Array
    converged: bool
    iterations: int
    residual_norm: float          # true ||b - A x|| at exit
    relative_residual: float      # residual_norm / ||b||
    reductions: int               # global reduction operations used
    matvecs: int                  # operator applications (excl. precond)
    precond_applies: int
    breakdowns: int = 0
    fused: bool = False           # solved via the fused-kernel path
    history: list[float] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolveResult(converged={self.converged}, iters={self.iterations}, "
            f"rel_res={self.relative_residual:.3e}, reductions={self.reductions})"
        )


def _norm_from_sq(v: float) -> float:
    """``sqrt`` of a reduced sum of squares, poisoning impossibilities.

    ``(x, x)`` is a sum of non-negative terms, so a negative reduction
    can only mean a corrupted value (e.g. an injected comm fault).
    Clamping it to zero would fake an exact zero norm -- and a zero
    *rhs* norm silently commits ``x = 0`` as converged -- so negative
    inputs poison to NaN, which every caller treats as a breakdown.
    Finite non-negative inputs are untouched (bitwise-identical clean
    runs).
    """
    if v < 0.0:
        return float("nan")
    return float(np.sqrt(v))


def _true_residual(
    op: LinearOperator,
    b: Array,
    x: Array,
    suite: KernelSuite,
    dots: DotContext,
    fused: bool = False,
) -> tuple[Array, float]:
    ax = op.apply(x)
    if fused:
        # One launch: residual update + its squared norm.
        r, rr_local = suite.dscal_norm(b, 1.0, ax)
        return r, _norm_from_sq(dots.reduce_scalar(rr_local))
    r = suite.dscal(b, 1.0, ax)  # b - Ax
    return r, _norm_from_sq(dots.dot(r, r))


def bicgstab(
    op: LinearOperator,
    b: Array,
    x0: Array | None = None,
    *,
    tol: float = 1e-8,
    maxiter: int = 1000,
    M: Preconditioner | None = None,
    suite: KernelSuite | None = None,
    comm: Communicator | None = None,
    ganged: bool = True,
    fused: bool = True,
    workspace: SolverWorkspace | None = None,
    max_restarts: int = 10,
    callback: Callable[[int, float], None] | None = None,
    tracer: Tracer | None = None,
) -> SolveResult:
    """Solve ``A x = b`` with (preconditioned) BiCGSTAB.

    Parameters
    ----------
    op:
        The system operator (matrix-free).
    b:
        Right-hand side, operand-shaped.
    x0:
        Initial guess (zero when omitted).
    tol:
        Convergence on the *relative* residual ``||r|| <= tol * ||b||``.
    M:
        Right preconditioner (applied as ``M.apply``); ``None`` for
        unpreconditioned.
    suite:
        Kernel suite (execution backend + accounting); defaults to the
        operator's suite when it has one.
    comm:
        Communicator for decomposed operands; reductions become
        all-reduces.
    ganged:
        Use V2D's restructured two-reduction iteration (default) or the
        textbook six-reduction one.
    fused:
        With ``ganged``, run the fused-kernel hot path: Matvec + ganged
        dots in one launch, DDAXPY solution updates, and workspace
        reuse.  Ignored for the textbook variant.
    workspace:
        Preallocated :class:`~repro.kernels.fused.SolverWorkspace` to
        reuse across solves (one is created per call when omitted).
    max_restarts:
        BiCGSTAB breakdown recoveries (``rho ~ 0``) before giving up.
    callback:
        Called as ``callback(iteration, residual_norm)`` once per
        iteration with the (possibly derived) residual norm.
    tracer:
        Optional :class:`~repro.monitor.trace.Tracer`; when given, the
        solver marks every iteration (and every breakdown restart) on
        its track.  ``None`` (the default) adds no work to the
        iteration at all.
    """
    if suite is None:
        suite = getattr(op, "suite", None) or KernelSuite()
    if b.shape != tuple(op.operand_shape):
        raise ValueError(f"rhs shape {b.shape} != operand shape {op.operand_shape}")
    use_fused = fused and ganged
    dots = DotContext(suite, comm)
    if suite.counters is not None:
        suite.counters.linear_solves += 1
    mv = 0
    mapplies = 0
    breakdowns = 0
    history: list[float] = []

    x = b * 0.0 if x0 is None else x0.copy()
    if x0 is None:
        r = b.copy()
    else:
        r = op.apply(x)
        mv += 1
        r = suite.dscal(b, 1.0, r)  # r = b - A x0

    rr: float | None = None
    if use_fused:
        if x0 is None:
            # r is a fresh copy of b, so (r, r) is (b, b) -- one
            # reduction covers both.
            bb = dots.dot(b, b)
            rr = float(bb)
        else:
            bb, rr = (float(val) for val in dots.gang([(b, b), (r, r)]))
    else:
        bb = dots.dot(b, b)
    bnorm = _norm_from_sq(float(bb))
    if bnorm == 0.0:
        # Zero RHS: the solution is zero (relative residual undefined;
        # report absolute zero residual).
        return SolveResult(
            x=np.zeros_like(b), converged=True, iterations=0, residual_norm=0.0,
            relative_residual=0.0, reductions=dots.reductions, matvecs=mv,
            precond_applies=0, fused=use_fused,
        )
    target = tol * bnorm

    if rr is None:
        rr = dots.dot(r, r)
    rnorm = _norm_from_sq(float(rr))
    if not (np.isfinite(bnorm) and np.isfinite(rnorm)):
        # Poisoned rhs or initial guess: nothing to iterate on.
        return SolveResult(
            x=x, converged=False, iterations=0, residual_norm=rnorm,
            relative_residual=rnorm / bnorm if bnorm else np.inf,
            reductions=dots.reductions, matvecs=mv, precond_applies=0,
            fused=use_fused, history=[rnorm],
        )
    if rnorm <= target:
        return SolveResult(
            x=x, converged=True, iterations=0, residual_norm=rnorm,
            relative_residual=rnorm / bnorm, reductions=dots.reductions,
            matvecs=mv, precond_applies=0, fused=use_fused, history=[rnorm],
        )

    rhat = r.copy()
    rho = rr          # (rhat, r) with rhat = r
    wbuf: Array | None = None
    if use_fused:
        # All inner-loop scratch comes from the reusable workspace, so
        # iterating allocates nothing (x/r/rhat stay fresh: x escapes
        # via the result and r is rebound on restarts).
        ws = workspace if workspace is not None else SolverWorkspace()
        ws.ensure(b.shape, dtype=b.dtype)
        p = ws.array("p")
        p[...] = r
        v = ws.array("v")
        v[...] = 0.0
        phat = ws.array("phat")
        shat = ws.array("shat")
        s = ws.array("s")
        t = ws.array("t")
        wbuf = ws.array("work")
    else:
        p = r.copy()
        v = np.zeros_like(b)
        phat = np.empty_like(b)
        shat = np.empty_like(b)
        s = np.empty_like(b)
        t = np.empty_like(b)
    alpha = omega = 1.0
    converged = False
    it = 0

    def trace_iter(iteration: int, norm: float) -> None:
        if tracer is not None:
            tracer.instant(
                "bicgstab_iter", cat="solver",
                args={"iter": iteration, "rnorm": norm},
            )

    def precond(vec: Array, out: Array) -> Array:
        nonlocal mapplies
        if M is None:
            out[...] = vec
            return out
        mapplies += 1
        return M.apply(vec, out=out)

    def restart() -> bool:
        """Recover from a breakdown; returns False when out of budget."""
        nonlocal rhat, rho, rr, rnorm, breakdowns, r, x, mv
        breakdowns += 1
        if tracer is not None:
            tracer.instant(
                "bicgstab_restart", cat="solver",
                args={"iter": it, "breakdowns": breakdowns},
            )
        if breakdowns > max_restarts:
            return False
        r, rnorm = _true_residual(op, b, x, suite, dots, fused=use_fused)
        mv += 1
        if not np.isfinite(rnorm):
            # The iterate itself is poisoned; restarting from it cannot
            # recover, so give up and let the caller escalate.
            return False
        rr = rnorm * rnorm
        rhat = r.copy()
        rho = rr
        p[...] = r
        v[...] = 0.0
        return True

    while it < maxiter:
        it += 1

        precond(p, phat)
        if use_fused:
            # One launch: Matvec + the three ganged dots on its result.
            _, (rhv, rv, vv) = dots.gang_matvec(op, phat, [rhat, r, None], out=v)
            mv += 1
        else:
            op.apply(phat, out=v)
            mv += 1
            if ganged:
                rhv, rv, vv = dots.gang([(rhat, v), (r, v), (v, v)])
            else:
                rhv = dots.dot(rhat, v)
        if rhv == 0.0 or not np.isfinite(rhv):
            if not restart():
                break
            continue
        alpha = rho / rhv

        # s = r - alpha v
        suite.dscal(r, alpha, v, out=s)
        if ganged:
            ss_derived = max(rr - 2.0 * alpha * rv + alpha * alpha * vv, 0.0)
            snorm = float(np.sqrt(ss_derived))
        else:
            snorm = _norm_from_sq(dots.dot(s, s))
        if not np.isfinite(snorm):
            if not restart():
                break
            continue

        if snorm <= target:
            suite.daxpy(alpha, phat, x, out=x, work=wbuf)
            r, rnorm = _true_residual(op, b, x, suite, dots, fused=use_fused)
            mv += 1
            rr = rnorm * rnorm
            history.append(rnorm)
            trace_iter(it, rnorm)
            if callback is not None:
                callback(it, rnorm)
            if rnorm <= target:
                converged = True
                break
            # Rounding lied; continue from the recomputed residual.
            if not restart():
                break
            continue

        precond(s, shat)
        if use_fused:
            # One launch: Matvec + the five ganged dots ((s, s) and
            # (rhat, s) ride along as independent pairs).
            _, (ts, tt, ss, rhs_, rht) = dots.gang_matvec(
                op, shat, [s, None, (s, s), (rhat, s), rhat], out=t
            )
            mv += 1
        else:
            op.apply(shat, out=t)
            mv += 1
            if ganged:
                ts, tt, ss, rhs_, rht = dots.gang(
                    [(t, s), (t, t), (s, s), (rhat, s), (rhat, t)]
                )
            else:
                ts = dots.dot(t, s)
                tt = dots.dot(t, t)
        if tt == 0.0 or not np.isfinite(tt) or not np.isfinite(ts):
            if not restart():
                break
            continue
        omega = ts / tt

        # x += alpha*phat + omega*shat
        if use_fused:
            # One DDAXPY launch; on the vector backend its association
            # (omega*shat + (alpha*phat + x)) matches the two-DAXPY
            # composition bit for bit.
            suite.ddaxpy(alpha, phat, omega, shat, x, out=x, work=wbuf)
        else:
            suite.daxpy(alpha, phat, x, out=x)
            suite.daxpy(omega, shat, x, out=x)
        # r = s - omega t
        suite.dscal(s, omega, t, out=r)

        if ganged:
            rr = max(ss - 2.0 * omega * ts + omega * omega * tt, 0.0)
            rnorm = float(np.sqrt(rr))
            rho_next = rhs_ - omega * rht
        else:
            rr = dots.dot(r, r)
            rnorm = _norm_from_sq(float(rr))
            rho_next = None

        history.append(rnorm)
        trace_iter(it, rnorm)
        if callback is not None:
            callback(it, rnorm)

        if not np.isfinite(rnorm):
            if not restart():
                break
            continue

        if rnorm <= target:
            r, rnorm = _true_residual(op, b, x, suite, dots, fused=use_fused)
            mv += 1
            rr = rnorm * rnorm
            if rnorm <= target:
                converged = True
                break
            if not restart():
                break
            continue

        if omega == 0.0:
            if not restart():
                break
            continue

        if ganged:
            rho_new = rho_next
        else:
            rho_new = dots.dot(rhat, r)
        if rho_new == 0.0 or not np.isfinite(rho_new):
            if not restart():
                break
            continue

        beta = (rho_new / rho) * (alpha / omega)
        # p = r + beta*(p - omega*v)  ==  beta*p + (-beta*omega)*v + r
        suite.ddaxpy(beta, p, -beta * omega, v, r, out=p, work=wbuf)
        rho = rho_new

    if not converged:
        _, rnorm = _true_residual(op, b, x, suite, dots, fused=use_fused)
        mv += 1
        converged = rnorm <= target

    if suite.counters is not None:
        suite.counters.solver_iterations += it

    return SolveResult(
        x=x,
        converged=converged,
        iterations=it,
        residual_norm=rnorm,
        relative_residual=rnorm / bnorm,
        reductions=dots.reductions,
        matvecs=mv,
        precond_applies=mapplies,
        breakdowns=breakdowns,
        fused=use_fused,
        history=history,
    )
