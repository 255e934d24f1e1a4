"""Solver-level recovery: the escalation ladder.

BiCGSTAB already restarts itself on breakdown (``rho ~ 0``); when a
solve still comes back failed -- not converged, or with a non-finite
iterate, the signature of injected numeric/comm corruption -- the
ladder degrades outward through progressively more conservative
methods:

1. **fused BiCGSTAB** (the production hot path),
2. **unfused ganged BiCGSTAB** from the pristine initial guess (same
   math, separate kernel launches -- sidesteps corruption localized in
   the fused path or its reused workspace),
3. **GMRES(m)** (monotone residuals, no breakdowns) as the fallback of
   last resort.

Every attempt is recorded in :class:`SolveStats` -- method, outcome,
and wall time -- so diagnostics can report degraded-mode time.  In
decomposed runs the accept/escalate decision is made *globally* (one
MIN all-reduce of a validity flag) so every rank walks the ladder in
lockstep; a corrupted flag contribution compares false and simply
escalates everywhere, never diverges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.fused import SolverWorkspace
from repro.kernels.suite import KernelSuite
from repro.linalg.bicgstab import SolveResult, bicgstab
from repro.linalg.gmres import gmres
from repro.linalg.operators import LinearOperator
from repro.linalg.spai import Preconditioner
from repro.monitor import flight, telemetry
from repro.monitor.counters import Counters
from repro.monitor.trace import Tracer, get_metrics
from repro.parallel.comm import Communicator, ReduceOp

Array = np.ndarray

#: Ladder rungs, in escalation order.
LADDER = ("bicgstab-fused", "bicgstab-unfused", "gmres")


@dataclass
class SolveAttempt:
    """One rung of the ladder: which method ran, and how it went."""

    method: str
    result: SolveResult
    ok: bool
    seconds: float


@dataclass
class SolveStats:
    """Full escalation record for one linear solve."""

    site: int = 0
    attempts: list[SolveAttempt] = field(default_factory=list)

    @property
    def final(self) -> SolveResult:
        return self.attempts[-1].result

    @property
    def ok(self) -> bool:
        return self.attempts[-1].ok

    @property
    def escalations(self) -> int:
        """Ladder rungs taken beyond the first attempt."""
        return len(self.attempts) - 1

    @property
    def degraded(self) -> bool:
        return len(self.attempts) > 1

    @property
    def degraded_seconds(self) -> float:
        """Wall time spent past the production path."""
        return sum(a.seconds for a in self.attempts[1:])

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(a.method for a in self.attempts)


def solution_ok(
    result: SolveResult,
    comm: Communicator | None = None,
    *,
    global_check: bool = False,
) -> bool:
    """Whether a solve result is acceptable (converged and finite).

    With ``global_check`` in decomposed runs, the local verdicts are
    combined by a MIN all-reduce so every rank returns the same answer;
    a NaN-corrupted flag fails the ``>= 1.0`` comparison on every rank
    alike, which escalates conservatively instead of diverging.
    """
    ok = bool(result.converged) and bool(np.all(np.isfinite(result.x)))
    if global_check and comm is not None and comm.size > 1:
        flag = comm.allreduce(1.0 if ok else 0.0, op=ReduceOp.MIN)
        ok = bool(flag >= 1.0)
    return ok


def solve_with_escalation(
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
    gmres_restart: int = 30,
    counters: Counters | None = None,
    site: int = 0,
    tracer: Tracer | None = None,
) -> SolveStats:
    """Run the solver ladder; returns the per-attempt record.

    The first rung honours the caller's ``ganged``/``fused`` choice; a
    failure degrades to the unfused ganged iteration (when the first
    rung was fused) and then to GMRES.  Escalations are counted into
    ``counters`` (``solver_escalations`` / ``solver_fallbacks``).
    Every retry restarts from the caller's pristine ``x0`` -- the
    solvers never mutate it -- so corruption in a failed iterate
    cannot leak into the next rung.
    """
    stats = SolveStats(site=site)

    def attempt(method: str, run) -> bool:
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span(
                f"solve_attempt:{method}", cat="resilience", args={"site": site}
            ):
                result = run()
        else:
            result = run()
        seconds = time.perf_counter() - t0
        ok = solution_ok(result, comm, global_check=True)
        stats.attempts.append(SolveAttempt(method, result, ok, seconds))
        return ok

    def mark(event: str) -> None:
        if tracer is not None:
            tracer.instant(event, cat="resilience", args={"site": site})
        if telemetry.enabled():
            last = stats.attempts[-1]
            flight.record(
                comm.rank if comm is not None else 0, "escalation", event, site=site,
                failed_method=last.method, iterations=last.result.iterations,
                seconds=round(last.seconds, 6),
            )
            get_metrics().inc(f"repro.resilience.{event}s")

    use_fused = fused and ganged
    first = "bicgstab-fused" if use_fused else (
        "bicgstab-unfused" if ganged else "bicgstab-classic"
    )
    if attempt(first, lambda: bicgstab(
        op, b, x0=x0, tol=tol, maxiter=maxiter, M=M, suite=suite, comm=comm,
        ganged=ganged, fused=use_fused,
        workspace=workspace if use_fused else None, tracer=tracer,
    )):
        return stats

    if use_fused:
        if counters is not None:
            counters.solver_escalations += 1
        mark("solver_escalation")
        if attempt("bicgstab-unfused", lambda: bicgstab(
            op, b, x0=x0, tol=tol, maxiter=maxiter, M=M, suite=suite, comm=comm,
            ganged=True, fused=False, tracer=tracer,
        )):
            return stats

    if counters is not None:
        counters.solver_fallbacks += 1
    mark("solver_fallback")
    attempt("gmres", lambda: gmres(
        op, b, x0=x0, tol=tol, maxiter=maxiter, restart=gmres_restart,
        M=M, suite=suite, comm=comm,
    ))
    return stats
