"""The simulation driver: V2D's main program.

One :class:`Simulation` instance is one rank's view of the run: it owns
the tile mesh, the kernel suite (execution backend + PAPI counters),
the radiation integrator (three BiCGSTAB solves per step), optionally
the hydro solver (with operator-split two-way matter coupling), the
TAU-style profiler and the checkpoint hooks.  :func:`run_parallel`
launches one Simulation per rank over the SPMD substrate -- the
``mpiexec -n NPRX1*NPRX2`` path of the study.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np

from repro.backend.dispatch import get_backend
from repro.grid.mesh import Mesh2D
from repro.io.checkpoint import CheckpointWriteError, save_checkpoint
from repro.kernels.suite import KernelSuite
from repro.monitor import flight, telemetry
from repro.monitor.counters import Counters
from repro.monitor.profiler import Profiler
from repro.monitor.telemetry import ITERATION_BUCKETS
from repro.monitor.timers import perf_stat
from repro.monitor.trace import Tracer, get_metrics
from repro.parallel.cart import CartComm
from repro.parallel.comm import Communicator
from repro.parallel.runtime import run_spmd
from repro.problems.base import Problem
from repro.resilience import (
    FaultyBackend,
    FaultyCommunicator,
    NonFiniteStateError,
    ResilienceReport,
    RollbackExhaustedError,
    StepRetryExhaustedError,
)
from repro.transport.groups import EnergyGroups, RadiationBasis
from repro.transport.integrator import RadiationIntegrator, StepReport
from repro.v2d.config import V2DConfig
from repro.v2d.report import RunReport

if TYPE_CHECKING:
    from repro.hydro.solver import HydroSolver2D

Array = np.ndarray


class RunInterrupted(Exception):
    """Raised by a ``run(step_callback=...)`` to stop at a step boundary.

    The driver treats this as a controlled pause, not a failure: it
    writes a checkpoint at the current step (when the config names a
    checkpoint path) and returns the partial :class:`RunReport` with
    its ``interrupted`` field set to :attr:`reason`, so the caller can
    later resume via :meth:`Simulation.restart_from`.
    """

    def __init__(self, reason: str = "interrupted") -> None:
        super().__init__(reason)
        self.reason = reason


class Simulation:
    """One rank's simulation driver.

    Parameters
    ----------
    config:
        Runtime parameters.
    problem:
        The test problem (initial data + physics choices).
    cart:
        Cartesian topology for this rank; ``None`` runs serially
        (requires ``config.nranks == 1``).
    """

    def __init__(
        self,
        config: V2DConfig,
        problem: Problem,
        cart: CartComm | None = None,
    ) -> None:
        if cart is None and config.nranks != 1:
            raise ValueError(
                f"config requests {config.nranks} ranks; use run_parallel()"
            )
        if cart is not None and cart.size != config.nranks:
            raise ValueError("topology size does not match config")
        self.config = config
        self.problem = problem
        self.cart = cart
        self.rank = cart.rank if cart is not None else 0

        # Global mesh, then this rank's tile of it.
        self.global_mesh = Mesh2D.uniform(
            config.nx1, config.nx2,
            extent1=config.extent1, extent2=config.extent2, coord=config.coord,
        )
        if cart is not None:
            tile = cart.tile
            self.mesh = self.global_mesh.subset(tile.slice1, tile.slice2)
        else:
            self.mesh = self.global_mesh

        self.basis = RadiationBasis(
            species=tuple(config.species),
            groups=EnergyGroups.grey()
            if config.ngroups == 1
            else EnergyGroups.logarithmic(config.ngroups),
        )

        # Execution backend + instrumentation.
        self.counters = Counters()
        backend = get_backend(
            config.backend,
            **(
                {"vector_bits": config.vector_bits}
                if config.backend in ("vector", "jit")
                else {}
            ),
        )

        # Resilience: arm the seeded fault-injection sites and the
        # recovery layers when a ResilienceConfig is attached.  With
        # none attached (the default) nothing below changes behaviour.
        rc = config.resilience
        self._injector = (
            rc.make_injector(self.rank, counters=self.counters)
            if rc is not None
            else None
        )
        if self._injector is not None and self._injector.armed("numeric"):
            backend = FaultyBackend(backend, self._injector)
        if (
            self._injector is not None
            and self._injector.armed("comm")
            and cart is not None
        ):
            # Wrap before anything captures the communicator, so halo
            # exchange and solver reductions all ride the faulty wire.
            cart.comm = FaultyCommunicator(cart.comm, self._injector)
        self._last_checkpoint: tuple[str, int] | None = None

        self.suite = KernelSuite(backend, counters=self.counters)
        # One rank, one instrumentation handle: every timed region goes
        # through ``self.profiler.region``, which keeps the tree when
        # ``config.profile`` is set and forwards to the tracer when
        # ``config.trace`` is (with neither, regions are no-ops).
        self.tracer = Tracer(rank=self.rank) if config.trace else None
        self.profiler = Profiler(
            tracer=self.tracer, rank=self.rank, aggregate=config.profile
        )

        # Radiation integrator (the paper's workload).
        limiter = config.limiter if config.limiter is not None else problem.limiter()
        self.integrator = RadiationIntegrator(
            mesh=self.mesh,
            basis=self.basis,
            opacity=problem.opacity(),
            limiter=limiter,
            bc=problem.boundary_condition(),
            cart=cart,
            suite=self.suite,
            precond=config.precond,
            solver_tol=config.solver_tol,
            solver_maxiter=config.solver_maxiter,
            ganged=config.ganged,
            fused=config.fused,
            coupling_rate=config.coupling_rate,
            couple_matter=config.couple_matter,
            c_light=config.c_light,
            a_rad=config.a_rad,
            cv=config.cv,
            emission=config.emission,
            profiler=self.profiler,
            escalate=rc.escalation if rc is not None else False,
        )

        # Hydro (only when the problem calls for it).
        self.hydro: HydroSolver2D | None = None
        state = problem.initial_state(self.mesh, self.basis)
        if problem.uses_hydro:
            # Imported here, at construction, so radiation-only runs
            # never load the hydro package; no step imports anything.
            from repro.hydro.eos import IdealGasEOS
            from repro.hydro.solver import HydroBC, HydroSolver2D

            if state.hydro_primitive is None:
                raise ValueError(f"problem {problem.name} uses hydro but gave no state")
            hydro_bc = (
                problem.hydro_bc() if hasattr(problem, "hydro_bc") else HydroBC.OUTFLOW
            )
            self.hydro = HydroSolver2D(
                self.mesh,
                IdealGasEOS(config.hydro_gamma),
                reconstruction=config.hydro_reconstruction,
                riemann=config.hydro_riemann,
                cfl=config.hydro_cfl,
                bc=hydro_bc,
                cart=cart,
            )
            self.hydro.set_primitive(state.hydro_primitive)

        self.integrator.set_state(state.E, rho=state.rho, temp=state.temp)
        self.step_reports: list[StepReport] = []

    # ------------------------------------------------------------------
    def restart_from(self, path: str) -> None:
        """Resume from a checkpoint written by an earlier run.

        Restores the radiation field, material state, clock and step
        counter; in decomposed runs rank 0 reads the archive and every
        rank receives its tile (the parallel-HDF5-read analogue).
        """
        from repro.io.checkpoint import load_checkpoint

        ck = load_checkpoint(path, cart=self.cart)
        if ck.E.shape != self.integrator.E.interior.shape:
            raise ValueError(
                f"checkpoint shape {ck.E.shape} does not match this "
                f"rank's tile {self.integrator.E.interior.shape}"
            )
        self.integrator.set_state(ck.E, rho=ck.rho, temp=ck.temp)
        self.integrator.time = ck.time
        self.integrator.step_count = ck.step

    # ------------------------------------------------------------------
    @property
    def comm(self) -> Communicator | None:
        return self.cart.comm if self.cart is not None else None

    @property
    def time(self) -> float:
        return self.integrator.time

    @property
    def last_checkpoint(self) -> tuple[str, int] | None:
        """``(path, step)`` of the last good checkpoint, if any."""
        return self._last_checkpoint

    # ------------------------------------------------------------------
    def _hydro_advance(self, dt: float) -> None:
        """Advance hydro by ``dt`` in CFL-limited substeps, then push
        the updated material state into the radiation integrator."""
        hy = self.hydro
        assert hy is not None
        remaining = dt
        while remaining > 1e-14:
            sub = min(hy.cfl_dt(), remaining)
            hy.step(sub)
            remaining -= sub
        w = hy.primitive()
        self.integrator.rho[...] = w[0]
        # One-fluid temperature: T = p / rho (unit gas constant).
        self.integrator.temp = w[3] / np.maximum(w[0], 1e-300)

    def _feed_back_heating(self, t_before: Array) -> None:
        """Return the radiation's matter heating to the hydro energy."""
        hy = self.hydro
        assert hy is not None
        d_temp = self.integrator.temp - t_before
        if np.any(d_temp != 0.0):
            hy.U.interior[3] += self.integrator.rho * self.config.cv * d_temp
            # Keep the integrator's temperature consistent with hydro.

    def _step_once(self, dt: float) -> StepReport:
        """One coupled timestep (hydro substeps + three radiation solves)."""
        if self.hydro is not None:
            with self.profiler.region("hydro", cat="hydro"):
                self._hydro_advance(dt)
            t_before = self.integrator.temp.copy()
            report = self.integrator.step(dt)
            if self.config.couple_matter:
                self._feed_back_heating(t_before)
        else:
            report = self.integrator.step(dt)
        return report

    def _traced_step(self, dt: float) -> StepReport:
        """One step, under the tracer's ``step`` span when tracing."""
        if self.tracer is None:
            return self._step_once(dt)
        with self.tracer.span(
            "step", cat="sim",
            args={"step": self.integrator.step_count + 1, "dt": dt},
        ):
            report = self._step_once(dt)
        # Per-step counter tracks: the process-wide metrics registry
        # plus the PAPI-style software counters this rank accumulated.
        metrics = get_metrics()
        metrics.inc("repro.steps")
        metrics.inc("repro.solver_iterations", report.iterations)
        self.tracer.counter_snapshot(metrics)
        self.tracer.counter(
            "papi",
            {
                "matvecs": float(self.counters.matvecs),
                "solver_iterations": float(self.counters.solver_iterations),
                "halo_exchanges": float(
                    self.comm.counters.halo_exchanges
                    if self.comm is not None else 0
                ),
            },
        )
        return report

    # -- step-level recovery: in-memory snapshot + dt backoff ----------
    def _snapshot_state(self) -> dict:
        it = self.integrator
        snap = {
            "E": it.E.data.copy(),
            "rho": it.rho.copy(),
            "temp": it.temp.copy(),
            "time": it.time,
            "step": it.step_count,
        }
        if self.hydro is not None:
            snap["U"] = self.hydro.U.data.copy()
        return snap

    def _restore_state(self, snap: dict) -> None:
        it = self.integrator
        it.E.data[...] = snap["E"]
        it.rho[...] = snap["rho"]
        it.temp = snap["temp"].copy()
        it.time = snap["time"]
        it.step_count = snap["step"]
        if self.hydro is not None:
            self.hydro.U.data[...] = snap["U"]

    def step(self) -> StepReport:
        """Advance one timestep, retrying with dt backoff when armed.

        Without a resilience config this is exactly one
        :meth:`_step_once`.  With one, a step that fails validation
        (escalation exhausted, non-finite or unphysical state) is
        rolled back to an in-memory snapshot and retried with the
        timestep shrunk by the :class:`RetryPolicy`; the retry budget
        exhausting raises :class:`StepRetryExhaustedError` for the
        run-level layer to handle.
        """
        rc = self.config.resilience
        dt = self.config.dt
        if rc is None:
            report = self._traced_step(dt)
            if telemetry.enabled():
                self._observe_step(report, dt)
            self.step_reports.append(report)
            return report

        policy = rc.retry
        failures = 0
        while True:
            snap = self._snapshot_state()
            try:
                report = self._traced_step(dt)
            except NonFiniteStateError as exc:
                self._restore_state(snap)
                failures += 1
                if self.tracer is not None:
                    self.tracer.instant(
                        "step_retry", cat="resilience",
                        args={
                            "step": self.integrator.step_count + 1,
                            "failures": failures,
                            "dt": dt,
                        },
                    )
                if failures >= policy.max_attempts:
                    raise StepRetryExhaustedError(
                        f"step {self.integrator.step_count + 1} failed "
                        f"{failures} attempts (last dt {dt:.3e}): {exc}"
                    ) from exc
                self.counters.step_retries += 1
                dt = policy.next_dt(dt)
                continue
            report.retries = failures
            if telemetry.enabled():
                self._observe_step(report, dt)
            self.step_reports.append(report)
            return report

    def _observe_step(self, report: StepReport, dt: float) -> None:
        """Telemetry-armed per-step observations (observation only).

        Feeds the solver-iteration histogram, per-rank step/heartbeat
        gauges, and the rank's flight recorder.  Guarded by the caller
        on :func:`telemetry.enabled`, so disarmed runs never reach this
        and stay bitwise-identical.
        """
        metrics = get_metrics()
        metrics.observe(
            "repro.solver.iterations_per_step",
            report.iterations,
            buckets=ITERATION_BUCKETS,
        )
        metrics.inc("repro.telemetry.steps")
        metrics.set(
            f"repro.rank.{self.rank}.step", float(self.integrator.step_count)
        )
        flight.record(
            self.rank,
            "step",
            "step",
            step=self.integrator.step_count,
            dt=dt,
            iterations=report.iterations,
            retries=report.retries,
        )

    # ------------------------------------------------------------------
    def _maybe_checkpoint(self, step: int) -> None:
        cfg = self.config
        if cfg.checkpoint_interval <= 0 or step % cfg.checkpoint_interval != 0:
            return
        self._write_checkpoint(step)

    def _write_checkpoint(self, step: int) -> None:
        """Write a checkpoint, surviving (and counting) io faults.

        With resilience armed, a failed write is a recovered event: the
        run continues from the previous good checkpoint (the atomic
        rename guarantees it survived).  Every rank must agree on which
        checkpoint is the last good one, so in decomposed runs the
        writing rank broadcasts the outcome.
        """
        cfg = self.config
        rc = cfg.resilience
        path = f"{cfg.checkpoint_path}.step{step:05d}.npz"
        ok = True
        try:
            # Timeline-only span: not a region of the flat profile.
            with (
                self.tracer.span("checkpoint", cat="io")
                if self.tracer is not None else nullcontext()
            ):
                save_checkpoint(
                    path,
                    self.integrator.E.interior,
                    self.integrator.rho,
                    self.integrator.temp,
                    time=self.time,
                    step=step,
                    cart=self.cart,
                    meta={"problem": self.problem.name},
                    injector=self._injector,
                )
        except CheckpointWriteError:
            if rc is None:
                raise
            ok = False
            self.counters.io_recoveries += 1
        if rc is not None and self.comm is not None and self.comm.size > 1:
            ok = bool(self.comm.bcast(ok, root=0))
        if ok:
            self._last_checkpoint = (path, step)

    def _rollback(self) -> None:
        """Run-level recovery: reload the last good checkpoint."""
        assert self._last_checkpoint is not None
        path, step = self._last_checkpoint
        if self.tracer is not None:
            self.tracer.instant(
                "rollback", cat="resilience", args={"to_step": step}
            )
        self.restart_from(path)
        self.step_reports = [r for r in self.step_reports if r.step <= step]

    def run(
        self,
        step_callback=None,
        nsteps: int | None = None,
    ) -> RunReport:
        """Run ``config.nsteps`` steps and assemble the report.

        Parameters
        ----------
        step_callback:
            Optional ``callback(sim, step_report)`` invoked after every
            completed step (post-checkpoint).  Raising
            :class:`RunInterrupted` from it pauses the run at this step
            boundary: a checkpoint is written (when the config names a
            checkpoint path) and the partial report is returned with
            ``interrupted`` set -- the serve subsystem's cancel/budget
            hook.
        nsteps:
            Step budget for this run segment, overriding
            ``config.nsteps`` (used when resuming a partially-run job
            whose remaining step count differs from the config's).
        """
        cfg = self.config
        rc = cfg.resilience
        label = (
            f"{cfg.nx1}x{cfg.nx2}x{cfg.ncomp} {cfg.backend} "
            f"{cfg.nprx1}x{cfg.nprx2}"
        )
        rollbacks = 0
        interrupted: str | None = None
        # Anchor on the absolute step counter so a rollback (which
        # rewinds it) naturally re-runs the lost steps, while a
        # restarted simulation still advances nsteps further.
        segment = cfg.nsteps if nsteps is None else int(nsteps)
        target_step = self.integrator.step_count + segment
        with perf_stat() as ps:
            if rc is not None and rc.max_rollbacks > 0 and cfg.checkpoint_interval > 0:
                # Initial checkpoint so the first rollback has a target.
                self._write_checkpoint(self.integrator.step_count)
            while self.integrator.step_count < target_step:
                try:
                    step_report = self.step()
                except StepRetryExhaustedError as exc:
                    if rc is None or self._last_checkpoint is None:
                        raise
                    if rollbacks >= rc.max_rollbacks:
                        raise RollbackExhaustedError(
                            f"rollback budget ({rc.max_rollbacks}) exhausted "
                            f"at step {self.integrator.step_count + 1}"
                        ) from exc
                    rollbacks += 1
                    self.counters.rollbacks += 1
                    self._rollback()
                    continue
                self._maybe_checkpoint(self.integrator.step_count)
                if step_callback is not None:
                    try:
                        step_callback(self, step_report)
                    except RunInterrupted as exc:
                        interrupted = exc.reason
                        step_now = self.integrator.step_count
                        if cfg.checkpoint_path and (
                            self._last_checkpoint is None
                            or self._last_checkpoint[1] != step_now
                        ):
                            self._write_checkpoint(step_now)
                        break
        report = RunReport(
            config_label=label,
            problem_name=self.problem.name,
            nranks=cfg.nranks,
            rank=self.rank,
            steps=list(self.step_reports),
            perf=ps.result,
            profiler=self.profiler if cfg.profile else None,
            tracer=self.tracer,
            final_time=self.time,
            final_energy=self.integrator.total_energy(),
            interrupted=interrupted,
        )
        report.counters.merge(self.counters)
        if self.comm is not None:
            report.counters.merge(self.comm.counters)
        if telemetry.enabled() and ps.result.wall_seconds > 0:
            # Per-backend achieved GF/s gauge for `repro top`'s kernel
            # panel; observation only (reads the finished report).
            get_metrics().set(
                f"repro.kernel.{cfg.backend}.gflops",
                report.counters.achieved_gflops(ps.result.wall_seconds),
            )
        if rc is not None:
            report.resilience = ResilienceReport.from_counters(
                report.counters,
                degraded_solves=self.integrator.degraded_solves,
                degraded_seconds=self.integrator.degraded_seconds,
            )
        err = self.solution_error()
        if err is not None:
            report.solution_error = err
        return report

    # ------------------------------------------------------------------
    def solution_error(self) -> float | None:
        """Global relative L2 error vs the problem's analytic solution."""
        exact = self.problem.analytic_solution(self.mesh, self.basis, self.time)
        if exact is None:
            return None
        diff = self.integrator.E.interior - exact
        num = float(np.sum(diff * diff * self.mesh.volumes[None]))
        den = float(np.sum(exact * exact * self.mesh.volumes[None]))
        if self.comm is not None and self.comm.size > 1:
            # Both norms ride one batched reduction round.
            num, den = (float(v) for v in self.comm.allreduce_batch([num, den]))
        return float(np.sqrt(num / den)) if den > 0 else None


def run_parallel(
    config: V2DConfig, problem: Problem, timeout: float | None = 300.0
) -> list[RunReport]:
    """Run the configured topology over the SPMD substrate.

    Returns the per-rank :class:`RunReport` list (rank order); rank 0's
    report carries the shared global diagnostics (total energy, error).
    """

    def rank_body(comm: Communicator) -> RunReport:
        cart = CartComm.create(
            comm, nx1=config.nx1, nx2=config.nx2,
            nprx1=config.nprx1, nprx2=config.nprx2,
        )
        sim = Simulation(config, problem, cart=cart)
        return sim.run()

    if config.nranks == 1:
        return [Simulation(config, problem).run()]
    return run_spmd(
        config.nranks, rank_body, timeout=timeout,
        transport=config.transport or None,
    )
