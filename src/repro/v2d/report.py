"""Run reports: what a V2D run prints at the end.

Collects per-step solver diagnostics, timing (wall + CPU via the
``perf stat`` substitute), PAPI-style counters merged over ranks, and
the TAU-style per-routine breakdown -- everything Secs. II-C/II-E of
the paper measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.monitor.counters import Counters
from repro.monitor.profiler import Profiler
from repro.monitor.timers import PerfStatResult
from repro.monitor.trace import Tracer
from repro.resilience.report import ResilienceReport
from repro.transport.integrator import StepReport


@dataclass
class RunReport:
    """Summary of one simulation run (per rank, or merged)."""

    config_label: str
    problem_name: str
    nranks: int
    rank: int
    steps: list[StepReport] = field(default_factory=list)
    perf: PerfStatResult | None = None
    counters: Counters = field(default_factory=Counters)
    profiler: Profiler | None = None
    tracer: Tracer | None = None
    final_time: float = 0.0
    final_energy: float = 0.0
    solution_error: float | None = None
    resilience: ResilienceReport | None = None
    #: Why the run paused early (RunInterrupted reason), None if it
    #: completed its full step budget.
    interrupted: str | None = None

    # ------------------------------------------------------------------
    @property
    def nsteps(self) -> int:
        return len(self.steps)

    @property
    def total_solves(self) -> int:
        return sum(len(s.solves) for s in self.steps)

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.steps)

    @property
    def all_converged(self) -> bool:
        return all(s.converged for s in self.steps)

    @property
    def wall_seconds(self) -> float:
        return self.perf.wall_seconds if self.perf else 0.0

    @property
    def cpu_seconds(self) -> float:
        return self.perf.cpu_seconds if self.perf else 0.0

    def matvec_fraction(self) -> float | None:
        """Fraction of run time spent in the Matvec (Sec. II-E's ratio)."""
        if self.profiler is None:
            return None
        return self.profiler.inclusive_fraction("MATVEC", rank=self.rank)

    def bicgstab_fraction(self) -> float | None:
        if self.profiler is None:
            return None
        return self.profiler.inclusive_fraction("BiCGSTAB", rank=self.rank)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        lines = [
            f"V2D run: {self.problem_name} [{self.config_label}]",
            f"  ranks: {self.nranks} (this report: rank {self.rank})",
            f"  steps: {self.nsteps}, linear solves: {self.total_solves}, "
            f"BiCGSTAB iterations: {self.total_iterations}",
            f"  converged: {self.all_converged}"
            + (f" (interrupted: {self.interrupted})" if self.interrupted else ""),
            f"  final time: {self.final_time:.6g}, total radiation energy: "
            f"{self.final_energy:.6g}",
        ]
        if self.perf is not None:
            lines.append(
                f"  wall: {self.wall_seconds:.3f} s, cpu: {self.cpu_seconds:.3f} s"
            )
        if self.solution_error is not None:
            lines.append(f"  L2 error vs analytic solution: {self.solution_error:.3e}")
        if self.profiler is not None and self.wall_seconds > 0:
            # Fractions of wall, never of the part the profiler saw; the
            # remainder is printed, not hidden.
            wall, seen = self.wall_seconds, self.profiler.total_time(self.rank)
            for label, frac in (
                ("Matvec", self.matvec_fraction()),
                ("BiCGSTAB", self.bicgstab_fraction()),
                (
                    "Preconditioner set-up",
                    self.profiler.inclusive_fraction("PRECOND_SETUP", rank=self.rank),
                ),
            ):
                if frac > 0:
                    lines.append(
                        f"  {label} fraction of wall: {100 * frac * seen / wall:.1f}%"
                    )
            lines.append(
                f"  unattributed: {wall - seen:.3f} s ({100 * (wall - seen) / wall:.1f}%)"
            )
        if self.counters.messages_sent:
            lines.append(
                f"  MPI: {self.counters.messages_sent} messages, "
                f"{self.counters.bytes_sent:,} bytes, "
                f"{self.counters.reductions} reductions"
            )
        if self.resilience is not None and (
            self.resilience.total_injected or self.resilience.total_recoveries
        ):
            lines.extend("  " + ln for ln in self.resilience.summary().splitlines())
        return "\n".join(lines)

    def flat_profile(self) -> str:
        if self.profiler is None:
            return "(profiling disabled)"
        return self.profiler.flat_profile(rank=self.rank)
