"""The single-processor kernel driver program (paper Sec. II-F).

Because SVE optimization did not produce the expected speedup in the
full V2D code, the authors wrote "a simple single-processor driver
program that exercised the actual V2D routines that are utilized in the
BiCGSTAB solver without the added complications of the other V2D code",
using a 1000-equation linear system and 100,000 repetitions, timed both
with the hardware clock and PAPI software timers (differences
insignificant).

:class:`KernelDriver` is that program: it builds a five-banded system
of ``n`` equations, runs each of MATVEC / DPROD / DAXPY / DSCAL /
DDAXPY ``reps`` times under a chosen backend, and reports per-routine
CPU seconds plus PAPI-style event counts.  Comparing a ``scalar`` run
against a ``vector`` run reproduces the structure of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend.base import Backend
from repro.kernels.suite import KernelSuite
from repro.monitor.counters import Counters
from repro.monitor.timers import perf_stat

#: Table II routine order.
ROUTINES: tuple[str, ...] = ("MATVEC", "DPROD", "DAXPY", "DSCAL", "DDAXPY")

#: The measured SVE/No-SVE CPU-time ratios of paper Table II.
PAPER_TABLE2_RATIOS: dict[str, float] = {
    "MATVEC": 0.16,
    "DPROD": 0.18,
    "DAXPY": 0.26,
    "DSCAL": 0.31,
    "DDAXPY": 0.22,
}


@dataclass
class DriverResult:
    """Per-routine timings from one driver run."""

    backend: str
    n: int
    reps: int
    cpu_seconds: dict[str, float]
    wall_seconds: dict[str, float]
    counters: dict[str, dict[str, int]]

    def ratio_to(self, baseline: "DriverResult") -> dict[str, float]:
        """CPU-time ratios self/baseline per routine (Table II's SVE/No-SVE)."""
        out = {}
        for r in ROUTINES:
            base = baseline.cpu_seconds[r]
            out[r] = self.cpu_seconds[r] / base if base > 0 else float("nan")
        return out

    def table(self) -> str:
        lines = [
            f"Kernel driver ({self.backend} backend, n={self.n}, reps={self.reps})",
            f"{'Routine':<8} {'cpu(s)':>10} {'wall(s)':>10} {'flops':>14}",
        ]
        for r in ROUTINES:
            lines.append(
                f"{r:<8} {self.cpu_seconds[r]:>10.4f} {self.wall_seconds[r]:>10.4f} "
                f"{self.counters[r]['flops']:>14,d}"
            )
        return "\n".join(lines)


@dataclass
class KernelDriver:
    """Exercise the five V2D solver routines in isolation.

    Parameters
    ----------
    n:
        Number of equations (paper: 1000).
    reps:
        Repetitions per routine (paper: 100,000; scale down for tests).
    band_offset:
        Distance of the outlying bands from the main diagonal (the
        "x1 parameter" of the paper's matrix description).
    seed:
        RNG seed for the synthetic system data.
    """

    n: int = 1000
    reps: int = 1000
    band_offset: int = 25
    seed: int = 20220901
    _offsets: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.band_offset < self.n:
            raise ValueError("band_offset must be in (0, n)")
        self._offsets = (0, -1, 1, -self.band_offset, self.band_offset)

    def _setup(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        n = self.n
        bands = [rng.uniform(-1.0, 1.0, size=n) for _ in self._offsets]
        bands[0] = np.abs(bands[0]) + 4.0  # diagonally dominant, like the FD operator
        return {
            "bands": bands,
            "x": rng.standard_normal(n),
            "y": rng.standard_normal(n),
            "z": rng.standard_normal(n),
        }

    def run(self, backend: str | Backend) -> DriverResult:
        """Run all five routines ``reps`` times each under ``backend``."""
        rng = np.random.default_rng(self.seed)
        data = self._setup(rng)
        counters = Counters()
        suite = KernelSuite(backend, counters=counters)
        out = np.empty(self.n)

        cpu: dict[str, float] = {}
        wall: dict[str, float] = {}
        events: dict[str, dict[str, int]] = {}
        x, y, z, bands = data["x"], data["y"], data["z"], data["bands"]
        offsets = list(self._offsets)

        def timed(name: str, fn) -> None:
            # One untimed warm-up before the counter snapshot and the
            # clocks: first-call costs (the jit tier's numba
            # compilation, cold caches) must never land in a timed
            # window, and snapshotting *after* the warm-up keeps the
            # recorded event counts exactly reps x per-call counts.
            fn()
            before = counters.snapshot()
            with perf_stat() as ps:
                for _ in range(self.reps):
                    fn()
            cpu[name] = ps.result.cpu_seconds
            wall[name] = ps.result.wall_seconds
            after = counters.snapshot()
            events[name] = {k: after[k] - before[k] for k in after}

        timed("MATVEC", lambda: suite.matvec_banded(offsets, bands, x, out=out))
        timed("DPROD", lambda: suite.dprod(x, y))
        timed("DAXPY", lambda: suite.daxpy(1.1, x, y, out=out))
        timed("DSCAL", lambda: suite.dscal(y, 0.9, x, out=out))
        timed("DDAXPY", lambda: suite.ddaxpy(1.1, x, -0.7, y, z, out=out))

        name = suite.backend.name
        return DriverResult(
            backend=name,
            n=self.n,
            reps=self.reps,
            cpu_seconds=cpu,
            wall_seconds=wall,
            counters=events,
        )

    def compare(self) -> tuple[DriverResult, DriverResult, dict[str, float]]:
        """Run scalar (no-SVE) and vector (SVE) and return both + ratios.

        The returned ratios dict plays the role of Table II's final
        column (SVE/No-SVE); in this Python proxy the vectorized column
        typically lands *below* the paper's 0.16-0.31 because NumPy
        removes interpreter overhead as well as scalar arithmetic.
        """
        no_sve = self.run("scalar")
        sve = self.run("vector")
        return no_sve, sve, sve.ratio_to(no_sve)


@dataclass
class SpmdDriverResult:
    """A decomposed driver run: per-rank timings plus reduced totals.

    ``cpu_seconds`` holds the per-routine maximum over ranks and
    ``total_flops`` the sum -- both carried by a single batched
    all-reduce round, so the result doubles as an end-to-end exercise
    of cross-process collectives.
    """

    ranks: int
    backend: str
    transport: str
    wall_seconds: float
    cpu_seconds: dict[str, float]
    total_flops: int
    per_rank: list[DriverResult]

    def table(self) -> str:
        lines = [
            f"SPMD kernel driver ({self.backend} backend, {self.ranks} "
            f"rank(s), transport={self.transport})",
            f"  job wall time: {self.wall_seconds:.4f} s, "
            f"total flops: {self.total_flops:,d}",
            f"{'Routine':<8} {'max cpu(s)':>12}",
        ]
        for r in ROUTINES:
            lines.append(f"{r:<8} {self.cpu_seconds[r]:>12.4f}")
        return "\n".join(lines)


def run_driver_spmd(
    ranks: int,
    n: int = 1000,
    reps: int = 1000,
    backend: str = "scalar",
    transport: str | None = None,
    band_offset: int = 25,
    seed: int = 20220901,
    timeout: float | None = 120.0,
) -> SpmdDriverResult:
    """Run the Sec. II-F driver on every rank of an SPMD job.

    Each rank exercises the five routines on its own ``n``-equation
    system (seed varied per rank), then all ranks join one batched
    all-reduce combining per-routine maxima and the flop total.  Under
    the ``scalar`` backend the work is pure-Python and CPU-bound, which
    makes this the measured workload of the ``BENCH_scaling_mp`` suite:
    threads serialize on the GIL, processes use the machine's cores.
    """
    from repro.parallel.comm import ReduceOp
    from repro.parallel.links import get_transport
    from repro.parallel.runtime import run_spmd

    transport_name = get_transport(transport).name

    def rank_body(comm):
        driver = KernelDriver(
            n=n, reps=reps, band_offset=band_offset, seed=seed + comm.rank
        )
        result = driver.run(backend)
        payloads = [result.cpu_seconds[r] for r in ROUTINES] + [
            sum(ev["flops"] for ev in result.counters.values())
        ]
        ops = [ReduceOp.MAX] * len(ROUTINES) + [ReduceOp.SUM]
        return result, comm.allreduce_batch(payloads, ops=ops)

    with perf_stat() as ps:
        out = run_spmd(ranks, rank_body, timeout=timeout, transport=transport_name)
    reduced = out[0][1]
    return SpmdDriverResult(
        ranks=ranks,
        backend=backend,
        transport=transport_name,
        wall_seconds=ps.result.wall_seconds,
        cpu_seconds={r: float(reduced[i]) for i, r in enumerate(ROUTINES)},
        total_flops=int(reduced[len(ROUTINES)]),
        per_rank=[r for r, _ in out],
    )


def format_table2(
    no_sve: DriverResult, sve: DriverResult, paper: dict[str, float] | None = None
) -> str:
    """Render the Table II layout from two driver runs."""
    paper = PAPER_TABLE2_RATIOS if paper is None else paper
    ratios = sve.ratio_to(no_sve)
    lines = [
        "LINEAR ALGEBRA ROUTINES TIMES (cpu seconds)",
        f"{'Routine':<8} {'No-SVE':>10} {'SVE':>10} {'SVE/No-SVE':>12} {'paper':>7}",
    ]
    for r in ROUTINES:
        lines.append(
            f"{r:<8} {no_sve.cpu_seconds[r]:>10.4f} {sve.cpu_seconds[r]:>10.4f} "
            f"{ratios[r]:>12.3f} {paper.get(r, float('nan')):>7.2f}"
        )
    return "\n".join(lines)
