"""``repro perf`` -- run / report / check / baseline over the ledger.

The performance-ledger workflow::

    repro perf run      [--ledger D] [--n N] [--reps K] [--no-app]
    repro perf report   [--ledger D] [--n N] [--reps K]
    repro perf check    [--ledger D] [--baselines D] [--suite S ...]
    repro perf baseline [--ledger D] [--baselines D] [--suite S ...]

``run`` executes the smoke suite -- the Sec. II-F kernel driver under
both backends plus a small traced application solve -- and appends
schema-validated entries to ``BENCH_history.jsonl``.  ``report`` joins
measured counters and span times against the A64FX roofline model and
prints per-kernel achieved GF/s, arithmetic intensity, %-of-roofline
and vector dilution for scalar vs vector backends.  ``check`` gates
the ledger's latest entries against committed baselines (nonzero exit
on regression); ``baseline`` rewrites those baselines deliberately.
"""

from __future__ import annotations

import argparse
import sys

from repro.perf.ledger import Ledger
from repro.perf.schema import Metric

#: Where benchmark artifacts land by default (the pytest benchmarks'
#: report directory, so CI archives one tree).
DEFAULT_LEDGER = "benchmarks/_reports"

#: Committed baselines the gate compares against.
DEFAULT_BASELINES = "benchmarks/baselines"

#: Ledger stream the smoke suite writes to.
SMOKE_SUITE = "smoke"


def _smoke_backends() -> tuple[str, ...]:
    """Backends the smoke suite measures: the two compiler builds, plus
    the jit tier whenever its optional numba dependency is present.

    The roofline report is then three-way scalar/vector/jit; on a
    numba-less machine it degrades to the classic two-way table
    instead of failing.
    """
    from repro.backend import numba_available

    return ("scalar", "vector") + (("jit",) if numba_available() else ())


# ----------------------------------------------------------------------
# Smoke measurements (shared by ``run`` and ``report``)
# ----------------------------------------------------------------------
def _run_driver(n: int, reps: int, backend: str):
    from repro.kernels.driver import KernelDriver
    from repro.perf.efficiency import driver_efficiency

    driver = KernelDriver(n=n, reps=reps, band_offset=min(25, n - 1))
    result = driver.run(backend)
    return result, driver_efficiency(result)


def _record_driver(harness, result, rows, time_scale: float = 1.0) -> None:
    """Fold one driver run into ledger entries, one per routine."""
    for row in rows:
        ev = result.counters[row.kernel]
        harness.record(
            f"{row.kernel}_{result.backend}",
            {
                "cpu_seconds": Metric(
                    value=result.cpu_seconds[row.kernel] * time_scale,
                    kind="time", unit="s",
                ),
                "wall_seconds": Metric(
                    value=result.wall_seconds[row.kernel] * time_scale,
                    kind="time", unit="s",
                ),
                "flops": (float(ev["flops"]), "count"),
                "bytes_moved": (
                    float(ev["bytes_loaded"] + ev["bytes_stored"]), "count",
                ),
                "vector_fraction": (row.vector_fraction, "count"),
                "achieved_gflops": (row.achieved_gflops, "value"),
                "roofline_fraction": (row.roofline_fraction, "value"),
            },
            config={"n": result.n, "reps": result.reps},
            counters=ev,
            backend=result.backend,
        )


def _run_app(nx: int, nsteps: int, backend: str):
    """One small traced single-rank application solve."""
    from repro.problems import GaussianPulseProblem
    from repro.v2d import Simulation, V2DConfig

    cfg = V2DConfig(
        nx1=nx, nx2=nx, nsteps=nsteps, dt=2e-4,
        backend=backend, trace=True, profile=False,
    )
    report = Simulation(cfg, GaussianPulseProblem()).run()
    return cfg, report


def _record_app(harness, cfg, report, time_scale: float = 1.0) -> None:
    from repro.monitor.trace import span_seconds

    spans = span_seconds(report.tracer.summary())
    solve_s, solves = spans.get("BiCGSTAB", (0.0, 0))
    c = report.counters
    harness.record(
        f"app_solve_{cfg.backend}",
        {
            "solve_seconds": Metric(
                value=solve_s * time_scale, kind="time", unit="s",
            ),
            "flops": (float(c.flops), "count"),
            "bytes_moved": (float(c.bytes_moved), "count"),
            "matvecs": (float(c.matvecs), "count"),
            "dot_products": (float(c.dot_products), "count"),
            "kernel_launches": (float(c.kernel_calls), "count"),
            "vector_fraction": (c.vector_fraction, "count"),
            "solves": (float(solves), "count"),
        },
        config={
            "nx1": cfg.nx1, "nx2": cfg.nx2, "nsteps": cfg.nsteps,
            "precond": cfg.precond,
        },
        counters=c,
        backend=cfg.backend,
    )


# ----------------------------------------------------------------------
# Verbs
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    from repro.perf.harness import Harness

    ledger = Ledger(args.ledger)
    harness = Harness(SMOKE_SUITE, ledger=ledger)
    if args.time_scale != 1.0:
        print(f"(debug: scaling recorded times by {args.time_scale}x)")
    for backend in _smoke_backends():
        result, rows = _run_driver(args.n, args.reps, backend)
        _record_driver(harness, result, rows, time_scale=args.time_scale)
        print(f"driver[{backend}]: {len(rows)} routines recorded "
              f"(n={args.n}, reps={args.reps})")
    if not args.no_app:
        for backend in _smoke_backends():
            cfg, report = _run_app(args.nx, args.nsteps, backend)
            _record_app(harness, cfg, report, time_scale=args.time_scale)
            print(f"app[{backend}]: solve recorded "
                  f"({cfg.nx1}x{cfg.nx2}, {cfg.nsteps} steps)")
    print(f"appended {len(harness.results)} entries to {ledger.history_path}")
    print(f"suite snapshot: {ledger.suite_path(SMOKE_SUITE)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.perf.efficiency import app_efficiency, efficiency_table

    rows = []
    for backend in _smoke_backends():
        _, backend_rows = _run_driver(args.n, args.reps, backend)
        rows.extend(backend_rows)
    print(efficiency_table(
        rows, title="KERNEL DRIVER ROOFLINE EFFICIENCY "
                     f"(n={args.n}, reps={args.reps})",
    ))
    print()
    app_rows = []
    for backend in _smoke_backends():
        cfg, report = _run_app(args.nx, args.nsteps, backend)
        app_rows.extend(app_efficiency(
            [report], {0: cfg.nunknowns}, backend=backend,
        ))
    print(efficiency_table(
        app_rows, title="APPLICATION ROOFLINE EFFICIENCY "
                        f"({args.nx}x{args.nx}, {args.nsteps} steps)",
    ))

    ledger = Ledger(args.ledger)
    suites = ledger.suites()
    print()
    if suites:
        print(f"LEDGER {ledger.history_path}")
        for suite in suites:
            latest = ledger.latest(suite)
            total = len(ledger.entries(suite=suite))
            print(f"  {suite:<16} {total:>4} entries, "
                  f"{len(latest)} benchmarks")
        if ledger.skipped_lines:
            print(f"  ({ledger.skipped_lines} corrupt line(s) skipped)")
    else:
        print(f"LEDGER {ledger.history_path}: empty "
              "(run `repro perf run` or the pytest benchmarks)")

    # Process-wide service counters (cache traffic, serve activity):
    # nonzero only when this process actually touched those layers,
    # e.g. under `repro serve` or a campaign run in the same process.
    from repro.monitor.trace import get_metrics

    registry = {
        name: value
        for name, value in sorted(get_metrics().snapshot().items())
        if (name.startswith("repro.cache.") or name.startswith("repro.serve."))
        and value
    }
    if registry:
        print()
        print("PROCESS METRICS")
        for name, value in registry.items():
            print(f"  {name:<28} {value:>10g}")
        hits = registry.get("repro.cache.hits", 0)
        misses = registry.get("repro.cache.misses", 0)
        if hits + misses:
            print(f"  {'cache hit-rate':<28} {hits / (hits + misses):>10.1%}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.perf.regress import check

    ledger = Ledger(args.ledger)
    report = check(
        ledger,
        args.baselines,
        suites=args.suite or None,
        window=args.window,
        counts_only=args.counts_only,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_baseline(args: argparse.Namespace) -> int:
    from repro.perf.regress import write_baseline

    thresholds = {}
    for spec in args.threshold:
        try:
            metric, value = spec.split("=")
            thresholds[metric.strip()] = float(value)
        except ValueError:
            print(f"repro perf baseline: bad --threshold {spec!r}; "
                  "expected METRIC=REL", file=sys.stderr)
            return 2
    ledger = Ledger(args.ledger)
    written = write_baseline(
        ledger, args.baselines, suites=args.suite or None,
        thresholds=thresholds or None,
    )
    if not written:
        print("repro perf baseline: ledger has no entries to baseline "
              f"(looked in {ledger.history_path})", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
def add_perf_parser(p: argparse.ArgumentParser) -> None:
    """Wire the ``perf`` subcommand tree onto its verb parser."""
    p.description = __doc__
    p.formatter_class = argparse.RawDescriptionHelpFormatter
    verbs = p.add_subparsers(dest="verb", required=True)

    def common(vp: argparse.ArgumentParser) -> None:
        vp.add_argument(
            "--ledger", default=DEFAULT_LEDGER,
            help=f"ledger directory (default: {DEFAULT_LEDGER})",
        )

    def sizes(vp: argparse.ArgumentParser) -> None:
        vp.add_argument("--n", type=int, default=512,
                        help="driver system size (default: 512)")
        vp.add_argument("--reps", type=int, default=5,
                        help="driver repetitions (default: 5)")
        vp.add_argument("--nx", type=int, default=24,
                        help="app smoke grid edge (default: 24)")
        vp.add_argument("--nsteps", type=int, default=2,
                        help="app smoke steps (default: 2)")

    vp = verbs.add_parser(
        "run", help="run the smoke suite and append to the ledger"
    )
    sizes(vp)
    vp.add_argument("--no-app", action="store_true",
                    help="skip the application solve (driver only)")
    vp.add_argument("--time-scale", type=float, default=1.0,
                    help="multiply recorded time metrics (debug aid for "
                         "exercising the regression gate)")
    common(vp)
    vp.set_defaults(fn=cmd_run)

    vp = verbs.add_parser(
        "report",
        help="roofline-efficiency attribution, scalar vs vector (vs jit\n when numba is installed)",
    )
    sizes(vp)
    common(vp)
    vp.set_defaults(fn=cmd_report)

    vp = verbs.add_parser(
        "check", help="gate latest ledger entries against baselines"
    )
    vp.add_argument("--baselines", default=DEFAULT_BASELINES,
                    help=f"baseline directory (default: {DEFAULT_BASELINES})")
    vp.add_argument("--suite", action="append", default=[],
                    help="suite(s) to check (default: every baseline file)")
    vp.add_argument("--window", type=int, default=8,
                    help="history window for the MAD noise model")
    vp.add_argument("--counts-only", action="store_true",
                    help="gate only deterministic count metrics (for "
                         "cross-machine comparisons where timings don't "
                         "transfer)")
    common(vp)
    vp.set_defaults(fn=cmd_check)

    vp = verbs.add_parser(
        "baseline", help="write baselines from the ledger's latest entries"
    )
    vp.add_argument("--baselines", default=DEFAULT_BASELINES,
                    help=f"baseline directory (default: {DEFAULT_BASELINES})")
    vp.add_argument("--suite", action="append", default=[],
                    help="suite(s) to baseline (default: all in the ledger)")
    vp.add_argument("--threshold", action="append", default=[],
                    metavar="METRIC=REL",
                    help="pin a per-metric relative threshold into the "
                         "baseline file (repeatable)")
    common(vp)
    vp.set_defaults(fn=cmd_baseline)
