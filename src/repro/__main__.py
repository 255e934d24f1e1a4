"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's artifacts or run the simulator:

* ``table1``      -- Table I (paper vs calibrated model)
* ``table2``      -- Table II (paper vs kernel model)
* ``breakdown``   -- the Sec. II-E time attributions
* ``dilution``    -- the kernel-vs-application SVE summary
* ``fig1``        -- the sparsity-pattern report
* ``calibration`` -- the Table-I fit coefficients and residuals
* ``scaling``     -- the future-work projection (larger problem, more ranks)
* ``run``         -- run the Gaussian-pulse problem at a chosen scale
* ``trace``       -- traced run exporting a Perfetto-loadable timeline
* ``chaos``       -- seeded fault-injection sweep against a clean baseline
* ``driver``      -- the Sec. II-F kernel driver on this substrate
* ``campaign``    -- sharded scaling-study runner with a result cache
* ``perf``        -- performance ledger: run / report / check / baseline
* ``serve``       -- simulation-as-a-service job server (asyncio TCP)
* ``submit``      -- client for a running ``serve`` instance
* ``top``         -- live telemetry view (serve scrape or sampler file)

Every command also accepts ``--log-level``/``--log-json`` (structured
logging to stderr) -- the flags are attached globally in :func:`main`.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Callable


def _parse_inject(spec: str | None) -> dict[str, float]:
    """Parse ``--inject "numeric=0.001,comm=0.01,io=0.2"`` into rates."""
    rates = {"numeric": 0.0, "comm": 0.0, "io": 0.0}
    if not spec:
        return rates
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            site, value = part.split("=")
            rates[site.strip()]  # KeyError on unknown site
            rates[site.strip()] = float(value)
        except (ValueError, KeyError):
            raise SystemExit(
                f"bad --inject entry {part!r}; expected site=rate with site "
                f"in {sorted(rates)}"
            ) from None
        if not 0.0 <= rates[site.strip()] <= 1.0:
            raise SystemExit(
                f"bad --inject entry {part!r}: rate must be a probability "
                f"in [0, 1], got {rates[site.strip()]}"
            )
    return rates


def _make_resilience(args: argparse.Namespace):
    """Build a ResilienceConfig from CLI flags, or None when inert."""
    from repro.resilience import ResilienceConfig, RetryPolicy

    rates = _parse_inject(getattr(args, "inject", None))
    if not any(rates.values()) and not getattr(args, "resilient", False):
        return None
    return ResilienceConfig(
        seed=args.inject_seed,
        numeric_rate=rates["numeric"],
        comm_rate=rates["comm"],
        io_rate=rates["io"],
        retry=RetryPolicy(
            max_attempts=args.retry_attempts,
            backoff=args.retry_backoff,
            dt_floor=args.dt_floor,
        ),
        max_rollbacks=args.max_rollbacks,
    )


def _transport_name(value: str) -> str:
    """Validate ``--transport`` against the links registry at parse time.

    Registry-driven (not a hardcoded ``choices=``) so plugged-in
    transports are accepted and the error names what actually exists.
    """
    from repro.parallel.links import registered_transports

    if value not in registered_transports():
        raise argparse.ArgumentTypeError(
            f"unknown transport {value!r}; registered transports: "
            f"{', '.join(registered_transports())}"
        )
    return value


def _backend_name(value: str) -> str:
    """Validate ``--backend`` against the backend registry at parse time.

    Registry-driven (not a hardcoded ``choices=``) so plugged-in
    backends -- the optional ``jit`` tier today, a GPU tier tomorrow --
    are accepted without CLI edits and the error names what exists.
    """
    from repro.backend import available_backends

    if value not in available_backends():
        raise argparse.ArgumentTypeError(
            f"unknown backend {value!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )
    return value


def _add_backend_flag(p: argparse.ArgumentParser, default: str = "vector") -> None:
    p.add_argument("--backend", type=_backend_name, default=default,
                   metavar="NAME",
                   help="execution backend: vector (SVE analogue, default), "
                        "scalar (no-SVE), or jit (compiled fused loops; "
                        f"needs numba) [default: {default}]")


def _add_transport_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--transport", type=_transport_name, default=None,
                   metavar="NAME",
                   help="comm transport: in-process threads (default) or "
                        "one forked process per rank over shared memory; "
                        "unset falls back to $REPRO_TRANSPORT "
                        "(registered: threads, mp)")


def _resolve_transport(args: argparse.Namespace) -> str:
    from repro.parallel.links import (
        TRANSPORT_ENV,
        TransportUnavailableError,
        get_transport,
        registered_transports,
    )

    try:
        return get_transport(getattr(args, "transport", None)).name
    except TransportUnavailableError as exc:
        # An explicit flag was validated at parse time, so reaching
        # here means a bad $REPRO_TRANSPORT (or a platform without the
        # requested transport) -- fail at the front door, not inside
        # run_spmd.
        raise SystemExit(
            f"repro: {exc} (check --transport / ${TRANSPORT_ENV}; "
            f"registered transports: {', '.join(registered_transports())})"
        ) from None


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--inject", metavar="SITE=RATE[,...]", default=None,
                   help='fault rates, e.g. "numeric=0.001,comm=0.01,io=0.2"')
    p.add_argument("--inject-seed", type=int, default=0,
                   help="chaos seed (replays exactly per seed+rank)")
    p.add_argument("--resilient", action="store_true",
                   help="arm recovery layers even with no injection")
    p.add_argument("--retry-attempts", type=int, default=3,
                   help="step attempts before escalating to rollback")
    p.add_argument("--retry-backoff", type=float, default=0.5,
                   help="dt multiplier per step retry")
    p.add_argument("--dt-floor", type=float, default=1e-12,
                   help="smallest dt the backoff may reach")
    p.add_argument("--max-rollbacks", type=int, default=2,
                   help="checkpoint-rollback budget for the whole run")


def _add_grid_flags(
    p: argparse.ArgumentParser,
    nx1: int = 48, nx2: int = 48, nsteps: int = 5, precond: str = "spai",
) -> None:
    """The grid/topology/solver flags ``run``, ``trace`` and ``chaos`` share."""
    p.add_argument("--nx1", type=int, default=nx1)
    p.add_argument("--nx2", type=int, default=nx2)
    p.add_argument("--nsteps", type=int, default=nsteps)
    p.add_argument("--dt", type=float, default=2e-4)
    p.add_argument("--nprx1", type=int, default=1)
    p.add_argument("--nprx2", type=int, default=1)
    _add_backend_flag(p)
    p.add_argument("--precond", choices=("spai", "jacobi", "none"), default=precond)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_transport_flag(p)


def _config_from_args(args: argparse.Namespace, **overrides):
    """The V2DConfig the shared flags describe, plus per-verb fields."""
    from repro.v2d import V2DConfig

    return V2DConfig(
        nx1=args.nx1, nx2=args.nx2, nsteps=args.nsteps, dt=args.dt,
        nprx1=args.nprx1, nprx2=args.nprx2,
        backend=args.backend, precond=args.precond, solver_tol=args.tol,
        transport=_resolve_transport(args),
        **overrides,
    )


def _launch(args: argparse.Namespace, **overrides):
    """Run the Gaussian pulse on every rank of the configured topology."""
    from repro.problems import GaussianPulseProblem
    from repro.v2d import run_parallel

    with _run_sampler(args):
        return run_parallel(_config_from_args(args, **overrides), GaussianPulseProblem())


def _cmd_run(args: argparse.Namespace) -> int:
    reports = _launch(
        args,
        ganged=not args.classic, fused=not args.unfused,
        checkpoint_path=args.checkpoint_path,
        checkpoint_interval=args.checkpoint_interval,
        resilience=_make_resilience(args),
        trace=bool(args.trace),
    )
    report = reports[0]
    print(report.summary())
    if args.profile:
        print()
        print(report.flat_profile())
    code = _export_run_trace(reports, args.trace) if args.trace else 0
    return code or (0 if report.all_converged else 1)


def _run_sampler(args: argparse.Namespace):
    """``--telemetry PATH``: arm the gate and sample OpenMetrics to PATH.

    Returns a context manager wrapping the run; a no-op when the flag
    is unset so the default path stays bitwise-identical.
    """
    from contextlib import nullcontext

    path = getattr(args, "telemetry", None)
    if not path:
        return nullcontext()
    from repro.monitor import telemetry

    telemetry.set_enabled(True)
    return telemetry.Telemetry(path, interval=1.0)


def _export_run_trace(reports, path: str) -> int:
    """Merge per-rank tracers, validate, write; 0 on a clean trace."""
    from repro.monitor.trace import merged_payload, validate_trace, write_trace

    tracers = [rep.tracer for rep in reports if rep.tracer is not None]
    if not tracers:
        print("repro: no tracer attached to any rank report", file=sys.stderr)
        return 1
    payload = merged_payload(
        tracers,
        metadata={"problem": reports[0].problem_name, "nranks": len(reports)},
    )
    problems = validate_trace(payload)
    out = write_trace(payload, path)
    nevents = sum(len(t) for t in tracers)
    print(f"wrote {out}: {nevents} events over {len(tracers)} rank track(s)")
    if problems:
        print(f"trace validation failed ({len(problems)} problem(s)):",
              file=sys.stderr)
        for msg in problems[:10]:
            print(f"  {msg}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run the Gaussian pulse with tracing armed and export the timeline."""
    from repro.monitor.trace import merge_summaries

    reports = _launch(args, trace=True)
    code = _export_run_trace(reports, args.output)

    tracers = [rep.tracer for rep in reports if rep.tracer is not None]
    summary = merge_summaries([t.summary() for t in tracers])
    spans = sorted(summary["spans"].items(), key=lambda kv: -kv[1]["us"])
    if spans:
        print(f"  {'span':<16} {'count':>8} {'total ms':>10}")
        for name, agg in spans[:12]:
            print(f"  {name:<16} {int(agg['count']):>8} "
                  f"{agg['us'] / 1000.0:>10.2f}")
    if summary["instants"]:
        marks = ", ".join(
            f"{name} x{n}" for name, n in sorted(summary["instants"].items())
        )
        print(f"  instants: {marks}")
    return code or (0 if reports[0].all_converged else 1)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos sweep: clean baseline, then the same run under faults.

    Exits 0 only when the faulted run completes, the recovery machinery
    demonstrably engaged, and the final solution stays within tolerance
    of the fault-free baseline.
    """
    import tempfile

    from repro.resilience import ResilienceReport

    baseline = _launch(args, profile=False)[0]
    err_ref = baseline.solution_error
    print(f"baseline: error {err_ref:.6e}, "
          f"energy {baseline.final_energy:.6e}")

    rc = _make_resilience(args)
    if rc is None:
        print("chaos: no fault rates given (--inject) -- nothing to sweep")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        reports = _launch(
            args,
            profile=False,
            checkpoint_path=f"{tmp}/chaos-ck",
            checkpoint_interval=max(1, args.nsteps // 4),
            resilience=rc,
        )

    merged = ResilienceReport()
    for rep in reports:
        if rep.resilience is not None:
            merged.merge(rep.resilience)
    chaos = reports[0]
    err = chaos.solution_error
    print(f"chaos:    error {err:.6e}, energy {chaos.final_energy:.6e}")
    print(merged.summary())

    import numpy as np

    tol = max(2.0 * err_ref, err_ref + args.error_margin)
    completed = chaos.nsteps >= args.nsteps
    recovered = merged.total_recoveries > 0
    accurate = err is not None and np.isfinite(err) and err <= tol
    print(
        f"verdict: completed={completed} recoveries={merged.total_recoveries} "
        f"error-ok={accurate} (tolerance {tol:.3e})"
    )
    return 0 if (completed and recovered and accurate) else 1


def _cmd_driver(args: argparse.Namespace) -> int:
    from repro.kernels import KernelDriver
    from repro.kernels.driver import format_table2, run_driver_spmd

    if args.ranks > 1:
        result = run_driver_spmd(
            args.ranks, n=args.n, reps=args.reps, backend=args.backend,
            transport=getattr(args, "transport", None),
            band_offset=min(200, args.n - 1),
        )
        print(result.table())
        return 0
    driver = KernelDriver(n=args.n, reps=args.reps,
                          band_offset=min(200, args.n - 1))
    no_sve, sve, _ratios = driver.compare()
    print(format_table2(no_sve, sve))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.perfmodel import CostModel

    model = CostModel()
    print(
        f"Future-work projection: problem scaled {args.scale}x per "
        f"direction ({200 * args.scale}x{100 * args.scale} zones)"
    )
    print(f"{'Np':>4} {'topology':>10} {'fujitsu':>9} {'cray-opt':>9}")
    fu = model.scaling_study("fujitsu", scale=args.scale)
    cr = model.scaling_study("cray-opt", scale=args.scale)
    for f, c in zip(fu, cr):
        print(
            f"{f.np_:>4} {f.nprx1:>5}x{f.nprx2:<4} {f.total:>9.2f} {c.total:>9.2f}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    name = args.command
    if name == "fig1":
        from repro.linalg import pattern_report

        print(pattern_report(200, 100, 2))
        return 0
    if name == "roofline":
        from repro.perfmodel import RooflineModel

        print(RooflineModel().report())
        return 0
    from repro.perfmodel import (
        breakdown_report,
        dilution_report,
        table1_report,
        table2_report,
    )
    from repro.perfmodel.calibrate import calibration_report

    fn = {
        "table1": table1_report,
        "table2": table2_report,
        "breakdown": breakdown_report,
        "dilution": dilution_report,
        "calibration": calibration_report,
    }[name]
    print(fn())
    return 0


def _build_report(p: argparse.ArgumentParser) -> None:
    p.set_defaults(fn=_cmd_report)


def _build_scaling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=int, default=2)
    p.set_defaults(fn=_cmd_scaling)


def _build_run(p: argparse.ArgumentParser) -> None:
    _add_grid_flags(p)
    p.add_argument("--classic", action="store_true",
                   help="textbook BiCGSTAB instead of ganged reductions")
    p.add_argument("--unfused", action="store_true",
                   help="separate kernel launches instead of the fused hot path")
    p.add_argument("--profile", action="store_true")
    p.add_argument("--checkpoint-path", default=None)
    p.add_argument("--checkpoint-interval", type=int, default=0)
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="arm the tracer and write the merged per-rank "
                        "timeline (Chrome trace-event JSON) to PATH")
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="arm live telemetry and sample OpenMetrics to "
                        "PATH every second (poll with `repro top --file`)")
    _add_resilience_flags(p)
    p.set_defaults(fn=_cmd_run)


def _build_trace(p: argparse.ArgumentParser) -> None:
    _add_grid_flags(p)
    p.add_argument("--output", default="trace.json",
                   help="trace artifact path (default: trace.json)")
    p.set_defaults(fn=_cmd_trace)


def _build_chaos(p: argparse.ArgumentParser) -> None:
    _add_grid_flags(p, nx1=32, nx2=16, nsteps=6, precond="jacobi")
    p.add_argument("--error-margin", type=float, default=1e-3,
                   help="absolute slack allowed over the baseline error")
    _add_resilience_flags(p)
    p.set_defaults(fn=_cmd_chaos)


def _build_driver(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--ranks", type=int, default=1,
                   help="run the driver on an SPMD job of this many ranks")
    _add_backend_flag(p, default="scalar")
    _add_transport_flag(p)
    p.set_defaults(fn=_cmd_driver)


#: Every verb, in the order ``repro --help`` lists them: its help line
#: and what adds its arguments and sets ``fn`` -- a function here, or
#: ``"module:function"`` for a verb that lives in its own package.  Only
#: the verb being run is built, so a verb's module is imported only when
#: that verb runs.
VERBS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None] | str]] = {
    **{name: (f"print the {name} report", _build_report)
       for name in ("table1", "table2", "breakdown", "dilution", "calibration",
                    "fig1", "roofline")},
    "scaling": ("future-work scaling projection", _build_scaling),
    "run": ("run the Gaussian-pulse problem", _build_run),
    "trace": ("traced Gaussian-pulse run exporting a Perfetto timeline", _build_trace),
    "chaos": ("seeded fault-injection sweep vs a clean baseline", _build_chaos),
    "driver": ("the Sec. II-F kernel driver", _build_driver),
    "campaign": ("run scaling-study campaigns with a content-addressed cache",
                 "repro.campaign.cli:add_campaign_parser"),
    "perf": ("performance ledger: run, attribute, gate", "repro.perf.cli:add_perf_parser"),
    "serve": ("run the simulation-as-a-service job server",
              "repro.serve.cli:add_serve_parser"),
    "submit": ("submit and manage jobs on a running serve instance",
               "repro.serve.cli:add_submit_parser"),
    "top": ("live telemetry view over a serve instance or sampler file",
            "repro.monitor.top:add_top_parser"),
}


class _VersionAction(argparse.Action):
    """``--version`` with the git fingerprint resolved only on demand
    (running git on every CLI invocation would be wasted work)."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.perf.schema import version_string

        print(f"{parser.prog} {version_string()}")
        parser.exit()


def main(argv: list[str] | None = None) -> int:
    from repro.monitor.log import add_logging_flags, configure_from_args

    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="repro", description="V2D / SVE study reproduction"
    )
    parser.add_argument(
        "--version", action=_VersionAction,
        help="show version, git revision and dirty flag",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The top-level options take no value, so the first bare word is
    # the verb.  Every verb gets a parser for ``repro --help`` to list;
    # only that one gets its arguments.
    verb = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_text, build) in VERBS.items():
        p = sub.add_parser(name, help=help_text)
        if name == verb:
            if isinstance(build, str):
                module, _, attr = build.partition(":")
                build = getattr(importlib.import_module(module), attr)
            build(p)
            # Structured-logging flags ride on every verb.
            add_logging_flags(p)

    args = parser.parse_args(argv)
    configure_from_args(args)
    try:
        return args.fn(args)
    except KeyError as exc:
        from repro.backend.jit import NUMBA_HINT

        # The backend *name* validates at parse time; whether the jit
        # tier can actually run is decided when the backend is built.
        # Surface that one failure as a front-door message, not a
        # traceback.
        if exc.args and exc.args[0] == NUMBA_HINT:
            raise SystemExit(f"repro: {NUMBA_HINT}") from None
        raise


def _pin_blas_threads() -> None:
    """One BLAS thread unless the user chose otherwise.

    Runs before anything imports NumPy, which reads these once at load.
    A second BLAS thread spinning beside a serial run's NumPy calls has
    been seen to make MATVEC many times slower.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


if __name__ == "__main__":
    _pin_blas_threads()
    sys.exit(main())
