"""Embeddable single-job entrypoint: one run in, one plain dict out.

:func:`run_job` is the unit of work the campaign engine schedules: it
accepts a :class:`~repro.v2d.config.V2DConfig` (or its ``to_dict``
form, which is what crosses a worker-process boundary), runs the
configured simulation -- serially or over the thread-SPMD substrate
when the topology asks for more ranks -- and returns a JSON-
serializable summary.  Everything non-deterministic (wall/CPU seconds,
profile fractions) is confined to the ``"timing"`` subtree so result
consumers (the content-addressed cache, the campaign aggregator) can
compare payloads bitwise modulo timing.
"""

from __future__ import annotations

from typing import Any

from repro.monitor.counters import Counters
from repro.monitor.trace import merge_summaries
from repro.v2d.config import V2DConfig
from repro.v2d.report import RunReport
from repro.v2d.simulation import run_parallel

#: Result-payload schema version (bump on incompatible changes; part of
#: the campaign cache key, so a bump invalidates stale entries).
RESULT_SCHEMA = 1

#: Keys under which non-deterministic (timing-derived) values live.
TIMING_KEY = "timing"


def run_job(
    config: V2DConfig | dict,
    problem: str = "gaussian-pulse",
    timeout: float | None = None,
) -> dict[str, Any]:
    """Run one configured simulation and summarize it as a plain dict.

    Parameters
    ----------
    config:
        The run configuration, as a :class:`V2DConfig` or its
        ``to_dict`` serialization.
    problem:
        Test-problem name (see :data:`repro.problems.PROBLEMS`).
    timeout:
        Deadlock watchdog handed to the SPMD substrate for decomposed
        runs (seconds); ``None`` uses the substrate default.

    Returns
    -------
    dict
        Deterministic run summary (solver work, convergence, energy,
        error, merged counters) plus a ``"timing"`` subtree of
        wall-clock measurements.  Exceptions propagate; the campaign
        worker is the layer that converts them into failure records.
    """
    # The by-name registry imports every problem, hydro included; the
    # run path imports only the problem it is handed.
    from repro.problems import get_problem

    cfg = config if isinstance(config, V2DConfig) else V2DConfig.from_dict(config)
    prob = get_problem(problem)
    kwargs = {} if timeout is None else {"timeout": timeout}
    return summarize_reports(cfg, problem, run_parallel(cfg, prob, **kwargs))


def summarize_reports(
    cfg: V2DConfig, problem: str, reports: list[RunReport]
) -> dict[str, Any]:
    """Fold per-rank :class:`RunReport` objects into the job payload.

    Rank 0 carries the shared global diagnostics (final energy,
    solution error); counters are summed over ranks into the global
    totals the paper's per-rank PAPI exports would be merged into.
    """
    root = reports[0]
    counters = Counters()
    for rep in reports:
        counters.merge(rep.counters)
    result: dict[str, Any] = {
        "schema": RESULT_SCHEMA,
        "problem": problem,
        "label": root.config_label,
        "nranks": cfg.nranks,
        "nprx1": cfg.nprx1,
        "nprx2": cfg.nprx2,
        "backend": cfg.backend,
        "steps": root.nsteps,
        "solves": root.total_solves,
        "iterations": root.total_iterations,
        "converged": bool(root.all_converged),
        "final_time": float(root.final_time),
        "final_energy": float(root.final_energy),
        "solution_error": (
            None if root.solution_error is None else float(root.solution_error)
        ),
        "counters": counters.snapshot(),
        "recoveries": counters.recoveries,
        TIMING_KEY: {
            "wall_seconds": max(rep.wall_seconds for rep in reports),
            "cpu_seconds": sum(rep.cpu_seconds for rep in reports),
        },
    }
    mv = root.matvec_fraction()
    if mv is not None:
        result[TIMING_KEY]["matvec_fraction"] = mv
    # Trace summaries are timing-derived (span counts are deterministic
    # but microseconds are not), so they ride the volatile subtree.
    tracers = [rep.tracer for rep in reports if rep.tracer is not None]
    if tracers:
        result[TIMING_KEY]["trace"] = merge_summaries(
            [t.summary() for t in tracers]
        )
    return result


def strip_timing(result: dict[str, Any]) -> dict[str, Any]:
    """The deterministic view of a job payload (timing subtree removed)."""
    return {k: v for k, v in result.items() if k != TIMING_KEY}
