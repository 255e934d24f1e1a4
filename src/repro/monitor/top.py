"""``repro top``: a polling live view over live telemetry.

Two data sources, same renderer:

* a running ``repro serve`` instance, scraped over the wire protocol's
  ``metrics``/``health`` ops (the default), or
* an OpenMetrics file written by :class:`~repro.monitor.telemetry.
  Telemetry`'s background sampler (``--file``), for non-serve runs.

The view is deliberately ``top``-shaped: one screenful, refreshed in
place, showing queue depth and job states, monotonic totals, latency
and queue-wait quantiles, per-tenant active-job counts, per-backend
achieved GF/s, and per-rank/per-worker heartbeat ages.  ``--json``
emits the same snapshot as machine-readable JSON instead.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Any

from repro.monitor.telemetry import parse_openmetrics

__all__ = ["add_top_parser", "cmd_top", "build_view", "render_view"]

_GFLOPS_RE = re.compile(r"^repro_kernel_(\w+)_gflops$")
_RANK_HB_RE = re.compile(r"^repro_rank_(\d+)_heartbeat_age_seconds$")
_TOTAL_RE = re.compile(r"^repro_serve_(\w+)$")


def _hist_quantile(hist: dict[str, Any], q: float) -> float | None:
    """Quantile from parsed OpenMetrics histogram buckets (interpolated)."""
    count = hist.get("count", 0)
    buckets = hist.get("buckets", [])
    if not count or not buckets:
        return None
    target = q * count
    prev_le, prev_cum = 0.0, 0
    for le, cum in buckets:
        if cum >= target:
            if le == float("inf"):
                return prev_le
            span = cum - prev_cum
            if span <= 0:
                return le
            frac = (target - prev_cum) / span
            return prev_le + frac * (le - prev_le)
        prev_le, prev_cum = le, cum
    return buckets[-1][0]


def _hist_view(hist: dict[str, Any] | None) -> dict[str, Any]:
    if not hist or not hist.get("count"):
        return {"count": 0, "p50": None, "p99": None, "mean": None}
    count = hist["count"]
    return {
        "count": count,
        "p50": _hist_quantile(hist, 0.50),
        "p99": _hist_quantile(hist, 0.99),
        "mean": hist.get("sum", 0.0) / count if count else None,
    }


def build_view(
    metrics: dict[str, Any],
    stats: dict[str, Any] | None = None,
    health: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Fold parsed metrics + serve stats/health into one snapshot dict.

    ``metrics`` is :func:`parse_openmetrics` output; ``stats``/``health``
    are the serve wire payloads (None when scraping a sampler file).
    """
    gauges = {
        name: entry["value"]
        for name, entry in metrics.items()
        if entry.get("type") == "gauge"
    }
    hists = {
        name: entry for name, entry in metrics.items()
        if entry.get("type") == "histogram"
    }

    gflops = {}
    ranks = {}
    counters = {}
    for name, value in sorted(gauges.items()):
        m = _GFLOPS_RE.match(name)
        if m:
            gflops[m.group(1)] = value
            continue
        m = _RANK_HB_RE.match(name)
        if m:
            ranks[int(m.group(1))] = value
            continue
        m = _TOTAL_RE.match(name)
        if m:
            counters[m.group(1)] = value

    view: dict[str, Any] = {
        "gflops": gflops,
        "rank_heartbeat_age_seconds": ranks,
        "counters": counters,
        "latency": _hist_view(hists.get("repro_serve_latency_seconds")),
        "queue_wait": _hist_view(hists.get("repro_serve_queue_wait_seconds")),
        "solver_iterations": _hist_view(
            hists.get("repro_solver_iterations_per_step")
        ),
        "halo_wait": _hist_view(hists.get("repro_halo_wait_seconds")),
        "sampled_unix": gauges.get("repro_telemetry_sampled_unix"),
    }
    if stats is not None:
        view["queue"] = {
            "depth": stats.get("queued", 0),
            "high_watermark": stats.get("queue_depth_high_watermark", 0),
            "jobs": stats.get("jobs", {}),
        }
        view["totals"] = stats.get("totals", {})
        view["cache"] = stats.get("cache", {})
        view["tenants"] = (stats.get("quota") or {}).get("active", {})
        view["uptime_seconds"] = stats.get("uptime_seconds")
        view["workers"] = stats.get("workers")
        # Serve-side hist stats are authoritative (exact min/max);
        # prefer them over the bucket-interpolated view when present.
        for key in ("latency", "queue_wait"):
            if stats.get(key, {}).get("count"):
                view[key] = stats[key]
    if health is not None:
        view["status"] = health.get("status")
        view["busy_workers"] = health.get("busy_workers")
        view["worker_heartbeat_age_seconds"] = health.get(
            "worker_heartbeat_age_seconds", {}
        )
    return view


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_s(value: Any, digits: int = 4) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}g}"


def _fmt_age(age: float) -> str:
    flag = "" if age < 5.0 else " !!"
    return f"{age:.1f}s{flag}"


def render_view(view: dict[str, Any]) -> str:
    """One screenful of telemetry as plain text."""
    lines: list[str] = []
    status = view.get("status")
    header = "repro top"
    if status is not None:
        up = view.get("uptime_seconds")
        header += (
            f" -- server {status}, up {_fmt_s(up, 3)}s, "
            f"{view.get('busy_workers', 0)}/{view.get('workers', '?')} "
            f"workers busy"
        )
    elif view.get("sampled_unix"):
        age = time.time() - view["sampled_unix"]
        header += f" -- sampler file, written {age:.1f}s ago"
    lines.append(header)

    queue = view.get("queue")
    if queue is not None:
        jobs = queue.get("jobs", {})
        states = " ".join(f"{k}={v}" for k, v in sorted(jobs.items())) or "none"
        lines.append(
            f"queue    depth={queue['depth']} "
            f"high-watermark={queue['high_watermark']}  jobs: {states}"
        )
    totals = view.get("totals")
    if totals:
        keys = ("submitted", "executed", "completed", "failed", "cancelled",
                "cache_hits", "dedup_inflight", "rejected")
        lines.append("totals   " + " ".join(
            f"{k}={int(totals[k])}" for k in keys if k in totals
        ))
    tenants = view.get("tenants")
    if tenants:
        lines.append("tenants  " + " ".join(
            f"{t}={n}" for t, n in sorted(tenants.items())
        ) + " active")

    for key, label in (("latency", "latency"), ("queue_wait", "q-wait"),
                       ("solver_iterations", "solv-it"),
                       ("halo_wait", "halo")):
        h = view.get(key) or {}
        if h.get("count"):
            extra = h.get("max", h.get("mean"))
            extra_label = "max" if "max" in h else "mean"
            lines.append(
                f"{label:<8} n={h['count']} p50={_fmt_s(h['p50'])} "
                f"p99={_fmt_s(h['p99'])} {extra_label}={_fmt_s(extra)}"
            )

    gflops = view.get("gflops")
    if gflops:
        lines.append("kernel   " + "  ".join(
            f"{backend}={rate:.3f} GF/s" for backend, rate in gflops.items()
        ))

    ranks = view.get("rank_heartbeat_age_seconds")
    if ranks:
        lines.append("ranks    " + "  ".join(
            f"r{r}={_fmt_age(age)}" for r, age in sorted(ranks.items())
        ))
    workers = view.get("worker_heartbeat_age_seconds")
    if workers:
        lines.append("workers  " + "  ".join(
            f"w{w}={_fmt_age(age)}" for w, age in sorted(workers.items())
        ))
    if len(lines) == 1:
        lines.append("(no telemetry yet -- is REPRO_TELEMETRY=1 set on "
                     "the producer?)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# data sources
# ----------------------------------------------------------------------
def _scrape_server(args: argparse.Namespace) -> dict[str, Any]:
    from repro.serve.client import ServeClient

    with ServeClient(host=args.host, port=args.port,
                     timeout=args.timeout) as client:
        payload = client.metrics()
        health = client.health()
    metrics = parse_openmetrics(payload["openmetrics"])
    return build_view(metrics, stats=payload.get("stats"), health=health)


def _scrape_file(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        metrics = parse_openmetrics(fh.read())
    return build_view(metrics)


# ----------------------------------------------------------------------
# the verb
# ----------------------------------------------------------------------
def cmd_top(args: argparse.Namespace) -> int:
    iterations = 1 if args.once else args.iterations
    live = (not args.json and not args.once and sys.stdout.isatty())
    n = 0
    try:
        while True:
            try:
                if args.file:
                    view = _scrape_file(args.file)
                else:
                    view = _scrape_server(args)
            except FileNotFoundError:
                print(f"repro top: no sampler file at {args.file!r} yet",
                      file=sys.stderr)
                return 2
            except ValueError as exc:
                print(f"repro top: bad OpenMetrics payload: {exc}",
                      file=sys.stderr)
                return 2
            except (ConnectionError, OSError) as exc:
                print(
                    f"repro top: cannot reach {args.host}:{args.port} ({exc})",
                    file=sys.stderr,
                )
                return 2
            if args.json:
                print(json.dumps(view, indent=2, sort_keys=True), flush=True)
            else:
                if live:
                    sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
                print(render_view(view), flush=True)
            n += 1
            if iterations and n >= iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's a clean exit
        # for a streaming view, not an error.
        sys.stderr.close()
        return 0


def add_top_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7070)
    p.add_argument("--timeout", type=float, default=10.0,
                   help="scrape socket timeout in seconds")
    p.add_argument("--file", metavar="PATH", default=None,
                   help="read an OpenMetrics sampler file instead of "
                        "scraping a server")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after this many refreshes (0 = until ^C)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable snapshots instead of the "
                        "text view")
    p.set_defaults(fn=cmd_top)
