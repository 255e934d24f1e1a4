"""``repro serve`` (the server) and ``repro submit`` (the client).

The server command owns one process-lifetime event loop; the client
command is a thin multiplexer over :class:`~repro.serve.client.
ServeClient`, covering the whole wire vocabulary so shell sessions and
CI smoke jobs never need a bespoke script:

    $ repro serve --port 7071 &
    $ repro submit --port 7071 --set nx1=32 --set nsteps=5 --wait
    $ repro submit --port 7071 --stats
    $ repro submit --port 7071 --shutdown
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any

__all__ = ["add_serve_parser", "add_submit_parser"]


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.quota import TenantPolicy
    from repro.serve.server import JobServer, ServeConfig

    cfg = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        workdir=args.workdir,
        max_queue=args.max_queue,
        quota=TenantPolicy(
            max_active=args.max_active, rate=args.rate, burst=args.burst
        ),
    )

    async def main() -> None:
        server = JobServer(cfg)
        await server.start()
        print(
            f"repro serve: listening on {cfg.host}:{server.port} "
            f"({cfg.workers} workers, cache {cfg.cache_dir})",
            flush=True,
        )
        await server.serve_until_shutdown()
        print("repro serve: shut down cleanly", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro serve: interrupted", file=sys.stderr)
        return 130
    return 0


def add_serve_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7070,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent solver executions")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="content-addressed result cache (shared with "
                        "repro campaign)")
    p.add_argument("--workdir", default=".repro-serve",
                   help="scratch root for per-job checkpoints")
    p.add_argument("--max-queue", type=int, default=256,
                   help="queued-job capacity before queue-full rejections")
    p.add_argument("--max-active", type=int, default=4,
                   help="per-tenant active-job quota")
    p.add_argument("--rate", type=float, default=0.0,
                   help="per-tenant submissions/second (0 = unlimited)")
    p.add_argument("--burst", type=int, default=8,
                   help="per-tenant token-bucket burst capacity")
    p.set_defaults(fn=cmd_serve)


# ----------------------------------------------------------------------
# repro submit
# ----------------------------------------------------------------------
def _parse_set(pairs: list[str]) -> dict[str, Any]:
    """``--set key=value`` pairs into a config dict (values are JSON
    when they parse as JSON, bare strings otherwise)."""
    out: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad --set entry {pair!r}; expected key=value")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _budget_from_args(args: argparse.Namespace) -> dict[str, Any] | None:
    budget: dict[str, Any] = {}
    if args.max_steps is not None:
        budget["max_steps"] = args.max_steps
    if args.max_seconds is not None:
        budget["max_seconds"] = args.max_seconds
    if args.rel_error is not None:
        budget["rel_error"] = args.rel_error
    return budget or None


def _emit(data: Any, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return
    if isinstance(data, list):
        for item in data:
            _emit(item, False)
        return
    if isinstance(data, dict):
        keys = [k for k in ("id", "state", "cached", "deduped", "tenant",
                            "problem", "stopped_by", "latency") if k in data]
        line = " ".join(f"{k}={data[k]}" for k in keys)
        print(line if line else json.dumps(data, sort_keys=True))


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient
    from repro.serve.jobs import ServeError

    try:
        client = ServeClient(host=args.host, port=args.port, timeout=args.timeout)
    except OSError as exc:
        print(f"repro submit: cannot reach {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 2
    try:
        with client:
            return _run_client_op(client, args)
    except ServeError as exc:
        print(f"repro submit: rejected [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except (ConnectionError, OSError) as exc:
        print(f"repro submit: connection lost ({exc})", file=sys.stderr)
        return 2


def _run_client_op(client, args: argparse.Namespace) -> int:
    if args.status:
        _emit(client.status(args.status), args.json)
        return 0
    if args.result:
        out = client.result(args.result, timeout=args.timeout)
        _emit(out, args.json)
        return 0 if out.get("state") == "done" else 1
    if args.cancel:
        _emit(client.cancel(args.cancel), args.json)
        return 0
    if args.list:
        _emit(client.list(tenant=args.tenant), args.json)
        return 0
    if args.stats:
        _emit(client.stats(), True)  # stats are only useful in full
        return 0
    if args.metrics:
        # Raw OpenMetrics text on stdout: pipe straight into a scraper
        # or a file; `repro top` renders the same payload nicely.
        sys.stdout.write(client.metrics()["openmetrics"])
        return 0
    if args.health:
        _emit(client.health(), True)
        return 0
    if args.shutdown:
        _emit(client.shutdown(graceful=not args.hard), args.json)
        return 0

    # Default op: submit (optionally wait/watch).
    sub = client.submit(
        problem=args.problem,
        config=_parse_set(args.set),
        tenant=args.tenant,
        priority=args.priority,
        budget=_budget_from_args(args),
        resume=args.resume,
    )
    _emit(sub, args.json)
    job = sub["id"]
    if args.watch:
        for event in client.watch(job):
            print(json.dumps(event, sort_keys=True), flush=True)
    if args.wait or args.watch:
        out = client.result(job, timeout=args.timeout)
        _emit(out, args.json)
        if not args.json and out.get("result"):
            r = out["result"]
            print(f"  steps={r.get('steps')} iterations={r.get('iterations')} "
                  f"final_energy={r.get('final_energy'):.6g}")
        return 0 if out.get("state") == "done" else 1
    return 0


def add_submit_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7070)
    p.add_argument("--timeout", type=float, default=300.0,
                   help="socket/result-wait timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print full JSON responses")

    g = p.add_argument_group("submit")
    g.add_argument("--problem", default="gaussian-pulse")
    g.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override (repeatable), e.g. --set nx1=32")
    g.add_argument("--tenant", default=None)
    g.add_argument("--priority", type=int, default=None)
    g.add_argument("--max-steps", type=int, default=None,
                   help="budget: stop after this many steps")
    g.add_argument("--max-seconds", type=float, default=None,
                   help="budget: stop after this much wall clock")
    g.add_argument("--rel-error", type=float, default=None,
                   help="budget: stop when energy settles to this rel. change")
    g.add_argument("--resume", metavar="JOB", default=None,
                   help="resume from this job's last checkpoint")
    g.add_argument("--wait", action="store_true",
                   help="block until the job finishes and print the result")
    g.add_argument("--watch", action="store_true",
                   help="stream progress events, then print the result")

    g = p.add_argument_group("other ops (mutually exclusive with submit)")
    g.add_argument("--status", metavar="JOB", default=None)
    g.add_argument("--result", metavar="JOB", default=None)
    g.add_argument("--cancel", metavar="JOB", default=None)
    g.add_argument("--list", action="store_true")
    g.add_argument("--stats", action="store_true")
    g.add_argument("--metrics", action="store_true",
                   help="print the server's OpenMetrics exposition text")
    g.add_argument("--health", action="store_true",
                   help="print the server's liveness summary as JSON")
    g.add_argument("--shutdown", action="store_true")
    g.add_argument("--hard", action="store_true",
                   help="with --shutdown: cancel running jobs instead of "
                        "draining")
    p.set_defaults(fn=cmd_submit)
