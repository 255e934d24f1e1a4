"""``repro campaign`` -- run/status/report/clean over campaign specs.

The CLI face of the campaign engine::

    repro campaign run    SPEC [--workers N] [--cache-dir D] [--output F]
    repro campaign status SPEC [--cache-dir D]
    repro campaign report [F | SPEC --cache-dir D]
    repro campaign clean  [SPEC] [--cache-dir D] [--yes]

``run`` prints live per-job progress and writes ``BENCH_campaign.json``
(path via ``--output``); its exit status is 0 only when no job ended
quarantined.  ``status`` shows, without running anything, which jobs
the cache would serve.  ``report`` re-renders the tables from a bench
file.  ``clean`` drops the spec's cache entries (or the whole cache).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.campaign.aggregate import build_bench_payload, campaign_report, write_bench
from repro.campaign.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec, CampaignSpecError

#: Default bench artifact name (next to the invoking directory, the
#: convention the other BENCH_*.json emitters follow).
DEFAULT_OUTPUT = "BENCH_campaign.json"


def _load_spec(path: str) -> CampaignSpec:
    try:
        return CampaignSpec.from_file(path)
    except CampaignSpecError as exc:
        raise SystemExit(f"repro campaign: {exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    from repro.monitor.trace import Tracer, validate_trace, write_trace

    spec = _load_spec(args.spec)
    cache = ResultCache(args.cache_dir)
    tracer = Tracer("repro campaign") if args.trace else None
    scheduler = CampaignScheduler(
        spec,
        cache=cache,
        workers=args.workers,
        progress=lambda msg: print(msg, flush=True),
        tracer=tracer,
    )
    result = scheduler.run()
    payload = build_bench_payload(result)
    out = write_bench(payload, args.output)
    print(result.summary())
    print(f"cache hits: {result.n_cache_hits}/{result.n_jobs}")
    print(f"wrote {out}")
    if not args.no_ledger:
        from repro.campaign.aggregate import ledger_results
        from repro.perf.ledger import Ledger

        # Default under the (git-ignored) cache dir: only an explicit
        # --ledger may write into a tracked directory.
        ledger = Ledger(args.ledger or Path(args.cache_dir) / "ledger")
        n = ledger.append_all(ledger_results(payload))
        print(f"appended {n} entries to {ledger.history_path}")
    if tracer is not None:
        trace_payload = tracer.to_payload(
            metadata={"campaign": spec.name, "njobs": result.n_jobs}
        )
        problems = validate_trace(trace_payload)
        trace_out = write_trace(trace_payload, args.trace)
        print(f"wrote {trace_out} ({len(tracer)} events)")
        if problems:
            print(f"trace validation failed: {problems[0]}", file=sys.stderr)
            return 1
    return 0 if result.n_quarantined == 0 else 1


def cmd_status(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    cache = ResultCache(args.cache_dir)
    jobs = spec.expand()
    cached = 0
    print(f"campaign '{spec.name}': {len(jobs)} jobs "
          f"(cache: {cache.root})")
    for job in jobs:
        if not job.valid:
            state = "invalid"
        elif cache.contains(job.key):
            state = "cached"
            cached += 1
        else:
            state = "pending"
        print(f"  {job.name:<40} {state:<8} {job.key[:12]}...")
    print(f"{cached}/{len(jobs)} jobs would be served from cache")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    source = Path(args.source)
    if source.suffix == ".toml" or _looks_like_spec(source):
        # Re-aggregate straight from the cache, no execution.
        spec = _load_spec(args.source)
        cache = ResultCache(args.cache_dir)
        scheduler = CampaignScheduler(spec, cache=cache, workers=1)
        jobs = spec.expand()
        if not all(job.valid and cache.contains(job.key) for job in jobs):
            print(
                "repro campaign report: not every job of this spec is "
                "cached; run `repro campaign run` first", file=sys.stderr,
            )
            return 1
        payload = build_bench_payload(scheduler.run())
    else:
        try:
            payload = json.loads(source.read_text())
        except FileNotFoundError:
            print(f"repro campaign report: no such file: {source}",
                  file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"repro campaign report: {source} is not valid JSON: {exc}",
                  file=sys.stderr)
            return 1
    print(campaign_report(payload))
    return 0


def _looks_like_spec(path: Path) -> bool:
    """A JSON file is a spec (not a bench payload) iff its "campaign"
    entry is the spec's section mapping rather than the bench's name."""
    if path.suffix != ".json":
        return False
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(data, dict) and isinstance(data.get("campaign"), dict)


def cmd_clean(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.spec is not None:
        spec = _load_spec(args.spec)
        keys = [job.key for job in spec.expand()]
        removed = cache.clean(keys)
        print(f"removed {removed} cache entries of campaign '{spec.name}'")
    else:
        if not args.yes:
            print(
                "repro campaign clean: refusing to drop the whole cache "
                "without --yes (pass a SPEC to clean one campaign)",
                file=sys.stderr,
            )
            return 2
        removed = cache.clean()
        print(f"removed {removed} cache entries from {cache.root}")
    return 0


# ----------------------------------------------------------------------
def add_campaign_parser(sub: argparse._SubParsersAction) -> None:
    """Wire the ``campaign`` subcommand tree onto the main parser."""
    p = sub.add_parser(
        "campaign",
        help="run scaling-study campaigns with a content-addressed cache",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    verbs = p.add_subparsers(dest="verb", required=True)

    def common(vp: argparse.ArgumentParser) -> None:
        vp.add_argument(
            "--cache-dir", default=DEFAULT_CACHE_DIR,
            help=f"result-cache root (default: {DEFAULT_CACHE_DIR})",
        )

    vp = verbs.add_parser("run", help="execute a campaign spec")
    vp.add_argument("spec", help="campaign spec file (.toml or .json)")
    vp.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: the spec's setting)")
    vp.add_argument("--output", default=DEFAULT_OUTPUT,
                    help=f"bench artifact path (default: {DEFAULT_OUTPUT})")
    vp.add_argument("--trace", metavar="PATH", default=None,
                    help="write the scheduler's job-lifecycle timeline "
                         "(Chrome trace-event JSON) to PATH")
    vp.add_argument("--ledger", default=None,
                    help="performance-ledger directory campaign results "
                         "are appended to (default: CACHE_DIR/ledger)")
    vp.add_argument("--no-ledger", action="store_true",
                    help="skip the performance-ledger append")
    common(vp)
    vp.set_defaults(fn=cmd_run)

    vp = verbs.add_parser("status", help="show which jobs the cache covers")
    vp.add_argument("spec", help="campaign spec file (.toml or .json)")
    common(vp)
    vp.set_defaults(fn=cmd_status)

    vp = verbs.add_parser(
        "report", help="render tables from a bench file or a cached spec"
    )
    vp.add_argument("source",
                    help="BENCH_campaign.json, or a spec file to "
                         "re-aggregate from cache")
    common(vp)
    vp.set_defaults(fn=cmd_report)

    vp = verbs.add_parser("clean", help="drop cache entries")
    vp.add_argument("spec", nargs="?", default=None,
                    help="spec whose entries to drop (omit for the "
                         "whole cache, requires --yes)")
    vp.add_argument("--yes", action="store_true",
                    help="confirm dropping the entire cache")
    common(vp)
    vp.set_defaults(fn=cmd_clean)
