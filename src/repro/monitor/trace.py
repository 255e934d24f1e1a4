"""Structured span/event tracer with Chrome trace-event export.

The paper's measurement story is TAU/ParaProf attribution plus Arm MAP
sampling; what neither gives is a *timeline* -- when each BiCGSTAB call
site ran, how the halo exchange's in-flight window overlaps compute,
where a resilience retry re-entered the step, which campaign jobs the
scheduler had in flight.  This module closes that gap the way the
APEX/perf-level A64FX studies do: a structured tracer whose output is
the Chrome trace-event JSON format, loadable in Perfetto or
``chrome://tracing`` with one track group per rank.

Design rules (mirroring the resilience layer's):

* **Zero cost when disabled.**  Nothing here runs unless a caller holds
  a :class:`Tracer`.  Timed regions reach it through
  :meth:`repro.monitor.profiler.Profiler.region`, which forwards each
  begin/end to the tracer it carries; timeline-only events (instants,
  counters, async windows) guard on ``tracer is not None``.
* **Observation only.**  The tracer reads clocks and counters; it never
  touches operands, so runs with tracing enabled are bitwise-identical
  to runs without (asserted by the test suite).

Event vocabulary (Chrome trace-event phases):

=====  ==================================================================
``B``/``E``  synchronous span begin/end (per-thread, properly nested)
``b``/``e``  async span begin/end (overlap windows: halo in-flight,
             campaign job lifecycles), matched by ``(cat, id)``
``i``        instant event (solver iterations, retries, escalations)
``C``        counter snapshot (PAPI-style counters, metrics registry)
``M``        metadata (process/thread names for the per-rank tracks)
=====  ==================================================================

All tracers share one process-wide monotonic epoch, so traces from the
per-rank tracers of a decomposed run merge onto one aligned timeline
(:func:`merged_payload`).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

#: Trace payload schema version (``metadata.schema`` in the export).
TRACE_SCHEMA = 1

#: Event phases the validator accepts.
_PHASES = frozenset({"B", "E", "i", "I", "C", "M", "b", "n", "e", "X"})

#: Shared monotonic epoch: every tracer's ``ts`` is microseconds since
#: this instant, so per-rank tracers merge onto one aligned timeline.
_EPOCH_NS = time.perf_counter_ns()


class MetricsRegistry:
    """Process-wide named metrics (counters, gauges, and histograms).

    A minimal Prometheus-flavoured registry: instrumented code bumps
    named values, and the tracer snapshots the whole registry into a
    counter track.  Thread-safe; scalar values are plain floats, and
    :meth:`observe` feeds fixed-bucket
    :class:`~repro.monitor.telemetry.Histogram` distributions that the
    OpenMetrics exposition and ``repro top`` render live.  Histograms
    are kept out of :meth:`snapshot` so every consumer of the scalar
    view (tracer counter tracks, perf reports) keeps seeing a flat
    ``{name: float}`` dict.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = {}
        self._hists: dict[str, Any] = {}
        self._lock = threading.Lock()

    # The registry crosses process boundaries twice: the ``mp``
    # transport forks it (children inherit, then snapshot-and-reset so
    # their deltas fold back through the result pipes), and tests
    # pickle it.  Locks are per-process machinery -- same treatment as
    # Tracer below.
    def __getstate__(self) -> dict[str, Any]:
        with self._lock:
            state = self.__dict__.copy()
            state["_values"] = dict(self._values)
            state["_hists"] = dict(self._hists)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def inc(self, name: str, delta: float = 1.0) -> None:
        """Add ``delta`` to the named counter (creating it at 0)."""
        with self._lock:
            self._values[name] = self._values.get(name, 0.0) + delta

    def set(self, name: str, value: float) -> None:
        """Set the named gauge to ``value``."""
        with self._lock:
            self._values[name] = float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._values.get(name, default)

    def snapshot(self) -> dict[str, float]:
        """Detached copy of every scalar metric."""
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()
            self._hists.clear()

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def observe(
        self, name: str, value: float, buckets: Sequence[float] | None = None
    ) -> None:
        """Record ``value`` into the named histogram (created lazily).

        ``buckets`` (finite upper bounds) only matters on first touch;
        later observations reuse the existing bucket layout.
        """
        from repro.monitor.telemetry import DEFAULT_BUCKETS, Histogram

        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = Histogram(buckets if buckets is not None else DEFAULT_BUCKETS)
                self._hists[name] = hist
            hist.observe(value)

    def histogram(self, name: str) -> Any | None:
        """The named :class:`Histogram`, or ``None`` if never observed."""
        with self._lock:
            return self._hists.get(name)

    def quantile(self, name: str, q: float, default: float = 0.0) -> float:
        """Estimated ``q``-quantile of the named histogram."""
        with self._lock:
            hist = self._hists.get(name)
            if hist is None or hist.total == 0:
                return default
            return hist.quantile(q)

    def histogram_snapshots(self) -> dict[str, dict[str, Any]]:
        """``{name: plain-data snapshot}`` for every histogram."""
        with self._lock:
            return {name: h.snapshot() for name, h in self._hists.items()}

    # ------------------------------------------------------------------
    # Cross-process fold-back
    # ------------------------------------------------------------------
    def export(self) -> dict[str, Any]:
        """Transport-neutral full state (scalars + histograms)."""
        with self._lock:
            return {
                "values": dict(self._values),
                "histograms": {n: h.snapshot() for n, h in self._hists.items()},
            }

    def export_and_reset(self) -> dict[str, Any]:
        """Atomically :meth:`export` then clear -- the child-rank half
        of the ``mp`` transport's snapshot-and-reset fold-back.

        A forked child inherits the parent's pre-fork metrics; calling
        this right after the fork discards that inherited baseline so
        whatever the child exports at exit is *its own* delta, safe for
        the parent to merge without double counting.
        """
        with self._lock:
            state = {
                "values": dict(self._values),
                "histograms": {n: h.snapshot() for n, h in self._hists.items()},
            }
            self._values.clear()
            self._hists.clear()
        return state

    def merge_export(self, data: Mapping[str, Any] | None) -> None:
        """Fold an :meth:`export` payload in: scalars add, hists merge.

        Additive semantics match the fold-back use case (child deltas
        accumulate onto the parent's registry); gauges set by a child
        therefore arrive as additive contributions too, which is the
        right call for every ``repro.*`` gauge we publish (rates and
        ages are re-set by the parent's own sampler after merging).
        """
        from repro.monitor.telemetry import Histogram

        if not data:
            return
        with self._lock:
            for name, value in data.get("values", {}).items():
                self._values[name] = self._values.get(name, 0.0) + float(value)
            for name, snap in data.get("histograms", {}).items():
                incoming = Histogram.from_snapshot(snap)
                mine = self._hists.get(name)
                if mine is None or mine.bounds != incoming.bounds:
                    # Bucket-layout drift: last writer wins rather than
                    # raising inside a result-collection path.
                    self._hists[name] = incoming
                else:
                    mine.merge(incoming)


_GLOBAL_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _GLOBAL_METRICS


class Tracer:
    """Collects trace events; one instance per traced rank (or tool).

    ``rank`` is the track every emission lands on unless the call names
    another one (a :class:`~repro.v2d.simulation.Simulation` is one
    rank, so it binds its rank here once).
    Spans map to ``B``/``E`` pairs on the track ``pid = rank``; the
    ``tid`` is a small per-tracer index interned from the writing
    thread, so multi-thread ranks (e.g. SPMD + hydro) keep properly
    nested per-thread stacks.  Appends ride the GIL (one ``list.append``
    per event), so the hot-path overhead is a clock read plus a dict
    construction -- and zero when no tracer is installed.
    """

    def __init__(self, process_label: str = "repro", rank: int = 0) -> None:
        self.process_label = process_label
        self.rank = rank
        self._events: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}
        self._ranks: set[int] = set()
        self._async_seq = 0

    # A tracer must cross process boundaries (per-rank span streams of
    # the multiprocessing transport return inside RunReports); the lock
    # is per-process machinery, the event list is the state.  The fork
    # shares ``_EPOCH_NS`` and CLOCK_MONOTONIC is system-wide on Linux,
    # so timestamps from different rank processes stay on one timeline.
    def __getstate__(self) -> dict[str, Any]:
        with self._lock:
            state = self.__dict__.copy()
            state["_events"] = list(self._events)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @staticmethod
    def now_us() -> float:
        """Microseconds since the shared process epoch."""
        return (time.perf_counter_ns() - _EPOCH_NS) / 1000.0

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def _emit(
        self,
        ph: str,
        name: str,
        rank: int | None,
        cat: str,
        args: Mapping[str, Any] | None = None,
        **extra: Any,
    ) -> None:
        if rank is None:
            rank = self.rank
        self._ranks.add(rank)
        ev: dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": ph,
            "ts": self.now_us(),
            "pid": rank,
            "tid": self._tid(),
        }
        if args:
            ev["args"] = dict(args)
        ev.update(extra)
        self._events.append(ev)  # GIL-atomic

    # ------------------------------------------------------------------
    # Emission API
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        rank: int | None = None,
        cat: str = "region",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Open a synchronous span (``B``); close it with :meth:`end`."""
        self._emit("B", name, rank, cat, args)

    def end(self, name: str, rank: int | None = None, cat: str = "region") -> None:
        """Close the innermost open span of this thread (``E``)."""
        self._emit("E", name, rank, cat)

    @contextmanager
    def span(
        self,
        name: str,
        rank: int | None = None,
        cat: str = "region",
        args: Mapping[str, Any] | None = None,
    ) -> Iterator[None]:
        """Synchronous span: ``B`` at entry, matching ``E`` at exit."""
        self.begin(name, rank, cat, args)
        try:
            yield
        finally:
            self.end(name, rank, cat)

    def instant(
        self,
        name: str,
        rank: int | None = None,
        cat: str = "event",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Zero-duration marker on the rank's track (thread scope)."""
        self._emit("i", name, rank, cat, args, s="t")

    def counter(
        self, name: str, values: Mapping[str, float], rank: int | None = None
    ) -> None:
        """Counter snapshot; Perfetto renders one series per key."""
        self._emit("C", name, rank, "counter", values)

    def counter_snapshot(
        self, registry: MetricsRegistry, rank: int | None = None,
        name: str = "metrics",
    ) -> None:
        """Snapshot a :class:`MetricsRegistry` onto the counter track."""
        values = registry.snapshot()
        if values:
            self.counter(name, values, rank=rank)

    def async_begin(
        self,
        name: str,
        rank: int | None = None,
        cat: str = "async",
        args: Mapping[str, Any] | None = None,
    ) -> int:
        """Open an async (overlap) window; returns the id to close it."""
        if rank is None:
            rank = self.rank
        with self._lock:
            self._async_seq += 1
            aid = self._async_seq
        # Ids are scoped with the rank so windows from different ranks
        # never collide when per-rank tracers are merged into one file.
        self._emit("b", name, rank, cat, args, id=f"{rank}.{aid}")
        return aid

    def async_end(
        self,
        name: str,
        aid: int,
        rank: int | None = None,
        cat: str = "async",
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Close the async window ``aid`` (from :meth:`async_begin`)."""
        if rank is None:
            rank = self.rank
        self._emit("e", name, rank, cat, args, id=f"{rank}.{aid}")

    # ------------------------------------------------------------------
    # Queries / export
    # ------------------------------------------------------------------
    def events(self) -> list[dict[str, Any]]:
        """Snapshot of the events emitted so far (insertion order)."""
        return list(self._events)

    def ranks(self) -> list[int]:
        return sorted(self._ranks)

    def __len__(self) -> int:
        return len(self._events)

    def summary(self) -> dict[str, Any]:
        """Aggregate view for reports and campaign roll-ups.

        Pairs each track's ``B``/``E`` events into per-name span counts
        and total microseconds, and counts instants; async windows are
        summarized by their begin events.  This is the per-job payload
        the campaign aggregator merges into ``BENCH_campaign.json``.
        """
        spans: dict[str, dict[str, float]] = {}
        instants: dict[str, int] = {}
        stacks: dict[tuple[int, int], list[tuple[str, float]]] = {}
        for ev in list(self._events):
            ph = ev["ph"]
            if ph == "B":
                stacks.setdefault((ev["pid"], ev["tid"]), []).append(
                    (ev["name"], ev["ts"])
                )
            elif ph == "E":
                stack = stacks.get((ev["pid"], ev["tid"]))
                if stack:
                    name, t0 = stack.pop()
                    agg = spans.setdefault(name, {"count": 0, "us": 0.0})
                    agg["count"] += 1
                    agg["us"] += ev["ts"] - t0
            elif ph in ("i", "b"):
                instants[ev["name"]] = instants.get(ev["name"], 0) + 1
        return {
            "schema": TRACE_SCHEMA,
            "events": len(self._events),
            "ranks": self.ranks(),
            "spans": spans,
            "instants": instants,
        }

    def _metadata_events(self) -> list[dict[str, Any]]:
        meta: list[dict[str, Any]] = []
        for rank in self.ranks():
            meta.append({
                "name": "process_name", "ph": "M", "pid": rank, "tid": 0,
                "args": {"name": f"{self.process_label} rank {rank}"},
            })
            meta.append({
                "name": "process_sort_index", "ph": "M", "pid": rank,
                "tid": 0, "args": {"sort_index": rank},
            })
        return meta

    def to_payload(
        self, metadata: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """The Perfetto-loadable trace payload for this tracer alone."""
        return merged_payload([self], metadata=metadata)

    def export(
        self, path: str | Path, metadata: Mapping[str, Any] | None = None
    ) -> Path:
        """Atomically write the trace JSON; returns the final path."""
        return write_trace(self.to_payload(metadata), path)


# ----------------------------------------------------------------------
# Merging / writing
# ----------------------------------------------------------------------
def merged_payload(
    tracers: Sequence[Tracer], metadata: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """One trace payload from several tracers (e.g. one per rank).

    Tracers share the process epoch, so merging is concatenation; each
    rank keeps its own ``pid`` track group.  Events are ordered by
    timestamp for readability (per-track order is already monotone).
    """
    events: list[dict[str, Any]] = []
    for tracer in tracers:
        events.extend(tracer._metadata_events())
    body: list[dict[str, Any]] = []
    for tracer in tracers:
        body.extend(tracer.events())
    body.sort(key=lambda ev: ev["ts"])
    events.extend(body)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "schema": TRACE_SCHEMA,
            "tool": "repro.monitor.trace",
            **(dict(metadata) if metadata else {}),
        },
    }


def write_trace(payload: Mapping[str, Any], path: str | Path) -> Path:
    """Atomically write a trace payload as JSON."""
    # Imported here: repro.io pulls in the checkpoint stack, whose halo
    # imports land back on this module at package-init time.
    from repro.io.atomic import atomic_write_bytes

    body = json.dumps(payload, indent=1) + "\n"
    return atomic_write_bytes(path, body.encode())


def merge_summaries(summaries: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold per-tracer :meth:`Tracer.summary` dicts into campaign totals."""
    spans: dict[str, dict[str, float]] = {}
    instants: dict[str, int] = {}
    events = 0
    ranks: set[int] = set()
    for summ in summaries:
        events += int(summ.get("events", 0))
        ranks.update(summ.get("ranks", ()))
        for name, agg in summ.get("spans", {}).items():
            out = spans.setdefault(name, {"count": 0, "us": 0.0})
            out["count"] += int(agg.get("count", 0))
            out["us"] += float(agg.get("us", 0.0))
        for name, n in summ.get("instants", {}).items():
            instants[name] = instants.get(name, 0) + int(n)
    return {
        "schema": TRACE_SCHEMA,
        "events": events,
        "ranks": sorted(ranks),
        "spans": spans,
        "instants": instants,
    }


def span_seconds(summary: Mapping[str, Any]) -> dict[str, tuple[float, int]]:
    """``{span name: (total seconds, count)}`` from a summary dict.

    The join key the efficiency reporter uses to pair tracer-measured
    span time with counter-measured work (summaries record span totals
    in microseconds; attribution wants seconds).
    """
    out: dict[str, tuple[float, int]] = {}
    for name, agg in summary.get("spans", {}).items():
        out[name] = (float(agg.get("us", 0.0)) / 1e6, int(agg.get("count", 0)))
    return out


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def validate_trace(payload: Any) -> list[str]:
    """Schema/consistency check of a trace payload; returns problems.

    An empty list means the payload is a well-formed trace: every event
    carries the required fields with a known phase, per-track
    timestamps are monotone non-decreasing, every ``B`` has a matching
    ``E`` (properly nested per track, names agreeing), and every async
    ``b`` is closed by an ``e`` with the same ``(cat, id)``.  Used by
    the tests, the ``repro trace`` CLI verb and the CI trace-smoke job.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' missing or not a list"]

    stacks: dict[tuple[Any, Any], list[str]] = {}
    last_ts: dict[tuple[Any, Any], float] = {}
    asyncs: dict[tuple[Any, Any], int] = {}
    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if ph == "M":
            if "name" not in ev:
                errors.append(f"{where}: metadata event without a name")
            continue
        missing = [k for k in ("ts", "pid", "tid") if k not in ev]
        if missing:
            errors.append(f"{where}: missing {missing}")
            continue
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad timestamp {ts!r}")
            continue
        track = (ev["pid"], ev["tid"])
        if ts < last_ts.get(track, float("-inf")):
            errors.append(
                f"{where}: timestamp {ts} goes backwards on track {track}"
            )
        last_ts[track] = ts

        if ph == "B":
            if "name" not in ev:
                errors.append(f"{where}: B event without a name")
            stacks.setdefault(track, []).append(ev.get("name", "?"))
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                errors.append(f"{where}: E without an open B on track {track}")
                continue
            opened = stack.pop()
            name = ev.get("name")
            if name is not None and name != opened:
                errors.append(
                    f"{where}: E for {name!r} but innermost open span "
                    f"is {opened!r}"
                )
        elif ph in ("b", "n", "e"):
            if "id" not in ev:
                errors.append(f"{where}: async event without an id")
                continue
            key = (ev.get("cat"), ev["id"])
            if ph == "b":
                asyncs[key] = asyncs.get(key, 0) + 1
            elif ph == "e":
                depth = asyncs.get(key, 0) - 1
                if depth < 0:
                    errors.append(f"{where}: async end without begin {key}")
                asyncs[key] = depth

    for track, stack in stacks.items():
        for name in stack:
            errors.append(f"unclosed span {name!r} on track {track}")
    for key, depth in asyncs.items():
        if depth > 0:
            errors.append(f"unclosed async window {key}")
    return errors
