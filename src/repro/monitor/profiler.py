"""TAU-style hierarchical region profiler.

The study used TAU and its ParaProf visualizer to "see which routines
contributed most to the total time without the need to add additional
routine calls".  We cannot avoid instrumentation in Python, but this
module keeps it to a single context manager, builds the same calling
tree TAU would, and renders ParaProf-style flat and tree profiles:
inclusive/exclusive seconds, call counts, and percent of total.

:meth:`Profiler.region` is the one way the run path times a region.
The aggregating tree is the always-on store (memory O(distinct
regions)); a profiler that carries a :class:`~repro.monitor.trace.Tracer`
forwards each region's begin/end to it, so the Chrome trace and
``Tracer.summary()`` are views of the same stream, and the MAP-style
sampler reads the open-region stacks kept here.

A thread-local *current node* makes the profiler safe to use from the
SPMD thread launcher in :mod:`repro.parallel`: each rank thread builds
its own independent tree under a shared :class:`Profiler` when given a
distinct ``rank`` id.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterator, Mapping

from repro.monitor.trace import Tracer

_NO_REGION = nullcontext()


@dataclass
class ProfileNode:
    """One region in the calling tree."""

    name: str
    parent: "ProfileNode | None" = None
    children: dict[str, "ProfileNode"] = field(default_factory=dict)
    calls: int = 0
    inclusive: float = 0.0

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = ProfileNode(name=name, parent=self)
            self.children[name] = node
        return node

    @property
    def exclusive(self) -> float:
        """Inclusive time minus time attributed to children."""
        return self.inclusive - sum(c.inclusive for c in self.children.values())

    def walk(self) -> Iterator["ProfileNode"]:
        yield self
        for child in self.children.values():
            yield from child.walk()

    def depth(self) -> int:
        d, node = 0, self
        while node.parent is not None:
            d += 1
            node = node.parent
        return d


class Profiler:
    """Collects per-rank region trees and renders TAU-like reports.

    ``tracer`` is an optional timeline sink for every region; ``rank``
    is the tree (and track) regions land on unless a call names another
    one.  ``aggregate=False`` keeps no tree: regions only feed the
    tracer, and cost nothing when there is none.
    """

    def __init__(
        self, tracer: Tracer | None = None, rank: int = 0, aggregate: bool = True
    ) -> None:
        self.tracer = tracer
        self.rank = rank
        self.aggregate = aggregate
        self._roots: dict[int, ProfileNode] = {}
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: thread-id -> currently open region (for the MAP-style
        #: sampler); plain dict writes are atomic under the GIL.
        #: Entries are removed when a thread closes its outermost
        #: region, and :meth:`active_regions` prunes dead threads.
        self._active: dict[int, ProfileNode | None] = {}
        #: Bumped by :meth:`reset`; a region that closes after a reset
        #: discards its timing instead of resurrecting a stale node.
        self._epoch = 0

    # Profilers travel inside RunReports across the multiprocessing
    # transport's result pipe.  Thread-bound machinery (TLS, lock, the
    # open-region map keyed by thread id) is meaningless in another
    # process; the receiver gets a quiescent profiler carrying only the
    # finished region trees.
    def __getstate__(self) -> dict:
        with self._lock:
            state = self.__dict__.copy()
        for key in ("_tls", "_lock"):
            state.pop(key, None)
        state["_active"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _root(self, rank: int) -> ProfileNode:
        with self._lock:
            root = self._roots.get(rank)
            if root is None:
                root = ProfileNode(name=f".TAU application (rank {rank})")
                self._roots[rank] = root
            return root

    def region(
        self,
        name: str,
        rank: int | None = None,
        cat: str = "region",
        args: Mapping[str, Any] | None = None,
    ) -> ContextManager[ProfileNode | None]:
        """Time a named region nested under the current one.

        Nesting is tracked *per rank*: opening a region with a ``rank``
        different from the enclosing region's attributes it to the
        requested rank's own tree (under that rank's innermost open
        region, or its root) instead of silently hanging it off the
        enclosing rank's tree.  ``cat`` and ``args`` label the span the
        carried tracer records for this region.
        """
        if rank is None:
            rank = self.rank
        if self.aggregate:
            return self._timed(name, rank, cat, args)
        if self.tracer is not None:
            return self.tracer.span(name, rank, cat, args)
        return _NO_REGION

    @contextmanager
    def _timed(
        self, name: str, rank: int, cat: str, args: Mapping[str, Any] | None
    ) -> Iterator[ProfileNode]:
        tracer = self.tracer
        tls = self._tls
        epoch = self._epoch
        current: dict[int, ProfileNode] | None = getattr(tls, "current", None)
        if current is None:
            current = tls.current = {}
            tls.stack = []
        parent = current.get(rank)
        if parent is None:
            parent = self._root(rank)
        node = parent.child(name)
        current[rank] = node
        tls.stack.append(node)
        tid = threading.get_ident()
        self._active[tid] = node
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin(name, rank, cat, args)
        try:
            yield node
        finally:
            if tracer is not None:
                tracer.end(name, rank, cat)
            dt = time.perf_counter() - t0
            stale = epoch != self._epoch
            if not stale:
                node.inclusive += dt
                node.calls += 1
            stack = getattr(tls, "stack", None)
            if stack:
                stack.pop()
            current[rank] = parent
            if stale or not stack:
                # Outermost region closed (or the tree was reset while
                # open): drop the thread's entry instead of leaking it.
                self._active.pop(tid, None)
            else:
                self._active[tid] = stack[-1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def active_regions(self) -> list[ProfileNode]:
        """Currently open regions, one per active thread (sampler hook).

        Entries of threads that have exited are pruned by liveness, so
        a dead SPMD rank thread can never be reported as "in" a region
        it will never leave.
        """
        live = {t.ident for t in threading.enumerate()}
        for tid in list(self._active):
            if tid not in live:
                self._active.pop(tid, None)
        return [node for node in list(self._active.values()) if node is not None]

    def ranks(self) -> list[int]:
        with self._lock:
            return sorted(self._roots)

    def total_time(self, rank: int = 0) -> float:
        root = self._roots.get(rank)
        if root is None:
            return 0.0
        return sum(c.inclusive for c in root.children.values())

    def flat(self, rank: int = 0) -> dict[str, tuple[float, float, int]]:
        """Aggregate regions by name: ``{name: (incl, excl, calls)}``.

        Regions appearing at several tree positions (e.g. ``matvec``
        called from three BiCGSTAB call sites) are merged, matching
        TAU's flat profile semantics.  Inclusive time counts only the
        *outermost* occurrence of a name along each path: a recursive
        (self-nested) region contributes its inclusive seconds once, not
        once per depth, so ``exclusive <= inclusive <= total_time``
        always holds.  Exclusive time and call counts sum over every
        occurrence (exclusive intervals are disjoint by construction).
        """
        root = self._roots.get(rank)
        out: dict[str, tuple[float, float, int]] = {}
        if root is None:
            return out

        def visit(node: ProfileNode, on_path: set[str]) -> None:
            for child in node.children.values():
                incl, excl, calls = out.get(child.name, (0.0, 0.0, 0))
                outermost = child.name not in on_path
                out[child.name] = (
                    incl + (child.inclusive if outermost else 0.0),
                    excl + child.exclusive,
                    calls + child.calls,
                )
                if outermost:
                    on_path.add(child.name)
                visit(child, on_path)
                if outermost:
                    on_path.discard(child.name)

        visit(root, set())
        return out

    def exclusive_fraction(self, name: str, rank: int = 0) -> float:
        """Fraction of total rank time spent exclusively in ``name``."""
        total = self.total_time(rank)
        if total == 0.0:
            return 0.0
        entry = self.flat(rank).get(name)
        return (entry[1] / total) if entry else 0.0

    def inclusive_fraction(self, name: str, rank: int = 0) -> float:
        total = self.total_time(rank)
        if total == 0.0:
            return 0.0
        entry = self.flat(rank).get(name)
        return (entry[0] / total) if entry else 0.0

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def flat_profile(self, rank: int = 0) -> str:
        """ParaProf-style flat profile sorted by exclusive time."""
        total = self.total_time(rank)
        rows = sorted(self.flat(rank).items(), key=lambda kv: -kv[1][1])
        lines = [
            f"FLAT PROFILE (rank {rank}, total {total:.4f} s)",
            f"{'%excl':>6} {'excl(s)':>10} {'incl(s)':>10} {'calls':>8}  name",
        ]
        for name, (incl, excl, calls) in rows:
            pct = 100.0 * excl / total if total else 0.0
            lines.append(f"{pct:>6.1f} {excl:>10.4f} {incl:>10.4f} {calls:>8d}  {name}")
        return "\n".join(lines)

    def tree_profile(self, rank: int = 0) -> str:
        """Indented calling-tree report (inclusive times)."""
        root = self._roots.get(rank)
        if root is None:
            return f"(no profile data for rank {rank})"
        total = self.total_time(rank)
        lines = [f"CALL TREE (rank {rank}, total {total:.4f} s)"]
        for node in root.walk():
            if node is root:
                continue
            indent = "  " * node.depth()
            pct = 100.0 * node.inclusive / total if total else 0.0
            lines.append(
                f"{indent}{node.name}: {node.inclusive:.4f}s incl "
                f"({pct:.1f}%), {node.calls} calls"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every tree; regions still open discard their timing.

        A region entered before the reset and exited after it belongs
        to the discarded tree: its exit is a no-op (epoch guard) rather
        than a write into a node the reset already orphaned.
        """
        with self._lock:
            self._epoch += 1
            self._roots.clear()
            self._active.clear()
        self._tls = threading.local()
