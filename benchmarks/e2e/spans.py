"""Layer-boundary spans recorded from outside the program.

:class:`Recorder` rebinds the public names at each layer boundary of
``repro`` to timing wrappers and keeps ``[name, start, end, parent]``
rows in memory; :func:`summarize` (stdlib only, used by the
orchestrator and by anyone reading a span file) turns the rows into
inclusive/self times and call counts per span name.  Nothing under
``src/`` is edited: spans *inside* the program are a later change.
"""

from __future__ import annotations

from time import perf_counter

STEP = "v2d.step"
BUILD = "transport.build_system"
PRECOND_SETUP = "linalg.precond_setup"
BICGSTAB = "linalg.bicgstab"
MATVEC = "linalg.matvec"
PRECOND_APPLY = "linalg.precond_apply"
HALO = "parallel.halo_exchange"


class Recorder:
    """In-memory span list plus the wrappers that fill it."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index_or_-1]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, skip_under: str | None = None):
        """``fn`` timed as a span called ``name``.

        Under a ``skip_under`` parent the call goes through unrecorded:
        a layer calling itself (SPAI's apply is a stencil apply) is not
        a layer boundary.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if skip_under is not None and parent >= 0 and spans[parent][0] == skip_under:
                return fn(*args, **kwargs)
            row = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(row)
            row[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()

        return wrapper

    def _rebind(self, owner, attr: str, name: str, skip_under: str | None = None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, skip_under))
        else:
            new = self.wrap(name, raw, skip_under)
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every layer-boundary name (imports ``repro``)."""
        import repro.transport.integrator as integrator
        from repro.linalg.operators import StencilOperator
        from repro.linalg.spai import JacobiPreconditioner, SPAIPreconditioner
        from repro.parallel.halo import HaloExchanger
        from repro.v2d.simulation import Simulation

        self._rebind(Simulation, "step", STEP)
        self._rebind(integrator, "build_radiation_system", BUILD)
        self._rebind(integrator, "bicgstab", BICGSTAB)
        for cls in (SPAIPreconditioner, JacobiPreconditioner):
            self._rebind(cls, "from_stencil", PRECOND_SETUP)
            self._rebind(cls, "apply", PRECOND_APPLY)
        for attr in ("apply", "apply_dots"):
            self._rebind(StencilOperator, attr, MATVEC, skip_under=PRECOND_APPLY)
        self._rebind(HaloExchanger, "exchange", HALO)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total`` and ``self`` seconds.

    Self time is a span's duration minus the part its direct children
    cover (children of one parent never overlap: one thread per rank).
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _parent), child_time in zip(spans, covered):
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child_time
    return out
