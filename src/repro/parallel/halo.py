"""Ghost-zone (halo) exchange for decomposed fields.

Before each matrix-free Matvec, every tile must see its neighbours'
boundary zones.  The exchanger posts buffered sends of the interior
boundary strips to all face neighbours, then receives into the ghost
strips; faces on the physical domain boundary apply the problem's
boundary condition instead.

Tags encode the direction of travel so that simultaneous exchanges
with the same neighbour in opposite directions cannot be confused, and
the counters record one ``halo_exchange`` event plus per-message bytes
for the performance model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from repro.grid.field import Field
from repro.monitor.trace import Tracer
from repro.parallel.cart import CartComm

#: direction-of-travel tags: messages are tagged by the side of the
#: *receiver* they fill, so a west-send matches the neighbour's east fill.
#: Periodic wrap traffic uses its own tag base so a torus message can
#: never be confused with an interior-face message, even between the
#: same rank pair.
_TAG_BASE = 1 << 20
_PERIODIC_TAG = _TAG_BASE + 8
_FILL_SIDE = {"west": "east", "east": "west", "south": "north", "north": "south"}
_SIDE_TAG = {"west": 0, "east": 1, "south": 2, "north": 3}


class BoundaryCondition(Enum):
    """Physical-boundary ghost fill strategies.

    All four are linear in the field, so applying them inside the
    solver's Matvec keeps the operator linear (the boundary-condition
    algebra is folded into the ghost fill rather than into modified
    stencil rows).  PERIODIC is the only one that moves data between
    ranks: the domain closes into a torus along that axis, so boundary
    ghosts are filled from the opposite edge's interior (a message to
    the wrap partner, or a local copy when the axis has one tile).
    """

    DIRICHLET0 = "dirichlet0"  # vacuum: ghost = 0
    REFLECT = "reflect"        # symmetry: ghost mirrors interior
    OUTFLOW = "outflow"        # zero-gradient: ghost copies edge zones
    PERIODIC = "periodic"      # torus: ghost wraps to the far edge


@dataclass
class HaloExchanger:
    """Exchange one-deep-or-more halos on a Cartesian topology.

    Parameters
    ----------
    cart:
        The process topology (also provides the communicator).
    bc:
        Physical-boundary condition; either one
        :class:`BoundaryCondition` for all sides or a per-side dict
        with keys ``west/east/south/north``.
    tracer:
        Optional :class:`~repro.monitor.trace.Tracer` bound to this
        rank; when given, the
        posting (``halo_start``) and installation (``halo_finish``)
        phases become spans on this rank's track and the in-flight
        window between them an async ``halo_inflight`` event, making
        communication/compute overlap visible on the timeline.
    """

    cart: CartComm
    bc: BoundaryCondition | dict[str, BoundaryCondition] = BoundaryCondition.DIRICHLET0
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        # A torus must close: periodic on one side of an axis requires
        # periodic on the other, or the wrap messages have no partner.
        for lo, hi in (("west", "east"), ("south", "north")):
            pair = (self._bc_for(lo), self._bc_for(hi))
            if (BoundaryCondition.PERIODIC in pair) and pair[0] is not pair[1]:
                raise ValueError(
                    f"periodic axis must be periodic on both sides; got "
                    f"{lo}={pair[0].value}, {hi}={pair[1].value}"
                )

    def _bc_for(self, side: str) -> BoundaryCondition:
        if isinstance(self.bc, BoundaryCondition):
            return self.bc
        return self.bc[side]

    def exchange(self, field: Field, width: int | None = None) -> None:
        """Fill every ghost strip of ``field`` in place (blocking).

        ``width`` defaults to the field's full ghost depth.  Buffered
        sends are all posted before any receive, so the exchange cannot
        deadlock regardless of topology.
        """
        self.start(field, width).finish()

    def start(self, field: Field, width: int | None = None) -> "PendingExchange":
        """Begin a non-blocking exchange (communication/compute overlap).

        Posts all sends, posts non-blocking receives, and applies the
        physical-boundary fills immediately (they need no messages).
        The caller may compute on zones that do not read ghosts, then
        call :meth:`PendingExchange.finish` before touching the halos
        -- the standard overlap pattern for stencil codes.
        """
        if self.tracer is None:
            return self._start(field, width, None)
        aid = self.tracer.async_begin("halo_inflight", cat="halo")
        with self.tracer.span("halo_start", cat="halo"):
            return self._start(field, width, aid)

    def _start(
        self, field: Field, width: int | None, async_id: int | None
    ) -> "PendingExchange":
        comm = self.cart.comm
        neighbors = self.cart.neighbors

        # Post every send first (buffered, so this cannot deadlock):
        # interior faces to their neighbours, periodic physical faces
        # to their wrap partner across the torus.
        for side, nbr in neighbors.items():
            if nbr is not None:
                tag = _TAG_BASE + _SIDE_TAG[_FILL_SIDE[side]]
                comm.send(field.send_strip(side, width).copy(), nbr, tag)
            elif self._bc_for(side) is BoundaryCondition.PERIODIC:
                wrap = self.cart.wrap_neighbor(side)
                if wrap != self.cart.rank:
                    tag = _PERIODIC_TAG + _SIDE_TAG[_FILL_SIDE[side]]
                    comm.send(field.send_strip(side, width).copy(), wrap, tag)

        pending = []
        for side, nbr in neighbors.items():
            if nbr is not None:
                tag = _TAG_BASE + _SIDE_TAG[side]
                pending.append((side, comm.irecv(nbr, tag)))
                continue
            bc = self._bc_for(side)
            if bc is BoundaryCondition.DIRICHLET0:
                field.zero_side(side)
            elif bc is BoundaryCondition.REFLECT:
                field.reflect_side(side)
            elif bc is BoundaryCondition.OUTFLOW:
                field.outflow_side(side)
            else:  # PERIODIC
                wrap = self.cart.wrap_neighbor(side)
                if wrap == self.cart.rank:
                    # Single tile along this axis: the wrap partner is
                    # this rank; copy the far edge's interior locally.
                    field.ghost_strip(side, width)[...] = field.send_strip(
                        _FILL_SIDE[side], width
                    )
                else:
                    tag = _PERIODIC_TAG + _SIDE_TAG[side]
                    pending.append((side, comm.irecv(wrap, tag)))
        return PendingExchange(self, field, width, pending, async_id=async_id)


@dataclass
class PendingExchange:
    """Handle for an in-flight halo exchange."""

    exchanger: HaloExchanger
    field: Field
    width: int | None
    pending: list
    async_id: int | None = None
    _done: bool = False

    def test(self) -> bool:
        """Have all neighbour strips arrived? (non-blocking)"""
        return self._done or all(req.test() for _side, req in self.pending)

    def finish(self) -> None:
        """Wait for and install every neighbour strip (idempotent)."""
        if self._done:
            return
        tracer = self.exchanger.tracer
        if tracer is None:
            self._finish()
            return
        with tracer.span("halo_finish", cat="halo"):
            self._finish()
        if self.async_id is not None:
            tracer.async_end("halo_inflight", self.async_id, cat="halo")

    def _finish(self) -> None:
        from repro.monitor import telemetry

        if telemetry.enabled():
            # Observation only: time spent blocked on neighbour strips
            # feeds the repro.halo.wait_seconds histogram.  The guarded
            # path never touches operands, so disabled runs stay
            # bitwise-identical.
            t0 = time.monotonic()
            for side, req in self.pending:
                self.field.ghost_strip(side, self.width)[...] = req.wait()
            from repro.monitor.trace import get_metrics

            get_metrics().observe(
                "repro.halo.wait_seconds", time.monotonic() - t0
            )
        else:
            for side, req in self.pending:
                self.field.ghost_strip(side, self.width)[...] = req.wait()
        self.exchanger.cart.comm.counters.halo_exchanges += 1
        self._done = True
