"""Per-hop scheduling disciplines: FIFO, strict priority, weighted fair.

Every output port of a :class:`repro.net.node.Node` owns one
discipline instance.  A discipline is advanced one slot at a time:
:meth:`~Discipline.step` takes the per-flow fluid volumes that arrived
during the slot and returns what was served (forwarded downstream),
what was dropped, and the backlog left behind -- per flow and in
aggregate.

All three disciplines share the drop/backlog arithmetic of the
verified single-queue simulator through
:mod:`repro.simulation.slotfluid`:

- :class:`FIFODiscipline` *is* the slot-fluid recursion.  With a
  single flow its backlog and loss trajectory is bit-for-bit identical
  to :func:`repro.simulation.queue.simulate_queue` (a tier-1 invariant
  test pins this); with several flows the aggregate follows the same
  recursion and service/loss are apportioned by fluid share.
- :class:`PriorityDiscipline` serves classes in strict priority order
  and, under buffer pressure, pushes out low-priority fluid first --
  the multi-hop generalization of
  :func:`repro.simulation.priority.simulate_priority_queue`.  The drop
  volume comes from the shared :func:`~repro.simulation.slotfluid.clamp_backlog`.
- :class:`WFQDiscipline` splits capacity across backlogged classes in
  weight proportion with work-conserving redistribution (fluid
  weighted fair queueing) and drops overflow in proportion to each
  class's share of the buffer, again via the shared clamp.

Flows are registered once (:meth:`~Discipline.register`) before the
run; registration order is the deterministic tie-break for equal
priorities and the summation order for aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._validation import require_nonnegative, require_positive
from repro.simulation.slotfluid import clamp_backlog, run_slots, slot_step

__all__ = [
    "StepResult",
    "Discipline",
    "FIFODiscipline",
    "PriorityDiscipline",
    "WFQDiscipline",
    "make_discipline",
    "DISCIPLINES",
]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one slot at one port."""

    served: dict
    """Bytes forwarded downstream this slot, per flow."""

    lost: dict
    """Bytes dropped this slot, per flow."""

    backlog: float
    """Aggregate backlog left in the port buffer after the slot."""

    served_total: float
    """Aggregate bytes forwarded this slot."""

    lost_total: float
    """Aggregate bytes dropped this slot."""


@dataclass
class _FlowClass:
    priority: int = 0
    weight: float = 1.0
    backlog: float = 0.0


class Discipline:
    """Base class: one finite-buffer queue drained at fixed capacity."""

    def __init__(self, capacity_per_slot, buffer_bytes):
        self.capacity_per_slot = require_positive(capacity_per_slot, "capacity_per_slot")
        self.buffer_bytes = require_nonnegative(buffer_bytes, "buffer_bytes")
        self._classes = {}

    def register(self, flow, priority=0, weight=1.0):
        """Declare a flow that will traverse this port.

        Must be called before the run starts; registration order is the
        deterministic ordering used for ties and summations.
        """
        if flow in self._classes:
            raise ValueError(f"flow {flow!r} is already registered at this port")
        self._classes[flow] = _FlowClass(
            priority=int(priority),
            weight=require_positive(weight, "weight"),
        )

    @property
    def flows(self):
        """Registered flow names, in registration order."""
        return list(self._classes)

    @property
    def backlog(self):
        """Aggregate bytes currently buffered."""
        return sum(cls.backlog for cls in self._classes.values())

    def step(self, arrivals):
        """Advance one slot; ``arrivals`` maps flow name -> bytes."""
        raise NotImplementedError

    def _check_arrivals(self, arrivals):
        for flow in arrivals:
            if flow not in self._classes:
                raise KeyError(f"flow {flow!r} was never registered at this port")


class FIFODiscipline(Discipline):
    """Single shared queue: the slot-fluid recursion itself.

    The aggregate backlog follows the *exact* arithmetic of
    :func:`repro.simulation.queue.simulate_queue` (the single-flow path
    forwards and drops the recursion's own volumes, so a one-flow
    one-hop topology reproduces the reference simulator bit for bit).
    With several flows, service and loss are split in proportion to
    each flow's share of the fluid present during the slot.
    """

    def __init__(self, capacity_per_slot, buffer_bytes):
        super().__init__(capacity_per_slot, buffer_bytes)
        self._backlog = 0.0

    @property
    def backlog(self):
        return self._backlog

    def step_many(self, values):
        """Advance many slots at once for a single-flow port.

        ``values`` is the per-slot arrival array for the port's one
        registered flow; the port's backlog is advanced through
        :func:`repro.simulation.slotfluid.run_slots`, which reproduces
        a ``step()`` loop bit for bit.  Per-slot served volumes are not
        materialized -- this is the bulk path for hops whose downstream
        effects are not being traced slot by slot.  Returns a dict with the aggregate
        ``backlog``, ``lost``, ``peak`` and ``offered`` totals over the
        advanced slots.
        """
        classes = self._classes
        if len(classes) != 1:
            raise ValueError(
                f"step_many needs exactly one registered flow, "
                f"got {len(classes)}"
            )
        backlog, lost, peak, offered = run_slots(
            values, self.capacity_per_slot, self.buffer_bytes,
            state=(self._backlog, 0.0, self._backlog, 0.0),
        )
        self._backlog = backlog
        (cls,) = classes.values()
        cls.backlog = backlog
        return {"backlog": backlog, "lost": lost, "peak": peak,
                "offered": offered}

    def step(self, arrivals):
        self._check_arrivals(arrivals)
        classes = self._classes
        if len(classes) == 1:
            # Exact path: one flow owns the queue, no apportionment.
            (flow, cls), = classes.items()
            arrival = arrivals.get(flow, 0.0)
            self._backlog, served, lost = slot_step(
                self._backlog, arrival, self.capacity_per_slot, self.buffer_bytes
            )
            cls.backlog = self._backlog
            return StepResult(
                served={flow: served} if served > 0.0 else {},
                lost={flow: lost} if lost > 0.0 else {},
                backlog=self._backlog,
                served_total=served,
                lost_total=lost,
            )
        # Aggregate recursion first (canonical trajectory), then fluid-
        # share apportionment across the registered flows.
        available = {
            flow: cls.backlog + arrivals.get(flow, 0.0)
            for flow, cls in classes.items()
        }
        arrival_total = sum(arrivals.get(flow, 0.0) for flow in classes)
        prev_backlog = self._backlog
        self._backlog, served_total, lost_total = slot_step(
            prev_backlog, arrival_total, self.capacity_per_slot, self.buffer_bytes
        )
        total_available = prev_backlog + arrival_total
        served = {}
        lost = {}
        if total_available > 0.0:
            for flow, cls in classes.items():
                share = available[flow] / total_available
                s = served_total * share
                drop = lost_total * share
                if s > 0.0:
                    served[flow] = s
                if drop > 0.0:
                    lost[flow] = drop
                cls.backlog = max(available[flow] - s - drop, 0.0)
        return StepResult(
            served=served,
            lost=lost,
            backlog=self._backlog,
            served_total=served_total,
            lost_total=lost_total,
        )


class PriorityDiscipline(Discipline):
    """Strict priority service with low-priority pushout.

    Classes are served in ascending ``priority`` order (0 is highest);
    on overflow, fluid is pushed out starting from the lowest priority.
    The overflow volume is the shared slot-fluid drop rule applied to
    the aggregate backlog.
    """

    def _ordered(self, reverse=False):
        items = list(self._classes.items())
        ranked = sorted(
            range(len(items)), key=lambda i: (items[i][1].priority, i),
            reverse=reverse,
        )
        return [items[i] for i in ranked]

    def step(self, arrivals):
        self._check_arrivals(arrivals)
        served = {}
        lost = {}
        for flow, cls in self._classes.items():
            cls.backlog += arrivals.get(flow, 0.0)
        remaining = self.capacity_per_slot
        for flow, cls in self._ordered():
            if remaining <= 0.0:
                break
            s = cls.backlog if cls.backlog < remaining else remaining
            if s > 0.0:
                cls.backlog -= s
                remaining -= s
                served[flow] = s
        total = sum(cls.backlog for cls in self._classes.values())
        _, overflow = clamp_backlog(total, self.buffer_bytes)
        if overflow > 0.0:
            for flow, cls in self._ordered(reverse=True):
                drop = cls.backlog if cls.backlog < overflow else overflow
                if drop > 0.0:
                    cls.backlog -= drop
                    overflow -= drop
                    lost[flow] = drop
                if overflow <= 0.0:
                    break
        return StepResult(
            served=served,
            lost=lost,
            backlog=self.backlog,
            served_total=sum(served.values()),
            lost_total=sum(lost.values()),
        )


class WFQDiscipline(Discipline):
    """Fluid weighted fair queueing over a shared buffer.

    Capacity is divided among backlogged classes in proportion to their
    weights; a class that cannot use its share returns the excess,
    which is redistributed over the remaining backlogged classes
    (work conservation).  Overflow -- the shared slot-fluid drop rule
    on the aggregate backlog -- is dropped from each class in
    proportion to its share of the buffered fluid.
    """

    def step(self, arrivals):
        self._check_arrivals(arrivals)
        served = {}
        lost = {}
        for flow, cls in self._classes.items():
            cls.backlog += arrivals.get(flow, 0.0)
        # Work-conserving water-filling: every round hands the unused
        # capacity of satisfied classes back to the still-backlogged
        # ones; each round fully drains at least one class, so the loop
        # is bounded by the class count.
        remaining = self.capacity_per_slot
        active = [flow for flow, cls in self._classes.items() if cls.backlog > 0.0]
        while remaining > 0.0 and active:
            total_weight = sum(self._classes[f].weight for f in active)
            next_active = []
            allocated = 0.0
            for flow in active:
                cls = self._classes[flow]
                share = remaining * cls.weight / total_weight
                if cls.backlog <= share:
                    take = cls.backlog
                else:
                    take = share
                    next_active.append(flow)
                if take > 0.0:
                    cls.backlog -= take
                    served[flow] = served.get(flow, 0.0) + take
                    allocated += take
            remaining -= allocated
            if len(next_active) == len(active) or allocated <= 0.0:
                break
            active = next_active
        total = sum(cls.backlog for cls in self._classes.values())
        _, overflow = clamp_backlog(total, self.buffer_bytes)
        if overflow > 0.0 and total > 0.0:
            for flow, cls in self._classes.items():
                drop = overflow * (cls.backlog / total)
                if drop > 0.0:
                    cls.backlog = max(cls.backlog - drop, 0.0)
                    lost[flow] = drop
        return StepResult(
            served=served,
            lost=lost,
            backlog=self.backlog,
            served_total=sum(served.values()),
            lost_total=sum(lost.values()),
        )


DISCIPLINES = {
    "fifo": FIFODiscipline,
    "priority": PriorityDiscipline,
    "wfq": WFQDiscipline,
}
"""Discipline name -> class, as referenced by topology specs."""


def make_discipline(name, capacity_per_slot, buffer_bytes):
    """Build a discipline by spec name (``fifo``, ``priority``, ``wfq``)."""
    try:
        cls = DISCIPLINES[name]
    except KeyError:
        raise ValueError(
            f"discipline must be one of {sorted(DISCIPLINES)}, got {name!r}"
        ) from None
    return cls(capacity_per_slot, buffer_bytes)
