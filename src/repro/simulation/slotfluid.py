"""The canonical slot-fluid queue recursion, in exactly one place.

Three code paths run the same finite-buffer fluid recursion per time
slot -- the batch simulator (:func:`repro.simulation.queue.simulate_queue`),
the streaming fold (:class:`repro.stream.queueing.StreamingQueue`) and
every per-hop discipline in :mod:`repro.net.sched`:

    ``pre_t  = b_{t-1} + (a_t - c)``
    ``lost_t = max(0, pre_t - Q)``
    ``b_t    = min(max(pre_t, 0), Q)``

The floating-point evaluation order is part of the contract: the whole
stack promises *bit-for-bit* agreement between the batch, streaming and
network simulators, so every implementation must compute
``b + (a - c)`` (not ``(b + a) - c``) and clamp in the same order.
Keeping the loop here means the paths cannot drift.

:func:`slot_step` is the scalar one-slot update (the network simulator
advances hop state one event at a time and needs the served volume for
forwarding); :func:`fold_slots` is the tight batch loop over a list of
arrivals used by the batch and streaming simulators.  A property test
pins ``fold_slots`` to repeated ``slot_step`` applications.

:func:`run_slots` is the one entry point for array-shaped callers: it
converts an ndarray with ``tolist()`` and runs :func:`fold_slots`.  It
is the only fold; a faster implementation may replace its body, but
only if it is bit-identical to the loop.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SlotFluidState",
    "clamp_backlog",
    "slot_step",
    "fold_slots",
    "run_slots",
    "default_kernel",
]


# State threaded through fold_slots: (backlog, lost, peak, total).
# A plain tuple, not a dataclass: the fold sits on the hottest loop in
# the repo and the callers already keep these as local floats.
SlotFluidState = tuple


def clamp_backlog(backlog, buffer_bytes):
    """Clamp a post-service backlog into ``[0, Q]``; returns ``(backlog, lost)``.

    The shared drop rule: whatever exceeds the buffer is lost, a
    negative backlog (capacity exceeded demand) is an empty queue.
    """
    if backlog > buffer_bytes:
        return buffer_bytes, backlog - buffer_bytes
    if backlog < 0.0:
        return 0.0, 0.0
    return backlog, 0.0


def slot_step(backlog, arrival, capacity, buffer_bytes):
    """One slot of the fluid recursion; returns ``(backlog, served, lost)``.

    ``served`` is the volume that leaves on the output side this slot
    (``min(b_{t-1} + a_t, c)``) -- the quantity a network hop forwards
    downstream.  The backlog and loss arithmetic is bit-identical to
    :func:`fold_slots`: the pre-clamp backlog is ``b + (a - c)``.
    """
    pre = backlog + (arrival - capacity)
    if pre > buffer_bytes:
        return buffer_bytes, capacity, pre - buffer_bytes
    if pre < 0.0:
        # The queue drains completely: everything present was served.
        return 0.0, backlog + arrival, 0.0
    return pre, capacity, 0.0


def fold_slots(values, capacity, buffer_bytes, state=(0.0, 0.0, 0.0, 0.0),
               loss_series=None):
    """Fold the recursion over ``values``; returns the advanced state.

    ``values`` is a plain list of floats (callers convert via
    ``ndarray.tolist()`` -- Python-level float ops beat per-element
    ndarray access on this loop), ``state`` is ``(backlog, lost, peak,
    total)`` and the return value is the same tuple advanced by
    ``len(values)`` slots.  The offered total accumulates in
    left-to-right order so any chunk partition reproduces every
    statistic bit-for-bit.  When ``loss_series`` (a numpy array at
    least as long as ``values``) is given, per-slot losses are written
    into it from index 0.
    """
    backlog, lost, peak, total = state
    c = capacity
    q = buffer_bytes
    if loss_series is not None:
        for t, arrival in enumerate(values):
            total += arrival
            backlog += arrival - c
            if backlog > q:
                overflow = backlog - q
                lost += overflow
                loss_series[t] = overflow
                backlog = q
            elif backlog < 0.0:
                backlog = 0.0
            if backlog > peak:
                peak = backlog
    else:
        for arrival in values:
            total += arrival
            backlog += arrival - c
            if backlog > q:
                lost += backlog - q
                backlog = q
            elif backlog < 0.0:
                backlog = 0.0
            if backlog > peak:
                peak = backlog
    return backlog, lost, peak, total


def default_kernel():
    """Name of the fold :func:`run_slots` runs: always ``"reference"``."""
    return "reference"


def run_slots(values, capacity, buffer_bytes, state=(0.0, 0.0, 0.0, 0.0),
              loss_series=None):
    """Fold an arrival array through :func:`fold_slots`.

    The one entry point every array-shaped caller goes through
    (:func:`repro.simulation.queue.simulate_queue`, the streaming fold,
    the FIFO discipline's batched path, the alloc fleet).  ``values``
    may be an ndarray or a list; an ndarray is converted with
    ``tolist()`` first.  Arguments and return value match
    :func:`fold_slots`.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return fold_slots(
        values, capacity, buffer_bytes, state=state, loss_series=loss_series
    )
