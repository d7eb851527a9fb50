"""Topology assembly and the simulation run loop.

:class:`Network` wires nodes, links and flows together and drives them
through the deterministic event core; :func:`run_topology` does the
same from a small declarative spec (a plain dict, or the parsed form
of a JSON file -- the ``repro net`` CLI input):

.. code-block:: python

    spec = {
        "slots": 8_000,
        "slot_seconds": 1 / 24,
        "nodes": [
            {"name": "a", "buffer_bytes": 64_000, "discipline": "fifo"},
            {"name": "b", "buffer_bytes": 64_000},
        ],
        "links": [
            {"src": "a", "dst": "b", "capacity_per_slot": 30_000, "delay_slots": 1},
            {"src": "b", "dst": "c", "capacity_per_slot": 30_000},
        ],
        "flows": [
            {"name": "video", "path": ["a", "b", "c"],
             "source": {"kind": "fgn", "hurst": 0.8, "seed": 7,
                        "marginal": "paper"}},
        ],
    }
    result = run_topology(spec)

Source kinds: ``array`` (explicit per-slot values), ``trace`` (the
calibrated Star-Wars-like synthesizer), ``fgn`` (a constant-memory
:mod:`repro.stream` source, optionally pushed through the paper's
Gamma/Pareto marginal).  A source key its kind does not read is an
error, not a silent default.  Every random draw happens in a seeded
generator owned by the flow, so a spec is a complete, reproducible
description of a run: same spec, same bytes.

Within one slot the event order is fixed: all deliveries (phase 0,
emissions and link arrivals) land in port buffers first, then every
port serves once (phase 1) in topology order.  Fluid served at slot
``t`` over a link with delay ``d`` joins the downstream port at slot
``t + 1 + d``.  The run stops at the ``slots`` horizon; fluid still in
flight or buffered is reported as backlog, not loss.
"""

from __future__ import annotations

import hashlib
import json

from repro._validation import require_positive_int
from repro.net.flow import Flow, array_slots, stream_slots
from repro.net.link import Link
from repro.net.node import Node
from repro.net.scheduler import PHASE_ARRIVAL, EventScheduler
from repro.obs import log as obs_log
from repro.obs import metrics, trace

__all__ = ["Network", "build_network", "run_topology", "spec_from_json"]

_LOGGER = obs_log.get_logger("net")

_SLOTS = metrics.registry().counter(
    "repro_net_slots_total",
    help="Port-slots serviced by the network simulator",
    unit="slots",
)

_SERVED = metrics.registry().counter(
    "repro_net_served_bytes_total",
    help="Bytes forwarded across all ports",
    unit="bytes",
)

_LOST = metrics.registry().counter(
    "repro_net_lost_bytes_total",
    help="Bytes dropped at port buffers",
    unit="bytes",
)


class Network:
    """An assembled topology, ready to run once.

    ``nodes``/``links``/``flows`` are lists of the respective objects;
    insertion order is the deterministic service and registration
    order.  A network instance is single-use: build, run, read results.
    """

    def __init__(self, nodes, links, flows, record_series=False,
                 record_events=False):
        self.nodes = {}
        for node in nodes:
            if node.name in self.nodes:
                raise ValueError(f"duplicate node name {node.name!r}")
            self.nodes[node.name] = node
        self.links = list(links)
        self.ports = []
        for link in self.links:
            for end in (link.src, link.dst):
                if end not in self.nodes:
                    raise ValueError(
                        f"link {link.name} references unknown node {end!r}"
                    )
            self.ports.append(
                self.nodes[link.src].attach(link, record_series=record_series)
            )
        self.flows = {}
        for flow in flows:
            if flow.name in self.flows:
                raise ValueError(f"duplicate flow name {flow.name!r}")
            self.flows[flow.name] = flow
            for name in flow.path:
                if name not in self.nodes:
                    raise ValueError(
                        f"flow {flow.name!r} path visits unknown node {name!r}"
                    )
            for here, nxt in zip(flow.path[:-1], flow.path[1:]):
                port = self.nodes[here].port_to(nxt)
                port.discipline.register(
                    flow.name, priority=flow.priority, weight=flow.weight
                )
        self.scheduler = EventScheduler(record_trace=record_events)
        self._ran = False

    # -- event callbacks ------------------------------------------------

    def _emit(self, flow):
        volume = flow.next_volume()
        if volume is None:
            return
        slot = self.scheduler.now
        flow.stats.record_emission(slot, volume)
        if volume > 0.0:
            port = self.nodes[flow.ingress].port_to(flow.next_hop(flow.ingress))
            port.deliver(flow.name, volume)
        self.scheduler.schedule(
            slot + 1.0, self._emit, flow,
            phase=PHASE_ARRIVAL, label=f"emit:{flow.name}",
        )

    def _deliver(self, flow, node_name, volume):
        if node_name == flow.destination:
            flow.stats.record_delivery(self.scheduler.now, volume)
            return
        port = self.nodes[node_name].port_to(flow.next_hop(node_name))
        port.deliver(flow.name, volume)

    def _service(self, port, horizon):
        result = port.service()
        slot = self.scheduler.now
        arrival_time = slot + port.link.latency_slots
        for flow_name, volume in result.served.items():
            self.scheduler.schedule(
                arrival_time, self._deliver,
                self.flows[flow_name], port.link.dst, volume,
                phase=PHASE_ARRIVAL, label=f"arrive:{flow_name}@{port.link.dst}",
            )
        for flow_name, volume in result.lost.items():
            self.flows[flow_name].stats.record_loss(volume)
        if slot + 1.0 < horizon:
            self.scheduler.schedule(
                slot + 1.0, self._service, port, horizon,
                label=f"serve:{port.name}",
            )

    # -- running --------------------------------------------------------

    def run(self, slots):
        """Drive every flow and port for ``slots`` slots; returns results.

        The result is a plain dict: per-port and per-flow summaries,
        event counts, and -- when recording was requested -- per-hop
        series and the sha256 of the event trace.
        """
        slots = require_positive_int(slots, "slots")
        if self._ran:
            raise RuntimeError("a Network instance runs exactly once")
        self._ran = True
        for flow in self.flows.values():
            self.scheduler.schedule(
                float(flow.start_slot), self._emit, flow,
                phase=PHASE_ARRIVAL, label=f"emit:{flow.name}",
            )
        for port in self.ports:
            self.scheduler.schedule(
                0.0, self._service, port, float(slots),
                label=f"serve:{port.name}",
            )
        with trace.span(
            "net.run", nodes=len(self.nodes), links=len(self.links),
            flows=len(self.flows), slots=slots,
        ):
            self.scheduler.run(until=float(slots))
        served = sum(port.served_bytes for port in self.ports)
        lost = sum(port.lost_bytes for port in self.ports)
        _SLOTS.inc(sum(port.slots for port in self.ports))
        _SERVED.inc(served)
        _LOST.inc(lost)
        _LOGGER.info(
            "net run: %d slots, %d events, %d port(s), %d flow(s), "
            "%.0f B served, %.0f B lost",
            slots, self.scheduler.events_dispatched, len(self.ports),
            len(self.flows), served, lost,
            extra={"slots": slots, "events": self.scheduler.events_dispatched},
        )
        result = {
            "slots": slots,
            "events": self.scheduler.events_dispatched,
            "ports": {port.name: port.summary() for port in self.ports},
            "flows": {name: flow.stats.summary() for name, flow in self.flows.items()},
        }
        if self.ports and self.ports[0].backlog_series is not None:
            import numpy as np

            result["series"] = {
                port.name: {
                    "backlog": np.asarray(port.backlog_series),
                    "departures": np.asarray(port.departure_series),
                    "loss": np.asarray(port.loss_series),
                }
                for port in self.ports
            }
        if self.scheduler.trace is not None:
            digest = hashlib.sha256()
            for event in self.scheduler.trace:
                digest.update(repr(event).encode())
            result["event_trace_sha256"] = digest.hexdigest()
        return result


# -- declarative specs --------------------------------------------------


#: The keys each source kind reads, besides the common ``kind``/``slots``.
_SOURCE_KEYS = {
    "array": {"values"},
    "trace": {"frames", "seed"},
    "fgn": {"backend", "hurst", "block_size", "overlap", "seed", "chunk", "marginal"},
}


def _flow_source(source, slots, start_slot):
    """Build a per-slot volume iterator from a spec's source entry."""
    if not isinstance(source, dict) or "kind" not in source:
        raise ValueError(f'flow source must be a dict with a "kind", got {source!r}')
    kind = source["kind"]
    allowed = _SOURCE_KEYS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise ValueError(
            f'source kind must be "array", "trace" or "fgn", got {kind!r}'
        )
    unknown = sorted(set(source) - allowed - {"kind", "slots"})
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} in {kind} flow source; "
            f"allowed: {sorted(allowed | {'kind', 'slots'})}"
        )
    n = int(source.get("slots", max(slots - start_slot, 1)))
    if kind == "array":
        return array_slots(source["values"])
    if kind == "trace":
        from repro.video.starwars import synthesize_starwars_trace

        trace_obj = synthesize_starwars_trace(
            n_frames=int(source.get("frames", n)),
            seed=int(source.get("seed", 0)),
            with_slices=False,
        )
        return array_slots(trace_obj.frame_bytes[:n])
    if kind == "fgn":
        import numpy as np

        from repro.stream.sources import make_source

        src = make_source(
            source.get("backend", "paxson"),
            hurst=float(source.get("hurst", 0.8)),
            block_size=int(source.get("block_size", 65_536)),
            overlap=int(source.get("overlap", 1_024)),
        )
        rng = np.random.default_rng(int(source.get("seed", 0)))
        chunk = int(source.get("chunk", 8_192))
        marginal = source.get("marginal", "paper")
        if marginal == "paper":
            from repro.distributions.hybrid import GammaParetoHybrid

            from repro.stream.pipeline import Stream

            stream = Stream.from_source(src, n, chunk, rng=rng).transform(
                GammaParetoHybrid(27_791.0, 6_254.0, 12.0)
            )
            return stream_slots(stream)
        if isinstance(marginal, dict):
            mean = float(marginal["mean"])
            std = float(marginal["std"])
            scaled = (mean + std * c for c in src.chunks(n, chunk, rng=rng))
            return stream_slots(scaled)
    raise ValueError(
        f'fgn marginal must be "paper" or {{"mean", "std"}}, got {marginal!r}'
    )


def build_network(spec, record_series=None, record_events=None):
    """Assemble a :class:`Network` from a declarative spec dict."""
    if not isinstance(spec, dict):
        raise TypeError(f"spec must be a dict, got {type(spec).__name__}")
    for key in ("nodes", "links", "flows"):
        if not spec.get(key):
            raise ValueError(f'spec must declare at least one entry under "{key}"')
    slots = require_positive_int(spec.get("slots", 0), "slots")
    if record_series is None:
        record_series = bool(spec.get("record_series", False))
    if record_events is None:
        record_events = bool(spec.get("record_events", False))
    nodes = [
        Node(
            entry["name"],
            entry.get("buffer_bytes", 0.0),
            discipline=entry.get("discipline", "fifo"),
        )
        for entry in spec["nodes"]
    ]
    links = [
        Link(
            entry["src"], entry["dst"], entry["capacity_per_slot"],
            delay_slots=int(entry.get("delay_slots", 0)),
        )
        for entry in spec["links"]
    ]
    flows = []
    for entry in spec["flows"]:
        start_slot = int(entry.get("start_slot", 0))
        flows.append(Flow(
            entry["name"],
            entry["path"],
            _flow_source(entry["source"], slots, start_slot),
            priority=int(entry.get("priority", 0)),
            weight=float(entry.get("weight", 1.0)),
            start_slot=start_slot,
        ))
    return Network(
        nodes, links, flows,
        record_series=record_series, record_events=record_events,
    )


def run_topology(spec, record_series=None, record_events=None):
    """Build the network described by ``spec`` and run it.

    Returns the :meth:`Network.run` result dict, extended with the
    spec's optional ``slot_seconds`` so downstream consumers can
    convert slot delays to wall time.
    """
    network = build_network(
        spec, record_series=record_series, record_events=record_events
    )
    result = network.run(require_positive_int(spec.get("slots", 0), "slots"))
    if "slot_seconds" in spec:
        result["slot_seconds"] = float(spec["slot_seconds"])
    return result


def spec_from_json(path):
    """Load a topology spec from a JSON file (the ``repro net`` input)."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: topology spec must be a JSON object")
    return spec
