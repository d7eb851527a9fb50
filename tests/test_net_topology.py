"""repro.net topology: the anchor invariant, conservation, specs, sweeps."""

import numpy as np
import pytest

from repro.net import Link, Node, build_network, run_topology, sweep_topologies
from repro.simulation.queue import simulate_queue


def single_hop_spec(values, capacity, buffer_bytes, **extra):
    spec = {
        "slots": len(values),
        "nodes": [
            {"name": "a", "buffer_bytes": buffer_bytes},
            {"name": "b", "buffer_bytes": 0.0},
        ],
        "links": [{"src": "a", "dst": "b", "capacity_per_slot": capacity}],
        "flows": [
            {"name": "f", "path": ["a", "b"],
             "source": {"kind": "array", "values": list(values)}}
        ],
    }
    spec.update(extra)
    return spec


class TestSingleQueueAnchor:
    """A one-flow one-hop FIFO topology IS the paper's single queue."""

    def test_matches_simulate_queue_bit_for_bit(self, rng):
        arrivals = rng.gamma(2.0, 500.0, size=1_000)
        capacity, buffer_bytes = 1_100.0, 3_000.0
        ref = simulate_queue(arrivals, capacity, buffer_bytes, return_series=True)
        result = run_topology(
            single_hop_spec(arrivals.tolist(), capacity, buffer_bytes,
                            record_series=True)
        )
        port = result["ports"]["a->b"]
        assert port["lost_bytes"] == ref.lost_bytes
        assert port["final_backlog"] == ref.final_backlog
        assert port["peak_backlog"] == ref.peak_backlog
        assert port["offered_bytes"] == ref.total_bytes
        series = result["series"]["a->b"]
        assert np.array_equal(series["loss"], ref.loss_series)
        # Backlog trajectory: replay the recursion and compare exactly.
        b = 0.0
        expect = []
        for a in arrivals:
            b += float(a) - capacity
            if b > buffer_bytes:
                b = buffer_bytes
            elif b < 0.0:
                b = 0.0
            expect.append(b)
        assert series["backlog"].tolist() == expect

    @pytest.mark.parametrize("buffer_bytes", [0.0, 500.0, 1e9])
    def test_anchor_holds_across_buffer_regimes(self, rng, buffer_bytes):
        arrivals = rng.gamma(2.0, 500.0, size=400)
        capacity = 950.0
        ref = simulate_queue(arrivals, capacity, buffer_bytes)
        result = run_topology(single_hop_spec(arrivals.tolist(), capacity, buffer_bytes))
        port = result["ports"]["a->b"]
        assert port["lost_bytes"] == ref.lost_bytes
        assert port["final_backlog"] == ref.final_backlog
        assert port["peak_backlog"] == ref.peak_backlog


class TestConservation:
    def test_offered_equals_delivered_plus_lost_plus_in_network(self, rng):
        arrivals = rng.gamma(2.0, 800.0, size=500)
        spec = {
            "slots": 500,
            "nodes": [{"name": n, "buffer_bytes": 4_000.0} for n in "abcd"],
            "links": [
                {"src": "a", "dst": "b", "capacity_per_slot": 1_500.0},
                {"src": "b", "dst": "c", "capacity_per_slot": 1_450.0,
                 "delay_slots": 2},
                {"src": "c", "dst": "d", "capacity_per_slot": 1_400.0},
            ],
            "flows": [{"name": "f", "path": ["a", "b", "c", "d"],
                       "source": {"kind": "array", "values": arrivals.tolist()}}],
        }
        result = run_topology(spec)
        flow = result["flows"]["f"]
        in_buffers = sum(p["final_backlog"] for p in result["ports"].values())
        # In-flight fluid: served upstream but not yet arrived downstream
        # when the horizon cut the run.
        in_flight = sum(
            p["served_bytes"] for p in result["ports"].values()
        ) - sum(
            p["offered_bytes"] for p in list(result["ports"].values())[1:]
        ) - flow["delivered_bytes"]
        total = flow["delivered_bytes"] + flow["lost_bytes"] + in_buffers + in_flight
        assert total == pytest.approx(flow["offered_bytes"], rel=1e-12)

    def test_propagation_delay_shifts_delivery(self):
        values = [5.0] + [0.0] * 9
        base = run_topology(single_hop_spec(values, 10.0, 100.0))
        spec = single_hop_spec(values, 10.0, 100.0)
        spec["links"][0]["delay_slots"] = 3
        delayed = run_topology(spec)
        assert base["flows"]["f"]["first_delivery_slot"] == 1.0
        assert delayed["flows"]["f"]["first_delivery_slot"] == 4.0
        assert delayed["flows"]["f"]["delivered_bytes"] == 5.0


class TestSpecs:
    def test_unknown_node_in_link_is_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["links"][0]["dst"] = "ghost"
        with pytest.raises((ValueError, KeyError)):
            run_topology(spec)

    def test_unknown_node_in_path_is_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["flows"][0]["path"] = ["a", "ghost"]
        with pytest.raises(ValueError, match="unknown node"):
            run_topology(spec)

    def test_missing_link_on_path_is_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["nodes"].append({"name": "c", "buffer_bytes": 0.0})
        spec["flows"][0]["path"] = ["a", "c"]
        with pytest.raises(KeyError, match="no link"):
            run_topology(spec)

    def test_duplicate_names_are_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["nodes"].append({"name": "a", "buffer_bytes": 0.0})
        with pytest.raises(ValueError, match="duplicate node"):
            run_topology(spec)

    def test_empty_sections_are_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["flows"] = []
        with pytest.raises(ValueError, match="flows"):
            run_topology(spec)

    def test_bad_source_kind_is_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["flows"][0]["source"] = {"kind": "quantum"}
        with pytest.raises(ValueError, match="kind"):
            run_topology(spec)

    @pytest.mark.parametrize("source,key", [
        ({"kind": "array", "values": [1.0], "value": [2.0]}, "value"),
        ({"kind": "trace", "frames": 10, "sed": 3}, "sed"),
        ({"kind": "fgn", "hurts": 0.9}, "hurts"),
        ({"kind": "fgn", "hurst": 0.8, "batch": 8}, "batch"),
    ])
    def test_unknown_source_key_is_rejected(self, source, key):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["flows"][0]["source"] = source
        with pytest.raises(ValueError, match=f"unknown key.*'{key}'"):
            build_network(spec)

    def test_unknown_source_key_is_a_one_line_cli_error(self, tmp_path, capsys):
        import json

        from repro.cli import main

        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["flows"][0]["source"] = {"kind": "fgn", "hurts": 0.9}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["net", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "'hurts'" in err[0]

    def test_network_runs_exactly_once(self):
        net = build_network(single_hop_spec([1.0, 2.0], 10.0, 5.0))
        net.run(2)
        with pytest.raises(RuntimeError, match="exactly once"):
            net.run(2)

    def test_link_validation(self):
        with pytest.raises(ValueError, match="loop"):
            Link("a", "a", 10.0)
        with pytest.raises(ValueError):
            Link("a", "b", 0.0)
        with pytest.raises(ValueError):
            Link("a", "b", float("nan"))
        with pytest.raises(ValueError):
            Link("a", "b", 10.0, delay_slots=-1)
        assert Link("a", "b", 10.0, delay_slots=2).latency_slots == 3

    def test_node_validation(self):
        with pytest.raises(ValueError):
            Node("n", float("inf"))
        node = Node("n", 10.0)
        with pytest.raises(ValueError, match="originate"):
            node.attach(Link("other", "n", 5.0))

    def test_fgn_source_is_seed_reproducible(self):
        spec = single_hop_spec([0.0], 30_000.0, 50_000.0)
        spec["slots"] = 300
        spec["flows"][0]["source"] = {
            "kind": "fgn", "hurst": 0.8, "seed": 5, "marginal": "paper",
            "block_size": 2_048, "overlap": 128,
        }
        a = run_topology(dict(spec))
        b = run_topology(dict(spec))
        assert a["flows"] == b["flows"]
        assert a["ports"] == b["ports"]
        assert a["flows"]["f"]["offered_bytes"] > 0


class TestSweep:
    def test_sweep_preserves_spec_order_and_results(self, rng):
        specs = []
        for i in range(3):
            arrivals = rng.gamma(2.0, 500.0, size=200)
            specs.append(single_hop_spec(arrivals.tolist(), 1_000.0 + 50.0 * i, 2_000.0))
        serial = sweep_topologies(specs, workers=1)
        assert [r["ports"]["a->b"]["capacity_per_slot"] for r in serial] == [
            1_000.0, 1_050.0, 1_100.0
        ]
        expected = [
            simulate_queue(np.asarray(s["flows"][0]["source"]["values"]),
                           s["links"][0]["capacity_per_slot"], 2_000.0).lost_bytes
            for s in specs
        ]
        assert [r["ports"]["a->b"]["lost_bytes"] for r in serial] == expected

    def test_sweep_empty_is_empty(self):
        assert sweep_topologies([]) == []
