"""Tests for the request executor -- the daemon's single semantics."""

from __future__ import annotations

import json

import pytest

from repro.obs.tracer import canonical_lines
from repro.serve.executor import (
    counters_delta,
    execute_batch,
    execute_request,
)
from repro.serve.schema import parse_request


def _spec(topology, algorithm, **extra):
    return parse_request({"topology": topology, "algorithm": algorithm,
                          **extra})


class TestCountersDelta:
    def test_only_moved_registries_reported(self):
        before = {"a": {"hits": 1, "misses": 2}, "b": {"hits": 5,
                                                       "misses": 0}}
        after = {"a": {"hits": 4, "misses": 2}, "b": {"hits": 5,
                                                      "misses": 0},
                 "c": {"hits": 0, "misses": 1}}
        assert counters_delta(before, after) == {
            "a": {"hits": 3, "misses": 0},
            "c": {"hits": 0, "misses": 1},
        }


class TestGreedyReduction:
    def test_ring_payload(self):
        payload = execute_request(_spec({"kind": "ring-stream", "n": 65},
                                        "greedy-reduction"))
        assert payload["status"] == "ok"
        assert payload["result"]["valid"] is True
        assert payload["result"]["target"] == 3
        assert payload["result"]["color_count"] <= 3
        assert payload["topology"] == {
            "kind": "ring-stream", "n": 65, "m": 65, "max_degree": 2,
            "key": ["ring-stream", "65"],
        }
        assert payload["ledger"]["rounds"] > 0
        assert payload["timing"]["solve_s"] >= 0
        assert payload["manifest"]["engine"]
        # v2 scale metrics ride every response.
        assert payload["peak_rss_kb"] is None or payload["peak_rss_kb"] > 0
        assert payload["nodes_per_s"] is None or payload["nodes_per_s"] > 0

    def test_sharded_request_bit_identical(self):
        """algorithm.shards reroutes through the sharded engine and must
        not change a single byte of the result or the logical trace."""
        serial = execute_request(_spec({"kind": "ring-stream", "n": 67},
                                       "greedy-reduction"))
        sharded = execute_request(_spec(
            {"kind": "ring-stream", "n": 67},
            {"name": "greedy-reduction", "shards": 3},
        ))
        assert sharded["status"] == "ok"
        assert sharded["result"]["shards"] == 3
        assert sharded["result"]["colors_blake2b"] == \
            serial["result"]["colors_blake2b"]
        assert sharded["ledger"] == serial["ledger"]
        assert canonical_lines(sharded["trace"]) == \
            canonical_lines(serial["trace"])

    def test_payload_is_json_serializable(self):
        payload = execute_request(_spec({"kind": "ring-stream", "n": 66},
                                        "greedy-reduction"))
        json.dumps(payload)

    def test_include_colors(self):
        payload = execute_request(
            _spec({"kind": "ring-stream", "n": 30}, "greedy-reduction",
                  include_colors=True)
        )
        colors = payload["result"]["colors"]
        assert len(colors) == 30
        assert all(isinstance(k, str) for k in colors)

    def test_trace_opt_out(self):
        payload = execute_request(
            _spec({"kind": "ring-stream", "n": 31}, "greedy-reduction",
                  trace=False)
        )
        assert payload["trace"] is None
        assert payload["status"] == "ok"


class TestSweeps:
    def test_two_sweep_on_gnp(self):
        payload = execute_request(_spec(
            {"kind": "gnp", "n": 30, "density": 0.15, "seed": 3},
            {"name": "two-sweep", "p": 2, "seed": 7},
        ))
        assert payload["status"] == "ok"
        assert payload["result"]["valid"] is True
        assert payload["result"]["q"] == 30
        assert payload["result"]["stats"]["max_local_work"] > 0

    def test_fast_two_sweep_on_stream(self):
        payload = execute_request(_spec(
            {"kind": "gnp-stream", "n": 40, "p": 0.1, "seed": 1},
            {"name": "fast-two-sweep", "p": 2, "seed": 5,
             "epsilon": 0.25},
        ))
        assert payload["status"] == "ok"
        assert payload["result"]["valid"] is True

    def test_id_bits_too_small_is_an_error_payload(self):
        payload = execute_request(_spec(
            {"kind": "ring-stream", "n": 100},
            {"name": "two-sweep", "id_bits": 4},
        ))
        assert payload["status"] == "error"
        assert payload["error"]["type"] == "RequestError"


class TestFailuresAreResults:
    def test_stuck_instance_yields_algorithm_failure(self):
        payload = execute_request(_spec(
            {"kind": "ring-stream", "n": 16},
            {"name": "two-sweep", "lists": "stuck", "check": False},
        ))
        assert payload["status"] == "error"
        assert payload["error"]["type"] == "AlgorithmFailure"
        assert "Eq. (5)" in payload["error"]["message"]
        # The payload still carries provenance and timing.
        assert payload["manifest"]["pid"]
        assert "total_s" in payload["timing"]

    def test_unknown_graph_handle(self):
        payload = execute_request(_spec(
            {"kind": "graph", "id": "deadbeef"}, "greedy-reduction",
        ))
        assert payload["status"] == "error"
        assert payload["error"]["type"] == "RequestError"
        assert "POST /graphs" in payload["error"]["message"]


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        spec = _spec({"kind": "gnp", "n": 28, "density": 0.2, "seed": 9},
                     {"name": "two-sweep", "p": 2, "seed": 4})
        first = execute_request(spec)
        second = execute_request(spec)
        assert first["result"]["colors_blake2b"] == \
            second["result"]["colors_blake2b"]
        assert first["ledger"] == second["ledger"]
        assert canonical_lines(first["trace"]) == \
            canonical_lines(second["trace"])

    def test_warm_second_request_reports_cache_hits(self):
        # The warm-pool contract: the first request pays the build
        # (misses), an identical second request rides the registries.
        spec = _spec({"kind": "gnp", "n": 27, "density": 0.2, "seed": 11},
                     "greedy-reduction")
        first = execute_request(spec)
        second = execute_request(spec)
        nets_first = first["manifest"]["cache_counters"].get(
            "networks", {})
        nets_second = second["manifest"]["cache_counters"].get(
            "networks", {})
        assert nets_first.get("misses", 0) >= 1
        assert nets_second.get("hits", 0) >= 1
        assert nets_second.get("misses", 0) == 0


class TestEnginesAgree:
    """The columns-first vectorized path is byte-identical to the
    reference engine on everything a payload pins."""

    @pytest.mark.parametrize("min_tally", [0, None])
    @pytest.mark.parametrize("topology", [
        {"kind": "ring-stream", "n": 3001},
        {"kind": "gnp-stream", "n": 300, "p": 0.3, "seed": 5},
    ])
    def test_vectorized_payload_equals_reference(self, topology, min_tally,
                                                 monkeypatch):
        from repro.sim import arrays, use_engine

        if min_tally is not None:  # force the batched mex on every bucket
            monkeypatch.setattr(arrays, "MIN_TALLY", min_tally)
        spec = _spec(topology, "greedy-reduction")
        payloads = {}
        for engine in ("reference", "vectorized"):
            with use_engine(engine):
                payloads[engine] = execute_request(spec)
        want, got = payloads["reference"], payloads["vectorized"]
        assert got["status"] == want["status"] == "ok"
        assert got["result"] == want["result"]
        assert got["result"]["valid"] is True
        assert got["ledger"] == want["ledger"]
        assert canonical_lines(got["trace"]) == \
            canonical_lines(want["trace"])


class TestColoringViolation:
    """Validation over CSR columns: NumPy and the plain loop agree, and
    the first monochromatic edge is the first in edge_ids order."""

    @pytest.mark.parametrize("enabled", [False, True])
    def test_first_violation_and_bound(self, enabled):
        from repro.graphs.streaming import stream_gnp
        from repro.serve import executor
        from repro.sim import arrays

        if enabled and arrays._import_numpy() is None:
            pytest.skip("NumPy not installed")
        compiled = stream_gnp(400, 0.05, 3)
        previous = arrays.set_arrays_override(enabled)
        try:
            proper = [0] * compiled.n
            for i in range(compiled.n):
                used = {proper[j] for j in compiled.neighbor_ids(i) if j < i}
                proper[i] = min(set(range(len(used) + 1)) - used)
            top = max(proper)
            assert executor._coloring_violation(
                compiled, proper, top + 1) is None
            assert executor._coloring_violation(
                compiled, proper, top) == f"color >= target {top}"
            broken = list(proper)
            edges = list(compiled.edge_ids())
            for i, j in (edges[-1], edges[len(edges) // 2]):
                broken[i] = broken[j]
            first = next((i, j) for i, j in edges if broken[i] == broken[j])
            assert executor._coloring_violation(
                compiled, broken, top + 1) == \
                f"edge ({first[0]}, {first[1]}) is monochromatic"
        finally:
            arrays.set_arrays_override(previous)


class TestEdgesTopology:
    def test_inline_edges_round_trip(self):
        spec = _spec(
            {"kind": "edges", "n": 4,
             "edges": [[0, 1], [1, 2], [2, 3]]},
            "greedy-reduction",
        )
        payload = execute_request(spec)
        assert payload["status"] == "ok"
        assert payload["topology"]["n"] == 4
        assert payload["topology"]["m"] == 3
        # Bulk edge data is never echoed back.
        assert "edges" not in payload["topology"]

    def test_edges_match_materialized_network(self):
        """Inline edges and the equivalent gnp topology agree."""
        from repro.graphs import gnp_graph

        network = gnp_graph(22, 0.2, seed=5)
        edges = [list(edge) for edge in network.edges()]
        inline = execute_request(_spec(
            {"kind": "edges", "n": 22, "edges": edges},
            "greedy-reduction",
        ))
        assert inline["status"] == "ok"
        assert inline["result"]["valid"] is True


class TestBatch:
    def test_batch_preserves_order_and_isolation(self):
        specs = [
            _spec({"kind": "ring-stream", "n": 40}, "greedy-reduction"),
            _spec({"kind": "ring-stream", "n": 16},
                  {"name": "two-sweep", "lists": "stuck",
                   "check": False}),
            _spec({"kind": "ring-stream", "n": 40}, "greedy-reduction"),
        ]
        payloads = execute_batch(specs)
        assert [p["status"] for p in payloads] == ["ok", "error", "ok"]
        # The failure in the middle did not contaminate its neighbors.
        assert payloads[0]["result"]["colors_blake2b"] == \
            payloads[2]["result"]["colors_blake2b"]

    def test_batch_equals_serial(self):
        spec = _spec({"kind": "gnp", "n": 26, "density": 0.2, "seed": 2},
                     {"name": "two-sweep", "p": 2, "seed": 3})
        serial = execute_request(spec)
        batched = execute_batch([spec])[0]
        assert batched["result"]["colors_blake2b"] == \
            serial["result"]["colors_blake2b"]
        assert batched["ledger"] == serial["ledger"]
        assert canonical_lines(batched["trace"]) == \
            canonical_lines(serial["trace"])
