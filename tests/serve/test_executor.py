"""Tests for the request executor -- the daemon's single semantics."""

from __future__ import annotations

import json
import sys

import pytest

from repro.obs.tracer import canonical_lines
from repro.serve.executor import (
    counters_delta,
    execute_batch_metrics,
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


class TestBenchmarkContract:
    """What ``perfbench/`` imports inside its pool workers.  A break
    there shows only as a failed benchmark run, so it is pinned here."""

    def test_counter_functions_importable(self):
        from repro.serve.executor import counters_delta as delta
        from repro.substrates.cache import cache_counters

        before = cache_counters()
        assert delta(before, cache_counters()) == {}

    def test_ring_stream_request_counts_a_topology_lookup(self):
        payload = execute_request(_spec({"kind": "ring-stream", "n": 71},
                                        "greedy-reduction"))
        topologies = payload["manifest"]["cache_counters"]["topologies"]
        assert topologies["hits"] + topologies["misses"] == 1


#: A warm ring request with the worker heap setting, in a fresh process:
#: prints the request's minor faults, or null off glibc.
_WARM_RING_FAULTS = """
import json
from repro.serve.executor import execute_request
from repro.serve.schema import parse_request
from repro.sim.parallel import keep_freed_memory

if not keep_freed_memory():
    print("null")
    raise SystemExit
spec = parse_request({"topology": {"kind": "ring-stream", "n": 100000},
                      "algorithm": {"name": "greedy-reduction",
                                    "validate": True}})
for _ in range(3):
    payload = execute_request(spec)
print(json.dumps(payload["timing"]["minor_faults"]))
"""


class TestMinorFaults:
    def test_timing_reports_minor_faults(self):
        payload = execute_request(_spec({"kind": "ring-stream", "n": 67},
                                        "greedy-reduction"))
        faults = payload["timing"].get("minor_faults")
        if sys.platform.startswith("linux"):
            assert isinstance(faults, int) and faults >= 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs ru_minflt and glibc's mallopt")
    def test_warm_ring_request_keeps_its_pages(self):
        """With freed memory kept in the heap, a warm n = 100,000 ring
        request reuses its temporaries instead of faulting them in.

        The subject is the vectorized request's NumPy path, so both are
        pinned: the reference engine builds 100,000 program objects,
        whose pages are a different question."""
        pytest.importorskip("numpy")
        import os
        import pathlib
        import subprocess

        import repro

        env = dict(os.environ, REPRO_SIM_ARRAYS="1",
                   REPRO_SIM_ENGINE="vectorized")
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-c", _WARM_RING_FAULTS],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        faults = json.loads(done.stdout.strip().splitlines()[-1])
        if faults is None:
            pytest.skip("the C library has no mallopt")
        assert faults < 1000


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
    @pytest.mark.parametrize("name", ["greedy-reduction", "two-sweep"])
    def test_gnp_stream_below_float_resolution(self, name):
        """p = 1e-17 rounds 1 - p to 1.0: an edgeless graph, not a
        ZeroDivisionError out of execute_request."""
        payload = execute_request(_spec(
            {"kind": "gnp-stream", "n": 50, "p": 1e-17, "seed": 0}, name))
        assert payload["status"] == "ok"
        assert payload["result"]["valid"] is True
        assert payload["topology"]["m"] == 0

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


    def test_unrunnable_node_count_is_an_error_payload(self, monkeypatch):
        # parse_request rejects this for topologies that state n; the
        # executor repeats the check where n is known only once the
        # topology resolves (uploaded graphs).
        spec = _spec({"kind": "ring-stream", "n": 100}, "two-sweep")
        spec["topology"]["n"] = 500_000
        built = []
        monkeypatch.setattr(
            "repro.graphs.oriented.orient_by_id",
            lambda *args: built.append(args))
        payload = execute_request(spec)
        assert payload["status"] == "error"
        assert payload["error"]["type"] == "RequestError"
        assert payload["error"]["message"] == (
            "q = n = 500000 (no id_bits) needs 1000001 two-sweep rounds, "
            "over the 1000000 round limit")
        assert built == []  # rejected before any instance work


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


class TestEnginesAgree:
    """The columns-first vectorized path is byte-identical to the
    reference engine on everything a payload pins."""

    @pytest.mark.parametrize("min_batch", [0, None])
    @pytest.mark.parametrize("topology", [
        {"kind": "ring-stream", "n": 3001},
        {"kind": "gnp-stream", "n": 300, "p": 0.3, "seed": 5},
    ])
    def test_vectorized_payload_equals_reference(self, topology, min_batch,
                                                 monkeypatch):
        from repro.sim import arrays, use_engine

        if min_batch is not None:  # force the batched mex on every class
            monkeypatch.setattr(arrays, "MIN_BATCH", min_batch)
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
        self._check_first_violation_and_bound(enabled)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_first_violation_across_chunks(self, enabled, monkeypatch):
        # Many chunks: the first clash must survive chunk borders.
        from repro.serve import executor

        monkeypatch.setattr(executor, "_VALIDATE_CHUNK", 64)
        self._check_first_violation_and_bound(enabled)

    @pytest.mark.parametrize("scale, shift", [
        (1, 0), (1, -3), (300, 0), (70_000, -5), (1 << 40, 0), (-1, 0),
    ])
    def test_narrowed_colors_report_alike(self, scale, shift, monkeypatch):
        """The NumPy check gathers the narrowest type holding the colors
        (uint8 up to int64, signed when some color is negative); every
        width reports what the plain loop does."""
        from repro.graphs.streaming import stream_gnp
        from repro.serve import executor
        from repro.sim import arrays

        if arrays._import_numpy() is None:
            pytest.skip("NumPy not installed")
        monkeypatch.setattr(executor, "_VALIDATE_CHUNK", 256)
        compiled = stream_gnp(300, 0.05, 4)
        proper = [0] * compiled.n
        for i in range(compiled.n):
            used = {proper[j] for j in compiled.neighbor_ids(i) if j < i}
            proper[i] = min(set(range(len(used) + 1)) - used)
        colors = [color * scale + shift for color in proper]
        broken = list(colors)
        i, j = list(compiled.edge_ids())[-3]
        broken[j] = broken[i]
        for column in (colors, broken):
            for target in (max(colors), max(colors) + 1):
                reports = []
                for enabled in (False, True):
                    previous = arrays.set_arrays_override(enabled)
                    try:
                        reports.append(executor._coloring_violation(
                            compiled, column, target))
                    finally:
                        arrays.set_arrays_override(previous)
                assert reports[0] == reports[1], (column is broken, target)

    @staticmethod
    def _check_first_violation_and_bound(enabled):
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


class TestColumnDigest:
    """The column checksum hashes the bytes the node-keyed dict did:
    ``f"{node!r}={color}:"`` in ``repr``-sorted node order."""

    @staticmethod
    def _loop_digest(colors):
        """The per-node checksum of a ``{node: color}`` mapping, or of a
        list of colors by index."""
        import hashlib

        if isinstance(colors, list):
            colors = dict(enumerate(colors))
        hasher = hashlib.blake2b(digest_size=16)
        for node in sorted(colors, key=repr):
            hasher.update(f"{node!r}={colors[node]}:".encode())
        return hasher.hexdigest()

    @classmethod
    def _dict_payload(cls, colors, n, include_colors):
        payload = {"color_count": len(set(colors.values())),
                   "colors_blake2b": cls._loop_digest(colors)}
        if include_colors and n <= 4096:
            payload["colors"] = {str(node): color
                                 for node, color in colors.items()}
        return payload

    @pytest.mark.parametrize("n", [9, 10, 99, 100, 1001])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_dense_column_matches_dict(self, n, enabled):
        import random

        from repro.graphs.streaming import stream_ring
        from repro.serve.executor import _colors_payload
        from repro.sim import arrays

        np = arrays._import_numpy()
        if enabled and np is None:
            pytest.skip("NumPy not installed")
        compiled = stream_ring(n)
        rng = random.Random(n)
        top = rng.choice([1, 9, 10, 11, 10**6, 10**12, (1 << 62) - 1])
        colors = [rng.randint(0, top) for _ in range(n)]
        colors[rng.randrange(n)] = top
        want = self._dict_payload(dict(enumerate(colors)), n, True)
        columns = [colors]
        if np is not None:
            columns.append(np.array(colors, dtype=np.int64))
        previous = arrays.set_arrays_override(enabled)
        try:
            for column in columns:
                got = _colors_payload(compiled, column, True)
                assert got == want
                assert list(got["colors"]) == list(want["colors"])
                assert all(type(c) is int for c in got["colors"].values())
        finally:
            arrays.set_arrays_override(previous)

    @pytest.mark.parametrize("n, block", [
        (9, None), (10, None), (11, None), (99, None), (100, None),
        (101, None), (999, None), (1000, None), (1001, None), (9999, None),
        (10000, None), (10001, None), (99999, None), (100000, None),
        (100001, None), (11, 1), (101, 7), (1001, 64), (10001, 1000),
    ])
    def test_digest_bytes_match_node_loop(self, n, block, monkeypatch):
        """The NumPy bytes are the per-node ``f"{node!r}={color}:"``
        stream: ids and colors at every digit count, whether the layout
        is kept or (a store bound of ``block`` bytes) dropped."""
        import random
        from collections import OrderedDict

        from repro.serve import executor

        np = pytest.importorskip("numpy")
        monkeypatch.setattr(executor, "_digest_store", OrderedDict())
        if block is not None:
            monkeypatch.setattr(executor, "_DIGEST_STORE_BYTES", block)
        rng = random.Random(n)
        colors = [rng.choice([0, 7, 10, 99, 100, 12345, 10**12 + 1])
                  for _ in range(n)]
        want = b"".join(f"{node!r}={colors[node]}:".encode()
                        for node in sorted(range(n), key=repr))
        for _ in range(2):
            got = executor._digest_bytes(np, np.array(colors,
                                                      dtype=np.int64))
            assert got.tobytes() == want
        held = sum(a.nbytes + b.nbytes
                   for a, b in executor._digest_store.values())
        assert held <= executor._DIGEST_STORE_BYTES
        assert bool(held) == (block is None)

    def test_varying_widths_reuse_their_buffers(self, monkeypatch):
        """A warm checksum of colors of varying width at n = 250,000
        allocates the keep mask and the compacted bytes (each at most
        the template's size) and two n-byte columns, nothing per digit
        column; its digest is the node loop's."""
        import tracemalloc
        from collections import OrderedDict

        from repro.serve import executor
        from repro.sim import arrays

        np = pytest.importorskip("numpy")
        monkeypatch.setattr(arrays, "_override", True)
        monkeypatch.setattr(executor, "_digest_store", OrderedDict())
        n = 250_000
        column = np.arange(n, dtype=np.int64) % 1000
        want = executor.colors_blake2b(range(n), column)
        template, _ = executor._digest_store[(n, 3)]
        tracemalloc.start()
        try:
            got = executor.colors_blake2b(range(n), column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want == self._loop_digest(column.tolist())
        assert peak <= 2 * template.nbytes + 2 * n

    #: The CI color mix: one width each, then all widths at once.
    COLOR_MIXES = ([0], [3], [10], [4096], [10**12], [0, 3, 10, 4096, 10**12])

    @pytest.mark.parametrize("n", sorted(
        {10 ** k + d for k in range(6) for d in (-1, 0, 1)} - {0}
        | {250_001}
    ))
    def test_checksum_matches_node_loop(self, n, monkeypatch):
        """``colors_blake2b`` hashes like the per-node loop at every
        ``10**k +- 1`` and for every color width, on ndarray and list
        columns alike."""
        import random

        from repro.serve.executor import colors_blake2b
        from repro.sim import arrays

        np = pytest.importorskip("numpy")
        monkeypatch.setattr(arrays, "_override", True)
        rng = random.Random(n)
        for mix in self.COLOR_MIXES:
            colors = [rng.choice(mix) for _ in range(n)]
            want = self._loop_digest(colors)
            assert colors_blake2b(range(n), colors) == want, mix
            assert colors_blake2b(
                range(n), np.array(colors, dtype=np.int64)) == want, mix

    def test_eviction_never_changes_a_digest(self, monkeypatch):
        """Interleaved sizes and widths through a store that holds about
        two layouts: every digest is the node loop's, and the store
        stays under its bound."""
        import random
        from collections import OrderedDict

        from repro.serve import executor
        from repro.sim import arrays

        np = pytest.importorskip("numpy")
        monkeypatch.setattr(arrays, "_override", True)
        monkeypatch.setattr(executor, "_digest_store", OrderedDict())
        monkeypatch.setattr(executor, "_DIGEST_STORE_BYTES", 400_000)
        rng = random.Random(4)
        cases = []
        for n in (20_000, 4_000, 300, 400):
            for top in (2, 600):
                colors = [rng.randint(0, top) for _ in range(n)]
                cases.append((colors, self._loop_digest(colors)))
        for _ in range(3):
            rng.shuffle(cases)
            for colors, want in cases:
                column = np.array(colors, dtype=np.int64)
                assert executor.colors_blake2b(range(len(colors)),
                                               column) == want
                held = sum(a.nbytes + b.nbytes
                           for a, b in executor._digest_store.values())
                assert held <= executor._DIGEST_STORE_BYTES
        assert 1 < len(executor._digest_store) < len(cases)

    def test_layout_built_once_per_n(self, monkeypatch):
        """A warm checksum neither builds a layout nor sorts ids: the
        builder runs once per n, across serve-mixed's alternating
        sizes."""
        from collections import Counter, OrderedDict

        from repro.serve import executor
        from repro.sim import arrays

        np = pytest.importorskip("numpy")
        monkeypatch.setattr(arrays, "_override", True)
        monkeypatch.setattr(executor, "_digest_store", OrderedDict())
        builds = Counter()
        sorts = Counter()
        build, sort = executor._digest_layout, executor._repr_order

        def counted_build(np, n, width):
            builds[n] += 1
            return build(np, n, width)

        def counted_sort(np, n):
            sorts[n] += 1
            return sort(np, n)

        monkeypatch.setattr(executor, "_digest_layout", counted_build)
        monkeypatch.setattr(executor, "_repr_order", counted_sort)
        sizes = (20_000, 4_000, 300, 400)
        for _ in range(3):
            for n in sizes:
                executor.colors_blake2b(
                    range(n), np.arange(n, dtype=np.int64) % 3)
        assert builds == sorts == Counter(dict.fromkeys(sizes, 1))

    def test_threads_share_the_templates_safely(self, monkeypatch):
        """Threads checksumming different colorings of one size share
        one template; each still gets its own coloring's digest."""
        import random
        import threading
        from collections import OrderedDict

        from repro.serve import executor

        np = pytest.importorskip("numpy")
        monkeypatch.setattr(executor, "_digest_store", OrderedDict())
        n = 3000
        rng = random.Random(5)
        cases = []
        for _ in range(6):
            colors = [rng.randint(0, 9) for _ in range(n)]
            cases.append((np.array(colors, dtype=np.int64),
                          self._loop_digest(colors)))
        wrong = []

        def work(column, want):
            for _ in range(150):
                if executor.colors_blake2b(range(n), column) != want:
                    wrong.append(want)

        threads = [threading.Thread(target=work, args=case)
                   for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    @pytest.mark.parametrize("args, topology", [
        (["--topology", "ring-stream", "--n", "3"],
         {"kind": "ring-stream", "n": 3}),
        (["--topology", "ring-stream", "--n", "20001"],
         {"kind": "ring-stream", "n": 20001}),
        (["--topology", "grid-stream", "--n", "100"],
         {"kind": "grid-stream", "rows": 10, "cols": 10}),
        (["--topology", "grid-stream", "--n", "20000"],
         {"kind": "grid-stream", "rows": 141, "cols": 141}),
        (["--topology", "gnp-stream", "--n", "2000", "--p", "0.01"],
         {"kind": "gnp-stream", "n": 2000, "p": 0.01, "seed": 7}),
        (["--topology", "gnp-stream", "--n", "3000", "--p", "0.05"],
         {"kind": "gnp-stream", "n": 3000, "p": 0.05, "seed": 7}),
    ])
    def test_cli_and_request_checksums_agree(self, args, topology, capsys):
        """``repro scale --json`` reports the daemon's checksum."""
        from repro.cli import main

        assert main(["scale", *args, "--json"]) == 0
        cli = json.loads(capsys.readouterr().out)["result"]
        request = execute_request(_spec(topology, "greedy-reduction"))
        assert cli["colors_blake2b"] == \
            request["result"]["colors_blake2b"]
        assert cli["color_count"] == request["result"]["color_count"]

    def test_non_dense_nodes_match_dict(self):
        from repro.serve.executor import _colors_payload
        from repro.sim.network import Network

        nodes = ["b", 12, "a", 3, (1, 2), -4]
        network = Network.from_edges(nodes, [("b", 12), (3, -4)])
        compiled = network.compile()
        colors = {node: i % 3 - 1 for i, node in enumerate(nodes)}
        column = [colors[node] for node in compiled.order]
        assert _colors_payload(compiled, column, True) == \
            self._dict_payload(colors, len(nodes), True)


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
    """The pool worker's entry, :func:`execute_batch_metrics`: one spec
    per call."""

    def test_batch_preserves_order_and_isolation(self):
        specs = [
            _spec({"kind": "ring-stream", "n": 40}, "greedy-reduction"),
            _spec({"kind": "ring-stream", "n": 16},
                  {"name": "two-sweep", "lists": "stuck",
                   "check": False}),
            _spec({"kind": "ring-stream", "n": 40}, "greedy-reduction"),
        ]
        payloads = [execute_batch_metrics(spec)["payload"]
                    for spec in specs]
        assert [p["status"] for p in payloads] == ["ok", "error", "ok"]
        # The failure in the middle did not contaminate the next call.
        assert payloads[0]["result"]["colors_blake2b"] == \
            payloads[2]["result"]["colors_blake2b"]

    def test_batch_equals_serial(self):
        spec = _spec({"kind": "gnp", "n": 26, "density": 0.2, "seed": 2},
                     {"name": "two-sweep", "p": 2, "seed": 3})
        serial = execute_request(spec)
        batched = execute_batch_metrics(spec)["payload"]
        assert batched["result"]["colors_blake2b"] == \
            serial["result"]["colors_blake2b"]
        assert batched["ledger"] == serial["ledger"]
        assert canonical_lines(batched["trace"]) == \
            canonical_lines(serial["trace"])
