"""The streaming CSR topology builders and their equivalence contract.

The contract: a streamed topology is *byte-identical* to the
materialized one.  For the deterministic families
(ring/grid/tree) the streams replay the materialized generators' edge
order, so ``stream_ring(n)`` equals ``ring_graph(n).compile()`` buffer
for buffer; for the randomized families (gnp/regular) the stream is a
seeded distribution of its own and is pinned byte-identical against
``Network.from_edges`` over the same stream.  The NumPy and Python CSR
fills must agree bit for bit, large topologies must bypass the
interning registry, and the seed colorings driving the scale workloads
must be proper.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array

import pytest

from repro.graphs import (
    binary_tree,
    gnp_graph,
    grid_graph,
    ring_graph,
)
from repro.graphs import streaming
from repro.graphs.streaming import (
    csr_from_edges,
    gnp_compiled,
    gnp_edges,
    greedy_seed_coloring,
    grid_edges,
    inflated_seed_coloring,
    regular_edges,
    ring_edges,
    stream_gnp,
    stream_grid,
    stream_regular,
    stream_ring,
    stream_tree,
    tree_edges,
    _csr_fill_numpy,
    _csr_fill_python,
)
from repro.sim import CompiledNetwork, Network, arrays
from repro.sim.errors import NetworkError


def _csr_bytes(compiled: CompiledNetwork):
    return _pair_bytes((compiled.indptr, compiled.indices))


def _pair_bytes(csr):
    """``(indptr, indices)`` buffers as bytes."""
    return tuple(bytes(memoryview(buffer)) for buffer in csr)


# ----------------------------------------------------------------------
# Byte-identity against the materialized generators
# ----------------------------------------------------------------------
class TestDeterministicTwins:
    @pytest.mark.parametrize("n", [3, 4, 17, 100])
    def test_ring(self, n):
        assert _csr_bytes(stream_ring(n)) == \
            _csr_bytes(ring_graph(n).compile())

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (4, 4), (5, 7)])
    def test_grid(self, rows, cols):
        assert _csr_bytes(stream_grid(rows, cols)) == \
            _csr_bytes(grid_graph(rows, cols).compile())

    @pytest.mark.parametrize("depth", [0, 1, 4, 6])
    def test_tree(self, depth):
        assert _csr_bytes(stream_tree(depth)) == \
            _csr_bytes(binary_tree(depth).compile())

    def test_dense_order_matches(self):
        compiled = stream_ring(12)
        assert list(compiled.order) == list(range(12))
        materialized = ring_graph(12).compile()
        assert list(compiled.order) == list(materialized.order)


class TestRandomizedStreams:
    """gnp/regular are distributions of their own; the CSR contract is
    byte-identity against ``Network.from_edges`` over the same stream."""

    @pytest.mark.parametrize("n,p,seed", [
        (60, 0.1, 7), (40, 0.5, 1), (25, 1.0, 0), (30, 0.0, 3), (0, 0.3, 5),
    ])
    def test_gnp_matches_from_edges(self, n, p, seed):
        stream = list(gnp_edges(n, p, seed))
        materialized = Network.from_edges(range(n), stream).compile()
        assert _csr_bytes(stream_gnp(n, p, seed)) == _csr_bytes(materialized)

    @pytest.mark.parametrize("n", [0, 1, 2, 300, 2000])
    @pytest.mark.parametrize("p", [1e-12, 0.002, 0.15, 0.999, 1.0])
    def test_gnp_block_fills_stream_bytes(self, n, p):
        np = pytest.importorskip("numpy")
        want = csr_from_edges(n, gnp_edges(n, p, n + 1))
        got = csr_from_edges(n, streaming._gnp_block(np, n, p, n + 1))
        assert _pair_bytes(got) == _pair_bytes(want)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 100])
    @pytest.mark.parametrize("n,p", [(2, 0.5), (50, 0.999), (300, 0.15)])
    def test_gnp_block_chunk_boundaries(self, monkeypatch, chunk, n, p):
        """Walks that need many chunks, ending anywhere inside one."""
        np = pytest.importorskip("numpy")
        monkeypatch.setattr(streaming, "_gnp_chunk", lambda expected: chunk)
        for seed in range(3):
            want = csr_from_edges(n, gnp_edges(n, p, seed))
            got = csr_from_edges(n, streaming._gnp_block(np, n, p, seed))
            assert _pair_bytes(got) == _pair_bytes(want), seed

    def test_gnp_block_fails_as_the_stream_does(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(NetworkError, match="non-negative"):
            streaming._gnp_block(np, -1, 0.5, 0)

    @pytest.mark.parametrize("p", [1e-17, 5e-324, 1e-300])
    def test_gnp_below_float_resolution_is_edgeless(self, p):
        """``1 - p`` rounds to 1.0, so ``log(1 - p)`` is 0: every gap
        is infinite and the stream, the block and ``stream_gnp`` all
        give the edgeless graph."""
        assert list(gnp_edges(50, p, 0)) == []
        assert stream_gnp(50, p, 0).edge_count() == 0
        np = arrays.get_numpy()
        if np is not None:
            assert streaming._gnp_block(np, 50, p, 0).shape == (0, 2)

    def test_stream_gnp_takes_the_block_with_numpy(self, monkeypatch):
        pytest.importorskip("numpy")
        blocks = []
        original = streaming._gnp_block

        def spy(*args):
            blocks.append(args[1:])
            return original(*args)

        monkeypatch.setattr(streaming, "_gnp_block", spy)
        previous = arrays.set_arrays_override(True)
        try:
            compiled = stream_gnp(310, 0.05, 12345)
        finally:
            arrays.set_arrays_override(previous)
        assert blocks == [(310, 0.05, 12345)]
        stream = list(gnp_edges(310, 0.05, 12345))
        materialized = Network.from_edges(range(310), stream).compile()
        assert _csr_bytes(compiled) == _csr_bytes(materialized)

    @pytest.mark.parametrize("n,degree,seed", [
        (40, 4, 3), (20, 3, 9), (12, 0, 1),
    ])
    def test_regular_matches_from_edges(self, n, degree, seed):
        stream = list(regular_edges(n, degree, seed))
        materialized = Network.from_edges(range(n), stream).compile()
        assert _csr_bytes(stream_regular(n, degree, seed)) == \
            _csr_bytes(materialized)

    def test_regular_is_regular_and_simple(self):
        stream = list(regular_edges(50, 4, 11))
        assert len(stream) == 50 * 4 // 2
        assert len({tuple(sorted(edge)) for edge in stream}) == len(stream)
        degrees = [0] * 50
        for u, v in stream:
            assert u != v
            degrees[u] += 1
            degrees[v] += 1
        assert set(degrees) == {4}

    def test_gnp_is_seeded(self):
        assert list(gnp_edges(50, 0.2, 3)) == list(gnp_edges(50, 0.2, 3))
        assert list(gnp_edges(50, 0.2, 3)) != list(gnp_edges(50, 0.2, 4))


class TestGnpCompiled:
    """``gnp_compiled`` replays ``gnp_graph``'s one draw per pair from
    bulk Mersenne Twister words; its CSR must equal
    ``gnp_graph(...).compile()`` byte for byte, on either backend."""

    CASES = [
        *((n, p, seed) for n in (0, 1, 2) for p in (0.0, 0.5, 1.0)
          for seed in (0, 7)),
        (3, 0.5, 1), (40, 0.0, 2), (40, 1.0, 2), (60, 0.3, 5),
        (300, 0.2, 5), (700, 0.01, 9),
    ]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_matches_materialized_bytes(self, enabled):
        if enabled:
            pytest.importorskip("numpy")
        previous = arrays.set_arrays_override(enabled)
        try:
            for n, p, seed in self.CASES:
                got = gnp_compiled(n, p, seed)
                want = gnp_graph(n, p, seed).compile()
                assert _csr_bytes(got) == _csr_bytes(want), (n, p, seed)
                assert list(got.order) == list(want.order)
        finally:
            arrays.set_arrays_override(previous)

    def test_chunks_replay_one_stream(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setattr(streaming, "_GNP_PAIR_CHUNK", 7)
        previous = arrays.set_arrays_override(True)
        try:
            got = gnp_compiled(90, 0.1, 3)
        finally:
            arrays.set_arrays_override(previous)
        assert _csr_bytes(got) == _csr_bytes(gnp_graph(90, 0.1, 3).compile())


def _pair_block(np, edges):
    """An edge stream as the int64 ``(m, 2)`` array it would fill."""
    flat = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64)
    return flat.reshape(-1, 2)


def _perturbed_log(direction):
    """A ``_bulk_log`` one ulp off ``np.log``, towards ``direction``."""
    def log(np, values):
        return np.nextafter(np.log(values), direction)
    return log


class TestGnpBulkDraws:
    """``_gnp_block`` replays ``gnp_edges``'s ``random()`` stream from
    bulk Mersenne Twister words and takes its logs with ``np.log``; the
    block must still equal the pair stream edge for edge."""

    @pytest.mark.parametrize("n,p,seed", [
        (4000, 0.15, 1),
        *((300, p, 4) for p in (1e-17, 1e-12, 0.5, 0.999, 1.0)),
        *((n, 0.5, seed) for n in (0, 1, 2, 3) for seed in range(4)),
        (2000, 4 / 1999, 3),
    ])
    def test_block_equals_pair_stream(self, n, p, seed):
        np = pytest.importorskip("numpy")
        got = streaming._gnp_block(np, n, p, seed)
        assert got.dtype == np.int64 and got.shape[1:] == (2,)
        assert np.array_equal(got, _pair_block(np, gnp_edges(n, p, seed)))

    def test_mt_doubles_replay_random(self):
        np = pytest.importorskip("numpy")
        for count in (0, 1, 7, arrays._MT_PIECE + 3):
            rng = random.Random(count)
            got = arrays.mt_doubles(np, rng, count)
            oracle = random.Random(count)
            assert got.tolist() == [oracle.random() for _ in range(count)]
            assert rng.random() == oracle.random()

    @pytest.mark.parametrize("direction", [0.0, -math.inf])
    def test_block_survives_a_one_ulp_log(self, monkeypatch, direction):
        np = pytest.importorskip("numpy")
        monkeypatch.setattr(streaming, "_bulk_log", _perturbed_log(direction))
        for n, p, seed in ((4000, 0.15, 1), (300, 0.5, 2), (60, 0.999, 3)):
            assert np.array_equal(streaming._gnp_block(np, n, p, seed),
                                  _pair_block(np, gnp_edges(n, p, seed)))

    @pytest.mark.parametrize("direction", [0.0, -math.inf])
    def test_gaps_repair_quotients_near_an_integer(self, monkeypatch,
                                                   direction):
        """Uniforms whose quotient ``log(1 - u) / log(1 - p)`` lies within
        an ulp of an integer: a one-ulp log moves some of their floors,
        and the gaps must still be ``math.log``'s."""
        np = pytest.importorskip("numpy")
        p, total = 0.3, 10
        log_skip = math.log(1.0 - p)
        uniforms = []
        for k in range(1, 12):
            grid = round((1.0 - p) ** k * 2.0 ** 53)
            uniforms += [1.0 - (grid + i) * 2.0 ** -53 for i in range(-8, 9)]
        values = np.array(uniforms)
        want = [int(min(math.log(1.0 - u) / log_skip, total))
                for u in uniforms]
        perturbed = _perturbed_log(direction)(np, 1.0 - values) / log_skip
        moved = np.minimum(perturbed, total).astype(np.int64).tolist()
        assert moved != want  # the one-ulp log alone would move gaps
        monkeypatch.setattr(streaming, "_bulk_log", _perturbed_log(direction))
        monkeypatch.setattr(arrays, "mt_doubles",
                            lambda np, rng, count: values[:count].copy())
        gaps = streaming._gnp_gaps(np, None, len(uniforms), log_skip, total)
        assert gaps.tolist() == want


class TestKeySortFill:
    """Blocks whose pairs have ``u < v`` and strictly increase take the
    key-sort fill; every other block keeps the stable fill.  Both give
    the pair stream's bytes."""

    @pytest.fixture(autouse=True)
    def _numpy_backend(self):
        pytest.importorskip("numpy")
        previous = arrays.set_arrays_override(True)
        yield
        arrays.set_arrays_override(previous)

    @staticmethod
    def _fill_paths(monkeypatch):
        taken = []
        original = streaming._csr_fill_sorted

        def spy(*args):
            taken.append("sorted")
            return original(*args)

        monkeypatch.setattr(streaming, "_csr_fill_sorted", spy)
        return taken

    @pytest.mark.parametrize("n,block,stream", [
        (300, lambda np: streaming._gnp_block(np, 300, 0.15, 1),
         lambda: gnp_edges(300, 0.15, 1)),
        (4000, lambda np: streaming._gnp_block(np, 4000, 4 / 3999, 2),
         lambda: gnp_edges(4000, 4 / 3999, 2)),
        (40, lambda np: streaming._gnp_block(np, 40, 1.0, 0),
         lambda: gnp_edges(40, 1.0, 0)),
        (63 * 65, lambda np: streaming._grid_block(np, 63, 65),
         lambda: grid_edges(63, 65)),
        (7, lambda np: streaming._grid_block(np, 7, 1),
         lambda: grid_edges(7, 1)),
    ], ids=["gnp-dense", "gnp-sparse", "gnp-complete", "grid", "grid7x1"])
    def test_lexicographic_blocks_take_the_key_sort(self, monkeypatch, n,
                                                    block, stream):
        np = pytest.importorskip("numpy")
        edges = block(np)
        taken = self._fill_paths(monkeypatch)
        got = csr_from_edges(n, edges)
        assert taken == ["sorted"]
        checked = streaming._checked_block(np, n, edges)
        assert _pair_bytes(got) == _pair_bytes(
            _csr_fill_numpy(np, n, checked))
        assert _pair_bytes(got) == _pair_bytes(
            csr_from_edges(n, stream()))

    @pytest.mark.parametrize("n,edges", [
        (50, lambda np: np.array(list(ring_edges(50)), dtype=np.int64)),
        (2 ** 7 - 1, lambda np: streaming._tree_block(np, 6)),
        (300, lambda np: np.random.default_rng(5).permutation(
            streaming._gnp_block(np, 300, 0.1, 5))),
        (5, lambda np: np.array([[0, 1], [0, 1], [1, 2]])),
        (5, lambda np: np.array([[0, 1], [2, 1]])),
    ], ids=["ring", "tree", "shuffled", "duplicate", "descending-pair"])
    def test_other_blocks_keep_the_stable_fill(self, monkeypatch, n, edges):
        np = pytest.importorskip("numpy")
        block = edges(np)
        taken = self._fill_paths(monkeypatch)
        got = csr_from_edges(n, block)
        assert taken == []
        pairs = array("q", block.reshape(-1).tolist())
        assert _pair_bytes(got) == _pair_bytes(_csr_fill_python(n, pairs))

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1), (1, 1)], "self-loops are not allowed"),
        ([(0, 1), (1, 3), (2, 2)], "edge endpoint out of range"),
        ([(0, 1), (2, 2), (1, 3)], "self-loops are not allowed"),
        ([(-1, 2)], "edge endpoint out of range"),
    ])
    def test_block_errors_keep_their_text(self, pairs, message):
        np = pytest.importorskip("numpy")
        for edges in (iter(pairs), np.array(pairs, dtype=np.int64)):
            with pytest.raises(NetworkError) as raised:
                csr_from_edges(3, edges)
            assert str(raised.value) == message


class TestCSRFills:
    def test_numpy_fill_matches_python(self):
        numpy = pytest.importorskip("numpy")
        for n, p, seed in [(300, 0.05, 5), (50, 0.4, 2), (10, 0.0, 1)]:
            pairs = array("q")
            for u, v in gnp_edges(n, p, seed):
                pairs.append(u)
                pairs.append(v)
            py_indptr, py_indices = _csr_fill_python(n, pairs)
            np_indptr, np_indices = _csr_fill_numpy(numpy, n, pairs)
            assert bytes(memoryview(py_indptr)) == \
                bytes(memoryview(np_indptr))
            assert bytes(memoryview(py_indices)) == \
                bytes(memoryview(np_indices))

    def test_empty_graph(self):
        indptr, indices = csr_from_edges(5, iter(()))
        assert list(indptr) == [0] * 6
        assert len(indices) == 0
        indptr, indices = csr_from_edges(0, iter(()))
        assert list(indptr) == [0]


class TestErrors:
    def test_ring_too_small(self):
        with pytest.raises(NetworkError):
            list(ring_edges(2))

    def test_self_loop_rejected(self):
        with pytest.raises(NetworkError):
            csr_from_edges(3, iter([(1, 1)]))

    def test_out_of_range_rejected(self):
        with pytest.raises(NetworkError):
            csr_from_edges(3, iter([(0, 3)]))
        with pytest.raises(NetworkError):
            csr_from_edges(3, iter([(-1, 0)]))

    def test_gnp_probability_range(self):
        with pytest.raises(NetworkError):
            list(gnp_edges(5, 1.5, 0))
        with pytest.raises(NetworkError):
            stream_gnp(5, -0.1, 0)

    def test_regular_parity_and_degree(self):
        with pytest.raises(NetworkError):
            list(regular_edges(5, 3, 0))  # odd n * degree
        with pytest.raises(NetworkError):
            list(regular_edges(4, 4, 0))  # degree >= n
        with pytest.raises(NetworkError):
            stream_regular(4, 5, 0)


# ----------------------------------------------------------------------
# Shared-memory lookup
# ----------------------------------------------------------------------
class TestInterning:
    def test_published_topology_wins(self):
        from repro.sim import shm

        key = ("ring-stream", 23)
        indptr, indices = csr_from_edges(23, ring_edges(23))
        published = CompiledNetwork.from_csr(indptr, indices)
        if shm.publish(key, published) is None:
            pytest.skip("shared memory unusable here")
        try:
            assert stream_ring(23) is published
        finally:
            shm.unlink_all()


# ----------------------------------------------------------------------
# Seed colorings
# ----------------------------------------------------------------------
class TestSeedColorings:
    def _assert_proper(self, compiled, colors):
        indptr, indices = compiled.indptr, compiled.indices
        for i in range(compiled.n):
            for j in indices[indptr[i]:indptr[i + 1]]:
                assert colors[i] != colors[j]

    @pytest.mark.parametrize("builder", [
        lambda: stream_ring(31),
        lambda: stream_gnp(80, 0.1, 5),
        lambda: stream_regular(30, 4, 2),
    ])
    def test_greedy_seed_is_proper_and_small(self, builder):
        compiled = builder()
        seed = greedy_seed_coloring(compiled)
        self._assert_proper(compiled, seed)
        assert max(seed) <= compiled.raw_max_degree()

    def test_inflated_is_proper_within_palette(self):
        compiled = stream_gnp(60, 0.15, 9)
        column, q_used = inflated_seed_coloring(compiled, 40)
        assert q_used <= 40
        assert len(column) == compiled.n
        assert all(0 <= color < q_used for color in column)
        self._assert_proper(compiled, column)

    def test_inflated_rejects_tiny_palette(self):
        compiled = stream_gnp(60, 0.3, 1)
        seed = greedy_seed_coloring(compiled)
        classes = max(seed) + 1
        with pytest.raises(NetworkError):
            inflated_seed_coloring(compiled, classes - 1)

    def test_matches_scheduler_engines(self):
        """The streamed facade feeds both engines identically."""
        from repro.sim import CostLedger, use_engine
        from repro.substrates.greedy import greedy_color_reduction

        compiled = stream_gnp(70, 0.12, 3)
        target = compiled.raw_max_degree() + 1
        colors, q = inflated_seed_coloring(compiled, 4 * target)
        results = {}
        for engine in ("reference", "vectorized"):
            ledger = CostLedger()
            with use_engine(engine):
                out = greedy_color_reduction(compiled, colors, q, target,
                                             ledger=ledger)
            results[engine] = (list(out),
                               (ledger.rounds, ledger.messages, ledger.bits))
        assert results["reference"] == results["vectorized"]
