"""Chunked kernel execution: a memory knob that is never a semantics knob.

``REPRO_SIM_CHUNK`` bounds how many nodes the algebraic kernel's array
path materializes per round; every chunk granularity (including
degenerate ones) must be bit-identical to the unchunked run on every
engine and both backends -- outputs, palettes, and ledger streams.  The
per-chunk allocation gate is what lets populations whose *total* match
matrix would be oversized keep the array path: that switch is pinned
via the kernel stats backend counters.
"""

from __future__ import annotations

import pytest

from repro.graphs import gnp_graph, sequential_ids
from repro.obs import reset_metrics
from repro.sim import CostLedger, use_engine
from repro.sim import arrays
from repro.sim.kernels import kernel_stats
from repro.substrates import linial_coloring


class TestChunkKnob:
    @pytest.mark.parametrize("value,expected", [
        (None, 0), ("", 0), ("0", 0), ("-3", 0), ("abc", 0),
        ("7", 7), ("125000", 125000),
    ])
    def test_chunk_size_parsing(self, monkeypatch, value, expected):
        if value is None:
            monkeypatch.delenv(arrays.CHUNK_ENV, raising=False)
        else:
            monkeypatch.setenv(arrays.CHUNK_ENV, value)
        assert arrays.chunk_size() == expected

    def test_iter_chunks_covers_range(self):
        assert list(arrays.iter_chunks(10, 4)) == [(0, 4), (4, 8), (8, 10)]
        assert list(arrays.iter_chunks(10, 0)) == [(0, 10)]
        assert list(arrays.iter_chunks(10, 100)) == [(0, 10)]
        assert list(arrays.iter_chunks(0, 4)) == []

    def test_iter_chunks_partitions(self):
        for total, chunk in [(17, 1), (17, 5), (17, 17), (1, 3)]:
            spans = list(arrays.iter_chunks(total, chunk))
            assert spans[0][0] == 0
            assert spans[-1][1] == total
            for (_, hi), (lo, _) in zip(spans, spans[1:]):
                assert hi == lo


# ----------------------------------------------------------------------
# Bit-identity: every chunk granularity equals the unchunked run
# ----------------------------------------------------------------------
def _run_linial(network, engine):
    ledger = CostLedger()
    with use_engine(engine):
        colors, palette = linial_coloring(
            network, sequential_ids(network), len(network), ledger=ledger
        )
    return (sorted(colors.items()), palette,
            (ledger.rounds, ledger.messages, ledger.bits,
             ledger.max_message_bits, ledger.broadcasts))


class TestBitIdentity:
    @pytest.fixture
    def network(self):
        return gnp_graph(90, 0.08, seed=21)

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_chunked_equals_unchunked(self, monkeypatch, network, engine):
        monkeypatch.delenv(arrays.CHUNK_ENV, raising=False)
        baseline = _run_linial(network, engine)
        for chunk in ("1", "7", "32", "1000000"):
            monkeypatch.setenv(arrays.CHUNK_ENV, chunk)
            assert _run_linial(network, engine) == baseline, \
                f"{engine} diverged at chunk={chunk}"

    def test_chunked_equals_unchunked_both_backends(self, monkeypatch,
                                                    network):
        pytest.importorskip("numpy")
        monkeypatch.setattr(arrays, "MIN_BATCH", 0)
        results = []
        previous = arrays.set_arrays_override(None)
        try:
            for enabled in (True, False):
                arrays.set_arrays_override(enabled)
                monkeypatch.delenv(arrays.CHUNK_ENV, raising=False)
                results.append(_run_linial(network, "vectorized"))
                monkeypatch.setenv(arrays.CHUNK_ENV, "13")
                results.append(_run_linial(network, "vectorized"))
        finally:
            arrays.set_arrays_override(previous)
        assert all(entry == results[0] for entry in results[1:])

    def test_engines_agree_under_chunking(self, monkeypatch, network):
        monkeypatch.setenv(arrays.CHUNK_ENV, "11")
        runs = {engine: _run_linial(network, engine)
                for engine in ("reference", "vectorized")}
        assert runs["reference"] == runs["vectorized"]


# ----------------------------------------------------------------------
# Per-chunk allocation gating
# ----------------------------------------------------------------------
class TestPerChunkGating:
    """Chunking gates the match-matrix guard on the widest *chunk*."""

    @pytest.fixture
    def force_arrays(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setattr(arrays, "MIN_BATCH", 0)
        previous = arrays.set_arrays_override(True)
        yield
        arrays.set_arrays_override(previous)

    def test_chunking_rescues_the_array_path(self, monkeypatch,
                                             force_arrays):
        from repro.substrates.algebraic import run_recoloring
        from repro.substrates.cover_free import proper_schedule

        network = gnp_graph(70, 0.1, seed=5)
        compiled = network.compile()
        delta = network.raw_max_degree()
        schedule = proper_schedule(4096, delta)
        max_m = max(step.m for step in schedule)
        total_edges = len(compiled.indices)
        # Between the widest single-node chunk and the whole relation:
        # unchunked runs must decline the array path, chunk=1 runs keep
        # it because only one node's row is ever materialized.
        threshold = delta * max_m
        assert threshold < total_edges * max_m
        monkeypatch.setattr(arrays, "MAX_MATCH_ELEMENTS", threshold)

        ids = sequential_ids(network)
        initial = {node: ids[node] for node in network}
        relevant = {node: frozenset(network.neighbors(node))
                    for node in network}

        def run():
            ledger = CostLedger()
            with use_engine("vectorized"):
                colors, palette = run_recoloring(
                    network, initial, schedule, relevant, ledger=ledger
                )
            return sorted(colors.items()), palette, ledger.rounds

        monkeypatch.delenv(arrays.CHUNK_ENV, raising=False)
        reset_metrics()
        unchunked = run()
        stats = kernel_stats()
        assert stats["by_backend"].get("AlgebraicRecoloringKernel[python]")
        assert not stats["by_backend"].get(
            "AlgebraicRecoloringKernel[numpy]")

        monkeypatch.setenv(arrays.CHUNK_ENV, "1")
        reset_metrics()
        chunked = run()
        stats = kernel_stats()
        assert stats["by_backend"].get("AlgebraicRecoloringKernel[numpy]")

        assert chunked == unchunked
