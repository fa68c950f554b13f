"""The optional NumPy kernel backend: selection, helpers, equivalence.

The array backend must be *transparent*: with NumPy present the
kernels batch their per-round numeric work, without it (or with
``REPRO_SIM_ARRAYS=0``) they keep their pure-Python columns, and the
results -- outputs, ledgers, exceptions, kernel stats -- are
bit-identical either way.  These tests pin the selection rules, the
numeric helpers against their scalar oracles (including the int64
overflow guard), and the end-to-end equivalence of both backends.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.graphs import binary_tree, gnp_graph, orient_by_id, sequential_ids
from repro.coloring import OLDCInstance, random_oldc_instance
from repro.core import two_sweep
from repro.obs import reset_metrics
from repro.sim import CostLedger, use_engine
from repro.sim import arrays
from repro.sim.errors import AlgorithmFailure
from repro.sim.kernels import kernel_stats
from repro.substrates import linial_coloring
from repro.substrates.cover_free import shared_family

numpy = pytest.importorskip("numpy")


@pytest.fixture
def force_arrays(monkeypatch):
    """Pin the NumPy backend on and drop the size thresholds."""
    monkeypatch.setattr(arrays, "MIN_BATCH", 0)
    previous = arrays.set_arrays_override(True)
    yield
    arrays.set_arrays_override(previous)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv(arrays.ARRAYS_ENV, "0")
        assert arrays.get_numpy() is None
        assert not arrays.arrays_enabled()
        assert arrays.backend_name() == "python"
        assert arrays.numpy_version() is None

    def test_env_default_enables(self, monkeypatch):
        monkeypatch.delenv(arrays.ARRAYS_ENV, raising=False)
        assert arrays.get_numpy() is numpy
        assert arrays.backend_name() == "numpy"
        assert arrays.numpy_version() == numpy.__version__

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.delenv(arrays.ARRAYS_ENV, raising=False)
        previous = arrays.set_arrays_override(False)
        try:
            assert arrays.get_numpy() is None
            # ...and the override wins over an enabling env too.
            monkeypatch.setenv(arrays.ARRAYS_ENV, "1")
            assert not arrays.arrays_enabled()
            arrays.set_arrays_override(True)
            monkeypatch.setenv(arrays.ARRAYS_ENV, "0")
            assert arrays.arrays_enabled()
        finally:
            arrays.set_arrays_override(previous)

    def test_missing_numpy_falls_back(self, monkeypatch):
        """Simulated absent NumPy: selection degrades, nothing raises."""
        monkeypatch.setattr(arrays, "_numpy_module", arrays._UNSET)
        monkeypatch.setitem(sys.modules, "numpy", None)
        try:
            assert arrays.get_numpy() is None
            assert arrays.backend_name() == "python"
            assert arrays.numpy_version() is None
            # The whole protocol path still runs on Python columns.
            network = binary_tree(5)
            with use_engine("vectorized"):
                colors, palette = linial_coloring(
                    network, sequential_ids(network), len(network)
                )
            assert len(colors) == len(network)
        finally:
            arrays._reset_import_cache()

    def test_worker_init_applies_override(self):
        from repro.sim.parallel import _init_worker

        before = arrays.arrays_enabled()
        _init_worker(None, False)
        try:
            assert not arrays.arrays_enabled()
        finally:
            arrays.set_arrays_override(None)
        assert arrays.arrays_enabled() == before


# ----------------------------------------------------------------------
# Numeric helpers vs their scalar oracles
# ----------------------------------------------------------------------
class TestHelpers:
    @pytest.mark.parametrize("q,m,k", [(127, 13, 2), (64, 7, 3), (9, 3, 1)])
    def test_batched_horner_matches_family(self, q, m, k):
        family = shared_family(q, m, k)
        table = arrays.batched_horner(
            numpy, numpy.arange(q, dtype=numpy.int64), m, k
        )
        for index in range(q):
            assert table[index].tolist() == [
                family.evaluate(index, x) for x in range(m)
            ]

    def test_horner_near_int64_boundary(self):
        """A field size at the MAX_FIELD guard: no silent overflow.

        ``m`` close to ``2**31`` drives the Horner accumulator to
        ``~m**2 < 2**62``; the batched rows must still equal exact
        Python big-int arithmetic.
        """
        m = (1 << 31) - 1  # Mersenne prime 2^31 - 1
        k = 2
        assert arrays.field_fits(m, m)
        indices = [0, 1, m - 1, m, m * m - 1, m ** 2 + m + 1]
        coeffs = arrays.coefficient_matrix(
            numpy, numpy.asarray(indices, dtype=numpy.int64), m, k
        )
        points = [0, 1, 2, m // 2, m - 2, m - 1]
        for row, index in enumerate(indices):
            expected_digits = [(index // m ** j) % m for j in range(k + 1)]
            assert coeffs[row].tolist() == expected_digits
            for x in points:
                acc = 0
                for j in range(k, -1, -1):
                    acc = (acc * x + expected_digits[j]) % m
                # Evaluate via the same int64 Horner the kernel uses.
                val = numpy.int64(0)
                for j in range(k, -1, -1):
                    val = (val * x + coeffs[row, j]) % m
                assert int(val) == acc, (index, x)

    def test_field_fits_rejects_oversized(self):
        assert not arrays.field_fits(arrays.MAX_FIELD + 1, 10)
        assert not arrays.field_fits(10, arrays.MAX_COLOR + 1)
        assert arrays.field_fits(arrays.MAX_FIELD, arrays.MAX_COLOR)
        assert not arrays.field_fits(1, 10)

    @pytest.mark.parametrize("seed", range(4))
    def test_mex_below_matches_scalar(self, seed):
        """Batched per-row mex (one table for all rows) == scalar mex."""
        rng = random.Random(100 + seed)
        for _ in range(25):
            limit = rng.randint(1, 30)
            # Row r's neighbors are CSR entries pointing into ``colors``.
            colors = [rng.randint(-5, 35) for _ in range(40)]
            lengths = [rng.randint(0, 25) for _ in range(rng.randint(1, 6))]
            indptr = [0]
            indices = []
            for length in lengths:
                indices.extend(rng.randrange(40) for _ in range(length))
                indptr.append(len(indices))
            rows = rng.sample(range(len(lengths)), rng.randint(1, len(lengths)))
            got = arrays.mex_below_rows(
                numpy, numpy.asarray(indptr, dtype=numpy.int64),
                numpy.asarray(indices, dtype=numpy.int64),
                numpy.asarray(colors, dtype=numpy.int64),
                numpy.asarray(rows, dtype=numpy.int64), limit,
            ).tolist()
            for row, value in zip(rows, got):
                used = {colors[j] for j in indices[indptr[row]:indptr[row + 1]]}
                expected = 0
                while expected in used:
                    expected += 1
                assert value == min(expected, limit), (row, limit)


# ----------------------------------------------------------------------
# End-to-end: both backends are bit-identical, and stats say which ran
# ----------------------------------------------------------------------
def _run_linial(network):
    ledger = CostLedger()
    with use_engine("vectorized"):
        colors, palette = linial_coloring(
            network, sequential_ids(network), len(network), ledger=ledger
        )
    return colors, palette, (ledger.rounds, ledger.messages, ledger.bits,
                             ledger.max_message_bits, ledger.broadcasts)


def test_backend_stats_and_equivalence(force_arrays):
    network = binary_tree(7)
    reset_metrics()
    with_numpy = _run_linial(network)
    stats = kernel_stats()
    assert stats["by_backend"].get("AlgebraicRecoloringKernel[numpy]")
    assert stats["by_kernel"].get("AlgebraicRecoloringKernel")

    arrays.set_arrays_override(False)
    reset_metrics()
    without = _run_linial(network)
    stats = kernel_stats()
    assert stats["by_backend"].get("AlgebraicRecoloringKernel[python]")
    assert "AlgebraicRecoloringKernel[numpy]" not in stats["by_backend"]
    assert with_numpy == without


def test_failure_messages_identical_across_backends(force_arrays):
    """A genuinely stuck node raises the same error on both backends."""
    network = gnp_graph(40, 0.3, seed=2)
    graph = orient_by_id(network)
    drawn = random_oldc_instance(graph, p=2, seed=17)
    # Sabotage every list and defect so Eq. (2) fails at run time.
    instance = OLDCInstance(
        graph,
        {node: drawn.lists[node][:1] for node in drawn.lists},
        {node: {drawn.lists[node][0]: 0} for node in drawn.lists},
        drawn.color_space_size,
    )
    errors = {}
    for enabled in (True, False):
        arrays.set_arrays_override(enabled)
        with use_engine("vectorized"):
            with pytest.raises(AlgorithmFailure) as info:
                two_sweep(
                    instance, sequential_ids(network), len(network), 2,
                    check=False,
                )
        errors[enabled] = str(info.value)
    assert errors[True] == errors[False]
