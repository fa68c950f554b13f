"""Seeded differential test: the columns entry against the reference.

The color reduction's vectorized path runs straight from dense-id color
columns (:func:`repro.sim.scheduler.run_columns`) with a whole-bucket batched mex,
never building a program object.  The reference engine running the
``_ColorReductionProgram`` population stays the oracle.  Each case draws
a topology (ring/grid/tree/gnp/regular streams, or a ``Network`` whose
nodes are not ints), a palette (proper or improper, negative colors,
colors past ``q``, bools, colors above ``MAX_COLOR``), ``q``/``target``
(including infeasible targets), a bandwidth model that trips on chosen
senders, the array backend on/off, ``REPRO_SIM_CHUNK`` and the batching
thresholds -- and asserts identical outputs, exception type and text,
ledger (at failure too) and canonical logical trace.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs.streaming import (
    stream_gnp,
    stream_grid,
    stream_regular,
    stream_ring,
    stream_tree,
)
from repro.obs import Tracer, canonical_lines, use_tracer
from repro.sim import (
    BandwidthExceeded,
    BandwidthModel,
    CostLedger,
    LocalModel,
    Network,
    arrays,
    kernel_stats,
    run_protocol,
    use_engine,
)
from repro.sim.kernels import ColumnInputs, RoundKernel, register_kernel
from repro.sim.scheduler import run_columns
from repro.substrates import greedy as greedy_module
from repro.substrates.greedy import (
    _ColorReductionProgram,
    greedy_color_reduction,
)

#: Cases per seed; with eight seeds the whole file runs in about two seconds.
CASES = 12


class TrippingModel(BandwidthModel):
    """Rejects any message from ``senders`` carrying one of ``payloads``
    -- a payload-dependent budget, so a decider round can fail on
    bandwidth before or after another decider's AlgorithmFailure, and a
    failing decider's own (never sent) color would trip it."""

    name = "TRIP"

    def __init__(self, senders, payloads):
        self.senders = frozenset(senders)
        self.payloads = frozenset(payloads)

    def check(self, message):
        if (message.sender in self.senders
                and message.payload in self.payloads):
            raise BandwidthExceeded(0, 0, message.sender, message.receiver)

    def budget_bits(self):
        return None


def _topology(rng):
    kind = rng.choice(["ring", "grid", "tree", "gnp", "regular", "named"])
    if kind == "ring":
        return stream_ring(rng.randint(3, 60))
    if kind == "grid":
        return stream_grid(rng.randint(1, 7), rng.randint(2, 7))
    if kind == "tree":
        return stream_tree(rng.randint(1, 5))
    if kind == "gnp":
        return stream_gnp(rng.randint(5, 50), rng.choice([0.1, 0.3, 0.6]),
                          rng.randrange(1000))
    if kind == "regular":
        n = rng.randrange(6, 40, 2)
        return stream_regular(n, rng.choice([3, 4]), rng.randrange(1000))
    # A plain Network of non-int nodes, in shuffled insertion order.
    n = rng.randint(2, 40)
    names = [("v", i) if i % 2 else f"node-{i}" for i in range(n)]
    rng.shuffle(names)
    edges = {tuple(sorted(rng.sample(range(n), 2)))
             for _ in range(rng.randint(0, 3 * n))}
    return Network.from_edges(names, [(names[u], names[v])
                                      for u, v in edges])


def _palette(rng, order, compiled, q, target):
    n = len(order)
    kind = rng.choice(["proper", "improper", "wild", "huge", "bools"])
    if kind == "proper":
        # First-fit greedy classes: proper, though not always below q.
        colors = [0] * n
        for i in range(n):
            row = compiled.indices[compiled.indptr[i]:compiled.indptr[i + 1]]
            used = {colors[j] for j in row if j < i}
            colors[i] = min(set(range(len(used) + 1)) - used)
        return colors
    if kind == "improper":
        return [rng.randrange(max(q, 1)) for _ in range(n)]
    if kind == "wild":
        return [rng.randint(-3, q + 3) for _ in range(n)]
    if kind == "huge":
        colors = [rng.randrange(max(q, 1)) for _ in range(n)]
        for i in rng.sample(range(n), max(1, n // 5)):
            colors[i] = arrays.MAX_COLOR + rng.randint(1, 3)
        return colors
    return [rng.choice([True, False, 0, 1, 2, target])
            for _ in range(n)]


def _ledger_state(ledger):
    return (ledger.rounds, ledger.messages, ledger.bits,
            ledger.max_message_bits, ledger.broadcasts)


def _outcome(run):
    """``(outputs, error, ledger, logical trace)`` of one engine run."""
    ledger = CostLedger()
    tracer = Tracer()
    outputs = error = None
    with use_tracer(tracer):
        try:
            # repr: a bool color must not pass for the int it equals.
            outputs = repr(list(run(ledger).items()))
        except Exception as exc:  # compared by type and text below
            error = (type(exc).__name__, str(exc))
    return outputs, error, _ledger_state(ledger), \
        canonical_lines(tracer.events)


@pytest.mark.parametrize("seed", range(8))
def test_columns_entry_matches_reference(seed, monkeypatch):
    rng = random.Random(7000 + seed)
    monkeypatch.setattr(arrays, "MIN_BATCH", 0)
    built = []
    original_init = _ColorReductionProgram.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(_ColorReductionProgram, "__init__", counting_init)
    for case in range(CASES):
        network = _topology(rng)
        compiled = network.compile()
        order = list(compiled.order)
        delta = compiled.raw_max_degree()
        # Feasible targets are >= Delta + 1; smaller ones must fail
        # identically (AlgorithmFailure text, ledger at failure).
        target = rng.choice([delta + 1, delta + 2, max(1, delta // 2), 1])
        q = target + rng.randint(1, 12)
        colors = _palette(rng, order, compiled, q, target)
        if rng.random() < 0.4:
            tripped = rng.sample(order, max(1, len(order) // rng.choice(
                [1, 2, 6])))
            payloads = set(rng.sample(range(target + 3), rng.randint(1, 3)))
            if rng.random() < 0.5:  # trip in decider rounds only
                payloads -= {colors[order.index(node)] for node in tripped}
            bandwidth = TrippingModel(tripped, payloads)
        else:
            bandwidth = LocalModel()
        monkeypatch.setenv(arrays.ARRAYS_ENV, rng.choice(["0", "1"]))
        chunk = rng.choice(["", "1", "3", "7"])
        monkeypatch.setenv(arrays.CHUNK_ENV, chunk)
        monkeypatch.setattr(arrays, "MIN_TALLY", rng.choice([0, 6, 512]))
        monkeypatch.setattr(arrays, "MAX_MATCH_ELEMENTS",
                            rng.choice([1 << 25, 2 * (target + 1),
                                        target]))

        def build():
            return {node: _ColorReductionProgram(node, colors[i], q, target)
                    for i, node in enumerate(order)}

        def reference(ledger):
            outputs, _ = run_protocol(network, build(), bandwidth=bandwidth,
                                      ledger=ledger, engine="reference")
            return outputs

        def columns(ledger):
            inputs = ColumnInputs(
                _ColorReductionProgram,
                {"colors": list(colors), "q": q, "target": target}, build,
            )
            outputs, _ = run_columns(network, inputs, bandwidth=bandwidth,
                                     ledger=ledger, engine="vectorized")
            return outputs

        want = _outcome(reference)
        del built[:]
        hits = kernel_stats()["hits"]
        got = _outcome(columns)
        context = (seed, case, len(order), q, target, chunk)
        assert got == want, context
        # The kernel ran from columns: not one program object was built.
        assert kernel_stats()["hits"] == hits + 1, context
        assert not built, context


@pytest.mark.parametrize("seed", range(4))
def test_greedy_color_reduction_vectorized_matches_reference(seed,
                                                             monkeypatch):
    """The public entry: node-keyed dicts, phases and traces agree."""
    rng = random.Random(9100 + seed)
    monkeypatch.setattr(arrays, "MIN_BATCH", 0)
    for case in range(CASES):
        network = _topology(rng)
        compiled = network.compile()
        order = list(compiled.order)
        target = compiled.raw_max_degree() + 1 + rng.randint(0, 2)
        q = target + rng.randint(0, 10)
        seed_colors = _palette(rng, order, compiled, q, target)
        colors = dict(zip(order, seed_colors))
        monkeypatch.setenv(arrays.ARRAYS_ENV, rng.choice(["0", "1"]))
        monkeypatch.setattr(arrays, "MIN_TALLY", rng.choice([0, 512]))

        def run(engine):
            def call(ledger):
                with use_engine(engine):
                    return greedy_color_reduction(network, colors, q,
                                                  target, ledger=ledger)
            return call

        want = _outcome(run("reference"))
        got = _outcome(run("vectorized"))
        assert got == want, (seed, case)


def test_shard_spec_and_kernel_share_the_extractor():
    """Both gates decline exactly what the one extractor declines."""
    network = stream_ring(40)
    compiled = network.compile()
    programs = [_ColorReductionProgram(i, i % 5, 5, 3) for i in range(40)]
    assert greedy_module._reduction_columns(programs) == (
        [i % 5 for i in range(40)], 5, 3)
    programs[7].neighbor_colors[6] = 1  # mid-run state
    assert greedy_module._reduction_columns(programs) is None
    assert greedy_module._color_reduction_shard_spec(
        compiled, programs, LocalModel()) is None
    assert greedy_module._ColorReductionKernel().prepare(
        compiled, programs, LocalModel()) is None


def test_columns_run_without_columns_constructor_falls_back():
    """A kernel lacking ``from_columns`` never sees the ColumnInputs:
    the run builds the programs and falls back with the same result."""

    class PlainKernel(RoundKernel):
        def prepare(self, compiled, programs, bandwidth):
            raise AssertionError("a columns run reached prepare")

        step = finalize = prepare

    network = stream_ring(30)
    colors = [i % 6 for i in range(30)]
    built = []

    def build_programs():
        built.append(True)
        return {i: _ColorReductionProgram(i, colors[i], 6, 3)
                for i in range(30)}

    want, _ = run_protocol(network, build_programs(), engine="reference")
    del built[:]
    register_kernel(_ColorReductionProgram, PlainKernel, replace=True)
    try:
        before = kernel_stats()["fallbacks"]
        inputs = ColumnInputs(_ColorReductionProgram,
                              {"colors": colors, "q": 6, "target": 3},
                              build_programs)
        got, _ = run_columns(network, inputs, engine="vectorized")
    finally:
        register_kernel(_ColorReductionProgram,
                        greedy_module._ColorReductionKernel, replace=True)
    assert got == want
    assert built == [True]
    assert kernel_stats()["fallbacks"] == before + 1
