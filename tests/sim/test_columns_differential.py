"""Seeded differential tests: the columns entry against the reference.

The color reduction's vectorized path runs straight from dense-id color
columns (:func:`repro.sim.scheduler.run_columns`), deciding every class
before round 1 (a batched mex for wide classes, a row mex for narrow
ones), never building a program object.  The reference engine running the
``_ColorReductionProgram`` population stays the oracle.  Each case draws
a topology (ring/grid/tree/gnp/regular streams, or a ``Network`` whose
nodes are not ints), a palette (proper or improper, negative colors,
colors past ``q``, bools, colors above ``MAX_COLOR``), ``q``/``target``
(including infeasible targets), a bandwidth model that trips on chosen
senders, the array backend on/off, ``REPRO_SIM_CHUNK`` and the
narrow/wide class threshold -- and asserts identical outputs, exception
type and text, ledger (at failure too) and canonical logical trace.
Dense G(n, p) inputs (many narrow classes) add ``max_rounds`` cuts
around the failing round and a recording model that pins the CONGEST
check order; a model tripping on an initial color shows that round 1
reads the undecided colors.

The greedy arbdefective sweep is drawn the same way: proper initial
colorings (ids, or first-fit classes with idle ones) over feasible and
infeasible list instances, checked or not, tripping bandwidth models and
both array backends; outputs, orientation, failure text, ledger and
trace must agree.

The sweep pair gets the same treatment: Two-Sweep, Fast-Two-Sweep and
the algebraic recoloring (Lemma 3.4, both Linial variants, and
``run_recoloring`` with a relevant-set mapping) over drawn orientations
(by id, random, degeneracy, all-out), feasible and infeasible
instances, random identifier spaces, tripping bandwidth models and both
array backends, vectorized against reference.  The Two-Sweep draws add
paths (dependency DAGs as deep as the path), first-fit initial colorings
(several deciders per round, idle classes), lists shorter than ``p``,
program populations cut by ``max_rounds`` in either phase, and batch
floors that put the kernel on its NumPy wave form or its class-order
loop; a recording bandwidth model pins the CONGEST check order.
"""

from __future__ import annotations

import importlib
import random

import pytest

from repro.coloring import (
    ArbdefectiveInstance,
    OLDCInstance,
    minimal_slack_oldc_instance,
    random_arbdefective_instance,
    random_nonuniform_oldc_instance,
    random_oldc_instance,
)
from repro.coloring.validate import check_oldc
from repro.core.fast_two_sweep import fast_two_sweep
from repro.core.two_sweep import TwoSweepProgram, two_sweep
from repro.graphs import random_ids, sequential_ids
from repro.graphs.oriented import (
    orient_all_out,
    orient_by_id,
    orient_low_outdegree,
    orient_random,
)
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
from repro.sim.scheduler import DEFAULT_MAX_ROUNDS, run_columns
from repro.substrates import greedy as greedy_module
from repro.substrates.algebraic import (
    AlgebraicRecoloringProgram,
    run_recoloring,
)
from repro.substrates.cover_free import defective_schedule
from repro.substrates.kuhn_defective import kuhn_defective_coloring
from repro.substrates.linial import linial_coloring, linial_oriented_coloring
from repro.substrates.greedy import (
    _ColorReductionProgram,
    _GreedySweepProgram,
    greedy_arbdefective_sweep,
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


def _first_fit(compiled):
    """First-fit greedy classes in dense-id order: a proper coloring."""
    colors = [0] * compiled.n
    for i in range(compiled.n):
        row = compiled.indices[compiled.indptr[i]:compiled.indptr[i + 1]]
        used = {colors[j] for j in row if j < i}
        colors[i] = min(set(range(len(used) + 1)) - used)
    return colors


def _palette(rng, order, compiled, q, target):
    n = len(order)
    kind = rng.choice(["proper", "improper", "wild", "huge", "bools"])
    if kind == "proper":
        # First-fit greedy classes: proper, though not always below q.
        return _first_fit(compiled)
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


def _keyed(order, column):
    """A dense-id output column as a ``{node: output}`` dict."""
    return dict(zip(order, column.tolist() if hasattr(column, "tolist")
                    else column))


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
        # The class size from which a class takes the batched mex (0:
        # every class; else narrower classes take the row mex).
        monkeypatch.setattr(arrays, "MIN_BATCH", rng.choice([0, 3, 8]))
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

        column = list(colors)
        np = arrays.get_numpy()
        if (np is not None and rng.random() < 0.5
                and set(map(type, colors)) == {int}
                and all(abs(color) < 1 << 62 for color in colors)):
            # The NumPy column form of the same input.
            column = np.array(colors, dtype=np.int64)

        def columns(ledger):
            inputs = ColumnInputs(
                _ColorReductionProgram,
                {"colors": column, "q": q, "target": target}, build,
            )
            outputs, _ = run_columns(network, inputs, bandwidth=bandwidth,
                                     ledger=ledger, engine="vectorized")
            return _keyed(order, outputs)

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
        monkeypatch.setattr(arrays, "MIN_BATCH", rng.choice([0, 4]))

        def run(engine):
            def call(ledger):
                with use_engine(engine):
                    return greedy_color_reduction(network, colors, q,
                                                  target, ledger=ledger)
            return call

        want = _outcome(run("reference"))
        got = _outcome(run("vectorized"))
        assert got == want, (seed, case)


def test_columns_run_without_columns_constructor_falls_back():
    """A kernel that builds no column state from the ColumnInputs
    declines: the run builds the programs and falls back with the same
    result."""

    class PlainKernel(RoundKernel):
        def prepare(self, compiled, inputs, bandwidth):
            return None

        def step(self, round_number, columns, inboxes):
            raise AssertionError("a declined kernel ran a step")

        finalize = step

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
        before = kernel_stats()["by_reason"].get("declined", 0)
        inputs = ColumnInputs(_ColorReductionProgram,
                              {"colors": colors, "q": 6, "target": 3},
                              build_programs)
        got, _ = run_columns(network, inputs, engine="vectorized")
        got = _keyed(range(30), got)
    finally:
        register_kernel(_ColorReductionProgram,
                        greedy_module._ColorReductionKernel, replace=True)
    assert got == want
    assert built == [True]
    assert kernel_stats()["by_reason"]["declined"] == before + 1


def _dense_palette(rng, compiled):
    """A dense G(n, p) input: many classes of a few deciders each
    (the inflated first-fit coloring, proper) or random colors
    (improper: adjacent deciders in one class read each other's old
    colors), with ``q`` several times the target."""
    delta = compiled.raw_max_degree()
    q = rng.randint(2, 4) * (delta + 1)
    if rng.random() < 0.5:
        first = _first_fit(compiled)
        colors = [color * (q // (max(first) + 1)) + i % 2
                  for i, color in enumerate(first)]
    else:
        colors = [rng.randrange(q) for _ in range(compiled.n)]
    return colors, q


def test_reduction_failures_round_cuts_and_check_order(monkeypatch):
    """Dense G(n, p) inputs (many narrow classes), feasible and
    infeasible targets, ``max_rounds`` cuts before, at and after the
    failing round: the same CONGEST check log, exception text and
    ledger as the reference engine, on the batched mex (``MIN_BATCH``
    0), the row mex (4), the class-order loop (``10**6``) and the
    list backend."""
    failing = []
    for seed in range(6):
        rng = random.Random(9400 + seed)
        network = stream_gnp(rng.randint(40, 80), rng.choice([0.3, 0.5]),
                             seed)
        compiled = network.compile()
        order = list(compiled.order)
        colors, q = _dense_palette(rng, compiled)
        delta = compiled.raw_max_degree()
        # Odd seeds: an infeasible target, so some decider round fails.
        target = (rng.choice([4, 6, delta // 4 + 1]) if seed % 2
                  else delta + 1)

        def run(engine, max_rounds, model):
            def call(ledger):
                inputs = ColumnInputs(
                    _ColorReductionProgram,
                    {"colors": list(colors), "q": q, "target": target},
                    lambda: {node: _ColorReductionProgram(node, colors[i],
                                                          q, target)
                             for i, node in enumerate(order)})
                outputs, _ = run_columns(network, inputs, bandwidth=model,
                                         ledger=ledger, engine=engine,
                                         max_rounds=max_rounds)
                return _keyed(order, outputs)
            return call

        model = RecordingModel()
        full = _outcome(run("reference", DEFAULT_MAX_ROUNDS, model))
        last = full[2][0]  # rounds completed before failing or halting
        if full[1] is not None and full[1][0] == "AlgorithmFailure":
            failing.append(last + 1)
        for max_rounds in sorted({1, 2, last - 1, last, last + 1,
                                  DEFAULT_MAX_ROUNDS} - {0}):
            outcomes = []
            for engine, backend, batch in (("reference", "1", 0),
                                           ("vectorized", "1", 0),
                                           ("vectorized", "1", 4),
                                           ("vectorized", "1", 10 ** 6),
                                           ("vectorized", "0", 0)):
                monkeypatch.setenv(arrays.ARRAYS_ENV, backend)
                monkeypatch.setattr(arrays, "MIN_BATCH", batch)
                model = RecordingModel()
                outcomes.append((_outcome(run(engine, max_rounds, model)),
                                 model.log))
            for got in outcomes[1:]:
                assert got == outcomes[0], (seed, max_rounds)
    # Every infeasible target fails, in a decider round past round 2.
    assert len(failing) == 3 and min(failing) > 2, failing


def test_round_one_checks_read_initial_colors(monkeypatch):
    """A model that trips on one decider's *initial* color in round 1:
    the vectorized run decided every class before round 1, yet raises
    the same round-1 BandwidthExceeded, at the same ledger, as the
    reference engine."""
    network = stream_gnp(60, 0.4, 3)
    compiled = network.compile()
    order = list(compiled.order)
    target = compiled.raw_max_degree() + 1
    q = 3 * target
    colors = [color * 3 for color in _first_fit(compiled)]
    decider = max(range(compiled.n), key=colors.__getitem__)
    assert colors[decider] >= target and compiled.degrees[decider]
    model = TrippingModel([order[decider]], [colors[decider]])
    outcomes = []
    for engine, backend, batch in (("reference", "1", 0),
                                   ("vectorized", "1", 0),
                                   ("vectorized", "1", 32),
                                   ("vectorized", "0", 0)):
        monkeypatch.setenv(arrays.ARRAYS_ENV, backend)
        monkeypatch.setattr(arrays, "MIN_BATCH", batch)

        def call(ledger, _engine=engine):
            with use_engine(_engine):
                return greedy_color_reduction(network, colors, q, target,
                                              ledger=ledger,
                                              bandwidth=model)

        outcomes.append(_outcome(
            lambda ledger: _keyed(range(compiled.n), call(ledger))))
    assert outcomes[0][1][0] == "BandwidthExceeded"
    assert outcomes[0][2][0] == 0  # round 1 never completed
    assert all(got == outcomes[0] for got in outcomes[1:])


class _StubContext:
    """Round 2 of one ``_ColorReductionProgram``: its neighbors' colors
    as received, its broadcast captured."""

    round_number = 2

    def __init__(self, neighbor_colors):
        self.inbox = dict(enumerate(neighbor_colors))
        self.sent = None

    def received(self, tag):
        return self.inbox

    def broadcast(self, tag, payload, bits=None):
        self.sent = payload

    def halt(self):
        raise AssertionError("an active decider halted")


@pytest.mark.parametrize("seed", range(4))
def test_first_fit_rows_matches_program_mex_and_seed_loop(seed,
                                                          monkeypatch):
    """The shared row primitive: per row, the mex of
    ``_ColorReductionProgram.on_round`` (signed and huge colors through
    a uint64 view); over ``range(n)`` writing into its own column, the
    first-fit seed of ``_greedy_seed_loop``."""
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(arrays, "_override", True)
    streaming = importlib.import_module("repro.graphs.streaming")
    rng = random.Random(9600 + seed)
    for _ in range(20):
        n = rng.randint(1, 40)
        colors = [rng.choice([rng.randint(-3, 12), rng.randint(0, 6),
                              arrays.MAX_COLOR]) for _ in range(n)]
        lengths = [rng.randint(0, 30) for _ in range(rng.randint(1, 8))]
        indptr = [0]
        indices = []
        for length in lengths:
            indices.extend(rng.randrange(n) for _ in range(length))
            indptr.append(len(indices))
        rows = rng.sample(range(len(lengths)), rng.randint(1, len(lengths)))
        out = np.empty(len(rows), dtype=np.int64)
        arrays.first_fit_rows(
            np, indptr, np.asarray(indices, dtype=np.int64),
            np.asarray(colors, dtype=np.int64).view(np.uint64), rows, out,
            np.empty(max(lengths) + 1, dtype=bool))
        for row, got in zip(rows, out.tolist()):
            # Round 2 retires color q - 1; a mex is at most the row
            # length, so a target above it never fails.
            q = max(lengths) + 2
            program = _ColorReductionProgram("v", q - 1, q, q - 1)
            ctx = _StubContext(colors[j] for j in
                               indices[indptr[row]:indptr[row + 1]])
            program.on_round(ctx)
            assert got == ctx.sent, (row, colors)
    for _ in range(6):
        compiled = _topology(rng).compile()
        n = compiled.n
        column = np.full(n, n, dtype=np.int64)
        arrays.first_fit_rows(np, compiled.indptr, compiled.numpy_views()[1],
                              column, range(n), column,
                              np.empty(compiled.max_degree() + 1, dtype=bool))
        assert column.tolist() == list(streaming._greedy_seed_loop(compiled))


# ----------------------------------------------------------------------
# The sweep pair: Two-Sweep and the algebraic (Linial / Lemma 3.4)
# recoloring, both run from orientation and instance columns.
# ----------------------------------------------------------------------
#: Sweep cases per seed (each runs the reference engine for O(q) rounds).
SWEEP_CASES = 24


def _path(rng):
    """A path in shuffled id order: oriented all-out, its sweep DAGs are
    as deep as the path is long."""
    n = rng.randint(2, 60)
    names = list(range(n))
    rng.shuffle(names)
    return Network.from_edges(names, list(zip(names, names[1:])))


def _orientation(rng, network):
    """An orientation from one of the repository's constructors."""
    if rng.random() < 0.2:
        return orient_all_out(network)
    names = [orient_random, orient_low_outdegree, orient_all_out]
    if all(type(node) is int for node in network.compile().order):
        names.append(orient_by_id)  # the named nodes do not compare
    orient = rng.choice(names)
    if orient is orient_random:
        return orient(network, random.Random(rng.randrange(1000)))
    return orient(network)


def _instance(rng, graph, p, epsilon):
    """``(instance, check)``: a feasible draw, or an infeasible one run
    with ``check=False``."""
    kind = rng.choice(["random", "nonuniform", "minimal", "stuck",
                       "short"])
    if kind == "short":
        # Lists shorter than p (some empty), of mixed sizes, with small
        # or ample defects: sub-lists hold min(p, |L_v|) colors.
        colors = range(rng.randint(1, 3 * p + 2))
        lists = {node: rng.sample(colors, rng.randint(0, min(p, len(colors))))
                 for node in graph.nodes}
        return OLDCInstance(
            graph, lists,
            {node: {color: rng.choice([0, 1, 2, 40]) for color in colors}
             for node, colors in lists.items()},
            len(colors),
        ), False
    if kind == "random":
        return random_oldc_instance(graph, p, rng.randrange(1000),
                                    epsilon=epsilon), True
    if kind == "nonuniform":
        return random_nonuniform_oldc_instance(
            graph, p, rng.randrange(1000)), epsilon == 0.0
    if kind == "minimal":
        return minimal_slack_oldc_instance(graph, p, epsilon), True
    drawn = random_oldc_instance(graph, p, rng.randrange(1000))
    # Short lists, in descending order: the failure text's k/r dicts
    # follow list order, not color order.
    lists = {node: colors[:rng.randint(1, 2)][::-1]
             for node, colors in drawn.lists.items()}
    return OLDCInstance(
        graph, lists,
        {node: {color: rng.randint(0, 1) for color in colors}
         for node, colors in lists.items()},
        drawn.color_space_size,
    ), False


def _result_outcome(call):
    """``(outputs, error, ledger, logical trace)`` of one protocol call."""
    def run(ledger):
        result = call(ledger)
        if isinstance(result, tuple):  # (colors, palette)
            colors, palette = result
            return {"colors": list(colors.items()), "palette": palette}
        if isinstance(result, dict):  # the sweep's columns entry
            return result
        return {"colors": list(result.colors.items()),
                "stats": result.stats}

    ledger = CostLedger()
    tracer = Tracer()
    outputs = error = None
    with use_tracer(tracer):
        try:
            outputs = repr(run(ledger))
        except Exception as exc:  # compared by type and text below
            error = (type(exc).__name__, str(exc))
    return outputs, error, _ledger_state(ledger), \
        canonical_lines(tracer.events)


def _sweep_call(rng, network):
    """One drawn protocol run, as ``call(ledger)``, plus its label."""
    graph = _orientation(rng, network)
    n = len(network)
    bits = rng.choice([0, 7])
    ids = (random_ids(network, rng.randrange(1000), bits=bits) if bits
           else sequential_ids(network))
    q = max(n, 1 << bits) if bits else n
    protocol = rng.choice(["two-sweep", "fast-two-sweep"] * 3
                          + ["kuhn", "linial", "linial-oriented",
                             "mapping", "columns", "columns"])
    if protocol in ("two-sweep", "columns") and rng.random() < 0.4:
        # A proper first-fit coloring: rounds with several deciders, and
        # idle classes when q exceeds the colors used.
        compiled = network.compile()
        colors = _first_fit(compiled)
        ids = dict(zip(compiled.order, colors))
        q = max(colors, default=0) + 1 + rng.choice([0, 0, 3])
    p = rng.choice([1, 2, 3])
    epsilon = rng.choice([0.25, 0.5]) if protocol == "fast-two-sweep" \
        else 0.0
    bandwidth = LocalModel()
    if rng.random() < 0.4:
        tripped = rng.sample(list(network.compile().order),
                             max(1, n // rng.choice([1, 2, 6])))
        payloads = set(rng.sample(range(12), 3))
        if rng.random() < 0.5:  # spare round 1: trip on sent finals
            payloads -= {ids[node] for node in tripped}
        bandwidth = TrippingModel(tripped, payloads)
    if protocol == "columns":
        # The sweep's columns entry itself, cut short mid-Phase I or
        # mid-Phase II (same RoundLimitExceeded and ledger) or run to
        # the end; each node's color and local work are compared, from
        # the kernel's columns or the programs a fallback builds.
        instance, _ = _instance(rng, graph, p, 0.0)
        max_rounds = rng.choice([1, 2 + rng.randrange(q + 1),
                                 q + 2 + rng.randrange(q),
                                 DEFAULT_MAX_ROUNDS])
        order = network.compile().order
        data = {
            "initial": [ids[node] for node in order], "q": q, "p": p,
            "color_space_size": instance.color_space_size,
            "lists": (instance.list_indptr, instance.list_colors,
                      instance.list_defects),
            "outs": (graph.out_indptr, graph.out_indices), "trace": None,
        }

        def call(ledger):
            built = []

            def build_programs():
                built.append({
                    node: TwoSweepProgram(
                        node, ids[node], q, p, instance.lists[node],
                        instance.defects[node],
                        frozenset(graph.out_neighbors(node)),
                        instance.color_space_size)
                    for node in order
                })
                return built[0]

            inputs = ColumnInputs(TwoSweepProgram, data, build_programs)
            outputs, _ = run_columns(network, inputs, bandwidth=bandwidth,
                                     ledger=ledger, max_rounds=max_rounds)
            work = ([program.local_work for program in built[0].values()]
                    if built else inputs.extras["local_work"])
            return {"columns": list(zip(order, arrays.as_list(outputs),
                                        work))}
        return call, (protocol, type(graph).__name__, n, q, p, max_rounds)
    if protocol in ("two-sweep", "fast-two-sweep"):
        instance, check = _instance(rng, graph, p, epsilon)

        def call(ledger):
            if protocol == "two-sweep":
                return two_sweep(instance, ids, q, p, ledger=ledger,
                                 bandwidth=bandwidth, check=check)
            return fast_two_sweep(instance, ids, q, p, epsilon,
                                  ledger=ledger, bandwidth=bandwidth,
                                  check=check)
    elif protocol == "kuhn":
        alpha = rng.choice([0.1, 0.25, 0.5])

        def call(ledger):
            return kuhn_defective_coloring(graph, ids, q, alpha,
                                           ledger=ledger,
                                           bandwidth=bandwidth)
    elif protocol == "linial":
        def call(ledger):
            return linial_coloring(network, ids, q, ledger=ledger,
                                   bandwidth=bandwidth)
    elif protocol == "linial-oriented":
        def call(ledger):
            return linial_oriented_coloring(graph, ids, q, ledger=ledger,
                                            bandwidth=bandwidth)
    else:
        # run_recoloring with a {node: frozenset} relevant mapping.
        relevant = {node: frozenset(graph.out_neighbors(node))
                    for node in network}
        schedule = defective_schedule(q, 0.25)

        def call(ledger):
            return run_recoloring(network, ids, schedule, relevant,
                                  ledger=ledger, bandwidth=bandwidth)
    return call, (protocol, type(graph).__name__, n, q, p, epsilon)


@pytest.mark.parametrize("seed", range(8))
def test_sweep_pair_matches_reference(seed, monkeypatch):
    rng = random.Random(8100 + seed)
    for case in range(SWEEP_CASES):
        network = _path(rng) if rng.random() < 0.2 else _topology(rng)
        # MIN_BATCH 0 puts every sweep on the NumPy wave form and every
        # reduction class on the batched mex; 4 and 32 send small or
        # deep-DAG populations to the class-order loop and narrow
        # reduction classes to the row mex.
        monkeypatch.setattr(arrays, "MIN_BATCH", rng.choice([0, 0, 4, 32]))
        monkeypatch.setenv(arrays.ARRAYS_ENV, rng.choice(["0", "1"]))
        monkeypatch.setenv(arrays.CHUNK_ENV, rng.choice(["", "3"]))
        call, context = _sweep_call(rng, network)

        def on(engine):
            def run(ledger):
                with use_engine(engine):
                    return call(ledger)
            return run

        want = _result_outcome(on("reference"))
        got = _result_outcome(on("vectorized"))
        assert got == want, (seed, case) + context


class RecordingModel(BandwidthModel):
    """Admits everything and logs each check, one per copy, so the
    vectorized engine's per-broadcast ``check_fanout`` logs what the
    reference engine's per-copy checks do."""

    name = "RECORD"

    def __init__(self):
        self.log = []

    def check(self, message):
        self.log.append((type(message).__name__, message.sender,
                         getattr(message, "receiver", None), message.tag,
                         message.payload))

    def check_fanout(self, envelope, copies):
        for _ in range(copies):
            self.check(envelope)

    def budget_bits(self):
        return None


def test_two_sweep_checks_failures_and_round_limits(monkeypatch):
    """Every CONGEST check in reference order, Phase II failures in
    rounds with several deciders, and ``max_rounds`` cuts across both
    phases: same check log, exception text and ledger as the reference
    engine, on the wave form, the class-order loop and both backends."""
    two_sweep_module = importlib.import_module("repro.core.two_sweep")
    failed_after_finals = 0
    for seed in range(12):
        rng = random.Random(8600 + seed)
        network = stream_gnp(rng.randint(30, 60), 0.15, seed)
        compiled = network.compile()
        graph = orient_random(network, random.Random(seed))
        # Odd seeds use the even classes only: an idle round between
        # any two Phase II decider rounds.
        spread = 1 + seed % 2
        colors = [spread * color for color in _first_fit(compiled)]
        initial = dict(zip(compiled.order, colors))
        q = max(colors) + 1 + seed % 3
        p = rng.choice([1, 2, 3])
        drawn = random_oldc_instance(graph, p, seed)
        # Zero defects on half the nodes: some Phase II round fails,
        # often after other deciders of its class sent their finals.
        tight = set(rng.sample(list(compiled.order), compiled.n // 2))
        instance = OLDCInstance(
            graph, drawn.lists,
            {node: ({color: 0 for color in drawn.lists[node]}
                    if node in tight else drawn.defects[node])
             for node in compiled.order},
            drawn.color_space_size,
        )
        for max_rounds in (DEFAULT_MAX_ROUNDS, 1, 2, q // 2 + 2, q + 1,
                           q + 2, q + 2 + q // 2, q + 3 + q // 2, 2 * q,
                           2 * q + 1):
            monkeypatch.setattr(
                two_sweep_module, "run_columns",
                lambda *args, _limit=max_rounds, **kwargs: run_columns(
                    *args, max_rounds=_limit, **kwargs))
            outcomes = []
            for engine, backend, batch in (("reference", "1", 0),
                                           ("vectorized", "1", 0),
                                           ("vectorized", "1", 10 ** 6),
                                           ("vectorized", "0", 0)):
                monkeypatch.setenv(arrays.ARRAYS_ENV, backend)
                monkeypatch.setattr(arrays, "MIN_BATCH", batch)
                model = RecordingModel()

                def call(ledger, _model=model, _engine=engine):
                    with use_engine(_engine):
                        return two_sweep(instance, initial, q, p,
                                         ledger=ledger, bandwidth=_model,
                                         check=False)

                outcomes.append((_result_outcome(call), model.log))
            reference = outcomes[0]
            for got in outcomes[1:]:
                assert got == reference, (seed, max_rounds)
            error = reference[0][1]
            if error is not None and error[0] == "AlgorithmFailure":
                failing = int(error[1].split(":")[0].split()[1])
                _, sender, _, tag, _ = reference[1][-1]
                failed_after_finals += (tag == "final-color"
                                        and initial[sender]
                                        == initial[failing])
    # The failing decider was not its round's first in several runs.
    assert failed_after_finals >= 3


def test_oldc_sweep_trial_builds_no_programs(monkeypatch):
    """One oldc-sweep-shaped trial (G(2000, 4/1999), p = 2, epsilon =
    0.25, both sweeps and check_oldc) stays on the kernels: every run
    is a kernel hit and no sweep or recoloring program is built."""
    built = []
    for cls in (TwoSweepProgram, AlgebraicRecoloringProgram):
        original = cls.__init__

        def counting_init(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    n = 2000
    compiled = stream_gnp(n, 4.0 / (n - 1), 11)
    before = kernel_stats()
    with use_engine("vectorized"):
        graph = orient_by_id(compiled)
        plain = random_oldc_instance(graph, p=2, seed=5)
        fast = random_oldc_instance(graph, p=2, seed=5, epsilon=0.25)
        ids = sequential_ids(compiled)
        swept = two_sweep(plain, ids, n, 2)
        fasted = fast_two_sweep(fast, ids, n, 2, 0.25)
    after = kernel_stats()
    assert check_oldc(plain, swept.colors) == []
    assert check_oldc(fast, fasted.colors) == []
    assert built == []
    assert after["fallbacks"] == before["fallbacks"]
    assert after["hits"] - before["hits"] == 3  # sweep, Kuhn, inner sweep


# ----------------------------------------------------------------------
# The greedy arbdefective sweep, run from the instance's list columns.
# ----------------------------------------------------------------------
def _as_network(topology):
    """A ``Network`` (what undirected instances take) of any topology."""
    if isinstance(topology, Network):
        return topology
    return Network.from_edges(list(topology.nodes), list(topology.edges()))


def _greedy_instance(rng, network):
    """``(instance, check)``: slack above 1, or an infeasible draw (short
    lists in descending order, small defects) run with ``check=False``."""
    size = max(8, network.raw_max_degree() + 2)
    if rng.random() < 0.6:
        return random_arbdefective_instance(
            network, slack=rng.choice([1.0, 1.5, 3.0]),
            seed=rng.randrange(1000), color_space_size=size,
        ), rng.random() < 0.5
    lists = {node: sorted(rng.sample(range(size), rng.randint(1, 3)),
                          reverse=True)
             for node in network}
    return ArbdefectiveInstance(
        network, lists,
        {node: {color: rng.randint(0, 1) for color in colors}
         for node, colors in lists.items()},
        size,
    ), False


@pytest.mark.parametrize("seed", range(4))
def test_greedy_sweep_matches_reference(seed, monkeypatch):
    rng = random.Random(9500 + seed)
    for case in range(CASES):
        network = _as_network(_topology(rng))
        compiled = network.compile()
        order = list(compiled.order)
        if rng.random() < 0.5:
            initial = sequential_ids(network)
            q = len(order)
        else:
            # First-fit classes: several deciders a round, and idle
            # classes when q exceeds the classes used.
            initial = dict(zip(order, _first_fit(compiled)))
            q = max(initial.values()) + 1 + rng.choice([0, 0, 3])
        instance, check = _greedy_instance(rng, network)
        bandwidth = LocalModel()
        if rng.random() < 0.4:
            tripped = rng.sample(order, max(1, len(order) // rng.choice(
                [1, 2, 6])))
            payloads = set(rng.sample(range(12), 3))
            if rng.random() < 0.5:  # spare round 1: trip on sent finals
                payloads -= {initial[node] for node in tripped}
            bandwidth = TrippingModel(tripped, payloads)
        monkeypatch.setenv(arrays.ARRAYS_ENV, rng.choice(["0", "1"]))

        def run(engine):
            def call(ledger):
                with use_engine(engine):
                    result = greedy_arbdefective_sweep(
                        instance, initial, q, ledger=ledger,
                        bandwidth=bandwidth, check=check)
                return {"colors": list(result.colors.items()),
                        "orientation": list(result.orientation.items())}
            return call

        want = _outcome(run("reference"))
        hits = kernel_stats()["hits"]
        got = _outcome(run("vectorized"))
        context = (seed, case, len(order), q, check)
        assert got == want, context
        if want[1] is None or want[1][0] != "InfeasibleInstanceError":
            assert kernel_stats()["hits"] == hits + 1, context


def test_greedy_sweep_builds_no_programs(monkeypatch):
    """``greedy_arbdefective_sweep`` on the vectorized engine runs its
    kernel from the list columns: one hit, no sweep program built."""
    built = []
    original = _GreedySweepProgram.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(_GreedySweepProgram, "__init__", counting_init)
    network = _as_network(stream_gnp(300, 0.05, 3))
    instance = random_arbdefective_instance(
        network, slack=1.5, seed=3,
        color_space_size=network.raw_max_degree() + 2)
    before = kernel_stats()
    with use_engine("vectorized"):
        result = greedy_arbdefective_sweep(
            instance, sequential_ids(network), len(network))
    after = kernel_stats()
    assert built == []
    assert after["fallbacks"] == before["fallbacks"]
    assert (after["by_kernel"].get("_GreedySweepKernel", 0)
            - before["by_kernel"].get("_GreedySweepKernel", 0)) == 1
    with use_engine("reference"):
        want = greedy_arbdefective_sweep(
            instance, sequential_ids(network), len(network))
    assert result.colors == want.colors
    assert result.orientation == want.orientation
    assert built
