"""Reference vs vectorized engines: byte-identical behavior.

The reference engine is the oracle.  The vectorized path (array-at-a-
time round kernels with transparent fallback to reference) must be
observationally identical to it.  These tests run representative
protocols -- Two-Sweep (Algorithm 1), Linial's coloring, greedy color
reduction, the greedy arbdefective sweep, and the seeded randomized
baseline -- over random topologies through both engines and assert
equal node outputs, rounds, messages, bit totals, max message size,
broadcast counts, and per-phase breakdowns.
Protocols without a kernel, and every program population handed to
``run_protocol``, exercise the vectorized engine's fallback, which must
be just as invisible.

The equivalence invariant extends to telemetry: every protocol run in
``test_engines_agree`` happens under an installed
:class:`repro.obs.Tracer`, and the *logical* trace event stream
(:func:`repro.obs.canonical_lines` -- physical fields like wall-clock,
pid, and engine stripped) must be byte-identical across engines.
Tracing itself must also not perturb any of the original assertions.
"""

from __future__ import annotations

import pytest

from repro.coloring import (
    random_arbdefective_instance,
    random_oldc_instance,
)
from repro.obs import Tracer, canonical_lines, use_tracer
from repro.core import fast_two_sweep, two_sweep
from repro.graphs import (
    binary_tree,
    complete_graph,
    gnp_graph,
    orient_by_id,
    random_bounded_degree_graph,
    random_ids,
    sequential_ids,
)
from repro.sim import (
    CongestModel,
    CostLedger,
    NodeProgram,
    RoundObserver,
    Scheduler,
    SchedulerError,
    default_engine,
    run_protocol,
    set_default_engine,
    use_engine,
)
from repro.substrates import (
    greedy_arbdefective_sweep,
    greedy_color_reduction,
    linial_coloring,
    randomized_delta_plus_one,
)

#: The engines measured against the reference oracle.
CANDIDATE_ENGINES = ("vectorized",)


@pytest.fixture(params=["python", "numpy"])
def backend(request, monkeypatch):
    """Run the matrix once per kernel column backend.

    The ``numpy`` leg pins the array backend on and drops the size
    thresholds so even these deliberately small topologies take the
    batched paths; the ``python`` leg forces the pure-Python columns.
    Reference stays the oracle in both legs.
    """
    from repro.sim import arrays

    if request.param == "numpy":
        if arrays._import_numpy() is None:
            pytest.skip("NumPy not installed")
        monkeypatch.setattr(arrays, "MIN_BATCH", 0)
        previous = arrays.set_arrays_override(True)
    else:
        previous = arrays.set_arrays_override(False)
    yield request.param
    arrays.set_arrays_override(previous)


def _ledger_state(ledger: CostLedger):
    return (
        ledger.rounds,
        ledger.messages,
        ledger.bits,
        ledger.max_message_bits,
        ledger.broadcasts,
        {
            name: (stats.rounds, stats.messages, stats.bits,
                   stats.max_message_bits, stats.broadcasts,
                   stats.invocations)
            for name, stats in ledger.phases.items()
        },
    )


TOPOLOGIES = {
    "gnp": lambda seed: gnp_graph(60, 0.1, seed=seed),
    "tree": lambda seed: binary_tree(5),
    "clique": lambda seed: complete_graph(12),
    "bounded": lambda seed: random_bounded_degree_graph(70, 5, seed=seed),
}


def run_two_sweep(network):
    graph = orient_by_id(network)
    instance = random_oldc_instance(graph, p=2, seed=17)
    ledger = CostLedger()
    result = two_sweep(
        instance, sequential_ids(network), len(network), 2, ledger=ledger
    )
    return result.colors, ledger


def run_fast_two_sweep(network):
    # 18-bit random identifiers put q far above (p / eps)^2 + log* q,
    # so this takes Algorithm 2's defective-coloring route: the
    # AlgebraicRecoloringKernel feeds the TwoSweepKernel end to end.
    graph = orient_by_id(network)
    instance = random_oldc_instance(graph, p=2, seed=29, epsilon=0.5)
    ledger = CostLedger()
    result = fast_two_sweep(
        instance, random_ids(network, seed=29, bits=18),
        2 ** 18, 2, 0.5, ledger=ledger,
    )
    return result.colors, ledger


def run_linial(network):
    ledger = CostLedger()
    colors, palette = linial_coloring(
        network, sequential_ids(network), len(network), ledger=ledger
    )
    return (colors, palette), ledger


def run_greedy_sweep(network):
    instance = random_arbdefective_instance(
        network, slack=1.5, seed=23,
        color_space_size=max(8, network.raw_max_degree() + 2),
    )
    ledger = CostLedger()
    result = greedy_arbdefective_sweep(
        instance, sequential_ids(network), len(network), ledger=ledger
    )
    return (result.colors, result.orientation), ledger


def run_randomized(network):
    ledger = CostLedger()
    result = randomized_delta_plus_one(network, seed=31, ledger=ledger)
    return result.colors, ledger


def run_color_reduction(network):
    # sequential ids form a proper n-coloring; reduce it to Delta + 1.
    ledger = CostLedger()
    colors = greedy_color_reduction(
        network, sequential_ids(network), len(network),
        network.raw_max_degree() + 1, ledger=ledger,
    )
    return colors, ledger


PROTOCOLS = {
    "two_sweep": run_two_sweep,
    "fast_two_sweep": run_fast_two_sweep,
    "linial": run_linial,
    "color_reduction": run_color_reduction,
    "greedy_sweep": run_greedy_sweep,
    "randomized": run_randomized,
}


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_engines_agree(protocol, topology, backend):
    build = TOPOLOGIES[topology]
    run = PROTOCOLS[protocol]
    ref_tracer = Tracer()
    with use_engine("reference"), use_tracer(ref_tracer):
        ref_out, ref_ledger = run(build(seed=5))
    # Some (protocol, topology) pairs legitimately trace nothing (e.g. a
    # color reduction that is already at target runs zero rounds); the
    # empty stream must then be empty on every engine too.
    ref_stream = canonical_lines(ref_tracer.events)
    for engine in CANDIDATE_ENGINES:
        tracer = Tracer()
        with use_engine(engine), use_tracer(tracer):
            out, ledger = run(build(seed=5))
        assert out == ref_out, engine
        assert _ledger_state(ledger) == _ledger_state(ref_ledger), engine
        # The logical trace stream is part of the observational contract:
        # identical bytes once physical (timing/pid/engine) fields go.
        assert canonical_lines(tracer.events) == ref_stream, engine


class _EchoHalt(NodeProgram):
    """Broadcast once, record round-2 inbox, halt."""

    def __init__(self, node):
        self.node = node
        self.heard = ()

    def on_round(self, ctx):
        if ctx.round_number == 1:
            ctx.broadcast("id", self.node)
            return
        self.heard = tuple(
            (message.sender, message.payload) for message in ctx.inbox
        )
        ctx.halt()

    def output(self):
        return self.heard


def test_inbox_order_matches_reference():
    """Message delivery order inside an inbox is engine-independent.

    ``_EchoHalt`` has no registered kernel, so the vectorized engine
    silently falls back to reference here -- and must still match.
    """
    network = gnp_graph(40, 0.2, seed=9)
    results = {}
    for engine in ("reference",) + CANDIDATE_ENGINES:
        programs = {node: _EchoHalt(node) for node in network}
        outputs, _ = run_protocol(network, programs, engine=engine)
        results[engine] = outputs
    for engine in CANDIDATE_ENGINES:
        assert results[engine] == results["reference"]


def test_observer_sees_identical_records():
    """An attached observer forces the vectorized engine onto the
    reference path, so both engines produce identical records."""
    network = gnp_graph(25, 0.2, seed=3)
    records = {}
    for engine in ("reference",) + CANDIDATE_ENGINES:
        programs = {node: _EchoHalt(node) for node in network}
        observer = RoundObserver()
        scheduler = Scheduler(network, programs, observer=observer)
        scheduler.run(engine=engine)
        records[engine] = observer.records
    for engine in CANDIDATE_ENGINES:
        assert records[engine] == records["reference"]


def test_congest_model_equivalent():
    network = gnp_graph(30, 0.15, seed=7)
    states = {}
    for engine in ("reference",) + CANDIDATE_ENGINES:
        programs = {node: _EchoHalt(node) for node in network}
        ledger = CostLedger()
        run_protocol(
            network, programs, bandwidth=CongestModel(len(network)),
            ledger=ledger, engine=engine,
        )
        states[engine] = _ledger_state(ledger)
    for engine in CANDIDATE_ENGINES:
        assert states[engine] == states["reference"]


@pytest.mark.parametrize(
    "protocol",
    ["linial", "color_reduction", "greedy_sweep", "two_sweep",
     "fast_two_sweep"],
)
def test_congest_on_kernelized_protocols(protocol, backend):
    """CONGEST accounting through the actual round kernels.

    These protocols have registered kernels (the Two-Sweep family runs
    through ``TwoSweepKernel``, Fast-Two-Sweep additionally through
    ``AlgebraicRecoloringKernel``), so the vectorized engine runs them
    array-at-a-time -- including the per-fan-out bandwidth checks -- and
    must reproduce the reference ledger exactly.
    """
    run = PROTOCOLS[protocol]
    states = {}
    outputs = {}
    for engine in ("reference",) + CANDIDATE_ENGINES:
        network = gnp_graph(50, 0.12, seed=13)
        with use_engine(engine):
            out, ledger = _with_congest(run, network)
        outputs[engine] = out
        states[engine] = _ledger_state(ledger)
    for engine in CANDIDATE_ENGINES:
        assert outputs[engine] == outputs["reference"]
        assert states[engine] == states["reference"]


def _with_congest(run, network):
    """Re-run a PROTOCOLS entry with a CONGEST model injected.

    The runners build their own ledgers, so rather than duplicating
    them we call the underlying substrate directly for the kernelized
    protocols (generous budget: the checks must pass, not trip).
    """
    bandwidth = CongestModel(len(network), factor=64)
    if run is run_two_sweep:
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=17)
        ledger = CostLedger()
        result = two_sweep(
            instance, sequential_ids(network), len(network), 2,
            ledger=ledger, bandwidth=bandwidth,
        )
        return result.colors, ledger
    if run is run_fast_two_sweep:
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=29, epsilon=0.5)
        ledger = CostLedger()
        result = fast_two_sweep(
            instance, random_ids(network, seed=29, bits=18),
            2 ** 18, 2, 0.5, ledger=ledger, bandwidth=bandwidth,
        )
        return result.colors, ledger
    if run is run_linial:
        ledger = CostLedger()
        colors, palette = linial_coloring(
            network, sequential_ids(network), len(network),
            ledger=ledger, bandwidth=bandwidth,
        )
        return (colors, palette), ledger
    if run is run_color_reduction:
        ledger = CostLedger()
        colors = greedy_color_reduction(
            network, sequential_ids(network), len(network),
            network.raw_max_degree() + 1,
            ledger=ledger, bandwidth=bandwidth,
        )
        return colors, ledger
    instance = random_arbdefective_instance(
        network, slack=1.5, seed=23,
        color_space_size=max(8, network.raw_max_degree() + 2),
    )
    ledger = CostLedger()
    result = greedy_arbdefective_sweep(
        instance, sequential_ids(network), len(network),
        ledger=ledger, bandwidth=bandwidth,
    )
    return (result.colors, result.orientation), ledger


def test_mixed_program_population_falls_back():
    """Two program classes in one network: the vectorized engine runs
    the program population on reference, indistinguishably."""
    network = gnp_graph(30, 0.15, seed=21)
    results = {}
    states = {}
    for engine in ("reference",) + CANDIDATE_ENGINES:
        programs = {
            node: (_Storm(node, 3) if node % 2 else _EchoHalt(node))
            for node in network
        }
        ledger = CostLedger()
        outs, _ = run_protocol(
            network, programs, ledger=ledger, engine=engine
        )
        results[engine] = outs
        states[engine] = _ledger_state(ledger)
    for engine in CANDIDATE_ENGINES:
        assert results[engine] == results["reference"]
        assert states[engine] == states["reference"]


class _Storm(NodeProgram):
    """Broadcast every round; keep a transcript of every inbox."""

    def __init__(self, node, rounds):
        self.node = node
        self.rounds = rounds
        self.transcript = []

    def on_round(self, ctx):
        self.transcript.append(tuple(
            (message.sender, message.tag, message.payload)
            for message in ctx.inbox
        ))
        if ctx.round_number > self.rounds:
            ctx.halt()
            return
        ctx.broadcast("storm", (self.node, ctx.round_number))

    def output(self):
        return tuple(self.transcript)


@pytest.mark.parametrize("congest", [False, True])
def test_broadcast_storm_on_clique_matches(congest):
    """Every node broadcasts every round: the dense fan-out case.

    ``_Storm`` has no kernel, so the vectorized engine falls back; the
    run must stay indistinguishable from the reference engine's
    per-copy transcription: same inbox contents and order every round,
    same ledger down to the broadcast counter, with and without the
    CONGEST checker.
    """
    size, rounds = 12, 7
    outputs = {}
    states = {}
    for engine in ("reference",) + CANDIDATE_ENGINES:
        network = complete_graph(size)
        programs = {node: _Storm(node, rounds) for node in network}
        ledger = CostLedger()
        bandwidth = CongestModel(4 * size) if congest else None
        outs, _ = run_protocol(
            network, programs, bandwidth=bandwidth,
            ledger=ledger, engine=engine,
        )
        outputs[engine] = outs
        states[engine] = _ledger_state(ledger)
    for engine in CANDIDATE_ENGINES:
        assert outputs[engine] == outputs["reference"]
        assert states[engine] == states["reference"]
    # Sanity: the totals are what a clique storm analytically produces.
    rounds_run, messages, _, _, broadcasts, _ = states["vectorized"]
    assert broadcasts == size * rounds
    assert messages == size * (size - 1) * rounds
    assert rounds_run == rounds + 1


def test_late_messages_to_halted_nodes_match():
    """Dropped-late-message semantics (and their extra round) agree."""

    class SendThenHalt(NodeProgram):
        def on_round(self, ctx):
            ctx.broadcast("x", 1)
            ctx.halt()

    class HaltNow(NodeProgram):
        def on_round(self, ctx):
            ctx.halt()

    rounds = {}
    for engine in ("reference",) + CANDIDATE_ENGINES:
        network = complete_graph(2)
        programs = {0: HaltNow(), 1: SendThenHalt()}
        _, ledger = run_protocol(network, programs, engine=engine)
        rounds[engine] = ledger.rounds
    for engine in CANDIDATE_ENGINES:
        assert rounds[engine] == rounds["reference"] == 2


def test_unknown_engine_rejected():
    network = complete_graph(2)
    programs = {node: _EchoHalt(node) for node in network}
    scheduler = Scheduler(network, programs)
    # A stale selection of a removed engine fails loudly too.
    for name in ("warp", "sharded", "fast"):
        with pytest.raises(SchedulerError):
            scheduler.run(engine=name)
        with pytest.raises(SchedulerError):
            set_default_engine(name)


def test_stale_engine_env_rejected(monkeypatch):
    """``REPRO_SIM_ENGINE=fast`` left over from an older setup fails the
    run instead of silently picking another engine."""
    monkeypatch.setenv("REPRO_SIM_ENGINE", "fast")
    network = complete_graph(2)
    programs = {node: _EchoHalt(node) for node in network}
    with pytest.raises(SchedulerError):
        Scheduler(network, programs).run()


def test_default_engine_is_vectorized(monkeypatch):
    from repro.sim import scheduler as scheduler_module

    monkeypatch.setattr(scheduler_module, "_engine_override", None)
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    assert default_engine() == "vectorized"


def test_use_engine_restores_default():
    before = default_engine()
    with use_engine("reference"):
        assert default_engine() == "reference"
    assert default_engine() == before
