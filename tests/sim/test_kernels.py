"""Unit tests for the vectorized round-kernel layer.

Covers the registry contract (exact-class mapping, duplicate
protection, unregistration), the scheduler's kernel lifecycle
(prepare/step/finalize, fallback on decline, observer/stop_when
bypass), a custom kernel with staggered mid-run halting verified
against the reference engine, and the supporting broadcast interning
helper (``intern_broadcast``).
"""

from __future__ import annotations

import pytest

from repro.graphs import gnp_graph
from repro.sim import (
    CongestModel,
    CostLedger,
    KernelRound,
    Network,
    NodeProgram,
    RoundKernel,
    RoundLimitExceeded,
    Scheduler,
    clear_payload_memo,
    intern_broadcast,
    kernel_for,
    kernel_stats,
    register_kernel,
    registered_kernels,
    reset_kernel_stats,
    run_protocol,
    unregister_kernel,
    use_engine,
)
from repro.sim.kernels import ColumnInputs, fanout_totals
from repro.sim.scheduler import run_columns
from repro.sim.message import set_payload_memo_enabled


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
class _DummyProgram(NodeProgram):
    def on_round(self, ctx):
        ctx.halt()


class _DummyKernel(RoundKernel):
    def prepare(self, compiled, programs, bandwidth):
        return None

    def step(self, round_number, columns, inboxes):
        return KernelRound(active=0)

    def finalize(self, columns, programs):
        return None


def test_register_and_unregister_roundtrip():
    assert kernel_for(_DummyProgram) is None
    register_kernel(_DummyProgram, _DummyKernel)
    try:
        assert kernel_for(_DummyProgram) is _DummyKernel
        assert _DummyProgram in registered_kernels()
    finally:
        assert unregister_kernel(_DummyProgram)
    assert kernel_for(_DummyProgram) is None
    assert not unregister_kernel(_DummyProgram)


def test_duplicate_registration_rejected_unless_replace():
    register_kernel(_DummyProgram, _DummyKernel)
    try:
        with pytest.raises(ValueError):
            register_kernel(_DummyProgram, _DummyKernel)
        register_kernel(_DummyProgram, _DummyKernel, replace=True)
        assert kernel_for(_DummyProgram) is _DummyKernel
    finally:
        unregister_kernel(_DummyProgram)


def test_register_requires_a_class():
    with pytest.raises(TypeError):
        register_kernel("not a class", _DummyKernel)


def test_subclasses_do_not_inherit_kernels():
    """A subclass may override on_round arbitrarily, so exact-class
    lookup is the only safe rule."""

    class _Sub(_DummyProgram):
        pass

    register_kernel(_DummyProgram, _DummyKernel)
    try:
        assert kernel_for(_Sub) is None
    finally:
        unregister_kernel(_DummyProgram)


def test_fanout_totals_excludes_isolated_nodes():
    network = gnp_graph(20, 0.15, seed=4)
    compiled = network.compile()
    total, envelopes = fanout_totals(compiled)
    degrees = [network.degree(node) for node in network]
    assert total == sum(degrees)
    assert envelopes == sum(1 for d in degrees if d)


# ----------------------------------------------------------------------
# A custom kernelized program with staggered mid-run halting
# ----------------------------------------------------------------------
class _Countdown(NodeProgram):
    """Broadcast for ``lifetime`` rounds, counting every heard message,
    then halt -- nodes halt at different rounds (staggered)."""

    def __init__(self, node, lifetime):
        self.node = node
        self.lifetime = lifetime
        self.heard = 0

    def on_round(self, ctx):
        self.heard += len(ctx.inbox)
        if ctx.round_number > self.lifetime:
            ctx.halt()
            return
        ctx.broadcast("tick", ctx.round_number, bits=8)

    def output(self):
        return self.heard


class _CountdownKernel(RoundKernel):
    """Closed-form execution of a fresh :class:`_Countdown` population.

    Node ``v`` sends in rounds ``1..lifetime_v`` and processes inboxes
    through round ``lifetime_v + 1``, so it hears exactly
    ``min(lifetime_v, lifetime_u)`` ticks from each neighbor ``u``.
    """

    prepared = 0

    def prepare(self, compiled, inputs, bandwidth):
        type(self).prepared += 1
        data = inputs.data
        if any(data["heard"]):
            return None  # pre-existing state: fall back
        from repro.sim import LocalModel

        return {
            "compiled": compiled,
            "order": compiled.order,
            "degrees": compiled.degrees,
            "lifetimes": data["lifetimes"],
            "check_fanout": (None if type(bandwidth) is LocalModel
                             else bandwidth.check_fanout),
        }

    def step(self, round_number, columns, inboxes):
        lifetimes = columns["lifetimes"]
        degrees = columns["degrees"]
        check_fanout = columns["check_fanout"]
        order = columns["order"]
        messages = 0
        broadcasts = 0
        for i, lifetime in enumerate(lifetimes):
            if lifetime >= round_number and degrees[i]:
                if check_fanout is not None:
                    check_fanout(
                        intern_broadcast(
                            order[i], "tick", round_number, 8
                        ),
                        degrees[i],
                    )
                messages += degrees[i]
                broadcasts += 1
        active = sum(1 for lifetime in lifetimes if lifetime >= round_number)
        return KernelRound(
            active=active,
            messages=messages,
            bits=8 * messages,
            max_message_bits=8 if messages else 0,
            broadcasts=broadcasts,
        )

    def finalize(self, columns, inputs):
        compiled = columns["compiled"]
        indptr = compiled.indptr
        indices = compiled.indices
        lifetimes = columns["lifetimes"]
        inputs.outputs = [
            sum(min(lifetime, lifetimes[j])
                for j in indices[indptr[i]:indptr[i + 1]])
            for i, lifetime in enumerate(lifetimes)
        ]


@pytest.fixture
def countdown_kernel():
    _CountdownKernel.prepared = 0
    register_kernel(_Countdown, _CountdownKernel)
    yield
    unregister_kernel(_Countdown)


def _countdown_inputs(network, lifetime=lambda node: 1 + node % 4,
                      heard=None):
    """A :class:`_Countdown` population as columns (``heard``: a node
    given pre-existing state)."""
    order = network.compile().order
    lifetimes = [lifetime(node) for node in order]
    seeded = [7 if node == heard else 0 for node in order]

    def build_programs():
        programs = {}
        for i, node in enumerate(order):
            programs[node] = _Countdown(node, lifetimes[i])
            programs[node].heard = seeded[i]
        return programs

    return ColumnInputs(_Countdown, {"lifetimes": lifetimes,
                                     "heard": seeded}, build_programs)


def _ledger_tuple(ledger):
    return (ledger.rounds, ledger.messages, ledger.bits,
            ledger.max_message_bits, ledger.broadcasts)


def _run_countdown(network, engine, bandwidth=None):
    outputs, ledger = run_columns(network, _countdown_inputs(network),
                                  bandwidth=bandwidth, engine=engine)
    return list(outputs), _ledger_tuple(ledger)


@pytest.mark.parametrize("congest", [False, True])
def test_staggered_halting_kernel_matches_reference(
        countdown_kernel, congest):
    results = {}
    for engine in ("reference", "vectorized"):
        network = gnp_graph(40, 0.12, seed=11)
        bandwidth = CongestModel(len(network)) if congest else None
        results[engine] = _run_countdown(network, engine, bandwidth)
    assert results["vectorized"] == results["reference"]
    # The vectorized runs (with and without CONGEST) used the kernel.
    assert _CountdownKernel.prepared == 1


def test_prepare_decline_falls_back(countdown_kernel):
    """Pre-existing state makes prepare decline; the fall back is
    invisible."""
    network = gnp_graph(25, 0.15, seed=19)
    baseline = _run_countdown(network, "reference")
    inputs = _countdown_inputs(network, heard=next(iter(network)))
    _, ledger = run_columns(network, inputs, engine="vectorized")
    assert _CountdownKernel.prepared == 1  # prepare ran, then declined
    # Fallback reproduces reference totals apart from the seeded heard=7.
    assert ledger.rounds == baseline[1][0]
    assert ledger.messages == baseline[1][1]


def test_observer_and_stop_when_bypass_kernel(countdown_kernel):
    network = gnp_graph(20, 0.2, seed=23)
    Scheduler(network, None, columns=_countdown_inputs(network),
              stop_when=lambda programs: False).run(engine="vectorized")
    assert _CountdownKernel.prepared == 0  # stop_when forces reference


def test_vectorized_respects_max_rounds(countdown_kernel):
    network = gnp_graph(20, 0.2, seed=29)
    inputs = _countdown_inputs(network, lifetime=lambda node: 10)
    with pytest.raises(RoundLimitExceeded):
        run_columns(network, inputs, max_rounds=3, engine="vectorized")
    assert _CountdownKernel.prepared == 1


# ----------------------------------------------------------------------
# Broadcast interning
# ----------------------------------------------------------------------
def test_intern_broadcast_shares_envelopes_across_calls():
    clear_payload_memo()
    first = intern_broadcast(5, "color", 12, 8)
    second = intern_broadcast(5, "color", 12, 8)
    assert first is second
    assert (first.sender, first.tag, first.payload) == (5, "color", 12)
    # A different key gets a different envelope.
    assert intern_broadcast(5, "color", 13, 8) is not first
    assert intern_broadcast(6, "color", 12, 8) is not first
    clear_payload_memo()
    assert intern_broadcast(5, "color", 12, 8) is not first


def test_intern_broadcast_unhashable_payload_degrades():
    payload = [1, 2, 3]
    first = intern_broadcast(0, "t", payload, 16)
    second = intern_broadcast(0, "t", payload, 16)
    assert first is not second
    assert first.payload == second.payload == [1, 2, 3]


def test_intern_broadcast_honors_cache_switch():
    clear_payload_memo()
    previous = set_payload_memo_enabled(False)
    try:
        first = intern_broadcast(2, "t", 9, 8)
        second = intern_broadcast(2, "t", 9, 8)
        assert first is not second
    finally:
        set_payload_memo_enabled(previous)
        clear_payload_memo()


# ----------------------------------------------------------------------
# Two-Sweep populations: program-population fallback and dispatch stats
# ----------------------------------------------------------------------
def _two_sweep_path_programs():
    """A 4-node properly colored path of ``TwoSweepProgram``s plus one
    isolated foreign-class node (``_DummyProgram`` halts immediately and
    exchanges nothing, so the run's totals stay engine-checkable)."""
    from repro.core.two_sweep import TwoSweepProgram

    network = Network({0: [1], 1: [0, 2], 2: [1, 3], 3: [2], 4: []})
    programs = {}
    for node in range(4):
        out = frozenset(
            v for v in network.neighbors(node) if v > node
        )
        programs[node] = TwoSweepProgram(
            node=node, initial_color=node, q=5, p=2,
            color_list=(0, 1), defect_fn={0: 2, 1: 2},
            out_neighbors=out, color_space_size=4,
        )
    programs[4] = _DummyProgram()
    return network, programs


def test_two_sweep_mixed_population_falls_back():
    """Kernels run only from columns: a program population -- here
    Two-Sweep programs mixed with another class -- runs on reference
    (recorded as a ``programs`` fallback) with identical results."""
    outputs = {}
    ledgers = {}
    for engine in ("reference", "vectorized"):
        network, programs = _two_sweep_path_programs()
        ledger = CostLedger()
        if engine == "vectorized":
            reset_kernel_stats()
        outs, _ = run_protocol(
            network, programs, ledger=ledger, engine=engine
        )
        outputs[engine] = outs
        ledgers[engine] = (
            ledger.rounds, ledger.messages, ledger.bits,
            ledger.max_message_bits, ledger.broadcasts,
        )
    stats = kernel_stats()
    assert stats["fallbacks"] == 1
    assert stats["by_reason"] == {"programs": 1}
    assert outputs["vectorized"] == outputs["reference"]
    assert ledgers["vectorized"] == ledgers["reference"]


def test_two_sweep_trace_declines_kernel():
    """A traced Two-Sweep run cannot be replayed from a bucketed pass:
    the kernel must decline (recorded as ``declined``) and the
    reference fallback must produce the same trace as the reference engine."""
    from repro.coloring import random_oldc_instance
    from repro.core import two_sweep
    from repro.graphs import orient_by_id, sequential_ids

    traces = {}
    for engine in ("reference", "vectorized"):
        network = gnp_graph(20, 0.2, seed=11)
        instance = random_oldc_instance(orient_by_id(network), p=2, seed=11)
        trace = []
        if engine == "vectorized":
            reset_kernel_stats()
        with use_engine(engine):
            two_sweep(
                instance, sequential_ids(network), len(network), 2,
                trace=trace,
            )
        traces[engine] = trace
    stats = kernel_stats()
    assert stats["by_reason"] == {"declined": 1}
    assert stats["warmup_s"] >= 0.0
    assert traces["vectorized"] == traces["reference"]


def test_kernel_stats_counters_track_hits():
    """A clean vectorized Two-Sweep run is recorded as one hit under the
    kernel's class name, and ``reset_kernel_stats`` zeroes everything."""
    from repro.coloring import random_oldc_instance
    from repro.core import two_sweep
    from repro.graphs import orient_by_id, sequential_ids

    network = gnp_graph(20, 0.2, seed=11)
    instance = random_oldc_instance(orient_by_id(network), p=2, seed=11)
    reset_kernel_stats()
    with use_engine("vectorized"):
        two_sweep(instance, sequential_ids(network), len(network), 2)
    stats = kernel_stats()
    assert stats["runs"] == stats["hits"] == 1
    assert stats["fallbacks"] == 0
    assert stats["by_kernel"] == {"TwoSweepKernel": 1}
    assert stats["warmup_s"] > 0.0
    reset_kernel_stats()
    zeroed = kernel_stats()
    assert zeroed["runs"] == 0 and not zeroed["by_kernel"]


def test_numpy_import_is_not_booked_as_warmup(monkeypatch):
    """The first kernel run in a process resolves the array backend --
    importing NumPy -- before its warmup clock starts: ``warmup_s``
    counts column building, not the import."""
    import time

    from repro.coloring.random_instances import random_arbdefective_instance
    from repro.graphs import sequential_ids
    from repro.sim import arrays
    from repro.substrates.greedy import greedy_arbdefective_sweep

    pytest.importorskip("numpy")
    network = gnp_graph(30, 0.2, seed=3)
    instance = random_arbdefective_instance(network, 1.0, seed=3,
                                            color_space_size=8)
    real_import = arrays._import_numpy

    def slow_import():
        if arrays._numpy_module is arrays._UNSET:
            time.sleep(0.2)  # an import's cost
        return real_import()

    monkeypatch.setenv(arrays.ARRAYS_ENV, "1")
    monkeypatch.setattr(arrays, "_import_numpy", slow_import)
    arrays._reset_import_cache()
    reset_kernel_stats()
    with use_engine("vectorized"):
        greedy_arbdefective_sweep(instance, sequential_ids(network),
                                  len(network))
    stats = kernel_stats()
    assert stats["by_kernel"] == {"_GreedySweepKernel": 1}
    assert stats["warmup_s"] < 0.2


def test_tracing_preserves_kernel_hit_rate():
    """Regression (the tracer's reason to exist): a traced vectorized
    Two-Sweep run must still be a kernel hit, not an ``observer``-style
    fallback -- telemetry that cost the kernels would be useless."""
    from repro.coloring import random_oldc_instance
    from repro.core import two_sweep
    from repro.graphs import orient_by_id, sequential_ids
    from repro.obs import Tracer, use_tracer

    network = gnp_graph(20, 0.2, seed=11)
    instance = random_oldc_instance(orient_by_id(network), p=2, seed=11)
    reset_kernel_stats()
    tracer = Tracer()
    with use_engine("vectorized"), use_tracer(tracer):
        two_sweep(instance, sequential_ids(network), len(network), 2)
    stats = kernel_stats()
    assert stats["runs"] == stats["hits"] == 1
    assert stats["fallbacks"] == 0
    assert stats["by_kernel"] == {"TwoSweepKernel": 1}
    # The trace itself records the kernel attribution on the run span.
    run_span = next(
        record for record in tracer.events if record["kind"] == "run"
    )
    assert run_span["engine"] == "vectorized"
    assert run_span["kernel"] == "TwoSweepKernel"
    assert run_span["fallback"] is None


def test_fallback_reason_still_recorded_under_tracing():
    """Per-node tracing (``trace=``) makes the Two-Sweep kernel decline,
    and that reason lands in both the counters and the run span -- the
    visible cost of round-level observation, in contrast to the tracer
    itself which keeps the kernel engaged."""
    from repro.coloring import random_oldc_instance
    from repro.core import two_sweep
    from repro.graphs import orient_by_id, sequential_ids
    from repro.obs import Tracer, use_tracer

    network = gnp_graph(20, 0.2, seed=11)
    instance = random_oldc_instance(orient_by_id(network), p=2, seed=11)
    reset_kernel_stats()
    tracer = Tracer()
    trace = []
    with use_engine("vectorized"), use_tracer(tracer):
        two_sweep(
            instance, sequential_ids(network), len(network), 2,
            trace=trace,
        )
    stats = kernel_stats()
    assert stats["hits"] == 0
    assert stats["by_reason"] == {"declined": 1}
    run_span = next(
        record for record in tracer.events if record["kind"] == "run"
    )
    assert run_span["kernel"] is None
    assert run_span["fallback"] == "declined"
