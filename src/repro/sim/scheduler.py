"""The synchronous round scheduler.

Runs one :class:`~repro.sim.node.NodeProgram` per node in lock step:

1. every active node is called with the messages delivered this round,
2. the messages it queues are validated against the bandwidth model and
   buffered,
3. buffered messages are delivered at the start of the next round.

This matches the paper's model: in every round a node can send a
(potentially different) message to each neighbor, receive the neighbors'
messages, and perform arbitrary internal computation.

The scheduler terminates when every node has halted and no messages are in
flight, and charges the measured rounds/messages/bits to a
:class:`~repro.sim.metrics.CostLedger` so that composed protocols share one
meter.

Two execution engines implement the same semantics:

``vectorized`` (the default)
    The batched-dispatch path for *homogeneous* populations given as
    columns (:func:`run_columns`).  When the columns' program class has
    a registered :class:`~repro.sim.kernels.RoundKernel`, the whole
    population is executed array-at-a-time over the compiled CSR rows
    -- one kernel ``step`` per round instead of one ``on_round`` call
    per node -- with the ledger charged in bulk, and no program object
    is built.  Program populations (:func:`run_protocol`), classes
    without a kernel and runs that need per-round observer/oracle
    granularity transparently fall back to the reference engine, so
    ``engine="vectorized"`` is always safe to request.

``reference``
    The direct transcription of the model definition that the repository
    started from.  It is kept as the executable specification and runs
    every population without a kernel: the equivalence suite
    (``tests/sim/test_engine_equivalence.py``) runs representative
    protocols through both engines and asserts identical outputs,
    rounds, messages, and bit totals, and ``benchmarks/bench_engine.py``
    tracks the vectorized path's speedups over it.

Select an engine per call (``scheduler.run(engine="reference")``), per
process (the ``REPRO_SIM_ENGINE`` environment variable), or temporarily
for a whole protocol stack (:func:`use_engine`).

Both engines share one telemetry hook: when a
:class:`~repro.obs.tracer.Tracer` is installed
(:func:`repro.obs.use_tracer`), every ``run`` emits an aggregate span +
round-batch event built from the ledger delta -- never per-round or
per-node records -- so tracing costs one extra ``None`` check per run
when disabled and does not change engine eligibility when enabled (a
traced vectorized run keeps its kernels; contrast the per-round
``observer``, which forces the reference path).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Dict, Hashable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..obs import metrics as obs_metrics
from ..obs.tracer import current_tracer
from .congest import BandwidthModel, LocalModel
from .errors import NetworkError, RoundLimitExceeded, SchedulerError
from .message import Broadcast, Message
from .metrics import CostLedger, ensure_ledger
from .network import Network
from .node import NodeProgram, RoundContext

if TYPE_CHECKING:
    from .kernels import ColumnInputs

Node = Hashable

#: Safety net so buggy protocols fail loudly instead of spinning forever.
DEFAULT_MAX_ROUNDS = 1_000_000

#: The engines understood by :meth:`Scheduler.run`.
ENGINES = ("reference", "vectorized")

#: Environment variable naming the process-default engine.
ENGINE_ENV = "REPRO_SIM_ENGINE"

#: A programmatic engine selection (``set_default_engine`` /
#: :func:`use_engine`); ``None`` means "defer to the environment".  Kept
#: separate from the environment read so that ``REPRO_SIM_ENGINE`` is
#: honored *dynamically* -- setting it after import (or after a process
#: pool's parent imported this module) still takes effect, which the
#: parallel trial runner relies on to resolve the engine once in the
#: parent and ship it to every worker.
_engine_override: Optional[str] = None


def _validate_engine(name: str) -> str:
    if name not in ENGINES:
        raise SchedulerError(
            f"unknown scheduler engine {name!r}; expected one of {ENGINES}"
        )
    return name


def default_engine() -> str:
    """The engine used when :meth:`Scheduler.run` gets ``engine=None``.

    A programmatic selection wins; otherwise the *current* value of
    ``REPRO_SIM_ENGINE`` (re-read on every call, so late environment
    changes are honored), falling back to ``"vectorized"``.
    """
    if _engine_override is not None:
        return _engine_override
    return os.environ.get(ENGINE_ENV, "vectorized")


def set_default_engine(name: str) -> str:
    """Set the process-wide default engine; returns the previous one."""
    global _engine_override
    previous = default_engine()
    _engine_override = _validate_engine(name)
    return previous


@contextmanager
def use_engine(name: str) -> Iterator[None]:
    """Temporarily force every scheduler run to use ``name``.

    Lets benchmarks and equivalence tests push a whole protocol stack --
    including nested :func:`run_protocol` calls deep inside compositions
    -- onto one engine without threading a parameter everywhere.  On exit
    the previous override state is restored exactly (including the
    "no override, defer to the environment" state).
    """
    global _engine_override
    saved = _engine_override
    set_default_engine(name)
    try:
        yield
    finally:
        _engine_override = saved


class Scheduler:
    """Drives a set of node programs over a network until all halt."""

    def __init__(self, network: Network,
                 programs: Optional[Mapping[Node, NodeProgram]],
                 bandwidth: Optional[BandwidthModel] = None,
                 ledger: Optional[CostLedger] = None,
                 observer=None,
                 stop_when=None,
                 columns: Optional["ColumnInputs"] = None):
        if columns is None:
            missing = set(network.nodes) - set(programs)
            if missing:
                raise SchedulerError(f"nodes without a program: {sorted(map(repr, missing))}")
            extra = set(programs) - set(network.nodes)
            if extra:
                raise SchedulerError(f"programs for unknown nodes: {sorted(map(repr, extra))}")
            programs = dict(programs)
        elif programs is not None:
            raise SchedulerError("pass either programs or columns, not both")
        self.network = network
        #: ``None`` for a columns run until a fallback builds the programs.
        self.programs = programs
        #: The :class:`~repro.sim.kernels.ColumnInputs` of a columns run.
        self.columns = columns
        self.bandwidth = bandwidth if bandwidth is not None else LocalModel()
        self.ledger = ensure_ledger(ledger)
        #: Optional RoundObserver receiving per-round event records.
        self.observer = observer
        #: Optional global-quiescence oracle: ``stop_when(programs)`` is
        #: evaluated after every round and ends the run when true.  This
        #: models an external termination detector -- protocols whose
        #: nodes cannot decide termination locally (e.g. parallel local
        #: search) use it instead of per-node halting.
        self.stop_when = stop_when
        self.rounds_executed = 0

    def run(self, max_rounds: int = DEFAULT_MAX_ROUNDS,
            engine: Optional[str] = None) -> CostLedger:
        """Run to quiescence; returns the ledger for convenience.

        ``engine`` selects the execution path (``"reference"`` or
        ``"vectorized"``); ``None`` uses the process default (normally
        ``"vectorized"``, overridable via ``REPRO_SIM_ENGINE`` or
        :func:`use_engine`).  Both engines implement identical
        semantics; ``"vectorized"`` falls back to ``"reference"`` for
        populations it cannot batch.
        """
        name = _validate_engine(engine if engine is not None
                                else default_engine())
        tracer = current_tracer()
        # Per-run registry metrics from the ledger delta: recorded for
        # every run, traced or not.  Write-only observation -- nothing
        # below reads the registry, so results cannot change.
        ledger = self.ledger
        before = (ledger.rounds, ledger.messages, ledger.bits,
                  ledger.broadcasts)
        started = time.perf_counter()
        try:
            if tracer is None:
                return self._dispatch(name, max_rounds)
            return self._run_traced(tracer, name, max_rounds)
        finally:
            obs_metrics.record_run(
                name,
                ledger.rounds - before[0],
                ledger.messages - before[1],
                ledger.bits - before[2],
                ledger.broadcasts - before[3],
                time.perf_counter() - started,
            )

    def _dispatch(self, name: str, max_rounds: int) -> CostLedger:
        if name == "vectorized":
            return self._run_vectorized(max_rounds)
        self._build_programs()
        return self._run_reference(max_rounds)

    def _run_traced(self, tracer, name: str,
                    max_rounds: int) -> CostLedger:
        """Run under the installed :class:`~repro.obs.tracer.Tracer`.

        Tracing is *aggregate*, not per-round: the run's ledger delta is
        computed around the engine dispatch and emitted as one ``run``
        span plus one ``round-batch`` event, so the hot loops are
        untouched and -- unlike attaching a
        :class:`~repro.sim.tracing.RoundObserver` -- the vectorized
        engine keeps its kernels.  The logical fields of the emitted
        records are engine-invariant (the ledger delta is covered by the
        engine-equivalence contract); ``engine`` / ``kernel`` /
        ``fallback`` / wall-clock ride along as physical fields, with
        kernel attribution recovered from the process
        :func:`~repro.sim.kernels.kernel_stats` delta.
        """
        from .kernels import kernel_stats

        ledger = self.ledger
        before = (ledger.rounds, ledger.messages, ledger.bits,
                  ledger.broadcasts)
        kstats_before = kernel_stats() if name == "vectorized" else None
        nodes = (len(self.programs) if self.programs is not None
                 else len(self.network))
        with tracer.span("run", "scheduler", nodes=nodes) as span:
            try:
                return self._dispatch(name, max_rounds)
            finally:
                kernel = fallback = backend = None
                warmup_s = 0.0
                if kstats_before is not None:
                    kstats = kernel_stats()
                    warmup_s = kstats["warmup_s"] - kstats_before["warmup_s"]
                    for key, count in kstats["by_kernel"].items():
                        if count > kstats_before["by_kernel"].get(key, 0):
                            kernel = key
                            break
                    for key, count in kstats["by_reason"].items():
                        if count > kstats_before["by_reason"].get(key, 0):
                            fallback = key
                            break
                    for key, count in kstats["by_backend"].items():
                        if count > kstats_before["by_backend"].get(key, 0):
                            backend = key.rsplit("[", 1)[-1].rstrip("]")
                            break
                    tracer.annotate(
                        "dispatch", kernel=kernel, fallback=fallback,
                        backend=backend, warmup_s=warmup_s,
                    )
                from ..obs.manifest import peak_rss_kb

                span.attrs.update(
                    rounds=ledger.rounds - before[0],
                    messages=ledger.messages - before[1],
                    bits=ledger.bits - before[2],
                    broadcasts=ledger.broadcasts - before[3],
                    engine=name,
                    kernel=kernel,
                    fallback=fallback,
                    backend=backend,
                    # Physical field (PHYSICAL_FIELDS): peak RSS so far,
                    # outside the logical byte-identity contract.
                    rss_kb=peak_rss_kb(),
                )
                tracer.event(
                    "round-batch", "rounds",
                    rounds=ledger.rounds - before[0],
                    messages=ledger.messages - before[1],
                    bits=ledger.bits - before[2],
                    max_message_bits=ledger.max_message_bits,
                    broadcasts=ledger.broadcasts - before[3],
                    engine=name,
                    kernel=kernel,
                )

    # ------------------------------------------------------------------
    # Vectorized engine
    # ------------------------------------------------------------------
    def _run_vectorized(self, max_rounds: int) -> CostLedger:
        """Batched array-at-a-time execution for columns runs.

        Eligibility is checked here, once per run: a columns run whose
        program class has a registered
        :class:`~repro.sim.kernels.RoundKernel` and whose ``prepare``
        accepts the :class:`~repro.sim.kernels.ColumnInputs`.
        Everything else -- program populations, unregistered classes,
        kernels that decline, observers and stop oracles (which need
        per-node, per-round granularity) -- falls back to
        :meth:`_run_reference`, which handles any population with
        identical semantics; a columns run builds its programs only then.
        """
        # Local imports: avoid an import cycle with the kernel layer.
        from .arrays import get_numpy
        from .kernels import _record_fallback, _record_hit, kernel_for

        def fall_back(reason: str, warmup_s: float = 0.0) -> CostLedger:
            _record_fallback(reason, warmup_s)
            self._build_programs()
            return self._run_reference(max_rounds)

        if self.observer is not None or self.stop_when is not None:
            return fall_back(
                "observer" if self.observer is not None else "stop_when"
            )
        inputs = self.columns
        if inputs is None:
            return fall_back("programs")
        if not len(self.network):
            return fall_back("empty")
        factory = kernel_for(inputs.program_class)
        if factory is None:
            return fall_back("unregistered")

        compiled = self.network.compile()
        kernel = factory()
        # The backend's first resolution imports NumPy: settle it before
        # the clock starts, so warmup books column building only.
        get_numpy()
        warmup_start = time.perf_counter()
        columns = kernel.prepare(compiled, inputs, self.bandwidth)
        warmup_s = time.perf_counter() - warmup_start
        if columns is None:
            return fall_back("declined", warmup_s)
        _record_hit(type(kernel).__name__, warmup_s,
                    getattr(kernel, "backend", "python"))

        ledger = self.ledger
        step = kernel.step
        rounds = 0
        messages = 0
        bits = 0
        max_bits = 0
        broadcasts = 0
        inboxes = None
        active = compiled.n
        round_number = 0
        try:
            while True:
                if round_number >= max_rounds:
                    raise RoundLimitExceeded(max_rounds, active)
                round_number += 1
                result = step(round_number, columns, inboxes)
                rounds += 1
                messages += result.messages
                bits += result.bits
                broadcasts += result.broadcasts
                if result.max_message_bits > max_bits:
                    max_bits = result.max_message_bits
                active = result.active
                inboxes = result.outboxes
                if not active and not result.messages:
                    break
        finally:
            # Completed rounds are charged even when a kernel step
            # raises mid-run, exactly as the reference engine does (a
            # raising step leaves its own round uncharged).
            if rounds:
                ledger.charge_batch(
                    rounds,
                    messages=messages,
                    bits=bits,
                    max_message_bits=max_bits,
                    broadcasts=broadcasts,
                )
        kernel.finalize(columns, inputs)
        self.rounds_executed = round_number
        return ledger

    def _build_programs(self) -> None:
        """Materialize a columns run's program population (fallbacks)."""
        if self.programs is None:
            self.programs = dict(self.columns.build_programs())

    # ------------------------------------------------------------------
    # Reference engine
    # ------------------------------------------------------------------
    def _run_reference(self, max_rounds: int) -> CostLedger:
        """The seed scheduler loop, kept as the executable specification."""
        halted: Dict[Node, bool] = {node: False for node in self.network}
        pending: Dict[Node, List[Message]] = {node: [] for node in self.network}
        in_flight = 0
        round_number = 0
        while True:
            active = [node for node in self.network if not halted[node]]
            if not active and not in_flight:
                break
            if round_number >= max_rounds:
                raise RoundLimitExceeded(max_rounds, len(active))
            round_number += 1

            inboxes = pending
            pending = {node: [] for node in self.network}
            in_flight = 0
            round_messages = 0
            round_bits = 0
            round_max_bits = 0
            round_broadcasts = 0
            sent_this_round: List[Message] = []
            halted_this_round: List[Node] = []

            for node in self.network:
                if halted[node]:
                    # Late messages to a halted node are dropped; the
                    # protocols in this repo never rely on them.
                    continue
                ctx = RoundContext(
                    node=node,
                    neighbors=self.network.neighbors(node),
                    round_number=round_number,
                    inbox=tuple(inboxes[node]),
                )
                self.programs[node].on_round(ctx)
                for message in ctx.outbox:
                    if message.__class__ is Broadcast:
                        # The model definition of a broadcast: the same
                        # envelope is sent to each neighbor in neighbor
                        # order, each copy checked and charged like an
                        # individual point-to-point message.
                        if message.sender is not node \
                                and message.sender != node:
                            raise NetworkError(
                                f"{message.sender!r} queued a broadcast "
                                f"from {node!r}'s outbox"
                            )
                        round_broadcasts += 1
                        for neighbor in self.network.neighbors(node):
                            self.bandwidth.check(message)
                            pending[neighbor].append(message)
                            in_flight += 1
                            round_messages += 1
                            bits = message.size_bits
                            round_bits += bits
                            if bits > round_max_bits:
                                round_max_bits = bits
                            if self.observer is not None:
                                sent_this_round.append(message)
                        continue
                    if not self.network.has_edge(message.sender, message.receiver):
                        raise NetworkError(
                            f"{message.sender!r} tried to message non-neighbor "
                            f"{message.receiver!r}"
                        )
                    self.bandwidth.check(message)
                    pending[message.receiver].append(message)
                    in_flight += 1
                    round_messages += 1
                    bits = message.size_bits
                    round_bits += bits
                    if bits > round_max_bits:
                        round_max_bits = bits
                    if self.observer is not None:
                        sent_this_round.append(message)
                if ctx.halted:
                    halted[node] = True
                    halted_this_round.append(node)

            self.ledger.charge_round(
                messages=round_messages,
                bits=round_bits,
                max_message_bits=round_max_bits,
                broadcasts=round_broadcasts,
            )
            if self.observer is not None:
                self.observer.on_round(
                    round_number, sent_this_round, halted_this_round
                )
            if self.stop_when is not None and self.stop_when(self.programs):
                break
        self.rounds_executed = round_number
        return self.ledger

    def outputs(self) -> Dict[Node, object]:
        """Collect every node's declared output."""
        if self.programs is None:
            from .arrays import as_list

            return dict(zip(self.network.compile().order,
                            as_list(self.columns.outputs)))
        return {node: program.output() for node, program in self.programs.items()}

    def output_column(self) -> Sequence[object]:
        """Every node's declared output in ``compiled.order``.

        A columns run that stayed on its kernel returns the kernel's
        output column as it is (a list, or an int64 ndarray on the
        NumPy backend); otherwise the programs' outputs as a list.
        """
        if self.programs is None:
            return self.columns.outputs
        programs = self.programs
        return [programs[node].output()
                for node in self.network.compile().order]


def run_protocol(network: Network,
                 programs: Mapping[Node, NodeProgram],
                 bandwidth: Optional[BandwidthModel] = None,
                 ledger: Optional[CostLedger] = None,
                 max_rounds: int = DEFAULT_MAX_ROUNDS,
                 stop_when=None,
                 engine: Optional[str] = None
                 ) -> Tuple[Dict[Node, object], CostLedger]:
    """Convenience wrapper: run to quiescence and return (outputs, ledger)."""
    scheduler = Scheduler(
        network, programs, bandwidth=bandwidth, ledger=ledger,
        stop_when=stop_when,
    )
    scheduler.run(max_rounds=max_rounds, engine=engine)
    return scheduler.outputs(), scheduler.ledger


def run_columns(network: Network,
                columns: "ColumnInputs",
                bandwidth: Optional[BandwidthModel] = None,
                ledger: Optional[CostLedger] = None,
                max_rounds: int = DEFAULT_MAX_ROUNDS,
                engine: Optional[str] = None
                ) -> Tuple[Sequence[object], CostLedger]:
    """:func:`run_protocol` for a population given as columns.

    ``columns`` (a :class:`~repro.sim.kernels.ColumnInputs`) stands for
    the program population ``columns.build_programs()`` would return.
    On the vectorized engine its kernel runs straight from the columns
    and no program object is built; every other engine, and every
    vectorized fallback, builds the programs and runs them as
    :func:`run_protocol` would.  Ledger, trace and metrics bookkeeping
    are :meth:`Scheduler.run`'s, so both entries are indistinguishable
    by output, ledger and logical trace.  Columns in, column out:
    returns ``(outputs, ledger)`` with ``outputs`` the dense-id output
    column (:meth:`Scheduler.output_column`), not a node-keyed dict.
    """
    scheduler = Scheduler(network, None, bandwidth=bandwidth, ledger=ledger,
                          columns=columns)
    scheduler.run(max_rounds=max_rounds, engine=engine)
    return scheduler.output_column(), scheduler.ledger
