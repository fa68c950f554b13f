"""Vectorized round kernels: array-at-a-time execution of node programs.

The reference engine pays one Python ``on_round`` call per node per
round.  On the paper's core workloads that dispatch is the dominant
remaining cost, and it is pure overhead: the populations are *perfectly
homogeneous* -- every node runs the same Linial-style color-reduction
step on data-only state.  A :class:`RoundKernel` exploits that by
executing one whole round for the entire population as a handful of
array/list "column" updates over the CSR rows of a
:class:`~repro.sim.compiled.CompiledNetwork`, the way a training stack
batches identical per-example programs into one kernel launch.

The contract mirrors the scheduler's engine contract: a kernel must be
*observationally identical* to running its program class through the
reference engine -- same outputs, same rounds/messages/bits/broadcast
totals (bit-identical ledgers), same exceptions in the same node order,
with and without a CONGEST bandwidth model.  The equivalence suite
(``tests/sim/test_engine_equivalence.py``) enforces this for every
kernel (reference vs vectorized).

A kernel runs only from the *columns entry*
(:func:`repro.sim.scheduler.run_columns`): the protocol hands the
scheduler a :class:`ColumnInputs` -- its per-node inputs as dense-id
columns plus the program class they stand for -- and no program object
is built.  Lifecycle, driven by ``Scheduler._run_vectorized``:

1. the scheduler looks up the kernel registered for the columns'
   program class; a program population (:func:`run_protocol`), an
   unregistered class, an observer or a stop oracle falls back to the
   reference engine;
2. ``kernel.prepare(compiled, inputs, bandwidth)`` builds the column
   state from the :class:`ColumnInputs` (or returns ``None`` to
   decline, which also falls back);
3. ``kernel.step(round_number, columns, inboxes)`` executes one whole
   synchronous round and returns a :class:`KernelRound` with the
   round's ledger charges; ``inboxes`` is whatever the previous step
   returned as ``outboxes`` (a kernel-private representation of the
   in-flight messages -- most kernels keep the "messages" implicit in
   their columns and leave it ``None``);
4. ``kernel.finalize(columns, inputs)`` stores the dense-id output
   column (and any extras) on the :class:`ColumnInputs`.

Programs are built (``ColumnInputs.build_programs``) only when the run
leaves the kernel: another engine, or any fallback above.  So each
protocol exists once as a node program and once as column code.

Kernels are registered per *exact* program class (subclasses may
override ``on_round`` arbitrarily, so they never inherit a kernel):
the substrate that defines a program registers its kernel next to it
(see ``repro.substrates.algebraic`` and ``repro.substrates.greedy``),
and benchmarks register kernels for their synthetic stress programs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from .compiled import CompiledNetwork
from .congest import BandwidthModel
from .message import intern_broadcast

#: A kernel factory: called once per run to get a fresh kernel instance.
KernelFactory = Callable[[], "RoundKernel"]


class KernelRound:
    """What one vectorized round produced, in ledger terms.

    ``messages``/``bits``/``max_message_bits``/``broadcasts`` are exactly
    the amounts the reference engine would charge for the round.
    ``active`` is the number of non-halted nodes *after* the round, and
    ``outboxes`` is handed back to the kernel as the next step's
    ``inboxes`` -- the scheduler never looks inside it.  The run ends
    after a round with ``active == 0`` and ``messages == 0`` (nothing
    left to schedule and nothing in flight), matching the reference
    engine's quiescence rule.
    """

    __slots__ = ("outboxes", "messages", "bits", "max_message_bits",
                 "broadcasts", "active")

    def __init__(self, active: int, messages: int = 0, bits: int = 0,
                 max_message_bits: int = 0, broadcasts: int = 0,
                 outboxes: Any = None):
        self.active = active
        self.messages = messages
        self.bits = bits
        self.max_message_bits = max_message_bits
        self.broadcasts = broadcasts
        self.outboxes = outboxes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KernelRound(active={self.active}, "
                f"messages={self.messages}, bits={self.bits})")


class RoundKernel(ABC):
    """Array-at-a-time executor for one homogeneous program class.

    A kernel instance lives for one scheduler run.  Implementations own
    the representation of their column state entirely; the scheduler
    only threads the opaque ``columns`` (from :meth:`prepare`) and
    ``outboxes`` (from each :meth:`step`) values back in.

    ``backend`` names the column representation the kernel settled on
    during :meth:`prepare` -- ``"python"`` (the default: plain
    list/tuple columns) or ``"numpy"`` when the kernel engaged the
    optional ndarray backend (:mod:`repro.sim.arrays`).  The scheduler
    reads it after ``prepare`` for the dispatch statistics and trace
    spans; the choice never changes results, only the representation.
    """

    #: Column representation chosen by ``prepare`` (diagnostics only).
    backend: str = "python"

    @abstractmethod
    def prepare(self, compiled: CompiledNetwork,
                inputs: "ColumnInputs",
                bandwidth: BandwidthModel) -> Optional[Any]:
        """Build column state from ``inputs`` (per-node columns in
        ``compiled.order``), or return ``None`` to decline the run.

        Declining is always safe: the scheduler falls back to the
        reference engine on the programs ``inputs.build_programs()``
        returns.  Kernels must decline whatever they do not model
        exactly.
        """

    @abstractmethod
    def step(self, round_number: int, columns: Any,
             inboxes: Any) -> KernelRound:
        """Execute synchronous round ``round_number`` for all nodes.

        ``inboxes`` is the previous step's ``outboxes`` (``None`` on
        round 1).  Must raise exactly the exceptions the per-node run
        would raise, in the same node order; a raising step leaves the
        round uncharged, like a raising ``on_round``.
        """

    @abstractmethod
    def finalize(self, columns: Any, inputs: "ColumnInputs") -> None:
        """Store the terminal outputs on ``inputs``.

        ``inputs.outputs`` gets the dense-id column of what
        ``NodeProgram.output()`` would have returned; ``inputs.extras``
        any further result columns the kernel reports.
        """


class ColumnInputs:
    """A kernelized run's inputs as columns, in place of its programs.

    ``program_class`` is the node program the columns stand for (its
    registered kernel runs them); ``data`` is the kernel's own column
    payload -- per-node values in ``compiled.order`` plus the uniform
    parameters; ``build_programs()`` returns the equivalent ``{node:
    program}`` population and is called only when the run cannot stay
    on the kernel.  After a kernel run, ``outputs`` holds the dense-id
    column of what ``NodeProgram.output()`` would have returned, in the
    kernel's own representation (a list, or an int64 ndarray on the
    NumPy backend), and ``extras`` any further dense-id result columns
    the kernel reports by name (the sweep's per-node ``local_work``).
    """

    __slots__ = ("program_class", "data", "build_programs", "outputs",
                 "extras")

    def __init__(self, program_class: type, data: Dict[str, Any],
                 build_programs: Callable[[], Dict[Any, Any]]):
        self.program_class = program_class
        self.data = data
        self.build_programs = build_programs
        self.outputs: Optional[Sequence[Any]] = None
        self.extras: Dict[str, Sequence[Any]] = {}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_registry: Dict[type, KernelFactory] = {}


def register_kernel(program_class: type, factory: KernelFactory,
                    replace: bool = False) -> None:
    """Map ``program_class`` (exactly; subclasses excluded) to a kernel.

    ``factory`` is called once per scheduler run and must return a fresh
    :class:`RoundKernel` (a kernel class itself is the usual factory).
    Registering a class twice raises ``ValueError`` unless ``replace``
    is set -- a silent overwrite could change which semantics a running
    benchmark measures.
    """
    if not isinstance(program_class, type):
        raise TypeError(
            f"program_class must be a class, got {program_class!r}"
        )
    if not replace and program_class in _registry:
        raise ValueError(
            f"a kernel is already registered for {program_class.__name__}; "
            f"pass replace=True to override it"
        )
    _registry[program_class] = factory


def unregister_kernel(program_class: type) -> bool:
    """Remove the kernel for ``program_class``; True if one was registered."""
    return _registry.pop(program_class, None) is not None


def kernel_for(program_class: type) -> Optional[KernelFactory]:
    """The registered factory for exactly ``program_class``, or ``None``."""
    return _registry.get(program_class)


def registered_kernels() -> Tuple[type, ...]:
    """The program classes that currently have kernels (diagnostics)."""
    return tuple(_registry)


# ----------------------------------------------------------------------
# Process-level kernel statistics
#
# The vectorized engine falls back to the reference engine *silently* -- by
# design (the results are identical), but silently is exactly how a
# benchmark ends up measuring the wrong code path.  The scheduler
# records every eligibility decision here so sweep reports and the CLI
# can surface whether runs actually went through a kernel, which kernel,
# how long ``prepare`` (the warmup) took, and why any run fell back.
# The metrics registry is the only store; :func:`kernel_stats` reads it.
# ----------------------------------------------------------------------
_HITS = "repro_kernel_hits_total"
_FALLBACKS = "repro_kernel_fallbacks_total"
_WARMUP = "repro_kernel_warmup_seconds_total"


def kernel_stats(registry: obs_metrics.MetricsRegistry = obs_metrics.REGISTRY
                 ) -> Dict[str, Any]:
    """The kernel dispatch counts in ``registry``, as a plain dict.

    A read-only view over the ``repro_kernel_*`` families (the process
    registry by default, which includes merged worker deltas):
    ``runs = hits + fallbacks``; ``warmup_s`` is the wall-clock spent in
    ``prepare`` (declined prepares pay it too); ``by_kernel`` maps
    kernel class names to hit counts, ``by_reason`` maps fallback
    reasons (``observer`` / ``stop_when`` / ``programs`` / ``empty`` /
    ``unregistered`` / ``declined``) to counts, and ``by_backend`` maps
    ``"KernelName[backend]"`` to hit counts, so operators can see which
    column representation (:mod:`repro.sim.arrays`) each kernel ran on.
    """
    by_kernel: Dict[str, int] = {}
    by_backend: Dict[str, int] = {}
    for (kernel, backend), count in registry.values(_HITS).items():
        by_kernel[kernel] = by_kernel.get(kernel, 0) + int(count)
        by_backend[f"{kernel}[{backend}]"] = int(count)
    by_reason = {reason: int(count) for (reason,), count
                 in registry.values(_FALLBACKS).items()}
    hits = sum(by_kernel.values())
    fallbacks = sum(by_reason.values())
    return {
        "runs": hits + fallbacks,
        "hits": hits,
        "fallbacks": fallbacks,
        "warmup_s": float(registry.values(_WARMUP).get((), 0.0)),
        "by_kernel": by_kernel,
        "by_reason": by_reason,
        "by_backend": by_backend,
    }


def _record_dispatch(outcome: str, warmup_s: float) -> None:
    obs_metrics.counter(
        "repro_kernel_dispatch_total",
        "Vectorized-engine dispatch decisions", ("outcome",),
    ).labels(outcome=outcome).inc()
    if warmup_s:
        obs_metrics.counter(
            _WARMUP, "Wall-clock spent in kernel prepare()",
        ).inc(warmup_s)


def _record_hit(kernel_name: str, warmup_s: float,
                backend: str = "python") -> None:
    _record_dispatch("hit", warmup_s)
    obs_metrics.counter(
        _HITS, "Kernel executions by kernel class and backend",
        ("kernel", "backend"),
    ).labels(kernel=kernel_name, backend=backend).inc()


def _record_fallback(reason: str, warmup_s: float = 0.0) -> None:
    _record_dispatch("fallback", warmup_s)
    obs_metrics.counter(
        _FALLBACKS, "Kernel fallbacks by reason", ("reason",),
    ).labels(reason=reason).inc()


# ----------------------------------------------------------------------
# Shared helpers for kernel implementations
# ----------------------------------------------------------------------
def fanout_totals(compiled: CompiledNetwork) -> Tuple[int, int]:
    """``(total_copies, envelopes)`` of one all-node broadcast round.

    ``total_copies`` is the sum of degrees; ``envelopes`` counts the
    nodes that actually queue one (``ctx.broadcast`` with no neighbors
    queues nothing, so zero-degree nodes send -- and count -- nothing).
    """
    total = int(compiled.indptr[compiled.n])
    views = compiled.numpy_views()
    if views is not None:
        from .arrays import get_numpy

        return total, int(get_numpy().count_nonzero(views[2]))
    return total, sum(1 for d in compiled.degrees if d)


def check_broadcasts(check_fanout, order, degrees, tag: str, values,
                     bits: int) -> None:
    """The CONGEST checks of a round in which every node ``i`` broadcasts
    ``values[i]`` (``bits`` each), in reference order: one fan-out check
    per node with neighbors.  ``values`` may be an int64 ndarray."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    for i, degree in enumerate(degrees):
        if degree:
            check_fanout(intern_broadcast(order[i], tag, values[i], bits),
                         degree)


def broadcast_charge(columns: Dict[str, Any], bits: int,
                     active: int) -> KernelRound:
    """The charges of a round in which every node broadcasts ``bits``;
    ``columns`` holds the kernel's :func:`fanout_totals` as
    ``total_copies`` and ``envelopes``."""
    copies = columns["total_copies"]
    return KernelRound(active, copies, copies * bits,
                       bits if copies else 0, columns["envelopes"])


def broadcast_round(columns: Dict[str, Any], tag: str, values, bits: int,
                    active: int) -> KernelRound:
    """Run a round in which every node broadcasts ``values[i]``: its
    CONGEST checks (when ``columns["check_fanout"]`` is set, over the
    kernel's ``order`` and ``degrees``) and its charges."""
    if columns["check_fanout"] is not None:
        check_broadcasts(columns["check_fanout"], columns["order"],
                         columns["degrees"], tag, values, bits)
    return broadcast_charge(columns, bits, active)
