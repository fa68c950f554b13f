"""Cost accounting shared across composed protocols.

The theorems in the paper bound three resources: the number of synchronous
*rounds*, the number of *messages*, and the maximum *message size* in bits
(the CONGEST budget).  A :class:`CostLedger` accumulates all three and can
be passed through a chain of sub-protocol invocations (e.g. Theorem 1.5
calls Lemma 4.4, which calls Lemma 3.4, which runs Linial steps) so the
composed totals are measured exactly once.

Phases give a named breakdown: ``ledger.phase("linial")`` opens a scope and
rounds charged inside it are attributed to that phase as well as the total.
When a :class:`~repro.obs.tracer.Tracer` is installed the same ``with
ledger.phase(...)`` block *also* opens a trace span, so one scope both
charges the logical costs and times the physical wall-clock -- the
per-phase profile in ``repro trace`` comes straight from these spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..obs.tracer import current_tracer


@dataclass
class PhaseStats:
    """Per-phase resource totals."""

    rounds: int = 0
    messages: int = 0
    bits: int = 0
    max_message_bits: int = 0
    invocations: int = 0
    #: Broadcast envelopes fanned out (each already counted in
    #: ``messages`` once per delivered copy).
    broadcasts: int = 0


class CostLedger:
    """Accumulates rounds / messages / bits across composed protocols."""

    def __init__(self) -> None:
        self.rounds = 0
        self.messages = 0
        self.bits = 0
        self.max_message_bits = 0
        #: Broadcast envelopes fanned out; the delivered copies are part
        #: of ``messages``/``bits``, so this tracks *how* traffic was
        #: produced, not extra traffic.
        self.broadcasts = 0
        self.phases: Dict[str, PhaseStats] = {}
        self._phase_stack: List[str] = []

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_round(self, messages: int = 0, bits: int = 0,
                     max_message_bits: int = 0, broadcasts: int = 0) -> None:
        """Record one synchronous round with the given message totals."""
        self.rounds += 1
        self.messages += messages
        self.bits += bits
        self.broadcasts += broadcasts
        if max_message_bits > self.max_message_bits:
            self.max_message_bits = max_message_bits
        for name in self._phase_stack:
            stats = self.phases[name]
            stats.rounds += 1
            stats.messages += messages
            stats.bits += bits
            stats.broadcasts += broadcasts
            if max_message_bits > stats.max_message_bits:
                stats.max_message_bits = max_message_bits

    def charge_batch(self, rounds: int, messages: int = 0, bits: int = 0,
                     max_message_bits: int = 0, broadcasts: int = 0) -> None:
        """Record ``rounds`` synchronous rounds in one update.

        Equivalent to ``rounds`` calls of :meth:`charge_round` whose
        message/bit counts sum to the given totals -- the vectorized
        scheduler engine accumulates whole runs locally and charges them
        here in one O(phases) step instead of O(rounds * phases).
        """
        if rounds < 0:
            raise ValueError("cannot charge a negative number of rounds")
        if rounds == 0:
            return
        self.rounds += rounds
        self.messages += messages
        self.bits += bits
        self.broadcasts += broadcasts
        if max_message_bits > self.max_message_bits:
            self.max_message_bits = max_message_bits
        for name in self._phase_stack:
            stats = self.phases[name]
            stats.rounds += rounds
            stats.messages += messages
            stats.bits += bits
            stats.broadcasts += broadcasts
            if max_message_bits > stats.max_message_bits:
                stats.max_message_bits = max_message_bits

    def charge_rounds(self, count: int) -> None:
        """Charge ``count`` silent rounds (no messages)."""
        self.charge_batch(count)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseStats]:
        """Attribute rounds charged inside the ``with`` block to ``name``.

        With a tracer installed (:func:`repro.obs.use_tracer`) the scope
        additionally emits a ``phase`` span carrying this invocation's
        charge delta and wall-clock, so charging and timing share one
        ``with`` statement.
        """
        stats = self.phases.setdefault(name, PhaseStats())
        stats.invocations += 1
        self._phase_stack.append(name)
        tracer = current_tracer()
        if tracer is None:
            try:
                yield stats
            finally:
                self._phase_stack.pop()
            return
        before = (stats.rounds, stats.messages, stats.bits,
                  stats.broadcasts)
        with tracer.span("phase", name) as span:
            try:
                yield stats
            finally:
                self._phase_stack.pop()
                span.attrs.update(
                    rounds=stats.rounds - before[0],
                    messages=stats.messages - before[1],
                    bits=stats.bits - before[2],
                    broadcasts=stats.broadcasts - before[3],
                )

    def phase_rounds(self, name: str) -> int:
        """Rounds attributed to phase ``name`` (0 if never entered)."""
        stats = self.phases.get(name)
        return stats.rounds if stats is not None else 0

    # ------------------------------------------------------------------
    # Merging and reporting
    # ------------------------------------------------------------------
    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's totals into this one (phases included)."""
        self.rounds += other.rounds
        self.messages += other.messages
        self.bits += other.bits
        self.broadcasts += other.broadcasts
        if other.max_message_bits > self.max_message_bits:
            self.max_message_bits = other.max_message_bits
        for name, stats in other.phases.items():
            mine = self.phases.setdefault(name, PhaseStats())
            mine.rounds += stats.rounds
            mine.messages += stats.messages
            mine.bits += stats.bits
            mine.broadcasts += stats.broadcasts
            mine.invocations += stats.invocations
            if stats.max_message_bits > mine.max_message_bits:
                mine.max_message_bits = stats.max_message_bits

    def summary(self) -> str:
        """Human-readable multi-line summary used by examples and benches."""
        lines = [
            f"rounds={self.rounds} messages={self.messages} "
            f"bits={self.bits} max_message_bits={self.max_message_bits}"
        ]
        for name, stats in sorted(self.phases.items()):
            lines.append(
                f"  phase {name}: rounds={stats.rounds} "
                f"messages={stats.messages} bits={stats.bits} "
                f"broadcasts={stats.broadcasts} "
                f"invocations={stats.invocations} "
                f"max_message_bits={stats.max_message_bits}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of the totals and every phase.

        This is the ledger's wire form: run manifests
        (:func:`repro.obs.collect_manifest`) embed it so every trace and
        benchmark sidecar carries the run's full logical cost record.
        """
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
            "max_message_bits": self.max_message_bits,
            "broadcasts": self.broadcasts,
            "phases": {
                name: {
                    "rounds": stats.rounds,
                    "messages": stats.messages,
                    "bits": stats.bits,
                    "max_message_bits": stats.max_message_bits,
                    "broadcasts": stats.broadcasts,
                    "invocations": stats.invocations,
                }
                for name, stats in sorted(self.phases.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostLedger(rounds={self.rounds}, messages={self.messages})"


def ensure_ledger(ledger: Optional[CostLedger]) -> CostLedger:
    """Return ``ledger`` or a fresh one when ``None`` was passed."""
    return ledger if ledger is not None else CostLedger()
