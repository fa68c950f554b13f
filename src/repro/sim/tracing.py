"""Round-level observation of protocol runs.

A :class:`RoundObserver` attached to a scheduler records, per round, how
many messages of each tag crossed the network and which nodes were
active.  It powers the timeline rendering in examples and gives tests a
way to assert *when* something happened, not only that it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

Node = Hashable


@dataclass
class RoundRecord:
    """What happened in one synchronous round."""

    round_number: int
    messages_by_tag: Dict[str, int] = field(default_factory=dict)
    senders: Tuple[Node, ...] = ()
    halted: Tuple[Node, ...] = ()

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_tag.values())


class RoundObserver:
    """Collects a :class:`RoundRecord` per executed round."""

    def __init__(self) -> None:
        self.records: List[RoundRecord] = []

    def on_round(self, round_number: int, messages, halted) -> None:
        """Called by the scheduler after each round.

        ``messages``: the round's sent messages, one envelope per
        delivered copy; ``halted``: nodes that halted this round.
        """
        by_tag: Dict[str, int] = {}
        senders = []
        for message in messages:
            by_tag[message.tag] = by_tag.get(message.tag, 0) + 1
            senders.append(message.sender)
        self.records.append(RoundRecord(
            round_number=round_number,
            messages_by_tag=by_tag,
            senders=tuple(dict.fromkeys(senders)),
            halted=tuple(halted),
        ))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rounds(self) -> int:
        return len(self.records)

    def first_round_with_tag(self, tag: str) -> int:
        """1-based round number of the first message with ``tag`` (-1 if
        the tag never appears)."""
        for record in self.records:
            if record.messages_by_tag.get(tag):
                return record.round_number
        return -1

    def tag_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for record in self.records:
            for tag, count in record.messages_by_tag.items():
                totals[tag] = totals.get(tag, 0) + count
        return totals

    def quiet_rounds(self) -> int:
        """Rounds in which no message was sent."""
        return sum(
            1 for record in self.records if record.total_messages == 0
        )

    def timeline(self, width: int = 60) -> str:
        """A compact ASCII activity timeline (one char per round)."""
        if not self.records:
            return "(no rounds)"
        peak = max(record.total_messages for record in self.records) or 1
        levels = " .:-=+*#"
        chars = []
        for record in self.records:
            index = round(
                (len(levels) - 1) * record.total_messages / peak
            )
            chars.append(levels[index])
        text = "".join(chars)
        lines = [
            text[i:i + width] for i in range(0, len(text), width)
        ]
        return "\n".join(lines)
