"""Node programs: the local code executed by every vertex each round.

A :class:`NodeProgram` sees only what the model allows it to see: its own
identifier and input, its neighbor list, and the messages delivered this
round.  The scheduler (:mod:`repro.sim.scheduler`) drives all programs in
lock step; a program signals completion with :meth:`RoundContext.halt`.

Protocols in this repository follow a common shape -- "iterate over the q
initial color classes, class c acts in round c" -- so the context exposes
the current round number to keep those programs simple.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

from .message import Broadcast, Message, intern_broadcast

Node = Hashable

#: What a program may queue in one round: point-to-point messages and
#: shared broadcast envelopes, processed by the scheduler in queue order.
Envelope = Union[Message, Broadcast]


class RoundContext:
    """Per-node, per-round view handed to :meth:`NodeProgram.on_round`.

    A context is owned by the scheduler and **only valid for the
    duration of the** :meth:`NodeProgram.on_round` **call it is passed
    to**: engines may recycle one instance across nodes and rounds, so
    programs must not store the context (or its ``outbox``) and must
    copy anything from ``inbox`` they want to keep beyond the call.
    """

    __slots__ = ("node", "neighbors", "round_number", "inbox", "outbox",
                 "halted")

    def __init__(self, node: Node, neighbors: Tuple[Node, ...],
                 round_number: int, inbox: Tuple[Envelope, ...]):
        self.node = node
        self.neighbors = neighbors
        self.round_number = round_number
        self.inbox = inbox
        self.outbox: List[Envelope] = []
        self.halted = False

    def send(self, receiver: Node, tag: str, payload: Any = None,
             bits: Optional[int] = None) -> None:
        """Queue a message for delivery at the start of the next round."""
        self.outbox.append(Message(self.node, receiver, tag, payload, bits))

    def broadcast(self, tag: str, payload: Any = None,
                  bits: Optional[int] = None) -> None:
        """Send the same message to every neighbor.

        Queues **one** shared :class:`Broadcast` envelope; the scheduler
        fans it out to every neighbor by reference and charges each copy
        as if it were an individual :meth:`send`.  The envelope itself is
        interned: re-broadcasting the same ``(tag, payload, bits)`` in a
        later round reuses one canonical, sized-once envelope.
        """
        if not self.neighbors:
            return
        self.outbox.append(intern_broadcast(self.node, tag, payload, bits))

    def received(self, tag: str) -> Dict[Node, Any]:
        """Payloads of this round's messages with ``tag``, keyed by sender."""
        return {
            message.sender: message.payload
            for message in self.inbox
            if message.tag == tag
        }

    def halt(self) -> None:
        """Mark this node as finished.

        A halted node stops being scheduled but still *receives* nothing --
        protocols must be written so no one sends to a halted node expecting
        a reply.  Messages queued in the same round are still delivered.
        """
        self.halted = True


class NodeProgram(ABC):
    """Abstract local program; one instance runs per node.

    Subclasses keep all their state on ``self`` -- the scheduler never
    inspects it -- and must only read the information exposed through the
    :class:`RoundContext` to preserve the locality discipline.
    """

    @abstractmethod
    def on_round(self, ctx: RoundContext) -> None:
        """Execute one synchronous round.

        Called with the messages delivered this round in ``ctx.inbox``;
        messages queued via ``ctx.send`` are delivered next round.
        """

    def output(self) -> Any:
        """The node's final output after halting (protocol specific)."""
        return None
