"""Message envelopes and payload bit accounting.

The CONGEST model bounds messages to ``O(log n)`` bits, so the simulator
needs a concrete notion of how many bits a payload occupies.  We use the
standard information-theoretic encoding cost: an integer ``x`` drawn from a
known range costs ``bit_length(x)`` bits (at least one), a sequence costs
the sum of its elements plus a small length header, and ``None`` is free.

Algorithms may also declare the exact bit size of a payload explicitly
(e.g. "a color from a space of size C costs ceil(log2 C) bits") via the
``bits`` argument of :meth:`RoundContext.send`; the estimator below is the
fallback for payloads that do not declare a size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple

#: Bits charged per sequence for its length header.
_LENGTH_HEADER_BITS = 8

#: Safety valve so pathological workloads (millions of distinct payloads)
#: cannot grow the memo tables without bound.
_MEMO_LIMIT = 1 << 16

#: ``(type, value) -> bits`` for hashable payloads.  Keyed by type as
#: well as value because ``True == 1`` but costs a different number of
#: bits than the integer it compares equal to.
_payload_bits_memo: Dict[Tuple[type, Any], int] = {}

#: ``(type, value) -> canonical object`` interning table; see
#: :func:`intern_payload`.
_intern_table: Dict[Tuple[type, Any], Any] = {}

#: ``(sender, tag, payload type, payload, bits) -> Broadcast`` envelope
#: interning table; see :func:`intern_broadcast`.
_broadcast_table: Dict[Tuple[Any, ...], "Broadcast"] = {}


def clear_payload_memo() -> None:
    """Drop every memoized payload size and interned payload/envelope."""
    _payload_bits_memo.clear()
    _intern_table.clear()
    _broadcast_table.clear()


def intern_payload(payload: Any) -> Any:
    """Return a canonical instance of ``payload`` when it is hashable.

    Protocols send the same few payloads over and over (a color, a small
    tuple of colors, a defect value); interning maps every structurally
    equal payload to one shared object so downstream identity-based
    caches -- the :func:`payload_bits` memo, envelope size caches --
    stay warm across senders, rounds, and trials.  Unhashable payloads
    are returned unchanged.
    """
    if payload is None:
        return payload
    try:
        key = (payload.__class__, payload)
        cached = _intern_table.get(key)
        if cached is not None:
            return cached
        if len(_intern_table) >= _MEMO_LIMIT:
            _intern_table.clear()
        _intern_table[key] = payload
    except TypeError:  # unhashable: lists, dicts, sets
        pass
    return payload


def int_bits(value: int) -> int:
    """Number of bits to encode the non-negative integer ``value``.

    Zero still costs one bit.  Negative integers cost one sign bit extra.
    """
    if value == 0:
        return 1
    sign = 1 if value < 0 else 0
    return abs(value).bit_length() + sign


def color_bits(color_space_size: int) -> int:
    """Bits needed for one color out of a space of ``color_space_size``."""
    if color_space_size <= 1:
        return 1
    return int(math.ceil(math.log2(color_space_size)))


def payload_bits(payload: Any) -> int:
    """Estimate the encoding size of ``payload`` in bits.

    Supports ``None``, ``bool``, ``int``, ``str``, and (nested) sequences,
    sets and dicts of those.  Unknown objects are charged a conservative
    64 bits so forgetting to declare a size never *under*-counts by much.

    Hashable payloads are memoized process-wide: broadcast-heavy
    protocols re-send the same colors and defect vectors every round, so
    each distinct payload is sized exactly once.
    """
    if payload is None:
        return 0
    try:
        key = (payload.__class__, payload)
        cached = _payload_bits_memo.get(key)
        if cached is not None:
            return cached
    except TypeError:  # unhashable: estimate without the memo
        key = None
    bits = _estimate_payload_bits(payload)
    if key is not None:
        if len(_payload_bits_memo) >= _MEMO_LIMIT:
            _payload_bits_memo.clear()
        _payload_bits_memo[key] = bits
    return bits


def _estimate_payload_bits(payload: Any) -> int:
    """The raw (memo-free) information-theoretic estimator."""
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return int_bits(payload)
    if isinstance(payload, str):
        return 8 * len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return _LENGTH_HEADER_BITS + sum(payload_bits(item) for item in payload)
    if isinstance(payload, dict):
        return _LENGTH_HEADER_BITS + sum(
            payload_bits(key) + payload_bits(value)
            for key, value in payload.items()
        )
    return 64


@dataclass(frozen=True)
class Message:
    """A single point-to-point message delivered at the next round.

    Attributes
    ----------
    sender, receiver:
        Node identifiers; ``receiver`` must be a neighbor of ``sender``.
    tag:
        A short protocol-defined label used to multiplex logical channels
        (e.g. ``"sublist"`` vs ``"final-color"``).
    payload:
        Arbitrary (picklable, read-only by convention) content.
    bits:
        Declared size of the payload in bits; if ``None`` the estimator
        :func:`payload_bits` is used.
    """

    sender: Hashable
    receiver: Hashable
    tag: str
    payload: Any = None
    bits: Optional[int] = field(default=None, compare=False)
    #: Memoized :attr:`size_bits`; payloads are read-only by convention,
    #: so the estimator runs at most once per message.
    _size_cache: Optional[int] = field(
        default=None, compare=False, repr=False, init=False
    )

    @property
    def size_bits(self) -> int:
        """The size charged against the CONGEST budget for this message."""
        bits = self.bits
        if bits is not None:
            # Declared sizes are already O(1); caching would only add an
            # object.__setattr__ per message.
            return bits
        cached = self._size_cache
        if cached is None:
            cached = payload_bits(self.payload)
            object.__setattr__(self, "_size_cache", cached)
        return cached


class Broadcast:
    """One shared envelope for a same-payload send to every neighbor.

    :meth:`RoundContext.broadcast` queues a single ``Broadcast`` instead
    of one :class:`Message` per neighbor; the scheduler fans it out to
    each of the sender's neighbors *by reference*.  Semantically it is
    exactly equivalent to ``degree`` identical point-to-point messages:
    each copy is charged to the ledger and checked against the bandwidth
    model, and each receiver finds the envelope in its inbox with the
    usual ``sender`` / ``tag`` / ``payload`` fields.

    Because every copy is identical, accounting is analytic (``count *
    size_bits`` bits, one bandwidth check stands for all copies) and no
    per-edge allocation happens in the kernels' fan-out.  One
    envelope is constructed per *broadcast call*, so construction itself
    is on the hot path: a plain ``__slots__`` class (read-only by the
    same convention as payloads) beats a frozen dataclass here.

    ``receiver`` is ``None``: an inbox consumer is, by construction, the
    receiver of every envelope it reads.
    """

    __slots__ = ("sender", "tag", "payload", "bits", "_size_cache")

    #: Broadcast envelopes have no single receiver; kept as a class
    #: attribute so bandwidth errors can format uniformly.
    receiver = None

    def __init__(self, sender: Hashable, tag: str, payload: Any = None,
                 bits: Optional[int] = None):
        self.sender = sender
        self.tag = tag
        self.payload = payload
        self.bits = bits
        self._size_cache = bits

    @property
    def size_bits(self) -> int:
        """Per-copy size charged against the CONGEST budget."""
        cached = self._size_cache
        if cached is None:
            cached = self._size_cache = payload_bits(self.payload)
        return cached

    def __eq__(self, other: Any) -> bool:
        # Mirrors Message equality: declared bits and size caches are
        # transport metadata, not message content.
        if other.__class__ is not Broadcast:
            return NotImplemented
        return (self.sender == other.sender and self.tag == other.tag
                and self.payload == other.payload)

    def __hash__(self) -> int:
        return hash((Broadcast, self.sender, self.tag, self.payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Broadcast(sender={self.sender!r}, tag={self.tag!r}, "
                f"payload={self.payload!r}, bits={self.bits!r})")


def intern_broadcast(sender: Hashable, tag: str, payload: Any = None,
                     bits: Optional[int] = None) -> Broadcast:
    """A canonical :class:`Broadcast` for ``(sender, tag, payload, bits)``.

    Protocols that re-broadcast an identical message every round (keep-
    alives, repeated color announcements) get the *same* envelope object
    back, eliding even the one-per-call construction and keeping its
    ``_size_cache`` warm across rounds.  Envelopes are read-only by the
    same convention as payloads, so sharing across rounds is safe.

    The key includes the payload's type (``True == 1`` but encodes
    differently) and the declared ``bits`` (the same payload may be sent
    under different declared sizes).  Unhashable payloads get a fresh
    envelope per call.
    """
    try:
        key = (sender, tag, payload.__class__, payload, bits)
        envelope = _broadcast_table.get(key)
        if envelope is not None:
            return envelope
        if len(_broadcast_table) >= _MEMO_LIMIT:
            _broadcast_table.clear()
        if bits is None:
            payload = intern_payload(payload)
        envelope = Broadcast(sender, tag, payload, bits)
        _broadcast_table[key] = envelope
        return envelope
    except TypeError:  # unhashable payload (or sender)
        pass
    if bits is None:
        payload = intern_payload(payload)
    return Broadcast(sender, tag, payload, bits)
