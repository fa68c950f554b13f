"""Tests for round observation."""

from __future__ import annotations

from repro.graphs import path_graph, ring_graph
from repro.sim import (
    NodeProgram,
    RoundObserver,
    Scheduler,
)


class PingTwice(NodeProgram):
    def on_round(self, ctx):
        if ctx.round_number <= 2:
            ctx.broadcast("ping", ctx.round_number)
        else:
            ctx.halt()


class SilentCountdown(NodeProgram):
    def __init__(self, rounds):
        self.remaining = rounds

    def on_round(self, ctx):
        self.remaining -= 1
        if self.remaining <= 0:
            ctx.halt()


class TestObserver:
    def run_with_observer(self, network, make_program):
        observer = RoundObserver()
        scheduler = Scheduler(
            network,
            {node: make_program() for node in network},
            observer=observer,
        )
        scheduler.run()
        return observer

    def test_records_every_round(self, small_ring):
        observer = self.run_with_observer(small_ring, PingTwice)
        assert observer.rounds() == 3
        assert [record.round_number for record in observer.records] == [
            1, 2, 3,
        ]

    def test_messages_by_tag(self, small_ring):
        observer = self.run_with_observer(small_ring, PingTwice)
        # 8 nodes x 2 neighbors x 2 rounds of pings.
        assert observer.tag_totals() == {"ping": 32}
        assert observer.first_round_with_tag("ping") == 1
        assert observer.first_round_with_tag("nope") == -1

    def test_halted_recorded(self):
        network = path_graph(2)
        observer = self.run_with_observer(network, lambda: PingTwice())
        assert set(observer.records[-1].halted) == {0, 1}

    def test_quiet_rounds(self):
        network = path_graph(3)
        observer = RoundObserver()
        scheduler = Scheduler(
            network,
            {node: SilentCountdown(4) for node in network},
            observer=observer,
        )
        scheduler.run()
        assert observer.quiet_rounds() == 4

    def test_timeline_shape(self, small_ring):
        observer = self.run_with_observer(small_ring, PingTwice)
        timeline = observer.timeline()
        assert len(timeline) == 3
        assert timeline[-1] == " "  # final round is silent

    def test_timeline_empty(self):
        assert RoundObserver().timeline() == "(no rounds)"

    def test_senders_deduplicated(self, small_ring):
        observer = self.run_with_observer(small_ring, PingTwice)
        assert set(observer.records[0].senders) == set(small_ring.nodes)


class _Envelope:
    """Minimal stand-in for a scheduler message envelope."""

    def __init__(self, sender, tag="t", payload=None):
        self.sender = sender
        self.tag = tag
        self.payload = payload


class TestPairForm:
    """The scheduler feeds observers one entry per delivered copy: a
    broadcast to ``d`` neighbors is ``d`` entries of one shared
    envelope, and it must aggregate exactly like ``d`` separate
    point-to-point envelopes."""

    def test_observer_counts_pair_copies(self):
        observer = RoundObserver()
        shared = _Envelope(1, "ping")
        observer.on_round(1, [shared] * 4 + [_Envelope(2, "ping")], [])
        record = observer.records[0]
        assert record.messages_by_tag == {"ping": 5}
        assert record.total_messages == 5

    def test_senders_deduplicated_in_first_seen_order(self):
        observer = RoundObserver()
        three = _Envelope(3)
        observer.on_round(
            1, [three, three, _Envelope(1), three, _Envelope(2)], [],
        )
        assert observer.records[0].senders == (3, 1, 2)

    def test_halted_feed_preserved(self):
        observer = RoundObserver()
        observer.on_round(1, [], [5, 2])
        assert observer.records[0].halted == (5, 2)

    def test_timeline_over_pair_feed(self):
        observer = RoundObserver()
        shared = _Envelope(1)
        observer.on_round(1, [shared] * 8, [])
        observer.on_round(2, [shared] * 4, [])
        observer.on_round(3, [], [1])
        timeline = observer.timeline()
        assert len(timeline) == 3
        assert timeline[0] == "#"  # peak round
        assert timeline[-1] == " "  # silent round

    def test_pair_and_flat_feeds_aggregate_identically(self):
        shared_feed = RoundObserver()
        flat = RoundObserver()
        envelope = _Envelope(7, "x")
        shared_feed.on_round(1, [envelope] * 3, [7])
        flat.on_round(1, [_Envelope(7, "x") for _ in range(3)], [7])
        assert flat.records == shared_feed.records
