"""Tests for message envelopes and bit accounting."""

from __future__ import annotations

import pytest

from repro.sim import (
    Broadcast,
    Message,
    clear_payload_memo,
    color_bits,
    int_bits,
    intern_payload,
    payload_bits,
)
from repro.sim.message import _estimate_payload_bits


class TestIntBits:
    def test_zero_costs_one_bit(self):
        assert int_bits(0) == 1

    def test_one_costs_one_bit(self):
        assert int_bits(1) == 1

    def test_powers_of_two(self):
        assert int_bits(2) == 2
        assert int_bits(255) == 8
        assert int_bits(256) == 9

    def test_negative_costs_sign_bit(self):
        assert int_bits(-5) == int_bits(5) + 1


class TestColorBits:
    def test_tiny_spaces(self):
        assert color_bits(1) == 1
        assert color_bits(2) == 1

    def test_degenerate_spaces_still_cost_one_bit(self):
        assert color_bits(0) == 1
        assert color_bits(-5) == 1

    def test_exact_powers(self):
        assert color_bits(4) == 2
        assert color_bits(1024) == 10

    def test_exact_powers_need_no_extra_bit(self):
        # ceil(log2(2^k)) must come out as exactly k, not k+1, even
        # where floating-point log2 could land just above the integer.
        for k in range(1, 40):
            assert color_bits(2 ** k) == k

    def test_non_powers_round_up(self):
        assert color_bits(5) == 3
        assert color_bits(1000) == 10
        for k in range(2, 20):
            assert color_bits(2 ** k + 1) == k + 1


class TestPayloadBits:
    def test_none_is_free(self):
        assert payload_bits(None) == 0

    def test_bool_is_one_bit(self):
        assert payload_bits(True) == 1

    def test_int(self):
        assert payload_bits(7) == 3

    def test_sequence_sums_plus_header(self):
        assert payload_bits([1, 2, 4]) == 8 + 1 + 2 + 3

    def test_dict_counts_keys_and_values(self):
        assert payload_bits({1: 1}) == 8 + 1 + 1

    def test_string_eight_bits_per_char(self):
        assert payload_bits("ab") == 16

    def test_unknown_object_charged_conservatively(self):
        class Opaque:
            pass

        assert payload_bits(Opaque()) == 64

    def test_nested(self):
        nested = [(1, 2), (3,)]
        assert payload_bits(nested) == 8 + (8 + 1 + 2) + (8 + 2)

    def test_negative_ints_carry_sign_bit(self):
        assert payload_bits(-1) == 2
        assert payload_bits(-7) == int_bits(7) + 1
        assert payload_bits((-1, 1)) == 8 + 2 + 1

    def test_nested_dict_payload(self):
        nested = {"a": {1: (2, 3)}, "b": None}
        inner = 8 + 1 + (8 + 2 + 2)          # {1: (2, 3)}
        assert payload_bits(nested) == 8 + (8 + inner) + (8 + 0)

    def test_set_payloads_sum_like_sequences(self):
        assert payload_bits({4}) == 8 + 3
        assert payload_bits(frozenset({4})) == 8 + 3

    def test_nested_unknown_object_falls_back_to_64(self):
        class Opaque:
            pass

        assert payload_bits([Opaque(), 1]) == 8 + 64 + 1

    def test_bool_inside_container_not_conflated_with_int(self):
        # True == 1 but bools cost 1 bit while e.g. 255 costs 8; the
        # memo key must distinguish the types.
        clear_payload_memo()
        assert payload_bits(1) == 1
        assert payload_bits(True) == 1
        assert payload_bits(255) == 8
        assert payload_bits(False) == 1


class TestPayloadMemo:
    def test_memo_agrees_with_disabled_estimator(self):
        # ``_estimate_payload_bits`` sizes a payload without reading or
        # writing the memo at its top level.
        payloads = [0, -9, "xyz", (1, (2, -3)), frozenset({7}), True]
        clear_payload_memo()
        memoized = [payload_bits(p) for p in payloads]
        memoized_again = [payload_bits(p) for p in payloads]
        clear_payload_memo()
        raw = [_estimate_payload_bits(p) for p in payloads]
        assert memoized == raw == memoized_again

    def test_unhashable_payloads_skip_the_memo(self):
        clear_payload_memo()
        assert payload_bits([1, [2]]) == 8 + 1 + (8 + 2)
        assert payload_bits({1: {2}}) == 8 + 1 + (8 + 2)

    def test_intern_returns_one_canonical_object(self):
        clear_payload_memo()
        a = (1, 2, 3)
        b = (1, 2, 3)
        assert intern_payload(a) is intern_payload(b)

    def test_intern_passes_through_unhashable_and_none(self):
        assert intern_payload(None) is None
        lst = [1, 2]
        assert intern_payload(lst) is lst

    def test_intern_distinguishes_types(self):
        clear_payload_memo()
        assert intern_payload(True) is True
        assert intern_payload(1) == 1
        assert intern_payload(1) is not True


class TestMessage:
    def test_declared_bits_override_estimator(self):
        message = Message("a", "b", "tag", payload=[1] * 100, bits=5)
        assert message.size_bits == 5

    def test_estimated_bits_fallback(self):
        message = Message("a", "b", "tag", payload=3)
        assert message.size_bits == 2

    def test_messages_are_frozen(self):
        message = Message("a", "b", "tag")
        with pytest.raises(AttributeError):
            message.payload = 42


class TestSizeBitsMemoization:
    def test_memoized_matches_fresh_estimate(self):
        payloads = [None, True, 7, -3, "abc", [1, (2, 3)], {4: "x"},
                    frozenset({5, 6})]
        for payload in payloads:
            message = Message("a", "b", "tag", payload=payload)
            first = message.size_bits
            assert first == payload_bits(payload)
            # Second access serves the cache and must agree.
            assert message.size_bits == first
            assert message._size_cache == first

    def test_declared_bits_bypass_cache(self):
        message = Message("a", "b", "tag", payload=[1] * 50, bits=9)
        assert message.size_bits == 9
        assert message._size_cache is None

    def test_cache_excluded_from_equality(self):
        left = Message("a", "b", "tag", payload=11)
        right = Message("a", "b", "tag", payload=11)
        assert left.size_bits == right.size_bits
        _ = left.size_bits  # populate only one cache
        assert left == right


class TestBroadcast:
    def test_declared_bits_override_estimator(self):
        envelope = Broadcast("a", "tag", payload=[1] * 100, bits=5)
        assert envelope.size_bits == 5

    def test_estimated_bits_memoized_on_envelope(self):
        envelope = Broadcast("a", "tag", payload=(1, 2))
        assert envelope.size_bits == 8 + 1 + 2
        assert envelope._size_cache == 8 + 1 + 2
        assert envelope.size_bits == 8 + 1 + 2

    def test_receiver_is_none(self):
        assert Broadcast("a", "t").receiver is None

    def test_equality_ignores_declared_bits(self):
        assert Broadcast("a", "t", 1, bits=4) == Broadcast("a", "t", 1)
        assert Broadcast("a", "t", 1) != Broadcast("a", "t", 2)
        assert Broadcast("a", "t", 1) != Message("a", "b", "t", 1)

    def test_hash_consistent_with_equality(self):
        assert hash(Broadcast("a", "t", 1, bits=4)) == \
            hash(Broadcast("a", "t", 1))
