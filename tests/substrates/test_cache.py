"""Tests for the substrate memos and the topology lookup counters."""

from __future__ import annotations

import pytest

from repro.obs import reset_metrics
from repro.sim import arrays
from repro.substrates import (
    PolynomialFamily,
    defective_schedule,
    is_prime,
    next_prime,
    proper_schedule,
    shared_family,
)
from repro.substrates import cache, cover_free


def _raw_is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def _raw_next_prime(n: int) -> int:
    candidate = max(2, n)
    while not _raw_is_prime(candidate):
        candidate += 1
    return candidate


class TestPrimeMemo:
    def test_memoized_matches_raw(self):
        values = list(range(0, 60)) + [97, 98, 121, 7919]
        warm = [is_prime(v) for v in values]
        again = [is_prime(v) for v in values]
        assert warm == again == [_raw_is_prime(v) for v in values]

    def test_next_prime_memoized_matches_raw(self):
        values = [0, 1, 2, 3, 14, 24, 90, 7907]
        warm = [next_prime(v) for v in values]
        again = [next_prime(v) for v in values]
        assert warm == again == [_raw_next_prime(v) for v in values]


class TestSharedFamily:
    def test_same_parameters_share_one_instance(self):
        assert shared_family(100, 11, 2) is shared_family(100, 11, 2)

    def test_distinct_parameters_get_distinct_instances(self):
        assert shared_family(100, 11, 2) is not shared_family(99, 11, 2)

    def test_shared_instance_evaluates_like_a_fresh_one(self):
        shared = shared_family(50, 7, 2)
        fresh = PolynomialFamily(50, 7, 2)
        for index in range(50):
            assert shared.coefficients(index) == fresh.coefficients(index)
            for x in range(7):
                assert shared.evaluate(index, x) == fresh.evaluate(index, x)

    def test_evaluation_memo_handles_out_of_field_points(self):
        family = PolynomialFamily(50, 7, 2)
        # x and x + m evaluate identically over F_m; the memo key must
        # not collide them with other polynomial indices.
        assert family.evaluate(1, 9) == family.evaluate(1, 2)
        assert family.evaluate(2, 0) == PolynomialFamily(50, 7, 2).evaluate(2, 0)

    def test_step_family_is_shared_when_enabled(self):
        schedule = proper_schedule(2047, 3)
        assert schedule
        assert schedule[0].family() is schedule[0].family()


class TestScheduleMemo:
    def test_proper_schedule_memo_returns_equal_fresh_lists(self):
        first = proper_schedule(2047, 3)
        second = proper_schedule(2047, 3)
        assert first == second
        assert first is not second
        second.append("sentinel")
        assert proper_schedule(2047, 3) == first

    def test_defective_schedule_memo_matches_raw(self):
        warm = defective_schedule(5000, 0.25)
        again = defective_schedule(5000, 0.25)
        raw = list(cover_free._defective_schedule.__wrapped__(5000, 0.25))
        assert warm == again == raw
        assert warm is not again

    def test_invalid_alpha_rejected_before_memo(self):
        with pytest.raises(ValueError):
            defective_schedule(100, 0.0)
        with pytest.raises(ValueError):
            defective_schedule(100, 1.5)


class TestValueTableMemo:
    def test_holds_at_most_64_read_only_tables(self):
        pytest.importorskip("numpy")
        # The table is a NumPy export, whatever REPRO_SIM_ARRAYS says.
        previous = arrays.set_arrays_override(True)
        try:
            self._check_memo()
        finally:
            arrays.set_arrays_override(previous)

    def _check_memo(self):
        memo = cover_free.value_table
        assert memo.cache_info().maxsize == 64
        first = memo(9, 3, 1)
        assert memo(9, 3, 1) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1
        family = PolynomialFamily(9, 3, 1)
        assert first.tolist() == [[family.evaluate(i, x) for x in range(3)]
                                  for i in range(9)]
        for q in range(2, 80):
            memo(q, 11, 1)
        assert memo.cache_info().currsize == 64


class TestCounters:
    def setup_method(self):
        reset_metrics()

    def teardown_method(self):
        reset_metrics()

    def test_record_lookup_counts_hits_and_misses(self):
        cache.record_lookup("widgets", False)
        cache.record_lookup("widgets", True)
        cache.record_lookup("widgets", True)
        assert cache.cache_counters() == {
            "widgets": {"hits": 2, "misses": 1}
        }

    def test_counters_are_copies(self):
        cache.record_lookup("widgets", True)
        counters = cache.cache_counters()
        counters["widgets"]["hits"] = 99
        assert cache.cache_counters()["widgets"]["hits"] == 1

    def test_streamed_topology_counts_one_lookup(self):
        from repro.graphs.streaming import stream_ring

        stream_ring(29)
        assert cache.cache_counters() == {
            "topologies": {"hits": 0, "misses": 1}
        }

    def test_manifest_carries_counters(self):
        from repro.obs import collect_manifest

        cache.record_lookup("widgets", True)
        caches = collect_manifest()["caches"]
        assert set(caches) == {"counters"}
        assert caches["counters"]["widgets"]["hits"] >= 1
