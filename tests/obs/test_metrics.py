"""Unit tests for the unified metrics registry (repro.obs.metrics)."""

import json
import math
import threading

import pytest

from repro.obs import metrics as m
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricError,
    MetricsFlusher,
    MetricsRegistry,
    log_buckets,
    nearest_rank,
    percentile,
    read_metrics_jsonl,
    render_exposition,
    sample_quantile,
    snapshot_delta,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestNearestRank:
    def test_issue_example_p50_of_two(self):
        # The bug the shared implementation fixes: round() gave rank 1.
        assert percentile([1, 2], 0.50) == 2

    def test_singleton(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_p99_window(self):
        values = list(range(1, 101))
        assert percentile(values, 0.99) == 100
        assert percentile(values, 0.50) == 51

    def test_unsorted_input(self):
        assert percentile([9, 1, 5], 0.5) == 5

    def test_empty_returns_none(self):
        assert percentile([], 0.5) is None

    def test_fraction_zero_rejected(self):
        with pytest.raises(MetricError):
            nearest_rank(10, 0.0)
        with pytest.raises(MetricError):
            percentile([1, 2], 0.0)

    def test_fraction_above_one_rejected(self):
        with pytest.raises(MetricError):
            nearest_rank(10, 1.5)

    def test_fraction_one_is_max(self):
        assert percentile([3, 1, 2], 1.0) == 3

    def test_rank_never_exceeds_count(self):
        for count in (1, 2, 3, 10, 1000):
            for fraction in (0.01, 0.5, 0.99, 1.0):
                rank = nearest_rank(count, fraction)
                assert 1 <= rank <= count


class TestBuckets:
    def test_log_buckets_span(self):
        edges = log_buckets(1e-4, 100.0, per_decade=3)
        assert edges[0] == pytest.approx(1e-4)
        assert edges[-1] == pytest.approx(100.0)
        assert all(a < b for a, b in zip(edges, edges[1:]))

    def test_latency_buckets_default(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert LATENCY_BUCKETS[-1] == pytest.approx(100.0)

    def test_sample_quantile_matches_percentile_on_edges(self):
        # Observations placed exactly on bucket edges: the histogram
        # quantile must agree with the exact rolling-window percentile.
        edges = (1.0, 2.0, 4.0, 8.0)
        values = [1.0, 2.0, 2.0, 4.0, 8.0]
        counts = [1, 2, 1, 1, 0]
        for fraction in (0.25, 0.5, 0.75, 0.99, 1.0):
            assert sample_quantile(edges, counts, fraction, 8.0) == \
                percentile(values, fraction)

    def test_sample_quantile_empty(self):
        assert sample_quantile((1.0, 2.0), [0, 0, 0], 0.5) is None

    def test_sample_quantile_overflow_uses_max(self):
        assert sample_quantile((1.0,), [0, 3], 0.5, maximum=42.0) == 42.0


class TestCounter:
    def test_inc_and_snapshot(self, registry):
        registry.counter("repro_t_total", "t").inc()
        registry.counter("repro_t_total", "t").inc(2.5)
        snap = registry.snapshot()
        assert snap["repro_t_total"]["samples"][0]["value"] == 3.5

    def test_labeled_children(self, registry):
        c = registry.counter("repro_l_total", "t", labelnames=("kind",))
        c.labels(kind="a").inc()
        c.labels(kind="b").inc(2)
        samples = registry.snapshot()["repro_l_total"]["samples"]
        assert {s["labels"]["kind"]: s["value"] for s in samples} == \
            {"a": 1.0, "b": 2.0}

    def test_negative_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.counter("repro_n_total", "t").inc(-1)

    def test_kind_conflict_rejected(self, registry):
        registry.counter("repro_kc", "t")
        with pytest.raises(MetricError):
            registry.gauge("repro_kc", "t")

    def test_labelnames_conflict_rejected(self, registry):
        registry.counter("repro_lc_total", "t", labelnames=("a",))
        with pytest.raises(MetricError):
            registry.counter("repro_lc_total", "t", labelnames=("b",))


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("repro_g", "t")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert registry.snapshot()["repro_g"]["samples"][0]["value"] == 4.0


class TestHistogram:
    def test_observe_counts_and_sum(self, registry):
        h = registry.histogram("repro_h_seconds", "t",
                               buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        sample = registry.snapshot()["repro_h_seconds"]["samples"][0]
        assert sample["counts"] == [1, 1, 1]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(55.5)
        assert sample["min"] == 0.5
        assert sample["max"] == 50.0

    def test_quantile_handle(self, registry):
        h = registry.histogram("repro_q_seconds", "t",
                               buckets=(1.0, 10.0))
        assert h.quantile(0.5) is None
        for v in (0.5, 0.6, 20.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0  # bucket upper edge
        assert h.quantile(1.0) == 20.0  # overflow clamps to tracked max

    def test_bad_buckets_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("repro_bb", "t", buckets=(2.0, 1.0))

    def test_trailing_inf_stripped(self, registry):
        h = registry.histogram("repro_inf", "t",
                               buckets=(1.0, math.inf))
        h.observe(0.5)
        entry = registry.snapshot()["repro_inf"]
        assert entry["buckets"] == [1.0]
        assert entry["samples"][0]["counts"] == [1, 0]


class TestSnapshotMergeDelta:
    def test_snapshot_is_json_ready(self, registry):
        registry.counter("repro_j_total", "t").inc()
        registry.histogram("repro_j_seconds", "t",
                           buckets=(1.0,)).observe(0.5)
        json.dumps(registry.snapshot())  # must not raise

    def test_merge_adds_counters_and_buckets(self, registry):
        registry.counter("repro_m_total", "t").inc(2)
        registry.histogram("repro_m_seconds", "t",
                           buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        registry.merge(snap)
        merged = registry.snapshot()
        assert merged["repro_m_total"]["samples"][0]["value"] == 4.0
        hist = merged["repro_m_seconds"]["samples"][0]
        assert hist["count"] == 2
        assert hist["counts"] == [2, 0]

    def test_merge_into_empty_registry(self, registry):
        registry.counter("repro_e_total", "t",
                         labelnames=("k",)).labels(k="x").inc(3)
        other = MetricsRegistry()
        other.merge(registry.snapshot())
        assert other.snapshot()["repro_e_total"]["samples"][0]["value"] \
            == 3.0

    def test_merge_gauge_last_write_wins(self, registry):
        registry.gauge("repro_mg", "t").set(1.0)
        snap = registry.snapshot()
        registry.gauge("repro_mg", "t").set(9.0)
        registry.merge(snap)
        assert registry.snapshot()["repro_mg"]["samples"][0]["value"] \
            == 1.0

    def test_merge_bucket_mismatch_rejected(self, registry):
        registry.histogram("repro_bm_seconds", "t",
                           buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        snap["repro_bm_seconds"]["buckets"] = [1.0, 2.0]
        snap["repro_bm_seconds"]["samples"][0]["counts"] = [1, 0, 0]
        with pytest.raises(MetricError):
            registry.merge(snap)

    def test_delta_drops_unchanged(self, registry):
        registry.counter("repro_d1_total", "t").inc()
        before = registry.snapshot()
        registry.counter("repro_d2_total", "t").inc(5)
        delta = snapshot_delta(before, registry.snapshot())
        assert "repro_d1_total" not in delta
        assert delta["repro_d2_total"]["samples"][0]["value"] == 5.0

    def test_delta_then_merge_roundtrip(self, registry):
        registry.counter("repro_rt_total", "t").inc(2)
        before = registry.snapshot()
        registry.counter("repro_rt_total", "t").inc(3)
        registry.histogram("repro_rt_seconds", "t",
                           buckets=(1.0,)).observe(0.5)
        delta = snapshot_delta(before, registry.snapshot())
        other = MetricsRegistry()
        other.merge(before)
        other.merge(delta)
        assert other.snapshot() == registry.snapshot()

    def test_reset_clears_but_handles_survive(self, registry):
        handle = registry.counter("repro_r_total", "t")
        handle.inc()
        registry.reset()
        # Metrics stay registered with their cells cleared.
        assert registry.snapshot()["repro_r_total"]["samples"] == []
        handle.inc()
        assert registry.snapshot()["repro_r_total"]["samples"][0]["value"] \
            == 1.0


class TestExposition:
    def test_counter_and_gauge_lines(self, registry):
        registry.counter("repro_x_total", "the help",
                         labelnames=("kind",)).labels(kind="a").inc(2)
        registry.gauge("repro_x_depth", "depth").set(3.0)
        text = render_exposition(registry.snapshot())
        assert "# HELP repro_x_total the help" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{kind="a"} 2' in text
        assert "repro_x_depth 3" in text

    def test_histogram_cumulative_buckets(self, registry):
        h = registry.histogram("repro_x_seconds", "t",
                               buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 5.0):
            h.observe(v)
        text = render_exposition(registry.snapshot())
        assert 'repro_x_seconds_bucket{le="1"} 1' in text
        assert 'repro_x_seconds_bucket{le="2"} 2' in text
        assert 'repro_x_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_x_seconds_count 3" in text
        assert "repro_x_seconds_sum 7" in text

    def test_label_escaping(self, registry):
        registry.counter("repro_esc_total", "t",
                         labelnames=("path",)).labels(
            path='a"b\\c\nd').inc()
        text = render_exposition(registry.snapshot())
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_validates_against_parser(self, registry):
        import pathlib
        import sys

        scripts = str(pathlib.Path(__file__).resolve().parents[2]
                      / "scripts")
        sys.path.insert(0, scripts)
        try:
            from validate_prometheus import validate_text
        finally:
            sys.path.remove(scripts)
        registry.counter("repro_v_total", "t",
                         labelnames=("kind",)).labels(kind="x").inc()
        registry.histogram("repro_v_seconds", "t",
                           buckets=LATENCY_BUCKETS).observe(0.01)
        registry.gauge("repro_v_depth", "t").set(1.0)
        assert validate_text(render_exposition(registry.snapshot())) == []


class TestThreadSafety:
    def test_concurrent_increments(self, registry):
        counter = registry.counter("repro_c_total", "t")
        hist = registry.histogram("repro_c_seconds", "t",
                                  buckets=(1.0,))

        def work():
            for _ in range(500):
                counter.inc()
                hist.observe(0.5)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snap["repro_c_total"]["samples"][0]["value"] == 2000.0
        assert snap["repro_c_seconds"]["samples"][0]["count"] == 2000


class TestModuleSingleton:
    def test_record_run_and_reset(self):
        m.reset_metrics()
        try:
            m.record_run("reference", rounds=3, messages=10, bits=40,
                         broadcasts=5, wall_s=0.01)
            snap = m.snapshot()
            runs = snap["repro_sim_runs_total"]["samples"]
            assert runs == [{"labels": {"engine": "reference"},
                             "value": 1.0}]
            assert snap["repro_sim_rounds_total"]["samples"][0]["value"] \
                == 3.0
        finally:
            m.reset_metrics()

    def test_values_reads_one_family(self):
        m.reset_metrics()
        try:
            m.counter("repro_v_total", "t", ("kind",)).labels(
                kind="a").inc(2)
            assert m.REGISTRY.values("repro_v_total") == {("a",): 2.0}
            assert m.REGISTRY.values("repro_absent_total") == {}
        finally:
            m.reset_metrics()


class TestFlusher:
    def test_final_flush_and_readback(self, tmp_path, registry):
        registry.counter("repro_f_total", "t").inc(2)
        path = tmp_path / "metrics.jsonl"
        with MetricsFlusher(str(path), registry=registry):
            pass
        records = read_metrics_jsonl(str(path))
        assert len(records) == 1
        assert records[0]["kind"] == "metrics"
        assert records[0]["metrics"]["repro_f_total"]["samples"][0][
            "value"] == 2.0

    def test_periodic_flush(self, tmp_path, registry):
        import time

        registry.counter("repro_p_total", "t").inc()
        path = tmp_path / "metrics.jsonl"
        with MetricsFlusher(str(path), interval_s=0.05,
                            registry=registry):
            time.sleep(0.3)
        records = read_metrics_jsonl(str(path))
        assert len(records) >= 2  # at least one periodic + the final

    def test_readback_tolerates_garbage(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"kind": "metrics", "t": 1, "metrics": {}}\n'
            "not json\n"
            '{"kind": "other"}\n'
            '{"kind": "metrics", "t": 2, "metrics": {}}\n'
        )
        records = read_metrics_jsonl(str(path))
        assert [r["t"] for r in records] == [1, 2]


class TestLogicalInvariance:
    def test_colors_and_ledger_independent_of_registry_state(self):
        """Instrumentation observes; it must never perturb results."""
        from repro.coloring import random_oldc_instance
        from repro.core import two_sweep
        from repro.graphs import gnp_graph, orient_by_id, sequential_ids
        from repro.sim import CostLedger

        def run():
            network = gnp_graph(24, 0.2, seed=3)
            instance = random_oldc_instance(
                orient_by_id(network), p=2, seed=3)
            ids = sequential_ids(network)
            ledger = CostLedger()
            result = two_sweep(instance, ids, 24, 2, ledger=ledger,
                               check=False)
            return sorted(result.colors.items()), ledger.to_dict()

        m.reset_metrics()
        on_empty = run()
        on_counted = run()
        m.reset_metrics()
        assert on_empty == on_counted
