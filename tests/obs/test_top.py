"""Tests for the repro top summarizer/renderer (repro.obs.top)."""

import json

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.top import (
    render_top,
    snapshot_from_jsonl,
    summarize_metrics,
    watch,
)


def _loaded_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    http = registry.counter("repro_http_requests_total", "t",
                            labelnames=("route", "code"))
    http.labels(route="/color", code="200").inc(8)
    http.labels(route="/color", code="503").inc(2)
    req = registry.histogram("repro_request_seconds", "t",
                             buckets=LATENCY_BUCKETS)
    for v in (0.002, 0.004, 0.01, 0.5):
        req.observe(v)
    wait = registry.histogram("repro_queue_wait_seconds", "t",
                              buckets=LATENCY_BUCKETS)
    wait.observe(0.001)
    wait.observe(0.002)
    registry.gauge("repro_queue_depth", "t").set(3.0)
    registry.gauge("repro_pool_workers", "t").set(4.0)
    registry.gauge("repro_uptime_seconds", "t").set(10.0)
    dispatch = registry.counter("repro_kernel_dispatch_total", "t",
                                labelnames=("outcome",))
    dispatch.labels(outcome="hit").inc(9)
    dispatch.labels(outcome="fallback").inc(1)
    lookups = registry.counter("repro_cache_lookups_total", "t",
                               labelnames=("registry", "outcome"))
    lookups.labels(registry="networks", outcome="hit").inc(3)
    lookups.labels(registry="networks", outcome="miss").inc(1)
    runs = registry.counter("repro_sim_runs_total", "t",
                            labelnames=("engine",))
    runs.labels(engine="reference").inc(5)
    runs.labels(engine="vectorized").inc(2)
    return registry


class TestSummarize:
    def test_requests_section(self):
        summary = summarize_metrics(_loaded_registry().snapshot())
        req = summary["requests"]
        assert req["total"] == 10.0
        assert req["ok"] == 8.0
        assert req["per_s"] == 1.0  # 10 requests over the 10s gauge
        assert req["p50_s"] is not None
        assert req["p99_s"] >= req["p50_s"]

    def test_queue_and_pool(self):
        summary = summarize_metrics(_loaded_registry().snapshot())
        assert summary["queue"]["depth"] == 3.0
        assert summary["queue"]["dispatched"] == 2
        assert summary["pool"]["workers"] == 4.0

    def test_kernel_hit_rate(self):
        summary = summarize_metrics(_loaded_registry().snapshot())
        assert summary["kernels"]["hit_rate"] == 0.9

    def test_cache_rates(self):
        summary = summarize_metrics(_loaded_registry().snapshot())
        assert summary["caches"]["networks"]["rate"] == 0.75

    def test_engines_and_skew(self):
        summary = summarize_metrics(_loaded_registry().snapshot())
        assert summary["sim"]["runs_by_engine"] == {
            "reference": 5.0, "vectorized": 2.0,
        }

    def test_empty_snapshot(self):
        summary = summarize_metrics({})
        assert summary["requests"]["total"] == 0.0
        assert summary["requests"]["p50_s"] is None
        assert summary["kernels"]["hit_rate"] is None
        assert summary["caches"] == {}

    def test_explicit_uptime_wins(self):
        snap = _loaded_registry().snapshot()
        summary = summarize_metrics(snap, uptime_s=5.0)
        assert summary["requests"]["per_s"] == 2.0


class TestRender:
    def test_renders_all_sections(self):
        summary = summarize_metrics(_loaded_registry().snapshot())
        text = render_top(summary, source="test")
        for token in ("repro top -- test", "requests", "queue", "pool",
                      "kernels", "caches", "sim"):
            assert token in text
        assert "hit-rate=90.0%" in text
        assert "networks=75.0%" in text
        assert "reference x5" in text

    def test_renders_empty_without_crashing(self):
        text = render_top(summarize_metrics({}))
        assert "requests  total=0" in text
        assert "hit-rate=-" in text

    def test_windowed_rate_override(self):
        summary = summarize_metrics(_loaded_registry().snapshot())
        text = render_top(summary, rate_per_s=42.0)
        assert "rate=42/s" in text


class TestJsonlSource:
    def test_reads_latest_record(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        older = _loaded_registry().snapshot()
        newer = _loaded_registry()
        newer.counter("repro_http_requests_total", "t",
                      labelnames=("route", "code")).labels(
            route="/color", code="200").inc(90)
        with open(path, "w") as handle:
            for t, snap in ((1, older), (2, newer.snapshot())):
                handle.write(json.dumps(
                    {"kind": "metrics", "t": t, "metrics": snap}) + "\n")
        snap, uptime = snapshot_from_jsonl(str(path))
        assert uptime is None
        assert summarize_metrics(snap)["requests"]["total"] == 100.0

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        try:
            snapshot_from_jsonl(str(path))
        except ValueError as error:
            assert "no metrics records" in str(error)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestWatch:
    def test_bounded_iterations_and_rate(self):
        import io

        frames = []

        def fetch():
            registry = _loaded_registry()
            http = registry.counter("repro_http_requests_total", "t",
                                    labelnames=("route", "code"))
            http.labels(route="/color", code="200").inc(
                10 * len(frames))
            frames.append(None)
            return registry.snapshot(), 10.0, "test"

        out = io.StringIO()
        status = watch(fetch, interval_s=0.01, iterations=3, out=out,
                       clear=False)
        assert status == 0
        text = out.getvalue()
        assert text.count("repro top -- test") == 3

    def test_fetch_error_is_reported(self):
        import io

        def fetch():
            raise ValueError("boom")

        out = io.StringIO()
        assert watch(fetch, iterations=1, out=out) == 1
        assert "boom" in out.getvalue()
