"""Daemon metrics under load: /metrics and /stats mid-traffic.

Satellite for the unified metrics registry: drive concurrent coloring
clients while other clients scrape ``/stats`` and ``/metrics``
mid-traffic, then assert the scraped numbers are internally
consistent -- the latency window matches the request counters, and the
queue-wait histogram counts every dispatched request exactly once.
"""

import pathlib
import sys
import threading

import pytest

from repro.obs import metrics as obs_metrics
from repro.serve.client import ServeClient
from repro.serve.server import ColoringServer, ServerHandle


def _color_body(n: int):
    return {
        "topology": {"kind": "ring-stream", "n": n},
        "algorithm": {"name": "greedy-reduction"},
    }


def _metric_samples(snap, name):
    entry = snap.get(name) or {}
    return entry.get("samples", [])


def _counter_total(snap, name, **where):
    total = 0.0
    for sample in _metric_samples(snap, name):
        labels = sample.get("labels", {})
        if all(labels.get(k) == v for k, v in where.items()):
            total += sample["value"]
    return total


def _hist_totals(snap, name):
    count = 0
    total = 0.0
    for sample in _metric_samples(snap, name):
        count += sample["count"]
        total += sample["sum"]
    return count, total


@pytest.fixture(scope="module")
def loaded_server():
    """One daemon driven by concurrent clients, plus mid-batch scrapes."""
    obs_metrics.reset_metrics()
    server = ColoringServer(workers=2, mode="thread", max_queue=256)
    requests_per_client = 6
    clients = 4
    scrapers = 2
    # One /stats list per scraper: two threads appending to one list
    # interleave in append order, not in the order the server took its
    # snapshots, so only each scraper's own sequence is ordered.
    scrapes = {"stats": [[] for _ in range(scrapers)], "metrics": [],
               "errors": []}
    with ServerHandle(server) as handle:
        def drive(worker_index: int) -> None:
            try:
                with ServeClient(handle.host, handle.port) as client:
                    for i in range(requests_per_client):
                        n = 32 + 16 * ((worker_index + i) % 3)
                        status, payload = client.color(_color_body(n))
                        assert status == 200, payload
            except Exception as error:  # noqa: BLE001 - surfaced below
                scrapes["errors"].append(error)

        def scrape(scraper_index: int) -> None:
            own = scrapes["stats"][scraper_index]
            try:
                with ServeClient(handle.host, handle.port) as client:
                    for _ in range(4):
                        own.append(client.stats())
                        scrapes["metrics"].append(client.metrics())
            except Exception as error:  # noqa: BLE001 - surfaced below
                scrapes["errors"].append(error)

        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(clients)
        ] + [threading.Thread(target=scrape, args=(index,))
             for index in range(scrapers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServeClient(handle.host, handle.port) as client:
            final_stats = client.stats()
            final_text = client.metrics()
    assert scrapes["errors"] == [], scrapes["errors"]
    return {
        "total_requests": requests_per_client * clients,
        "scrapes": scrapes,
        "final_stats": final_stats,
        "final_text": final_text,
        "dispatched": server.dispatched,
    }


class TestUnderLoad:
    def test_all_requests_served(self, loaded_server):
        requests = loaded_server["final_stats"]["requests"]
        assert requests["ok"] == loaded_server["total_requests"]
        assert requests["errors"] == 0

    def test_request_histogram_matches_http_counter(self, loaded_server):
        snap = loaded_server["final_stats"]["metrics"]
        served = _counter_total(snap, "repro_http_requests_total",
                                route="/color")
        count, total = _hist_totals(snap, "repro_request_seconds")
        assert served == loaded_server["total_requests"]
        assert count == loaded_server["total_requests"]
        assert total > 0.0

    def test_queue_wait_counts_every_batched_request(self, loaded_server):
        """One queue-wait observation per dispatched request; /stats
        keeps counting dispatches as ``batches`` (one request each)."""
        stats = loaded_server["final_stats"]
        wait_count, _ = _hist_totals(stats["metrics"],
                                     "repro_queue_wait_seconds")
        dispatched = loaded_server["dispatched"]
        assert dispatched == loaded_server["total_requests"]
        assert wait_count == dispatched
        assert stats["queue"]["batches"] == dispatched
        assert stats["queue"]["batched_requests"] == dispatched

    def test_latency_window_consistent_with_requests(self, loaded_server):
        stats = loaded_server["final_stats"]
        window = stats["latency_ms"]["window"]
        assert 0 < window <= stats["requests"]["ok"]
        assert stats["latency_ms"]["p50"] <= stats["latency_ms"]["p99"]

    def test_midbatch_scrapes_monotone(self, loaded_server):
        """Every mid-batch /stats sees consistent totals, and each
        scraper's own scrapes see them monotonically."""
        for own in loaded_server["scrapes"]["stats"]:
            assert own
            sequence = []
            for payload in own:
                snap = payload["metrics"]
                count, _ = _hist_totals(snap, "repro_request_seconds")
                served = _counter_total(snap, "repro_http_requests_total",
                                        route="/color")
                # The histogram observation lands before the HTTP
                # counter, so a scrape between them may see
                # count == served + 1.
                assert 0 <= count - served <= 1
                sequence.append(served)
            assert sequence == sorted(sequence)

    def test_midbatch_exposition_is_valid(self, loaded_server):
        scripts = str(pathlib.Path(__file__).resolve().parents[2]
                      / "scripts")
        sys.path.insert(0, scripts)
        try:
            from validate_prometheus import validate_text
        finally:
            sys.path.remove(scripts)
        for text in loaded_server["scrapes"]["metrics"]:
            assert validate_text(text) == []
        assert validate_text(loaded_server["final_text"]) == []

    def test_gauges_present_in_exposition(self, loaded_server):
        text = loaded_server["final_text"]
        for name in ("repro_queue_depth", "repro_pool_workers",
                     "repro_uptime_seconds"):
            assert f"# TYPE {name} gauge" in text

    def test_top_summary_over_live_snapshot(self, loaded_server):
        from repro.obs.top import render_top, summarize_metrics

        stats = loaded_server["final_stats"]
        summary = summarize_metrics(stats["metrics"],
                                    stats["uptime_s"])
        assert summary["requests"]["total"] == \
            loaded_server["total_requests"]
        assert summary["queue"]["dispatched"] == \
            stats["queue"]["batches"]
        text = render_top(summary, source="test")
        assert "requests" in text and "queue" in text
