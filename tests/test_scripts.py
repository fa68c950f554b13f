"""Tests for the CI gate scripts in scripts/."""

import json
import pathlib
import sys

import pytest

SCRIPTS = str(pathlib.Path(__file__).resolve().parents[1] / "scripts")


@pytest.fixture()
def drift():
    sys.path.insert(0, SCRIPTS)
    try:
        import check_bench_drift

        yield check_bench_drift
    finally:
        sys.path.remove(SCRIPTS)


@pytest.fixture()
def reports(tmp_path):
    committed = tmp_path / "committed.json"
    smoke = tmp_path / "smoke.json"
    committed.write_text(json.dumps({
        "headline": {"speedup": 2.0, "nodes_per_s": 100000},
    }))
    smoke.write_text(json.dumps({
        "headline": {"speedup": 1.0, "nodes_per_s": 40000},
    }))
    return str(committed), str(smoke)


class TestDriftGate:
    def test_regression_fails_build(self, drift, reports, capsys):
        committed, smoke = reports
        status = drift.main([
            committed, smoke, "--metric", "headline.speedup:0.9",
        ])
        out = capsys.readouterr().out
        assert status == 1
        assert "::error" in out

    def test_ok_metric_passes(self, drift, reports, capsys):
        committed, smoke = reports
        status = drift.main([
            committed, smoke, "--metric", "headline.speedup:0.4",
        ])
        assert status == 0
        assert "no blocking drift" in capsys.readouterr().out

    def test_warn_only_escape_hatch(self, drift, reports, capsys):
        committed, smoke = reports
        status = drift.main([
            committed, smoke, "--warn-only",
            "--metric", "headline.speedup:0.9",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "::warning" in out
        assert "::error" not in out

    def test_allowlisted_path_only_warns(self, drift, reports,
                                         tmp_path, capsys):
        committed, smoke = reports
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text(
            "# throughputs are noisy on shared runners\n"
            "headline.nodes_per_s\n"
        )
        status = drift.main([
            committed, smoke, "--allowlist", str(allowlist),
            "--metric", "headline.nodes_per_s:0.9",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "::warning" in out

    def test_allowlist_does_not_shield_other_paths(self, drift, reports,
                                                   tmp_path):
        committed, smoke = reports
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("headline.nodes_per_s\n")
        status = drift.main([
            committed, smoke, "--allowlist", str(allowlist),
            "--metric", "headline.speedup:0.9",
        ])
        assert status == 1

    def test_missing_path_fails(self, drift, reports, capsys):
        committed, smoke = reports
        status = drift.main([
            committed, smoke, "--metric", "headline.absent",
        ])
        assert status == 1
        assert "::error" in capsys.readouterr().out

    @pytest.mark.parametrize("headline, reason", [
        ({"ratio": 9.0}, "missing from smoke report"),
        ({"speedup": None}, "unmeasured (None) in smoke report"),
    ])
    def test_smoke_metric_missing_or_unmeasured_fails(
            self, drift, reports, tmp_path, capsys, headline, reason):
        committed, _ = reports
        smoke = tmp_path / "renamed.json"
        smoke.write_text(json.dumps({"headline": headline}))
        status = drift.main([
            committed, str(smoke), "--metric", "headline.speedup:0.5",
        ])
        assert status == 1
        assert reason in capsys.readouterr().out

    def test_missing_path_only_warns_under_warn_only(self, drift, reports,
                                                     capsys):
        committed, smoke = reports
        status = drift.main([
            committed, smoke, "--warn-only",
            "--metric", "headline.absent",
        ])
        assert status == 0
        assert "::warning" in capsys.readouterr().out

    def test_engine_gate_metrics_resolve_in_committed_baseline(self, drift):
        """Every bench_engine metric CI gates exists, measured, in the
        committed smoke baseline it is compared against."""
        root = pathlib.Path(SCRIPTS).parent
        workflow = (root / ".github" / "workflows" / "ci.yml").read_text()
        baseline = json.loads(
            (root / "benchmarks" / "results" /
             "BENCH_engine_smoke.json").read_text()
        )
        assert baseline["smoke"] is True
        for path in ("workloads[workload=gnp_stragglers].vectorized_speedup",
                     "vectorized_headline.speedup",
                     "workloads[workload=linial_algebraic].vectorized_speedup"):
            assert f"{path}:0.7" in workflow, path
            assert drift.resolve(baseline, path) > 1.0, path

    def test_repo_allowlist_covers_throughputs(self, drift):
        entries = drift.load_allowlist(
            str(pathlib.Path(SCRIPTS) / "bench_drift_allowlist.txt")
        )
        assert "headline.nodes_per_s" in entries
        # Within-run ratios stay hard-gated.
        assert "headline.speedup" not in entries


class TestPrometheusValidator:
    @pytest.fixture()
    def validator(self):
        sys.path.insert(0, SCRIPTS)
        try:
            import validate_prometheus

            yield validate_prometheus
        finally:
            sys.path.remove(SCRIPTS)

    def test_live_exposition_passes(self, validator):
        from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("repro_ok_total", "t",
                         labelnames=("k",)).labels(k="a").inc()
        registry.histogram("repro_ok_seconds", "t",
                           buckets=LATENCY_BUCKETS).observe(0.2)
        assert validator.validate_text(registry.exposition()) == []

    def test_untyped_sample_flagged(self, validator):
        errors = validator.validate_text("repro_mystery_total 3\n")
        assert any("no preceding TYPE" in error for error in errors)

    def test_noncumulative_buckets_flagged(self, validator):
        text = (
            "# TYPE repro_bad_seconds histogram\n"
            'repro_bad_seconds_bucket{le="1"} 5\n'
            'repro_bad_seconds_bucket{le="2"} 3\n'
            'repro_bad_seconds_bucket{le="+Inf"} 5\n'
            "repro_bad_seconds_sum 4\n"
            "repro_bad_seconds_count 5\n"
        )
        errors = validator.validate_text(text)
        assert any("not cumulative" in error for error in errors)

    def test_missing_inf_bucket_flagged(self, validator):
        text = (
            "# TYPE repro_noinf_seconds histogram\n"
            'repro_noinf_seconds_bucket{le="1"} 5\n'
            "repro_noinf_seconds_count 5\n"
        )
        errors = validator.validate_text(text)
        assert any("+Inf" in error for error in errors)

    def test_inf_bucket_count_mismatch_flagged(self, validator):
        text = (
            "# TYPE repro_mm_seconds histogram\n"
            'repro_mm_seconds_bucket{le="+Inf"} 4\n'
            "repro_mm_seconds_count 5\n"
        )
        errors = validator.validate_text(text)
        assert any("_count" in error for error in errors)

    def test_duplicate_series_flagged(self, validator):
        text = (
            "# TYPE repro_dup_total counter\n"
            'repro_dup_total{k="a"} 1\n'
            'repro_dup_total{k="a"} 2\n'
        )
        errors = validator.validate_text(text)
        assert any("duplicate series" in error for error in errors)
