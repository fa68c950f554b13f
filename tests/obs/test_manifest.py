"""Tests for run-manifest collection."""

from __future__ import annotations

import json

import repro
from repro.obs import MANIFEST_VERSION, collect_manifest, validate_events
from repro.sim import CostLedger, default_engine


class TestCollectManifest:
    def test_core_fields(self):
        manifest = collect_manifest()
        assert manifest["kind"] == "manifest"
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["tool"] == "repro"
        assert manifest["version"] == repro.__version__
        assert manifest["engine"] == default_engine()
        assert manifest["python"]
        assert isinstance(manifest["pid"], int)

    def test_engine_override(self):
        assert collect_manifest(engine="reference")["engine"] == "reference"

    def test_env_capture(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "vectorized")
        monkeypatch.setenv("UNRELATED_VAR", "nope")
        env = collect_manifest()["env"]
        assert env["REPRO_SIM_ENGINE"] == "vectorized"
        assert "UNRELATED_VAR" not in env

    def test_seeds_and_argv_recorded_verbatim(self):
        manifest = collect_manifest(
            seeds={"seed": 7}, argv=["two-sweep", "--n", "40"]
        )
        assert manifest["seeds"] == {"seed": 7}
        assert manifest["argv"] == ["two-sweep", "--n", "40"]

    def test_ledger_embedded_as_dict(self):
        ledger = CostLedger()
        with ledger.phase("work"):
            ledger.charge_round(messages=2, bits=10)
        manifest = collect_manifest(ledger=ledger)
        assert manifest["ledger"]["rounds"] == 1
        assert manifest["ledger"]["phases"]["work"]["messages"] == 2

    def test_extra_wins(self):
        manifest = collect_manifest(extra={"engine": "custom", "run": 3})
        assert manifest["engine"] == "custom"
        assert manifest["run"] == 3

    def test_kernel_and_cache_counters_present(self):
        manifest = collect_manifest()
        assert "runs" in manifest["kernels"]
        assert set(manifest["caches"]) == {"counters"}
        assert isinstance(manifest["caches"]["counters"], dict)

    def test_json_serializable(self):
        json.dumps(collect_manifest())

    def test_valid_as_first_trace_record(self):
        assert validate_events([collect_manifest()]) == []
