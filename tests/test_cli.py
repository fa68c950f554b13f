"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_removed_engine_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--engine", "fast", "info"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fast'" in capsys.readouterr().err

    def test_workers_help_names_the_pool_variable(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "REPRO_PARALLEL" in out
        assert "REPRO_PARALLEL_WORKERS" not in out


class TestCommands:
    def test_two_sweep(self, capsys):
        assert main(["two-sweep", "--n", "24", "--p", "2",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "rounds" in out

    def test_two_sweep_auto(self, capsys):
        assert main(["two-sweep", "--n", "24", "--p", "2", "--auto",
                     "--seed", "2"]) == 0
        assert "auto plan" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "route", ["thm13", "thm15", "baseline", "random"]
    )
    def test_delta_plus_one_routes(self, route, capsys):
        assert main([
            "delta-plus-one", "--route", route, "--n", "20",
            "--max-degree", "3", "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "proper coloring verified" in out

    def test_edge_coloring(self, capsys):
        assert main(["edge-coloring", "--n", "12", "--density", "0.3",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "edge coloring" in out

    def test_edge_coloring_empty_graph(self, capsys):
        assert main(["edge-coloring", "--n", "6", "--density", "0.0",
                     "--seed", "5"]) == 1

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PODC 2024" in out

    def test_profile_wraps_command(self, capsys):
        assert main(["--profile", "two-sweep", "--n", "16", "--p", "2",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "cumulative" in out
        assert "function calls" in out

    def test_profile_preserves_exit_status(self, capsys):
        assert main(["--profile", "edge-coloring", "--n", "6",
                     "--density", "0.0", "--seed", "5"]) == 1

    def test_module_entry_point(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True, text=True,
        )
        assert completed.returncode == 0
        assert "repro" in completed.stdout


class TestGenerateSolve:
    def test_oldc_roundtrip(self, tmp_path, capsys):
        instance_path = tmp_path / "inst.json"
        solution_path = tmp_path / "sol.json"
        assert main([
            "generate", "--kind", "oldc", "--n", "20",
            "--out", str(instance_path),
        ]) == 0
        assert main([
            "solve", "--instance", str(instance_path),
            "--out", str(solution_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "output validated" in out
        assert solution_path.exists()

    def test_arbdefective_roundtrip(self, tmp_path, capsys):
        instance_path = tmp_path / "inst.json"
        assert main([
            "generate", "--kind", "arbdefective", "--n", "20",
            "--out", str(instance_path),
        ]) == 0
        assert main(["solve", "--instance", str(instance_path)]) == 0
        assert "output validated" in capsys.readouterr().out

    def test_defective_with_enough_slack_solves(self, tmp_path, capsys):
        instance_path = tmp_path / "inst.json"
        assert main([
            "generate", "--kind", "defective", "--n", "15",
            "--slack", "400.0", "--out", str(instance_path),
        ]) == 0
        assert main(["solve", "--instance", str(instance_path)]) == 0
        assert "output validated" in capsys.readouterr().out

    def test_defective_without_slack_reports_failure(self, tmp_path,
                                                     capsys):
        instance_path = tmp_path / "inst.json"
        assert main([
            "generate", "--kind", "defective", "--n", "15",
            "--slack", "1.1", "--out", str(instance_path),
        ]) == 0
        assert main(["solve", "--instance", str(instance_path)]) == 2
        assert "could not solve" in capsys.readouterr().out


class TestTrace:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import load_trace_file, validate_trace_file

        trace_path = tmp_path / "run.jsonl"
        assert main([
            "--trace", str(trace_path),
            "two-sweep", "--n", "24", "--p", "2", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert validate_trace_file(str(trace_path)) == []
        manifest, events = load_trace_file(str(trace_path))
        assert manifest["command"] == "two-sweep"
        assert manifest["exit_status"] == 0
        assert manifest["seeds"] == {"seed": 1}
        assert manifest["ledger"]["rounds"] > 0
        assert any(record["kind"] == "run" for record in events)

    def test_trace_chrome_format(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "run.json"
        assert main([
            "--trace", str(trace_path), "--trace-format", "chrome",
            "two-sweep", "--n", "16", "--p", "2", "--seed", "1",
        ]) == 0
        with open(trace_path) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"]
        assert payload["metadata"]["kind"] == "manifest"

    def test_trace_subcommand_summarizes(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main([
            "--engine", "vectorized", "--trace", str(trace_path),
            "two-sweep", "--n", "24", "--p", "2", "--seed", "1",
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "two-sweep" in out
        assert "kernel hits" in out

    def test_trace_subcommand_logical_stream(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "run.jsonl"
        assert main([
            "--trace", str(trace_path),
            "two-sweep", "--n", "16", "--p", "2", "--seed", "1",
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--logical"]) == 0
        out = capsys.readouterr().out.strip()
        for line in out.splitlines():
            record = json.loads(line)
            assert "wall_s" not in record and "t0" not in record

    def test_trace_subcommand_chrome_conversion(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "run.jsonl"
        chrome_path = tmp_path / "run.chrome.json"
        assert main([
            "--trace", str(trace_path),
            "two-sweep", "--n", "16", "--p", "2", "--seed", "1",
        ]) == 0
        assert main([
            "trace", str(trace_path), "--chrome", str(chrome_path),
        ]) == 0
        with open(chrome_path) as handle:
            assert json.load(handle)["traceEvents"]

    def test_trace_subcommand_rejects_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "mystery"}\n')
        assert main(["trace", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_logical_stream_identical_across_engines(self, tmp_path,
                                                     capsys):
        streams = {}
        for engine in ("reference", "vectorized"):
            trace_path = tmp_path / f"{engine}.jsonl"
            assert main([
                "--engine", engine, "--trace", str(trace_path),
                "two-sweep", "--n", "24", "--p", "2", "--seed", "1",
            ]) == 0
            capsys.readouterr()
            assert main(["trace", str(trace_path), "--logical"]) == 0
            streams[engine] = capsys.readouterr().out
        assert streams["vectorized"] == streams["reference"]

    def test_kernel_stats_fallback_note(self, capsys):
        from repro.obs import reset_metrics

        reset_metrics()
        # The randomized baseline runs node programs, which the
        # vectorized engine hands to reference as a 'programs' fallback.
        assert main([
            "--engine", "vectorized", "--kernel-stats",
            "delta-plus-one", "--route", "random", "--n", "16",
            "--max-degree", "3", "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "kernel stat" in out
        notes = [
            line for line in out.splitlines() if line.startswith("note:")
        ]
        assert notes, "fallback note missing"
        assert any("'programs'" in line and "kernels run only from "
                   "columns" in line for line in notes)


class TestMetricsFlag:
    def test_metrics_flush_and_top_roundtrip(self, tmp_path, capsys):
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset_metrics()
        path = tmp_path / "metrics.jsonl"
        assert main([
            "--metrics", str(path),
            "two-sweep", "--n", "24", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert f"metrics written to {path}" in out
        assert path.exists()

        assert main(["top", str(path)]) == 0
        top_out = capsys.readouterr().out
        assert "repro top" in top_out
        assert "sim       runs:" in top_out

    def test_metrics_with_trace_embeds_manifest_section(self, tmp_path,
                                                        capsys):
        from repro.obs import load_trace_file
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset_metrics()
        trace = tmp_path / "run.jsonl"
        flushed = tmp_path / "metrics.jsonl"
        assert main([
            "--trace", str(trace), "--metrics", str(flushed),
            "two-sweep", "--n", "24", "--seed", "7",
        ]) == 0
        capsys.readouterr()
        manifest, _events = load_trace_file(str(trace))
        assert manifest["metrics"] is not None
        assert "repro_sim_runs_total" in manifest["metrics"]

        # Satellite: `repro trace` prints the manifest's metrics view.
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "metrics registry at capture:" in out
        assert "sim       runs:" in out

    def test_top_requires_exactly_one_source(self, capsys):
        assert main(["top"]) == 2
        assert "exactly one source" in capsys.readouterr().out

    def test_top_missing_file_reports_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["top", str(missing)]) == 1
        assert "repro top:" in capsys.readouterr().out
