"""Span arithmetic, the percentile rule and the timing shims."""

import importlib

import pytest

from perfbench.spans import (
    MIN_BEYOND,
    Recorder,
    by_op,
    child_coverage,
    covered,
    layer_row,
    self_times,
    summarize,
    supported_percentile,
    traced,
)


def span(sid, parent, start, end, name="s", op="op"):
    return [sid, parent, name, start, end, op]


class TestSelfTime:
    def test_nested_children_subtract_only_direct_children(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0),
                 span(2, 1, 2.0, 3.0)]
        own = self_times(spans)
        assert own[0] == pytest.approx(7.0)
        assert own[1] == pytest.approx(2.0)
        assert own[2] == pytest.approx(1.0)

    def test_overlapping_children_count_once(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0),
                 span(2, 0, 3.0, 8.0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_children_past_the_parent_are_clipped(self):
        spans = [span(0, None, 0.0, 10.0), span(1, 0, 8.0, 12.0),
                 span(2, 0, -1.0, 1.0)]
        assert self_times(spans)[0] == pytest.approx(7.0)

    def test_contained_and_disjoint_intervals(self):
        assert covered([(1, 9), (2, 3), (4, 5)], 0, 10) == pytest.approx(8)
        assert covered([(1, 2), (3, 4)], 0, 10) == pytest.approx(2)
        assert covered([], 0, 10) == 0

    def test_summarize_and_coverage(self):
        spans = [span(0, None, 0.0, 10.0, "root"),
                 span(1, 0, 0.0, 4.0, "a"), span(2, 0, 5.0, 9.0, "a")]
        summary = summarize(spans)
        assert summary["a"] == {"calls": 2, "total_s": 8.0, "self_s": 8.0}
        assert summary["root"]["self_s"] == pytest.approx(2.0)
        assert child_coverage(spans, 0) == pytest.approx(0.8)

    def test_recorder_nests_and_groups_by_op(self):
        recorder = Recorder()
        recorder.op = "first"
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        recorder.op = "second"
        with recorder.span("outer"):
            pass
        assert [s[1] for s in recorder.spans] == [None, 0, None]
        trees = by_op(recorder.spans)
        assert [s[0] for s in trees["second"]] == [0]
        assert trees["first"][1][1] == 0


class TestPercentileRule:
    @pytest.mark.parametrize("count, fraction, supported", [
        (200, 0.95, True), (199, 0.95, False), (20, 0.50, True),
        (19, 0.50, False), (0, 0.50, False),
    ])
    def test_needs_ten_samples_beyond(self, count, fraction, supported):
        values = list(range(count))
        value = supported_percentile(values, fraction)
        assert (value is not None) is supported
        if supported:
            assert count - 1 - value >= MIN_BEYOND


class TestShims:
    def test_spans_recorded_and_originals_restored(self):
        from repro.serve import execute_request, parse_request
        from repro.sim.scheduler import use_engine

        two_sweep = importlib.import_module("repro.core.two_sweep")
        fast = importlib.import_module("repro.core.fast_two_sweep")
        original = two_sweep.two_sweep
        spec = parse_request({
            "topology": {"kind": "gnp-stream", "n": 60, "p": 0.06, "seed": 3},
            "algorithm": {"name": "two-sweep", "seed": 1},
        })
        with use_engine("vectorized"):
            plain = execute_request(spec)
            recorder = Recorder()
            recorder.op = "request"
            with traced(recorder), recorder.span("request"):
                shimmed = execute_request(spec)
        assert two_sweep.two_sweep is original
        assert fast.two_sweep is original
        assert shimmed["result"]["colors_blake2b"] == \
            plain["result"]["colors_blake2b"]
        assert shimmed["ledger"] == plain["ledger"]
        names = {s[2] for s in recorder.spans}
        assert {"core.two_sweep.two_sweep", "sim.scheduler.run_protocol",
                "sim.kernels.step",
                "serve.executor._run_sweep"} <= names
        row = layer_row(by_op(recorder.spans)["request"])
        assert row["kernels.steps"] == plain["ledger"]["rounds"]
        assert row["two_sweep.solve_s"] > 0.0
        assert 0.5 < row["trace.coverage"] <= 1.0
