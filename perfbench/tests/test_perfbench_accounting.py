"""failed_share accounting and the metric tables."""

import copy
import json

import pytest

from perfbench import report
from perfbench.report import Outcome, result_line
from perfbench.serve_mixed import Mix, Sample, _check
from perfbench.spans import Tally, payload_mismatches


@pytest.fixture(scope="module")
def served():
    """A sweep request as the daemon would answer it, JSON round trip
    included, plus the mix that produced it."""
    from repro.serve import execute_request, parse_request
    from repro.sim.scheduler import use_engine

    mix = Mix(seed=5)
    body = mix.body(1, "two-sweep")
    with use_engine("vectorized"):
        payload = execute_request(parse_request(body))
    return mix, json.loads(json.dumps(payload))


def test_matching_response_passes(served):
    mix, payload = served
    tally = Tally()
    sample = Sample(1, "two-sweep", 0.01, 200, payload, False)
    tally.record("ok", _check(mix, sample, {}, {}))
    assert tally.correct and tally.failed_share == 0.0


def test_injected_wrong_checksum_counts_as_failure(served):
    mix, payload = served
    wrong = copy.deepcopy(payload)
    wrong["result"]["colors_blake2b"] = "0" * 32
    tally = Tally()
    for step, body in ((1, payload), (1, wrong)):
        sample = Sample(step, "two-sweep", 0.01, 200, body, False)
        tally.record(f"step-{step}", _check(mix, sample, {}, {}))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed_share == pytest.approx(0.5)
    assert not tally.correct
    assert "colors_blake2b differs" in tally.problems[0]
    line = json.loads(result_line(
        Outcome(tally, {name: 1.0 for name in report.END_TO_END}), False))
    assert line["correct"] is False and line["failed"] == 1


def test_ledger_trace_and_status_are_checked(served):
    _mix, payload = served
    changed = copy.deepcopy(payload)
    changed["ledger"]["rounds"] += 1
    changed["trace"] = changed["trace"][:-1]
    changed["status"] = "error"
    assert payload_mismatches(changed, payload) == [
        "status 'error'", "ledger differs", "logical trace differs",
    ]


def test_non_200_response_is_a_failure(served):
    mix, _payload = served
    sample = Sample(1, "two-sweep", 0.01, 503,
                    {"error": {"type": "ServerBusy"}}, False)
    assert _check(mix, sample, {}, {})


def test_benchmark_json_names_every_metric():
    spec = json.loads((report.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        report.PER_LAYER


def test_result_line_prints_every_metric_with_unit():
    tally = Tally()
    tally.record("op", [])
    outcome = Outcome(tally, {name: 2.0 for name in report.END_TO_END},
                      {"kernels.steps": 3})
    e2e = json.loads(result_line(outcome, False))
    layers = json.loads(result_line(outcome, True))
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert set(e2e["metrics"]) == set(report.END_TO_END)
    assert set(layers["metrics"]) == set(report.PER_LAYER)
    assert layers["metrics"]["kernels.steps"] == {"value": 3.0,
                                                  "unit": "count"}
    assert layers["metrics"]["pool.restarts"]["value"] == 0.0
