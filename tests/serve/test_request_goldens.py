"""Pinned outputs of ``greedy-reduction`` requests with default params.

Each golden is the checksum, class count and ledger totals the request
produced before its seed, reduction, validation and checksum ran on
dense-id columns end to end.  They hold on every engine and on both
array backends: ``default`` runs the process default engine (so a
``REPRO_SIM_ENGINE=reference`` run checks every golden on the oracle),
``python`` the vectorized engine with the NumPy backend off, and
``reference`` the oracle on the cases that take it at most a second or
two.
"""

from __future__ import annotations

import pytest

from repro.serve.executor import execute_request
from repro.serve.schema import parse_request
from repro.sim import arrays, use_engine

#: ``(topology, colors_blake2b, color_count, rounds, messages)``.
GOLDENS = [
    ({"kind": "ring-stream", "n": 250_000},
     "99392d2d5d095f7bdb5805d7bf964500", 3, 15, 875_000),
    ({"kind": "ring-stream", "n": 20_001},
     "52157c40faa397ddc48624b7b07fd5c2", 3, 14, 68_004),
    ({"kind": "grid-stream", "rows": 300, "cols": 301},
     "95d4af75bfde7e407e7956b16ff53ab8", 4, 13, 584_996),
    ({"kind": "tree-stream", "depth": 15},
     "2d16899cf4f5fc200e540eea1c375417", 4, 14, 229_371),
    ({"kind": "gnp-stream", "n": 4000, "p": 0.15, "seed": 7},
     "8c01212c036539cf5402f3cf8a47ef5f", 667, 565, 3_272_820),
    ({"kind": "regular-stream", "n": 30_000, "degree": 5, "seed": 3},
     "9db48eebf07a690a0a8893968f1cced9", 6, 8, 174_005),
]

#: Goldens cheap enough for the per-node reference engine in tier-1.
REFERENCE_KINDS = ("ring-stream-20001", "regular-stream-30000")


def _case_id(golden) -> str:
    topology = golden[0]
    size = topology.get("n", topology.get("depth", topology.get("rows")))
    return f"{topology['kind']}-{size}"


def _run(topology):
    return execute_request(parse_request({
        "topology": topology,
        "algorithm": {"name": "greedy-reduction"},
        "trace": False,
    }))


def _check(payload, digest, count, rounds, messages):
    assert payload["status"] == "ok"
    result = payload["result"]
    assert result["valid"] is True
    assert result["colors_blake2b"] == digest
    assert result["color_count"] == count
    assert payload["ledger"]["rounds"] == rounds
    assert payload["ledger"]["messages"] == messages


@pytest.mark.parametrize("golden", GOLDENS, ids=_case_id)
def test_golden_default_engine(golden):
    _check(_run(golden[0]), *golden[1:])


@pytest.mark.parametrize("golden", GOLDENS, ids=_case_id)
def test_golden_python_backend(golden):
    previous = arrays.set_arrays_override(False)
    try:
        with use_engine("vectorized"):
            payload = _run(golden[0])
    finally:
        arrays.set_arrays_override(previous)
    _check(payload, *golden[1:])


@pytest.mark.parametrize(
    "golden", [g for g in GOLDENS if _case_id(g) in REFERENCE_KINDS],
    ids=_case_id,
)
def test_golden_reference_engine(golden):
    with use_engine("reference"):
        payload = _run(golden[0])
    _check(payload, *golden[1:])
