"""Pinned outputs of ``greedy-reduction`` and sweep requests.

Each ``greedy-reduction`` golden is the checksum, class count and
ledger totals the request produced before its seed, reduction,
validation and checksum ran on dense-id columns end to end; each sweep
golden (``two-sweep`` / ``fast-two-sweep``) is what the request
produced before orientations and OLDC instances were stored as
columns and the sweep kernels ran from them.  They hold on every engine
and on both array backends: ``default`` runs the process default
engine (so a ``REPRO_SIM_ENGINE=reference`` run checks every golden on
the oracle), ``python`` the vectorized engine with the NumPy backend
off, and ``reference`` the oracle on the cases that take it at most a
second or two.
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


#: ``(algorithm, topology, expected)``: the gnp-stream shape of one
#: perfbench oldc-sweep trial (n = 2000, mean degree 4, p = 2,
#: epsilon = 0.25), random ``id_bits`` identifiers, and the infeasible
#: ``lists: "stuck"`` instance, whose error text and ledger at failure
#: are pinned.
_TRIAL = {"kind": "gnp-stream", "n": 2000, "p": 4.0 / 1999, "seed": 11}
_SPARSE = {"kind": "gnp-stream", "n": 600, "p": 0.01, "seed": 3}
_RING = {"kind": "ring-stream", "n": 500}
SWEEP_GOLDENS = [
    ({"name": "two-sweep", "p": 2, "seed": 5}, _TRIAL,
     {"digest": "9bbea97417cc4776018a9932a14bd7ab",
      "ledger": (4001, 19990, 147926), "work": (31, 25996)}),
    ({"name": "fast-two-sweep", "p": 2, "seed": 5, "epsilon": 0.25}, _TRIAL,
     {"digest": "7a93d105fc653a3edfb446313ccce762",
      "ledger": (2741, 27986, 235882), "work": (27, 24135)}),
    ({"name": "two-sweep", "p": 2, "seed": 9, "id_bits": 12}, _SPARSE,
     {"digest": "535ed962ca32b9a101189573a07a44b1",
      "ledger": (8191, 9105, 71019), "work": (39, 8126)}),
    ({"name": "fast-two-sweep", "p": 2, "seed": 9, "id_bits": 16,
      "epsilon": 0.25}, _SPARSE,
     {"digest": "e89a609474f4b1a843fd24549da89dff",
      "ledger": (2742, 16389, 172995), "work": (36, 8175)}),
    ({"name": "two-sweep", "lists": "stuck"}, _RING,
     {"error": "node 499: no color in S_v = (0,) satisfies Eq. (5); "
               "k={0: 2} r={0: 0} -- Eq. (2) must have been violated",
      "ledger": (501, 2000, 10000)}),
    ({"name": "fast-two-sweep", "lists": "stuck", "epsilon": 0.25}, _RING,
     {"error": "node 1: reduced instance lost Eq. (2) -- Theorem 1.1's "
               "slack bookkeeping is violated",
      "ledger": (0, 0, 0)}),
]


def _sweep_id(golden) -> str:
    algorithm, topology, expected = golden
    tail = ("stuck" if "error" in expected
            else f"ids{algorithm['id_bits']}" if "id_bits" in algorithm
            else "trial")
    return f"{algorithm['name']}-{topology['kind']}-{topology['n']}-{tail}"


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


def _run_sweep(algorithm, topology):
    return execute_request(parse_request({
        "topology": topology, "algorithm": algorithm, "trace": False,
    }))


def _check_sweep(payload, expected):
    ledger = payload["ledger"]
    assert (ledger["rounds"], ledger["messages"], ledger["bits"]) \
        == expected["ledger"]
    if "error" in expected:
        assert payload["status"] == "error"
        assert payload["error"] == {"type": "AlgorithmFailure",
                                    "message": expected["error"]}
        return
    assert payload["status"] == "ok"
    result = payload["result"]
    assert result["valid"] is True
    assert result["colors_blake2b"] == expected["digest"]
    stats = result["stats"]
    assert (stats["max_local_work"], stats["total_local_work"]) \
        == expected["work"]


@pytest.mark.parametrize("golden", SWEEP_GOLDENS, ids=_sweep_id)
def test_sweep_golden_default_engine(golden):
    _check_sweep(_run_sweep(*golden[:2]), golden[2])


@pytest.mark.parametrize("golden", SWEEP_GOLDENS, ids=_sweep_id)
def test_sweep_golden_python_backend(golden):
    previous = arrays.set_arrays_override(False)
    try:
        with use_engine("vectorized"):
            payload = _run_sweep(*golden[:2])
    finally:
        arrays.set_arrays_override(previous)
    _check_sweep(payload, golden[2])


@pytest.mark.parametrize(
    "golden", [g for g in SWEEP_GOLDENS if "error" in g[2]], ids=_sweep_id,
)
def test_sweep_golden_reference_engine(golden):
    with use_engine("reference"):
        payload = _run_sweep(*golden[:2])
    _check_sweep(payload, golden[2])
