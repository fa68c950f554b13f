"""E2 -- Theorem 1.1 (eps > 0): Fast-Two-Sweep round scaling.

The headline of Algorithm 2: the dependence on the initial color count
``q`` collapses from O(q) to O((p/eps)^2 + log* q).  The sweep scales
``q`` over 6 orders of magnitude at fixed (p, eps) and reports measured
rounds against both the plain-sweep cost and the theorem's bound.
"""

from __future__ import annotations

import os

from repro.analysis import grid, render_records, theorem_11_rounds
from repro.coloring import check_oldc, random_oldc_instance
from repro.core import fast_two_sweep
from repro.graphs import gnp_graph, orient_by_id, random_ids
from repro.sim import CostLedger, parallel_sweep
from repro.substrates import log_star

from _util import emit

#: Env override wins (CI diffs reference vs vectorized tables); the
#: emitted table reports only ledger/validity columns, so it is
#: engine-invariant.
_ENGINE = os.environ.get("REPRO_SIM_ENGINE") or "vectorized"


def measure(q_bits: int, p: int, epsilon: float, seed: int) -> dict:
    network = gnp_graph(60, 0.1, seed=seed)
    graph = orient_by_id(network)
    instance = random_oldc_instance(
        graph, p=p, seed=seed, epsilon=epsilon
    )
    ids = random_ids(network, seed=seed, bits=q_bits)
    q = 2 ** q_bits
    ledger = CostLedger()
    result = fast_two_sweep(instance, ids, q, p, epsilon, ledger=ledger)
    violations = check_oldc(instance, result.colors)
    return {
        "q": q,
        "rounds": ledger.rounds,
        "plain_sweep_cost": 2 * q + 1,
        "theorem_bound": round(theorem_11_rounds(q, p, epsilon)),
        "log_star_q": log_star(q),
        "valid": not violations,
    }


def test_e2_fast_two_sweep(benchmark):
    records = parallel_sweep(
        measure,
        grid(q_bits=[8, 16, 24, 32, 40], p=[2], epsilon=[0.5], seed=[3]),
        engine=_ENGINE,
        report=True,
    )
    print(records.describe())
    assert all(record["valid"] for record in records)
    emit("E2_fast_two_sweep", render_records(
        records,
        ["q_bits", "q", "rounds", "plain_sweep_cost", "theorem_bound",
         "log_star_q", "valid"],
        title="E2: Fast-Two-Sweep -- rounds stay O((p/eps)^2 + log* q) "
              "while q grows 2^8 -> 2^40",
    ))
    # Shape assertions: on the defective-coloring path (q_bits >= 16 here)
    # rounds are flat in q up to a few log* rounds, and vanishingly small
    # against the plain sweep's O(q).
    medium = next(r for r in records if r["q_bits"] == 16)
    large = next(r for r in records if r["q_bits"] == 40)
    assert large["rounds"] <= medium["rounds"] + 10 * (
        large["log_star_q"] - medium["log_star_q"] + 1
    )
    assert large["rounds"] * 1000 < large["plain_sweep_cost"]
    benchmark(measure, q_bits=32, p=2, epsilon=0.5, seed=4)
