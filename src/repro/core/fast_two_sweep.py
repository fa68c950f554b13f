"""Algorithm 2: the Fast-Two-Sweep algorithm (Theorem 1.1, epsilon > 0).

Algorithm 1's round complexity is O(q), which is too slow when only a
large proper coloring (e.g. the raw identifiers) is available.  Algorithm
2 removes the dependence on ``q``: it first computes the *defective*
coloring of Lemma 3.4 with relative defect ``alpha = epsilon / p`` in
O(log* q) rounds, drops the monochromatic edges, pays for them by
shrinking every defect by ``floor(beta_v * epsilon / p)``, and then runs
Algorithm 1 on the remaining properly-colored graph whose color count is
only O((p / epsilon)^2).

Deviation from the paper's pseudocode: Algorithm 2 writes the defect
reduction with a ceiling.  We use the floor, which makes both directions
of the proof airtight without extra slack assumptions: the final defect
is ``d'_v(x) + #monochromatic out-neighbors <= d'_v(x) +
floor(alpha * beta_v) = d_v(x)`` (the monochromatic count is an integer
bounded by ``alpha * beta_v``), and the reduced instance keeps
``sum (d'_v(x)+1) > max{p, |L_v|/p} * beta_v`` because
``|L_v| * floor(eps * beta_v / p) <= eps * max{p, |L_v|/p} * beta_v``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Dict, Hashable, List, Mapping, Optional

from ..coloring.defects import drop_negative_defects
from ..obs.tracer import current_tracer
from ..coloring.instance import OLDCInstance
from ..coloring.result import ColoringResult
from ..sim.congest import BandwidthModel
from ..sim.errors import AlgorithmFailure, InfeasibleInstanceError, InstanceError
from ..sim.metrics import CostLedger, ensure_ledger
from ..substrates.kuhn_defective import kuhn_defective_coloring
from ..substrates.log_star import log_star
from .two_sweep import two_sweep

Node = Hashable
Color = int


def check_fast_two_sweep_preconditions(instance: OLDCInstance,
                                       p: int, epsilon: float) -> None:
    """Raise unless every node satisfies Eq. (7)."""
    if p < 1:
        raise InstanceError("p must be at least 1")
    if epsilon < 0.0:
        raise InstanceError("epsilon must be non-negative")
    for node in instance.graph.nodes:
        # Out-degree-0 nodes never see conflicts; see two_sweep.py.
        if (instance.graph.outdegree(node) == 0
                and instance.list_size(node) > 0):
            continue
        if not instance.satisfies_eq7(p, epsilon, node):
            raise InfeasibleInstanceError(
                node,
                f"Eq. (7) fails: weight {instance.weight(node)} <= "
                f"(1+{epsilon}) * max({p}, {instance.list_size(node)}/{p}) "
                f"* beta {instance.beta(node)}",
            )


def fast_two_sweep(instance: OLDCInstance,
                   initial_colors: Mapping[Node, Color],
                   q: int,
                   p: int,
                   epsilon: float,
                   ledger: Optional[CostLedger] = None,
                   bandwidth: Optional[BandwidthModel] = None,
                   check: bool = True,
                   trace: Optional[List[dict]] = None) -> ColoringResult:
    """Run Algorithm 2: OLDC in O(min{q, (p/eps)^2 + log* q}) rounds.

    With ``epsilon = 0`` this is exactly Algorithm 1.  The instance must
    satisfy Eq. (7); ``initial_colors`` must be a proper ``q``-coloring
    with colors ``0..q-1``.  ``trace`` collects the inner sweep's
    per-node phase events (and, like every trace, pins that sweep to the
    reference engine -- the vectorized kernels decline traced runs).

    Both phases of the composition are kernelized: under
    ``engine="vectorized"`` the Lemma 3.4 recoloring runs through
    ``AlgebraicRecoloringKernel`` and the final sweep through
    :class:`~repro.core.two_sweep.TwoSweepKernel`, bit-identical to the
    reference engine.
    """
    ledger = ensure_ledger(ledger)
    if check:
        check_fast_two_sweep_preconditions(instance, p, epsilon)
    if epsilon == 0.0:
        return two_sweep(
            instance, initial_colors, q, p,
            ledger=ledger, bandwidth=bandwidth, check=check, trace=trace,
        )
    # Line 1 of Algorithm 2: with few initial colors the plain sweep wins.
    if q <= (p / epsilon) ** 2 + log_star(q):
        return two_sweep(
            instance, initial_colors, q, p,
            ledger=ledger, bandwidth=bandwidth, check=check, trace=trace,
        )

    graph = instance.graph
    alpha = epsilon / p
    # Algorithm-level span covering the whole Theorem 1.1 composition
    # (defective recoloring + reduced sweep); the route taken is logical
    # -- it depends only on (q, p, epsilon), never on the engine.
    tracer = current_tracer()
    scope = (
        tracer.span("algorithm", "fast-two-sweep",
                    nodes=len(graph.network), q=q, p=p, epsilon=epsilon,
                    route="defective+sweep")
        if tracer is not None else nullcontext()
    )
    with scope:
        return _fast_two_sweep_route(
            instance, initial_colors, q, p, epsilon, alpha,
            ledger, bandwidth, trace,
        )


def _fast_two_sweep_route(instance, initial_colors, q, p, epsilon, alpha,
                          ledger, bandwidth, trace):
    graph = instance.graph
    with ledger.phase("fast-two-sweep-defective"):
        psi, palette = kuhn_defective_coloring(
            graph, initial_colors, q, alpha,
            ledger=ledger, bandwidth=bandwidth,
        )

    # G': drop the (few) monochromatic edges of the defective coloring.
    monochromatic = [
        (u, v)
        for u in graph.nodes
        for v in graph.out_neighbors(u)
        if psi[u] == psi[v]
    ]
    reduced_graph = graph.without_edges(monochromatic)

    # d'_v(x) = d_v(x) - floor(beta_v * eps / p); drop negative colors.
    reduction = {
        node: int(math.floor(graph.beta(node) * epsilon / p))
        for node in graph.nodes
    }
    reduced_defects: Dict[Node, Dict[Color, int]] = {
        node: {
            color: instance.defects[node][color] - reduction[node]
            for color in instance.lists[node]
        }
        for node in graph.nodes
    }
    lists2, defects2 = drop_negative_defects(instance.lists, reduced_defects)
    inner = OLDCInstance(
        reduced_graph, lists2, defects2, instance.color_space_size
    )
    for node in inner.graph.nodes:
        if (inner.graph.outdegree(node) == 0
                and inner.list_size(node) > 0):
            continue
        if not inner.satisfies_eq2(p, node):
            raise AlgorithmFailure(
                f"node {node!r}: reduced instance lost Eq. (2) -- "
                f"Theorem 1.1's slack bookkeeping is violated"
            )
    result = two_sweep(
        inner, psi, palette, p,
        ledger=ledger, bandwidth=bandwidth, check=False, trace=trace,
    )
    return ColoringResult(
        colors=result.colors, orientation=None, ledger=ledger,
        stats=result.stats,
    )
