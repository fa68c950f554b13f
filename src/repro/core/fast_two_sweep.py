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
from typing import Hashable, List, Mapping, Optional

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
    # Out-degree-0 nodes never see conflicts; see two_sweep.py.
    failed = instance.first_unsatisfied(p, epsilon)
    if failed is not None:
        node = instance.graph.compiled.order[failed]
        raise InfeasibleInstanceError(
            node,
            f"Eq. (7) fails: weight {instance.weight(node)} <= "
            f"(1+{epsilon}) * max({p}, {instance.list_size(node)}/{p}) "
            f"* beta {instance.beta(node)}",
        )


def plain_sweep_route(q: int, p: int, epsilon: float) -> bool:
    """Whether Algorithm 2 runs plain Algorithm 1 over the ``q`` colors:
    always for ``epsilon = 0``, and by its line 1 when there are few
    initial colors, ``q <= (p / epsilon)^2 + log* q``."""
    return epsilon == 0.0 or q <= (p / epsilon) ** 2 + log_star(q)


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
    if plain_sweep_route(q, p, epsilon):
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
    order = graph.compiled.order
    psi = [psi[node] for node in order]

    # G': drop the (few) monochromatic edges of the defective coloring.
    reduced_graph = graph.without_monochromatic(psi)

    # d'_v(x) = d_v(x) - floor(beta_v * eps / p); drop negative colors.
    ptr = instance.list_indptr
    colors = instance.list_colors
    defects = instance.list_defects
    list_indptr = [0]
    list_colors: List[Color] = []
    list_defects: List[int] = []
    for i, outdegree in enumerate(graph.out_degrees):
        reduction = int(math.floor(max(1, outdegree) * epsilon / p))
        lo, hi = ptr[i], ptr[i + 1]
        if reduction == 0:  # defects are non-negative: the list stays
            list_colors.extend(colors[lo:hi])
            list_defects.extend(defects[lo:hi])
        else:
            for color, defect in zip(colors[lo:hi], defects[lo:hi]):
                if defect >= reduction:
                    list_colors.append(color)
                    list_defects.append(defect - reduction)
        list_indptr.append(len(list_colors))
    inner = OLDCInstance.from_columns(
        reduced_graph, list_indptr, list_colors, list_defects,
        instance.color_space_size,
    )
    failed = inner.first_unsatisfied(p)
    if failed is not None:
        raise AlgorithmFailure(
            f"node {order[failed]!r}: reduced instance lost Eq. (2) -- "
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
