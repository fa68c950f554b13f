"""The defective coloring of Lemma 3.4 [Kuh09, KS18].

Given a directed graph with a proper ``q``-coloring, computes a coloring
with O(1/alpha^2) colors such that every node has at most
``alpha * beta_v`` out-neighbors of its own color, in O(log* q) rounds.
Passing a :class:`~repro.graphs.oriented.BidirectedView` instead of an
orientation yields the *undirected* guarantee (at most ``alpha * deg(v)``
same-colored neighbors) used by the slack reductions of Section 4.2.

Correctness sketch (matches the implementation): in each step, a node
picks the evaluation point minimizing collisions against out-neighbors
whose *current* colors differ; averaging over the ``m`` points bounds the
minimum by ``(k/m) * beta_v <= alpha_step * beta_v``.  Out-neighbors that
already share the node's color can collide again, so per-step defects add
up; the step budgets sum to at most ``alpha``, hence the final relative
defect is below ``alpha``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Tuple

from ..sim.congest import BandwidthModel
from ..sim.errors import InstanceError
from ..sim.metrics import CostLedger
from .algebraic import run_recoloring
from .cover_free import defective_schedule

Node = Hashable
Color = int


def kuhn_defective_coloring(graph,
                            initial_colors: Mapping[Node, Color],
                            q: int,
                            alpha: float,
                            ledger: Optional[CostLedger] = None,
                            bandwidth: Optional[BandwidthModel] = None
                            ) -> Tuple[Dict[Node, Color], int]:
    """Lemma 3.4: O(1/alpha^2) colors, defect <= alpha * beta_v, O(log* q) rounds.

    Parameters
    ----------
    graph:
        An :class:`~repro.graphs.oriented.OrientedGraph` (out-neighbor
        defect) or :class:`~repro.graphs.oriented.BidirectedView`
        (all-neighbor defect).
    initial_colors:
        A proper ``q``-coloring with colors ``0..q-1``.  Properness is
        required: the first step's collision bound only covers neighbors
        with *different* current colors.
    alpha:
        The relative defect budget, ``0 < alpha <= 1``.

    Returns ``(colors, palette_size)``.
    """
    if not 0.0 < alpha <= 1.0:
        raise InstanceError("alpha must lie in (0, 1]")
    bad = [
        node for node, color in initial_colors.items() if not 0 <= color < q
    ]
    if bad:
        raise InstanceError(
            f"initial colors outside 0..{q - 1} at nodes "
            f"{sorted(map(repr, bad))[:5]}"
        )
    schedule = defective_schedule(q, alpha)
    return run_recoloring(
        graph.network, initial_colors, schedule,
        (graph.out_indptr, graph.out_indices),
        ledger=ledger, bandwidth=bandwidth, phase="kuhn-defective",
    )


def defective_palette_bound(alpha: float) -> int:
    """Closed-form bound on the Lemma 3.4 palette: O(1/alpha^2).

    The final schedule step uses a prime ``m <= 2 * max(2, ceil(3/(alpha/2)))``
    (degree at most 3 suffices once earlier steps have shrunk the palette),
    so ``m**2 <= (12/alpha + 4) ** 2``.  Benchmarks compare measured
    palettes against this explicit constant.
    """
    return int((12.0 / alpha + 4.0) ** 2) + 1
