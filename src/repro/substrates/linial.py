"""Linial's coloring algorithm [Lin87] and its oriented variant.

From any initial proper ``q``-coloring (e.g. the unique identifiers), the
iterated algebraic recoloring reaches a proper O(Delta^2)-coloring in
O(log* q) rounds.  The oriented variant only dodges *out*-neighbors and
reaches O(beta^2) colors -- every edge's tail avoids its head, which keeps
the coloring proper.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Tuple

from ..graphs.oriented import OrientedGraph
from ..sim.congest import BandwidthModel
from ..sim.errors import InstanceError
from ..sim.metrics import CostLedger
from ..sim.network import Network
from .algebraic import run_recoloring
from .cover_free import proper_schedule

Node = Hashable
Color = int


def _check_initial(colors: Mapping[Node, Color], q: int) -> None:
    bad = [node for node, color in colors.items() if not 0 <= color < q]
    if bad:
        raise InstanceError(
            f"initial colors outside 0..{q - 1} at nodes "
            f"{sorted(map(repr, bad))[:5]}"
        )


def linial_coloring(network: Network,
                    initial_colors: Mapping[Node, Color],
                    q: int,
                    ledger: Optional[CostLedger] = None,
                    bandwidth: Optional[BandwidthModel] = None
                    ) -> Tuple[Dict[Node, Color], int]:
    """Proper O(Delta^2)-coloring from a proper ``q``-coloring.

    Returns ``(colors, palette_size)``; the run costs O(log* q) rounds on
    the shared ledger.  The initial coloring must be proper.
    """
    _check_initial(initial_colors, q)
    avoid = network.raw_max_degree()
    schedule = proper_schedule(q, avoid)
    return run_recoloring(
        network, initial_colors, schedule, None,
        ledger=ledger, bandwidth=bandwidth, phase="linial",
    )


def linial_oriented_coloring(graph: OrientedGraph,
                             initial_colors: Mapping[Node, Color],
                             q: int,
                             ledger: Optional[CostLedger] = None,
                             bandwidth: Optional[BandwidthModel] = None
                             ) -> Tuple[Dict[Node, Color], int]:
    """Proper O(beta^2)-coloring of an oriented graph [Lin87, Sec. 1.1].

    Each node only avoids its out-neighbors' polynomials; since every edge
    has exactly one tail, the result is still a proper coloring, with a
    palette quadratic in the maximum outdegree rather than the degree.
    """
    _check_initial(initial_colors, q)
    avoid = graph.max_outdegree()
    schedule = proper_schedule(q, avoid)
    return run_recoloring(
        graph.network, initial_colors, schedule,
        (graph.out_indptr, graph.out_indices),
        ledger=ledger, bandwidth=bandwidth, phase="linial-oriented",
    )


def linial_palette_bound(max_degree: int) -> int:
    """A closed-form upper bound on the final Linial palette size.

    The last schedule step uses a prime ``m <= 2 * (2 * max_degree + 1)``
    with degree ``k <= 2`` (Bertrand's postulate), so the palette is at
    most ``(4 * max_degree + 2) ** 2`` -- the O(Delta^2) of the theorem
    with an explicit constant.  Benchmarks print measured palettes next to
    this bound.
    """
    return (4 * max_degree + 2) ** 2
