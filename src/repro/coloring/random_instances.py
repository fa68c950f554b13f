"""Random feasible instances for tests and benchmarks.

The generators produce instances that provably satisfy the preconditions
of the algorithm under test (Eq. (2)/(7) for the Two-Sweep family, a slack
bound for the Section 4 recursions), with enough randomness in lists and
defects to exercise the general list-defective case rather than only the
uniform one.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Tuple

from ..graphs.oriented import OrientedGraph
from ..sim.network import Network
from .instance import (
    ArbdefectiveInstance,
    ListDefectiveInstance,
    OLDCInstance,
)

Node = Hashable
Color = int


def random_oldc_instance(graph: OrientedGraph, p: int, seed: int,
                         color_space_size: Optional[int] = None,
                         epsilon: float = 0.0,
                         jitter: bool = True) -> OLDCInstance:
    """A random OLDC instance satisfying Eq. (2) (or Eq. (7)) for ``p``.

    Each node receives a list of ``p**2`` colors (the paper's headline list
    size) sampled from the color space, with uniform base defects
    ``floor((1+eps) * beta_v / p)`` -- which makes
    ``weight(v) = p^2 * (d+1) > (1+eps) * p * beta_v`` -- plus optional
    random defect jitter (jitter only *adds* slack, never removes it).
    """
    rng = random.Random(seed)
    list_size = p * p
    if color_space_size is None:
        color_space_size = max(2 * list_size, list_size + 1)
    if color_space_size < list_size:
        raise ValueError("color space smaller than the required list size")
    # Dense-id columns, drawn node by node in graph order: the same
    # ``random.Random`` calls in the same order as a per-node dict build.
    population = range(color_space_size)
    sample = rng.sample
    randint = rng.randint
    colors: List[Color] = []
    defects: List[int] = []
    for outdegree in graph.out_degrees:
        base = int((1.0 + epsilon) * max(1, outdegree) / p)  # floor
        colors.extend(sorted(sample(population, list_size)))
        if jitter:
            top = max(1, base)
            defects.extend([base + randint(0, top)
                            for _ in range(list_size)])
        else:
            defects.extend([base] * list_size)
    indptr = list(range(0, len(colors) + 1, list_size))
    instance = OLDCInstance.from_columns(graph, indptr, colors, defects,
                                         color_space_size)
    failed = instance.first_unsatisfied(p, epsilon, exempt_sinks=False)
    assert failed is None, (
        "generator bug: instance misses Eq.(7) at node %r"
        % (graph.compiled.order[failed],)
    )
    return instance


def random_nonuniform_oldc_instance(graph: OrientedGraph, p: int, seed: int,
                                    color_space_size: Optional[int] = None
                                    ) -> OLDCInstance:
    """An OLDC instance with *heterogeneous* list sizes satisfying Eq. (2).

    Node ``v`` gets a list size drawn from ``[p, p**2]``; the defect mass is
    then topped up so that ``weight(v) > max(p, |L_v|/p) * beta_v`` holds
    with equality plus one.  Exercises the non-square-list branches of
    Lemma 3.1.
    """
    rng = random.Random(seed)
    if color_space_size is None:
        color_space_size = max(2 * p * p, 4)
    lists: Dict[Node, Tuple[Color, ...]] = {}
    defects: Dict[Node, Dict[Color, int]] = {}
    for node in graph.nodes:
        beta = graph.beta(node)
        size = rng.randint(max(1, p // 2), min(p * p, color_space_size))
        colors = tuple(sorted(rng.sample(range(color_space_size), size)))
        required = int(max(p, size / p) * beta) + 1  # weight must exceed this - 1
        # Distribute `required` units of (d+1) mass over the list randomly.
        mass = [1] * size
        remaining = max(0, required - size)
        for _ in range(remaining):
            mass[rng.randrange(size)] += 1
        defect_fn = {
            color: mass[index] - 1 for index, color in enumerate(colors)
        }
        lists[node] = colors
        defects[node] = defect_fn
    instance = OLDCInstance(graph, lists, defects, color_space_size)
    for node in graph.nodes:
        assert instance.satisfies_eq2(p, node), (
            "generator bug: instance misses Eq.(2) at node %r" % (node,)
        )
    return instance


def minimal_slack_oldc_instance(graph: OrientedGraph, p: int,
                                epsilon: float = 0.0) -> OLDCInstance:
    """The *tightest* uniform instance satisfying Eq. (2)/(7) for ``p``.

    Every node gets ``p**2`` colors whose defect mass is the minimal
    integer strictly above ``(1+eps) * max{p, p} * beta_v`` (never below
    one unit per color).  These instances sit exactly on the theorem's
    boundary -- the right workload for tightness tests and the rounding
    ablation (E14).
    """
    import math

    lists: Dict[Node, Tuple[Color, ...]] = {}
    defects: Dict[Node, Dict[Color, int]] = {}
    size = p * p
    for node in graph.nodes:
        beta = graph.beta(node)
        threshold = (1.0 + epsilon) * max(p, size / p) * beta
        need = max(size, int(math.floor(threshold)) + 1)
        base, extra = divmod(need, size)
        colors = tuple(range(size))
        lists[node] = colors
        defects[node] = {
            color: base - 1 + (1 if index < extra else 0)
            for index, color in enumerate(colors)
        }
    instance = OLDCInstance(graph, lists, defects, size)
    for node in graph.nodes:
        assert instance.satisfies_eq7(p, epsilon, node)
    return instance


def _random_slack_lists(network: Network, slack: float, seed: int,
                        color_space_size: int,
                        list_size_cap: Optional[int] = None
                        ) -> Tuple[Dict[Node, Tuple[Color, ...]],
                                   Dict[Node, Dict[Color, int]]]:
    rng = random.Random(seed)
    lists: Dict[Node, Tuple[Color, ...]] = {}
    defects: Dict[Node, Dict[Color, int]] = {}
    for node in network.nodes:
        degree = network.degree(node)
        cap = list_size_cap or color_space_size
        size = rng.randint(1, min(cap, color_space_size))
        colors = tuple(sorted(rng.sample(range(color_space_size), size)))
        required = int(slack * degree) + 1
        mass = [1] * size
        remaining = max(0, required - size)
        for _ in range(remaining):
            mass[rng.randrange(size)] += 1
        lists[node] = colors
        defects[node] = {
            color: mass[index] - 1 for index, color in enumerate(colors)
        }
    return lists, defects


def random_defective_instance(network: Network, slack: float, seed: int,
                              color_space_size: int,
                              list_size_cap: Optional[int] = None
                              ) -> ListDefectiveInstance:
    """A random ``P_D`` instance with slack strictly greater than ``slack``."""
    lists, defects = _random_slack_lists(
        network, slack, seed, color_space_size, list_size_cap
    )
    instance = ListDefectiveInstance(network, lists, defects, color_space_size)
    assert instance.has_slack(slack), "generator bug: slack too small"
    return instance


def random_arbdefective_instance(network: Network, slack: float, seed: int,
                                 color_space_size: int,
                                 list_size_cap: Optional[int] = None
                                 ) -> ArbdefectiveInstance:
    """A random ``P_A`` instance with slack strictly greater than ``slack``."""
    lists, defects = _random_slack_lists(
        network, slack, seed, color_space_size, list_size_cap
    )
    instance = ArbdefectiveInstance(network, lists, defects, color_space_size)
    assert instance.has_slack(slack), "generator bug: slack too small"
    return instance
