"""Validators for every coloring flavor in the paper.

Each ``check_*`` function returns a list of human-readable violation
strings (empty = valid); the matching ``assert_*`` raises
:class:`~repro.sim.errors.AlgorithmFailure` on the first violation.  The
validators are deliberately independent of the algorithms (they recount
conflicts from scratch) so tests can cross-check algorithm outputs.
"""

from __future__ import annotations

from typing import Hashable, List, Mapping, Tuple

from ..sim import arrays
from ..sim.errors import AlgorithmFailure
from ..sim.network import Network
from .instance import (
    ArbdefectiveInstance,
    ListDefectiveInstance,
    OLDCInstance,
)

Node = Hashable
Color = int


def check_complete(nodes, colors: Mapping[Node, Color]) -> List[str]:
    """Every node must have chosen a color."""
    return [
        f"node {node!r} is uncolored"
        for node in nodes
        if node not in colors or colors[node] is None
    ]


def check_proper_coloring(network: Network,
                          colors: Mapping[Node, Color]) -> List[str]:
    """No monochromatic edge."""
    violations = check_complete(network.nodes, colors)
    if violations:
        return violations
    for u, v in network.edges():
        if colors[u] == colors[v]:
            violations.append(
                f"edge {u!r}-{v!r} monochromatic with color {colors[u]}"
            )
    return violations


def check_list_membership(lists: Mapping[Node, Tuple[Color, ...]],
                          colors: Mapping[Node, Color]) -> List[str]:
    """Every chosen color must come from the node's list."""
    violations = []
    for node, color in colors.items():
        if color not in lists[node]:
            violations.append(
                f"node {node!r} chose color {color} outside its list"
            )
    return violations


def check_list_defective(instance: ListDefectiveInstance,
                         colors: Mapping[Node, Color]) -> List[str]:
    """``P_D`` validity: same-colored *neighbors* within ``d_v(x_v)``."""
    violations = check_complete(instance.network.nodes, colors)
    if violations:
        return violations
    violations = check_list_membership(instance.lists, colors)
    for node in instance.network:
        color = colors[node]
        conflicts = sum(
            1
            for neighbor in instance.network.neighbors(node)
            if colors[neighbor] == color
        )
        # Out-of-list colors (already reported above) allow no defect.
        allowed = instance.defects[node].get(color, 0)
        if conflicts > allowed:
            violations.append(
                f"node {node!r}: {conflicts} same-colored neighbors exceed "
                f"defect {allowed} for color {color}"
            )
    return violations


def check_oldc(instance: OLDCInstance,
               colors: Mapping[Node, Color]) -> List[str]:
    """OLDC validity: same-colored *out*-neighbors within ``d_v(x_v)``.

    Runs on the instance's list and out-neighbor CSR columns.
    """
    violations = check_complete(instance.graph.nodes, colors)
    if violations:
        return violations
    graph = instance.graph
    compiled = graph.compiled
    order = compiled.order
    ptr = instance.list_indptr
    list_colors = instance.list_colors
    list_defects = instance.list_defects
    column = [colors[node] for node in order]
    # Each node's allowed defect for its color; None: outside its list.
    allowed = []
    for i, color in enumerate(column):
        lo = ptr[i]
        node_colors = list_colors[lo:ptr[i + 1]]
        allowed.append(list_defects[lo + node_colors.index(color)]
                       if color in node_colors else None)
    if None in allowed or len(colors) != len(order):
        # In the mapping's order; a key outside the graph raises the
        # KeyError a node-keyed lookup always raised.
        index = compiled.index
        for node, color in colors.items():
            if allowed[index[node]] is None:
                violations.append(
                    f"node {node!r} chose color {color} outside its list"
                )
    out_ptr = graph.out_indptr
    outs = arrays.as_list(graph.out_indices)
    for i, color in enumerate(column):
        conflicts = 0
        for j in outs[out_ptr[i]:out_ptr[i + 1]]:
            if column[j] == color:
                conflicts += 1
        # Out-of-list colors (already reported above) allow no defect.
        limit = allowed[i] or 0
        if conflicts > limit:
            violations.append(
                f"node {order[i]!r}: {conflicts} same-colored out-neighbors "
                f"exceed defect {limit} for color {color}"
            )
    return violations


def check_arbdefective(instance: ArbdefectiveInstance,
                       colors: Mapping[Node, Color],
                       orientation: Mapping[Node, Tuple[Node, ...]]
                       ) -> List[str]:
    """``P_A`` validity: the output orientation covers every monochromatic
    edge exactly once and out-defects respect ``d_v(x_v)``."""
    violations = check_complete(instance.network.nodes, colors)
    if violations:
        return violations
    violations = check_list_membership(instance.lists, colors)
    out_sets = {
        node: frozenset(orientation.get(node, ())) for node in instance.network
    }
    for node, outs in out_sets.items():
        for target in outs:
            if not instance.network.has_edge(node, target):
                violations.append(
                    f"orientation uses non-edge {node!r}->{target!r}"
                )
            elif colors[node] != colors[target]:
                violations.append(
                    f"orientation covers non-monochromatic edge "
                    f"{node!r}->{target!r}"
                )
    for u, v in instance.network.edges():
        if colors[u] != colors[v]:
            continue
        u_to_v = v in out_sets[u]
        v_to_u = u in out_sets[v]
        if u_to_v and v_to_u:
            violations.append(f"monochromatic edge {u!r}-{v!r} oriented both ways")
        elif not u_to_v and not v_to_u:
            violations.append(f"monochromatic edge {u!r}-{v!r} left unoriented")
    for node in instance.network:
        color = colors[node]
        conflicts = sum(
            1 for target in out_sets[node] if colors.get(target) == color
        )
        allowed = instance.defects[node].get(color, 0)
        if conflicts > allowed:
            violations.append(
                f"node {node!r}: {conflicts} monochromatic out-neighbors "
                f"exceed defect {allowed} for color {color}"
            )
    return violations


def check_defective_coloring(network: Network,
                             colors: Mapping[Node, Color],
                             defect: int) -> List[str]:
    """Standard d-defective coloring: <= ``defect`` same-colored neighbors."""
    violations = check_complete(network.nodes, colors)
    if violations:
        return violations
    for node in network:
        conflicts = sum(
            1
            for neighbor in network.neighbors(node)
            if colors[neighbor] == colors[node]
        )
        if conflicts > defect:
            violations.append(
                f"node {node!r}: {conflicts} same-colored neighbors exceed "
                f"defect {defect}"
            )
    return violations


def check_outdegree_defective(graph, colors: Mapping[Node, Color],
                              relative_defect: float) -> List[str]:
    """Lemma 3.4 guarantee: <= ``alpha * beta_v`` same-colored out-neighbors."""
    violations: List[str] = []
    for node in graph.nodes:
        conflicts = sum(
            1
            for neighbor in graph.out_neighbors(node)
            if colors[neighbor] == colors[node]
        )
        allowed = relative_defect * graph.beta(node)
        if conflicts > allowed:
            violations.append(
                f"node {node!r}: {conflicts} same-colored out-neighbors "
                f"exceed alpha*beta = {allowed:.3f}"
            )
    return violations


def _raise_if(violations: List[str], what: str) -> None:
    if violations:
        preview = "; ".join(violations[:5])
        raise AlgorithmFailure(
            f"invalid {what} ({len(violations)} violations): {preview}"
        )


def assert_proper_coloring(network: Network,
                           colors: Mapping[Node, Color]) -> None:
    """Raise :class:`AlgorithmFailure` unless the coloring is proper."""
    _raise_if(check_proper_coloring(network, colors), "proper coloring")


def assert_list_defective(instance: ListDefectiveInstance,
                          colors: Mapping[Node, Color]) -> None:
    """Raise :class:`AlgorithmFailure` on any ``P_D`` violation."""
    _raise_if(check_list_defective(instance, colors), "list defective coloring")


def assert_oldc(instance: OLDCInstance,
                colors: Mapping[Node, Color]) -> None:
    """Raise :class:`AlgorithmFailure` on any OLDC violation."""
    _raise_if(check_oldc(instance, colors), "oriented list defective coloring")


def assert_arbdefective(instance: ArbdefectiveInstance,
                        colors: Mapping[Node, Color],
                        orientation: Mapping[Node, Tuple[Node, ...]]) -> None:
    """Raise :class:`AlgorithmFailure` on any ``P_A`` violation."""
    _raise_if(
        check_arbdefective(instance, colors, orientation),
        "list arbdefective coloring",
    )
