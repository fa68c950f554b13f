"""List defective coloring instances.

The paper works with three problem flavors over the same data (a color
list ``L_v`` and a defect function ``d_v : L_v -> N_0`` per node):

* **List defective coloring** (``P_D``): pick ``x_v in L_v`` such that at
  most ``d_v(x_v)`` *neighbors* share the color.
* **List arbdefective coloring** (``P_A``): additionally output an
  orientation of the monochromatic edges; only *out*-neighbors under that
  orientation count against the defect.
* **Oriented list defective coloring** (OLDC): the orientation of *all*
  edges is part of the *input*; only out-neighbors count.

The three instance classes below share list/defect bookkeeping through
:class:`_ListInstanceBase` and differ in the graph object they carry and
the slack notion they expose.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from ..graphs.oriented import BidirectedView, OrientedGraph
from ..sim.errors import InstanceError
from ..sim.network import Network

Node = Hashable
Color = int
ColorList = Tuple[Color, ...]
DefectFn = Dict[Color, int]


def _normalize_lists(nodes: Iterable[Node],
                     lists: Mapping[Node, Iterable[Color]],
                     defects: Mapping[Node, Mapping[Color, int]]
                     ) -> Tuple[Dict[Node, ColorList], Dict[Node, DefectFn]]:
    """Validate and freeze per-node lists and defect functions."""
    node_set = set(nodes)
    missing = node_set - set(lists)
    if missing:
        raise InstanceError(f"nodes without a color list: {sorted(map(repr, missing))}")
    norm_lists: Dict[Node, ColorList] = {}
    norm_defects: Dict[Node, DefectFn] = {}
    for node in node_set:
        colors = tuple(dict.fromkeys(lists[node]))
        defect_fn = dict(defects.get(node, {}))
        for color in colors:
            if not isinstance(color, int) or color < 0:
                raise InstanceError(
                    f"node {node!r}: colors must be non-negative ints, got "
                    f"{color!r}"
                )
            value = defect_fn.get(color, 0)
            if not isinstance(value, int) or value < 0:
                raise InstanceError(
                    f"node {node!r}: defect of color {color} must be a "
                    f"non-negative int, got {value!r}"
                )
            defect_fn[color] = value
        extra = set(defect_fn) - set(colors)
        if extra:
            raise InstanceError(
                f"node {node!r}: defects given for colors outside the list: "
                f"{sorted(extra)}"
            )
        norm_lists[node] = colors
        norm_defects[node] = defect_fn
    return norm_lists, norm_defects


class _ListInstanceBase:
    """Shared list/defect bookkeeping for the three problem flavors.

    Lists and defect functions are stored as dense-id columns over the
    instance network's ``compile()`` order: node ``i``'s list is
    ``list_colors[list_indptr[i]:list_indptr[i + 1]]`` and
    ``list_defects`` holds the matching ``d_v(x)`` values (three Python
    lists).  The node-keyed :attr:`lists` / :attr:`defects` dicts are
    read views built from the columns on first use (the mapping
    constructor keeps the ones its validation already built).
    """

    def __init__(self, network,
                 lists: Mapping[Node, Iterable[Color]],
                 defects: Mapping[Node, Mapping[Color, int]],
                 color_space_size: Optional[int] = None):
        norm_lists, norm_defects = _normalize_lists(
            network.nodes, lists, defects
        )
        indptr = [0]
        colors: List[Color] = []
        values: List[int] = []
        for node in network.compile().order:
            node_colors = norm_lists[node]
            defect_fn = norm_defects[node]
            colors.extend(node_colors)
            values.extend([defect_fn[color] for color in node_colors])
            indptr.append(len(colors))
        self._set_columns(network, indptr, colors, values, color_space_size)
        self._lists = norm_lists
        self._defects = norm_defects

    def _set_columns(self, network, indptr, colors, defects,
                     color_space_size: Optional[int]) -> None:
        observed = max(colors, default=0)
        if color_space_size is None:
            color_space_size = observed + 1
        elif observed >= color_space_size:
            raise InstanceError(
                f"color {observed} outside declared color space of size "
                f"{color_space_size}"
            )
        #: Size ``C`` of the global color space {0, ..., C-1}.
        self.color_space_size = color_space_size
        self._compiled = network.compile()
        self.list_indptr = indptr
        self.list_colors = colors
        self.list_defects = defects
        self._lists = None
        self._defects = None

    # ------------------------------------------------------------------
    # Node-keyed views
    # ------------------------------------------------------------------
    def _view_rows(self):
        """``(node, start, end)`` per node, in the order the mapping
        constructor's validation has always produced (``set`` order)."""
        compiled = self._compiled
        index = compiled.index
        ptr = self.list_indptr
        for node in set(compiled.order):
            i = index[node]
            yield node, ptr[i], ptr[i + 1]

    @property
    def lists(self) -> Dict[Node, ColorList]:
        """``{node: L_v}`` (a view of the columns)."""
        if self._lists is None:
            colors = self.list_colors
            self._lists = {node: tuple(colors[lo:hi])
                           for node, lo, hi in self._view_rows()}
        return self._lists

    @property
    def defects(self) -> Dict[Node, DefectFn]:
        """``{node: {x: d_v(x)}}`` (a view of the columns)."""
        if self._defects is None:
            colors = self.list_colors
            values = self.list_defects
            self._defects = {
                node: dict(zip(colors[lo:hi], values[lo:hi]))
                for node, lo, hi in self._view_rows()
            }
        return self._defects

    # ------------------------------------------------------------------
    # Per-node quantities
    # ------------------------------------------------------------------
    def _bounds(self, node: Node) -> Tuple[int, int]:
        i = self._compiled.index[node]
        return self.list_indptr[i], self.list_indptr[i + 1]

    def list_of(self, node: Node) -> ColorList:
        """The color list ``L_v``."""
        return self.lists[node]

    def defect(self, node: Node, color: Color) -> int:
        """The allowed defect ``d_v(x)`` for ``color`` in the list."""
        return self.defects[node][color]

    def weight(self, node: Node) -> int:
        """``sum_{x in L_v} (d_v(x) + 1)`` -- the slack numerator."""
        lo, hi = self._bounds(node)
        return sum(self.list_defects[lo:hi]) + hi - lo

    def list_size(self, node: Node) -> int:
        """``|L_v|``."""
        lo, hi = self._bounds(node)
        return hi - lo

    def max_list_size(self) -> int:
        """``Lambda``: the maximum list size over all nodes."""
        ptr = self.list_indptr
        return max((ptr[i + 1] - ptr[i] for i in range(len(ptr) - 1)),
                   default=0)

    def total_list_entries(self) -> int:
        """Sum of all list sizes (instance size measure)."""
        return len(self.list_colors)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={len(self.list_indptr) - 1}, "
            f"C={self.color_space_size}, Lambda={self.max_list_size()})"
        )


class OLDCInstance(_ListInstanceBase):
    """Oriented list defective coloring: orientation is part of the input."""

    def __init__(self, graph,
                 lists: Mapping[Node, Iterable[Color]],
                 defects: Mapping[Node, Mapping[Color, int]],
                 color_space_size: Optional[int] = None):
        if not isinstance(graph, (OrientedGraph, BidirectedView)):
            raise InstanceError(
                "OLDCInstance needs an OrientedGraph (or BidirectedView)"
            )
        super().__init__(graph.network, lists, defects, color_space_size)
        self.graph = graph

    @classmethod
    def from_columns(cls, graph, list_indptr: List[int],
                     list_colors: List[Color], list_defects: List[int],
                     color_space_size: Optional[int] = None
                     ) -> "OLDCInstance":
        """An instance over dense-id list columns (``graph.compiled``
        order), taken as they are: each list distinct non-negative ints,
        each defect a non-negative int.  Only the color space is
        checked."""
        instance = cls.__new__(cls)
        instance._set_columns(graph.network, list_indptr, list_colors,
                              list_defects, color_space_size)
        instance.graph = graph
        return instance

    @property
    def network(self) -> Network:
        return self.graph.network

    def beta(self, node: Node) -> int:
        """``beta_v``: the node's outdegree, floored at 1."""
        return self.graph.beta(node)

    def satisfies_eq2(self, p: int, node: Node) -> bool:
        """Equation (2): ``weight(v) > max{p, |L_v|/p} * beta_v``."""
        threshold = max(p, self.list_size(node) / p) * self.beta(node)
        return self.weight(node) > threshold

    def satisfies_eq7(self, p: int, epsilon: float, node: Node) -> bool:
        """Equation (7): Eq. (2) with an extra ``(1 + epsilon)`` factor."""
        threshold = (
            (1.0 + epsilon)
            * max(p, self.list_size(node) / p)
            * self.beta(node)
        )
        return self.weight(node) > threshold

    def first_unsatisfied(self, p: int, epsilon: Optional[float] = None,
                          exempt_sinks: bool = True) -> Optional[int]:
        """Dense id of the first node failing Eq. (2) (``epsilon=None``)
        or Eq. (7), else ``None``: :meth:`satisfies_eq2` /
        :meth:`satisfies_eq7` over the columns, in node order.

        With ``exempt_sinks`` a node without out-neighbors and with a
        non-empty list is skipped: it never sees a conflict (its
        ``beta_v`` floor of 1 would otherwise reject tiny lists).
        """
        ptr = self.list_indptr
        values = self.list_defects
        for i, outdegree in enumerate(self.graph.out_degrees):
            lo, hi = ptr[i], ptr[i + 1]
            size = hi - lo
            if exempt_sinks and outdegree == 0 and size > 0:
                continue
            beta = max(1, outdegree)
            if epsilon is None:
                threshold = max(p, size / p) * beta
            else:
                threshold = (1.0 + epsilon) * max(p, size / p) * beta
            if not sum(values[lo:hi]) + size > threshold:
                return i
        return None

    def restrict(self, nodes: Iterable[Node]) -> "OLDCInstance":
        """Induced sub-instance (subgraph keeps the input orientation)."""
        keep = set(nodes)
        return OLDCInstance(
            self.graph.subgraph(keep),
            {node: self.lists[node] for node in keep},
            {node: self.defects[node] for node in keep},
            self.color_space_size,
        )


class _UndirectedInstanceBase(_ListInstanceBase):
    """Common slack machinery for the two undirected problem flavors."""

    def __init__(self, network: Network,
                 lists: Mapping[Node, Iterable[Color]],
                 defects: Mapping[Node, Mapping[Color, int]],
                 color_space_size: Optional[int] = None):
        if not isinstance(network, Network):
            raise InstanceError("expected a Network")
        super().__init__(network, lists, defects, color_space_size)
        self.network = network

    def degree(self, node: Node) -> int:
        """The node's degree in the instance's graph."""
        return self.network.degree(node)

    def slack(self, node: Node) -> float:
        """Largest ``S`` with ``weight(v) > S * deg(v)`` (Definition 1.1).

        Degree-0 nodes have unbounded slack; we report ``inf``.
        """
        degree = self.network.degree(node)
        if degree == 0:
            return float("inf")
        return self.weight(node) / degree

    def min_slack(self) -> float:
        """The instance's slack: the minimum over all nodes."""
        return min((self.slack(node) for node in self.network), default=float("inf"))

    def has_slack(self, s: float) -> bool:
        """Definition 1.1: ``weight(v) > s * deg(v)`` for every node."""
        return all(
            self.weight(node) > s * self.network.degree(node)
            for node in self.network
        )


class ListDefectiveInstance(_UndirectedInstanceBase):
    """``P_D``: defects are charged by all same-colored neighbors."""

    def restrict(self, nodes: Iterable[Node]) -> "ListDefectiveInstance":
        """The induced sub-instance on ``nodes``."""
        keep = set(nodes)
        return ListDefectiveInstance(
            self.network.subgraph(keep),
            {node: self.lists[node] for node in keep},
            {node: self.defects[node] for node in keep},
            self.color_space_size,
        )


class ArbdefectiveInstance(_UndirectedInstanceBase):
    """``P_A``: the solver also orients monochromatic edges."""

    def restrict(self, nodes: Iterable[Node]) -> "ArbdefectiveInstance":
        """The induced sub-instance on ``nodes``."""
        keep = set(nodes)
        return ArbdefectiveInstance(
            self.network.subgraph(keep),
            {node: self.lists[node] for node in keep},
            {node: self.defects[node] for node in keep},
            self.color_space_size,
        )


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def uniform_lists(nodes: Iterable[Node], colors: Iterable[Color],
                  defect: int = 0) -> Tuple[Dict[Node, ColorList],
                                            Dict[Node, DefectFn]]:
    """Every node gets the same list and the same per-color defect."""
    palette = tuple(dict.fromkeys(colors))
    lists = {node: palette for node in nodes}
    defects = {node: {color: defect for color in palette} for node in nodes}
    return lists, defects


def degree_plus_one_instance(network: Network,
                             lists: Mapping[Node, Iterable[Color]],
                             color_space_size: Optional[int] = None
                             ) -> ListDefectiveInstance:
    """A (deg+1)-list coloring instance: all defects zero.

    Raises :class:`InstanceError` if any list is smaller than ``deg + 1``.
    """
    for node in network:
        size = len(tuple(dict.fromkeys(lists[node])))
        if size < network.degree(node) + 1:
            raise InstanceError(
                f"node {node!r}: list of size {size} < deg+1 = "
                f"{network.degree(node) + 1}"
            )
    defects = {
        node: {color: 0 for color in dict.fromkeys(lists[node])}
        for node in network
    }
    return ListDefectiveInstance(network, lists, defects, color_space_size)
