"""Edge-oriented graphs and orientation constructors.

Oriented list defective coloring takes an *edge orientation* as part of
the input: every undirected edge carries a direction and a node's defect
budget is charged only by its *out*-neighbors.  Following the paper's
convention, ``beta(v)`` denotes the maximum of 1 and the outdegree of
``v``, and ``beta(G)`` is the maximum over all nodes.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Hashable, Iterable, Mapping, Sequence, Tuple

from ..sim import arrays
from ..sim.compiled import CompiledNetwork
from ..sim.errors import NetworkError
from ..sim.network import Network

Node = Hashable

def _per_entry(indptr, indices, test) -> list:
    """``test(i, j)`` for every CSR entry ``(i, j)``, in row order."""
    return [test(i, j) for i in range(len(indptr) - 1)
            for j in indices[indptr[i]:indptr[i + 1]]]


def _mask_rows(indptr, indices, keep) -> Tuple[array, array]:
    """The CSR ``(indptr, indices)`` keeping only entries where ``keep``.

    ``keep`` is aligned with ``indices`` (a bool ndarray or a sequence
    of bools); surviving entries stay in row order.
    """
    np = arrays.get_numpy()
    if np is not None:
        keep = np.asarray(keep, dtype=bool)
        kept = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
        new_indptr = array("q", kept[np.frombuffer(indptr, dtype=np.int64)]
                            .tobytes())
        new_indices = array("q", np.frombuffer(indices, dtype=np.int64)[keep]
                            .tobytes())
        return new_indptr, new_indices
    new_indptr = array("q", [0])
    new_indices = array("q")
    for i in range(len(indptr) - 1):
        lo, hi = indptr[i], indptr[i + 1]
        new_indices.extend(
            j for j, kept in zip(indices[lo:hi], keep[lo:hi]) if kept
        )
        new_indptr.append(len(new_indices))
    return new_indptr, new_indices


def _entry_rows(indptr):
    """Each CSR entry's row (source dense id), as an int64 ndarray."""
    np = arrays.get_numpy()
    ptr = np.frombuffer(indptr, dtype=np.int64)
    return np.repeat(np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr))


class OrientedGraph:
    """An undirected network plus a direction for each edge.

    The orientation is stored as an out-neighbor CSR over
    ``network.compile()``: ``out_indices[out_indptr[i]:out_indptr[i + 1]]``
    are the dense ids of node ``i``'s out-neighbors (two ``array('q')``
    columns).  The node-keyed reads (:meth:`out_neighbors`,
    :meth:`in_neighbors`, :meth:`points_to`) are views built from it on
    first use; the columns consumers (the sweep kernels, the Lemma 3.4
    recoloring, ``check_oldc``) never build them.
    """

    def __init__(self, network: Network,
                 out_neighbors: Mapping[Node, Iterable[Node]]):
        """``out_neighbors[v]`` must partition each edge consistently.

        For every undirected edge ``{u, v}`` exactly one of ``v in
        out_neighbors[u]`` / ``u in out_neighbors[v]`` must hold.
        """
        outs: Dict[Node, Tuple[Node, ...]] = {}
        for node in network:
            declared = tuple(dict.fromkeys(out_neighbors.get(node, ())))
            for target in declared:
                if not network.has_edge(node, target):
                    raise NetworkError(
                        f"orientation uses non-edge {node!r}->{target!r}"
                    )
            outs[node] = declared
        out_sets = {node: frozenset(nbrs) for node, nbrs in outs.items()}
        for u, v in network.edges():
            u_to_v = v in out_sets[u]
            v_to_u = u in out_sets[v]
            if u_to_v == v_to_u:
                state = "both directions" if u_to_v else "no direction"
                raise NetworkError(f"edge {u!r}-{v!r} has {state}")
        index = network.compile().index
        indptr = array("q", [0])
        indices = array("q")
        for node in network:
            indices.extend(index[target] for target in outs[node])
            indptr.append(len(indices))
        self._init(network, indptr, indices)
        # The validation already built both views; keep them.
        self._out = outs
        self._out_sets = out_sets

    @classmethod
    def from_csr(cls, network, out_indptr: array,
                 out_indices: array) -> "OrientedGraph":
        """Wrap an out-neighbor CSR over ``network.compile()`` as is.

        The caller guarantees a valid orientation (every edge in exactly
        one of its endpoints' rows); nothing is checked.
        """
        graph = cls.__new__(cls)
        graph._init(network, out_indptr, out_indices)
        return graph

    def _init(self, network, out_indptr, out_indices) -> None:
        self.network = network
        #: The dense-id view the CSR columns index into.
        self.compiled: CompiledNetwork = network.compile()
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self._out_degrees = None
        self._out = None
        self._out_sets = None
        self._in = None

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    @property
    def out_degrees(self) -> Sequence[int]:
        """Per-node outdegrees in dense-id order (a list)."""
        if self._out_degrees is None:
            ptr = self.out_indptr
            np = arrays.get_numpy()
            self._out_degrees = (
                [ptr[i + 1] - ptr[i] for i in range(len(ptr) - 1)]
                if np is None
                else np.diff(np.frombuffer(ptr, dtype=np.int64)).tolist()
            )
        return self._out_degrees

    def _out_view(self) -> Dict[Node, Tuple[Node, ...]]:
        if self._out is None:
            order = self.compiled.order
            ptr = self.out_indptr
            indices = self.out_indices
            self._out = {
                order[i]: tuple(order[j] for j in indices[ptr[i]:ptr[i + 1]])
                for i in range(len(order))
            }
        return self._out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self.network.nodes

    def __len__(self) -> int:
        return len(self.network)

    def __contains__(self, node: Node) -> bool:
        return node in self.network

    def neighbors(self, node: Node) -> Tuple[Node, ...]:
        return self.network.neighbors(node)

    def out_neighbors(self, node: Node) -> Tuple[Node, ...]:
        return self._out_view()[node]

    def in_neighbors(self, node: Node) -> Tuple[Node, ...]:
        if self._in is None:
            order = self.compiled.order
            ptr = self.out_indptr
            indices = self.out_indices
            incoming: list = [[] for _ in order]
            for i, node_i in enumerate(order):
                for j in indices[ptr[i]:ptr[i + 1]]:
                    incoming[j].append(node_i)
            self._in = {node_j: tuple(incoming[j])
                        for j, node_j in enumerate(order)}
        return self._in[node]

    def points_to(self, u: Node, v: Node) -> bool:
        """True iff the edge ``{u, v}`` is oriented ``u -> v``."""
        if self._out_sets is None:
            self._out_sets = {node: frozenset(nbrs)
                              for node, nbrs in self._out_view().items()}
        return v in self._out_sets[u]

    def outdegree(self, node: Node) -> int:
        return self.out_degrees[self.compiled.index[node]]

    def beta(self, node: Node) -> int:
        """``beta_v``: the outdegree of ``v``, floored at 1 (paper Sec. 2)."""
        return max(1, self.outdegree(node))

    def max_beta(self) -> int:
        """``beta(G) = max_v beta_v``."""
        return max(1, self.max_outdegree())

    def max_outdegree(self) -> int:
        """The raw maximum outdegree (no floor)."""
        return max(self.out_degrees, default=0)

    def __repr__(self) -> str:
        return (
            f"OrientedGraph(n={len(self.network)}, "
            f"m={self.network.edge_count()}, beta={self.max_beta()})"
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Node]) -> "OrientedGraph":
        """Induced oriented subgraph on ``nodes``."""
        keep = set(nodes)
        sub_network = self.network.subgraph(keep)
        sub_out = {
            node: [u for u in self.out_neighbors(node) if u in keep]
            for node in keep
        }
        return OrientedGraph(sub_network, sub_out)

    def without_edges(self, dropped: Iterable[Tuple[Node, Node]]
                      ) -> "OrientedGraph":
        """Copy with the given undirected edges removed (orientation kept)."""
        compiled = self.compiled
        index = compiled.index
        n = compiled.n
        drop = set()
        for u, v in dropped:
            i, j = index[u], index[v]
            drop.add(i * n + j if i < j else j * n + i)

        def kept(i, j):
            return (i * n + j if i < j else j * n + i) not in drop

        return self._masked(
            _per_entry(compiled.indptr, compiled.indices, kept),
            _per_entry(self.out_indptr, self.out_indices, kept),
        )

    def without_monochromatic(self, colors: Sequence[int]
                              ) -> "OrientedGraph":
        """Copy without the edges whose endpoints share a color.

        ``colors`` is a dense-id column (``compiled.order``); the result
        equals ``without_edges`` of every monochromatic edge, computed
        as one mask over the CSR rows.
        """
        compiled = self.compiled
        return self._masked(
            _endpoints_differ(compiled.indptr, compiled.indices, colors),
            _endpoints_differ(self.out_indptr, self.out_indices, colors),
        )

    def _masked(self, network_keep, out_keep) -> "OrientedGraph":
        """The oriented graph on the kept network and out-CSR entries."""
        return OrientedGraph.from_csr(
            _masked_network(self.network, network_keep),
            *_mask_rows(self.out_indptr, self.out_indices, out_keep),
        )


def _endpoints_differ(indptr, indices, colors):
    """Per CSR entry ``(i, j)``: ``colors[i] != colors[j]``."""
    np = arrays.get_numpy()
    column = None if np is None else arrays.int64_column(np, colors)
    if column is None:
        return _per_entry(indptr, indices,
                          lambda i, j: colors[i] != colors[j])
    return (column[_entry_rows(indptr)]
            != column[np.frombuffer(indices, dtype=np.int64)])


def _masked_network(network, keep):
    """``network`` without the CSR entries where ``keep`` is false.

    Keeps the topology's type: a :class:`Network` stays a
    :class:`Network` (same node order, rows in their old order), a
    CSR-direct topology stays a :class:`CompiledNetwork`.
    """
    compiled = network.compile()
    indptr, indices = _mask_rows(compiled.indptr, compiled.indices, keep)
    if isinstance(network, CompiledNetwork):
        return CompiledNetwork.from_csr(indptr, indices, compiled.order)
    order = compiled.order
    return Network({
        order[i]: [order[j] for j in indices[indptr[i]:indptr[i + 1]]]
        for i in range(compiled.n)
    })


# ----------------------------------------------------------------------
# Orientation constructors
# ----------------------------------------------------------------------
def _orient_by_rank(network: Network, rank) -> OrientedGraph:
    """Orient every edge towards the endpoint of smaller ``rank``.

    ``rank`` is a dense-id column of pairwise-distinct-on-edges values
    (an int64 ndarray or a list); the out-CSR is the network's CSR
    masked in row order.
    """
    compiled = network.compile()
    indptr = compiled.indptr
    indices = compiled.indices
    np = arrays.get_numpy()
    if np is not None and isinstance(rank, np.ndarray):
        keep = (rank[np.frombuffer(indices, dtype=np.int64)]
                < rank[_entry_rows(indptr)])
    else:
        keep = _per_entry(indptr, indices, lambda i, j: rank[j] < rank[i])
    return OrientedGraph.from_csr(network, *_mask_rows(indptr, indices, keep))


def orient_by_key(network: Network,
                  key: Callable[[Node], object]) -> OrientedGraph:
    """Orient every edge from the larger to the smaller ``key`` value.

    With an injective key this yields an acyclic orientation -- the
    "towards the earlier node" orientation the paper's greedy arguments
    use.  Ties are broken by ``repr`` so the result is always a valid
    orientation.
    """
    compiled = network.compile()
    order = compiled.order
    indptr = compiled.indptr
    indices = compiled.indices
    # Each node's full key is computed once, on first use, in the order
    # the per-edge comparisons first need it.
    keys: list = [None] * compiled.n

    def full_key(i: int) -> Tuple[object, str]:
        value = keys[i]
        if value is None:
            node = order[i]
            value = keys[i] = (key(node), repr(node))
        return value

    keep = []
    tied = False
    for i in range(compiled.n):
        for j in indices[indptr[i]:indptr[i + 1]]:
            other, own = full_key(j), full_key(i)
            kept = other < own
            keep.append(kept)
            # Each edge must point exactly one way (keys may tie).
            tied = tied or (own < other) == kept
    if tied:
        # An unorientable edge: let the validating constructor report it.
        return OrientedGraph(network, {
            order[i]: [order[j] for j, kept in
                       zip(indices[indptr[i]:indptr[i + 1]],
                           keep[indptr[i]:indptr[i + 1]]) if kept]
            for i in range(compiled.n)
        })
    return OrientedGraph.from_csr(network, *_mask_rows(indptr, indices, keep))


def orient_by_id(network: Network) -> OrientedGraph:
    """Acyclic orientation from higher to lower node identifier."""
    order = network.compile().order
    if isinstance(order, range) or all(type(node) is int for node in order):
        # Distinct ints compare without the repr tie-break.
        np = arrays.get_numpy()
        rank = order if np is None else arrays.int64_column(np, order)
        if rank is not None:
            return _orient_by_rank(network, rank)
    return orient_by_key(network, lambda node: node)


def orient_by_coloring(network: Network,
                       coloring: Mapping[Node, int]) -> OrientedGraph:
    """Orient each edge towards the endpoint with the smaller color.

    Requires the coloring to be proper (adjacent nodes differ), which makes
    the orientation acyclic; a monochromatic edge raises
    :class:`~repro.sim.errors.NetworkError`.
    """
    for u, v in network.edges():
        if coloring[u] == coloring[v]:
            raise NetworkError(
                f"orient_by_coloring needs a proper coloring; edge "
                f"{u!r}-{v!r} is monochromatic"
            )
    return orient_by_key(network, lambda node: coloring[node])


def orient_random(network: Network, rng) -> OrientedGraph:
    """Orient each edge uniformly at random (``rng``: ``random.Random``)."""
    out: Dict[Node, list] = {node: [] for node in network}
    for u, v in network.edges():
        if rng.random() < 0.5:
            out[u].append(v)
        else:
            out[v].append(u)
    return OrientedGraph(network, out)


def orient_low_outdegree(network: Network) -> OrientedGraph:
    """A degeneracy orientation: outdegree at most the graph's degeneracy.

    Repeatedly removes a minimum-degree node and orients its remaining
    edges away from it.  For a ``d``-degenerate graph every node ends with
    outdegree at most ``d``.
    """
    import heapq

    remaining_degree = {node: network.degree(node) for node in network}
    heap = [(degree, repr(node), node) for node, degree in remaining_degree.items()]
    heapq.heapify(heap)
    removed = set()
    order = []
    while heap:
        _, __, node = heapq.heappop(heap)
        if node in removed:
            continue
        removed.add(node)
        order.append(node)
        for neighbor in network.neighbors(node):
            if neighbor not in removed:
                remaining_degree[neighbor] -= 1
                heapq.heappush(
                    heap,
                    (remaining_degree[neighbor], repr(neighbor), neighbor),
                )
    # Out-neighbors are the ones removed later: rank = -position.
    position = {node: index for index, node in enumerate(order)}
    return _orient_by_rank(
        network, [-position[node] for node in network.compile().order]
    )


def orient_all_out(network: Network) -> "BidirectedView":
    """Treat *every* neighbor as an out-neighbor (``beta_v = deg(v)``).

    This is not a valid orientation of the edges, but several reductions
    (e.g. getting an *undirected* defective coloring out of Lemma 3.4)
    need the "defect counts all neighbors" view.  The returned object
    supports the same read interface as :class:`OrientedGraph`.
    """
    return BidirectedView(network)


class BidirectedView:
    """Read-only oriented-graph interface where every edge points both ways."""

    def __init__(self, network: Network):
        self.network = network

    # The out-CSR columns of OrientedGraph: every CSR row in full.
    @property
    def compiled(self) -> CompiledNetwork:
        return self.network.compile()

    @property
    def out_indptr(self):
        return self.compiled.indptr

    @property
    def out_indices(self):
        return self.compiled.indices

    @property
    def out_degrees(self) -> Sequence[int]:
        return self.compiled.degrees

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self.network.nodes

    def __len__(self) -> int:
        return len(self.network)

    def __contains__(self, node: Node) -> bool:
        return node in self.network

    def neighbors(self, node: Node) -> Tuple[Node, ...]:
        return self.network.neighbors(node)

    def out_neighbors(self, node: Node) -> Tuple[Node, ...]:
        return self.network.neighbors(node)

    def in_neighbors(self, node: Node) -> Tuple[Node, ...]:
        return self.network.neighbors(node)

    def points_to(self, u: Node, v: Node) -> bool:
        return self.network.has_edge(u, v)

    def outdegree(self, node: Node) -> int:
        return self.network.degree(node)

    def beta(self, node: Node) -> int:
        return max(1, self.network.degree(node))

    def max_beta(self) -> int:
        return max((self.beta(node) for node in self.network), default=1)

    def max_outdegree(self) -> int:
        return max((self.outdegree(node) for node in self.network), default=0)

    def subgraph(self, nodes: Iterable[Node]) -> "BidirectedView":
        return BidirectedView(self.network.subgraph(nodes))

    def without_edges(self, dropped: Iterable[Tuple[Node, Node]]
                      ) -> "BidirectedView":
        """Copy with the given undirected edges removed.

        A bidirected "edge" appears once per direction in callers that
        enumerate ``(u, out_neighbor)`` pairs; dropping by the undirected
        key handles both.
        """
        drop = {frozenset(edge) for edge in dropped}
        adjacency = {
            node: [
                neighbor for neighbor in self.network.neighbors(node)
                if frozenset((node, neighbor)) not in drop
            ]
            for node in self.network
        }
        return BidirectedView(Network(adjacency))

    def without_monochromatic(self, colors: Sequence[int]
                              ) -> "BidirectedView":
        """Copy without the edges whose endpoints share a color (see
        :meth:`OrientedGraph.without_monochromatic`)."""
        compiled = self.compiled
        return BidirectedView(_masked_network(
            self.network,
            _endpoints_differ(compiled.indptr, compiled.indices, colors),
        ))
