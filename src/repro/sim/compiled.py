"""Compiled topologies: dense integer ids and CSR adjacency arrays.

A :class:`Network` stores adjacency as hashable-keyed dicts, which is the
right interface for protocol code but a poor substrate for the scheduler's
hot loop: every neighbor lookup hashes a node object and every per-node
table is a dict.  A :class:`CompiledNetwork` is the one-time "compilation"
of a network into flat arrays:

* nodes are mapped to dense integers ``0..n-1`` in the network's insertion
  order (``order[i]`` is the node object, ``index[node]`` its integer id);
* adjacency is stored in CSR form -- ``indices[indptr[i]:indptr[i + 1]]``
  are the dense ids of node ``i``'s neighbors, in the same order as
  ``Network.neighbors`` returns them;
* per-node views the scheduler needs every round (neighbor object tuples,
  neighbor sets, neighbor-id tuples, degrees) are built lazily on first
  use and cached -- a run that never touches them (the vectorized engine
  over CSR-only kernels) holds nothing but the flat arrays, which is what
  makes n = 10^6 topologies fit.

Because :class:`Network` is immutable, the compilation is cached on the
network itself: ``network.compile()`` builds it on first use and returns
the same instance afterwards.

A compiled network can also exist *without* any :class:`Network` behind
it: :meth:`CompiledNetwork.from_csr` wraps raw CSR buffers (the streaming
generators in :mod:`repro.graphs.streaming` emit edges straight into
them), and the Network-facade methods (``nodes`` / ``neighbors`` /
``has_edge`` / ``compile`` returning ``self`` / iteration) make the
result a drop-in topology for :class:`~repro.sim.scheduler.Scheduler`
and :func:`~repro.sim.scheduler.run_protocol` on every engine.  The one
facade caveat: :meth:`max_degree` keeps its historical no-floor meaning
here; Network-style consumers should call :meth:`raw_max_degree` (alias)
or apply the paper's floor of 2 themselves.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

Node = Hashable

#: Array typecode for dense ids; ``q`` (signed 64-bit) keeps the arrays
#: valid for any graph size we can hold in memory.
_ID_TYPECODE = "q"


class _DenseIndex:
    """Identity ``node -> dense id`` mapping for ``order == range(n)``.

    CSR-direct topologies name their nodes by dense id already, so the
    ``index`` mapping is the identity -- this stand-in answers lookups
    without materializing an n-entry dict.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, node) -> int:
        if isinstance(node, int) and not isinstance(node, bool) \
                and 0 <= node < self.n:
            return node
        raise KeyError(node)

    def __contains__(self, node) -> bool:
        return (isinstance(node, int) and not isinstance(node, bool)
                and 0 <= node < self.n)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(range(self.n))


class CompiledNetwork:
    """Dense-integer, CSR-array view of an undirected topology."""

    __slots__ = (
        "n",
        "m",
        "order",
        "indptr",
        "indices",
        "_index",
        "_degrees",
        "_max_degree",
        "_neighbor_objects",
        "_neighbor_sets",
        "_neighbor_id_tuples",
        "_numpy_views",
    )

    def __init__(self, order, index: Optional[Dict[Node, int]],
                 indptr, indices,
                 neighbor_objects: Optional[Tuple[Tuple[Node, ...], ...]] = None,
                 neighbor_sets: Optional[Tuple[frozenset, ...]] = None):
        self.n = len(order)
        self.m = len(indices) // 2
        self.order = order
        self.indptr = indptr
        self.indices = indices
        self._index = index
        self._degrees = None
        self._max_degree = None
        self._neighbor_objects = neighbor_objects
        self._neighbor_sets = neighbor_sets
        self._neighbor_id_tuples = None
        self._numpy_views = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network) -> "CompiledNetwork":
        """Compile ``network``; prefer :meth:`Network.compile` (cached)."""
        order: Tuple[Node, ...] = tuple(network)
        index: Dict[Node, int] = {node: i for i, node in enumerate(order)}
        indptr = array(_ID_TYPECODE, [0])
        indices = array(_ID_TYPECODE)
        neighbor_objects: List[Tuple[Node, ...]] = []
        for node in order:
            neighbors = network.neighbors(node)
            neighbor_objects.append(neighbors)
            indices.extend(index[neighbor] for neighbor in neighbors)
            indptr.append(len(indices))
        # The network's own neighbor tuples/frozensets are captured by
        # reference (no new per-node objects); the id tuples and degree
        # array are left to the lazy properties.
        neighbor_sets = tuple(
            network.neighbor_set(node) for node in order
        )
        return cls(order, index, indptr, indices,
                   tuple(neighbor_objects), neighbor_sets)

    @classmethod
    def from_csr(cls, indptr, indices, order=None) -> "CompiledNetwork":
        """Wrap raw CSR buffers directly -- no :class:`Network` involved.

        ``indptr``/``indices`` may be ``array('q')``, int64 ndarrays, or
        ``memoryview('q')`` slices of a shared-memory segment; they are
        held by reference, never copied.  The caller guarantees CSR
        validity (symmetric, no self-loops, ``indptr`` monotone starting
        at 0 and ending at ``len(indices)``); only the cheap frame
        invariants are checked here.  ``order`` defaults to the dense
        ids themselves (``range(n)``), which is what the streaming
        generators use -- nodes then *are* their integer ids, and the
        ``index`` mapping is the identity.
        """
        n = len(indptr) - 1
        if n < 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0 or (n >= 0 and indptr[n] != len(indices)):
            raise ValueError(
                "indptr must start at 0 and end at len(indices)"
            )
        if order is None:
            order = range(n)
        elif len(order) != n:
            raise ValueError("order length must match indptr")
        return cls(order, None, indptr, indices)

    # ------------------------------------------------------------------
    # Lazy per-node views
    # ------------------------------------------------------------------
    @property
    def index(self):
        """``node -> dense id`` mapping (identity for CSR-direct nets)."""
        if self._index is None:
            order = self.order
            if isinstance(order, range) and order == range(self.n):
                self._index = _DenseIndex(self.n)
            else:
                self._index = {node: i for i, node in enumerate(order)}
        return self._index

    @property
    def degrees(self):
        """Per-node degrees as an ``array('q')``, built on first use.

        One ``np.diff`` over ``indptr`` when the array backend is on,
        a Python pass otherwise -- the same bytes either way.
        """
        if self._degrees is None:
            from .arrays import get_numpy

            indptr = self.indptr
            np = get_numpy()
            if np is None:
                self._degrees = array(
                    _ID_TYPECODE,
                    (indptr[i + 1] - indptr[i] for i in range(self.n)),
                )
            else:
                degrees = array(_ID_TYPECODE)
                degrees.frombytes(
                    np.diff(np.frombuffer(indptr, dtype=np.int64)).tobytes()
                )
                self._degrees = degrees
        return self._degrees

    @property
    def neighbor_objects(self) -> Tuple[Tuple[Node, ...], ...]:
        """Per-node neighbor tuples in CSR row order."""
        if self._neighbor_objects is None:
            order = self.order
            indptr = self.indptr
            indices = self.indices
            self._neighbor_objects = tuple(
                tuple(order[j] for j in indices[indptr[i]:indptr[i + 1]])
                for i in range(self.n)
            )
        return self._neighbor_objects

    @property
    def neighbor_sets(self) -> Tuple[frozenset, ...]:
        """Per-node neighbor frozensets (O(1) membership)."""
        if self._neighbor_sets is None:
            self._neighbor_sets = tuple(
                frozenset(row) for row in self.neighbor_objects
            )
        return self._neighbor_sets

    @property
    def neighbor_id_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-node CSR rows materialized as tuples of plain ints: the
        scheduler's broadcast fan-out iterates a node's full neighbor
        row every time, and tuple iteration beats repeated ``array``
        indexing on that hot path.  Built on first fast-engine run;
        kernel-only runs never pay for it.
        """
        if self._neighbor_id_tuples is None:
            indptr = self.indptr
            indices = self.indices
            self._neighbor_id_tuples = tuple(
                tuple(int(j) for j in indices[indptr[i]:indptr[i + 1]])
                for i in range(self.n)
            )
        return self._neighbor_id_tuples

    # ------------------------------------------------------------------
    # Queries (dense-id domain)
    # ------------------------------------------------------------------
    def neighbor_ids(self, i: int):
        """Dense ids of node ``i``'s neighbors (CSR slice)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        return self.indptr[i + 1] - self.indptr[i]

    def numpy_views(self):
        """``(indptr, indices, degrees)`` as int64 ndarrays, or ``None``.

        Zero-copy views over the CSR buffers (``array('q')``,
        shared-memory ``memoryview``, or ndarray -- all native 64-bit
        ints), built lazily on first use and cached for the compiled
        network's lifetime.  Returns ``None`` whenever the NumPy backend
        is unavailable or disabled (``REPRO_SIM_ARRAYS=0``), so kernels
        can use this as their backend probe.
        """
        from .arrays import get_numpy

        np = get_numpy()
        if np is None:
            return None
        if self._numpy_views is None:
            indptr = np.frombuffer(self.indptr, dtype=np.int64)
            indices = np.frombuffer(self.indices, dtype=np.int64)
            degrees = np.frombuffer(self.degrees, dtype=np.int64)
            self._numpy_views = (indptr, indices, degrees)
        return self._numpy_views

    def max_degree(self) -> int:
        """Maximum degree without the paper's floor of 2 (cached)."""
        if self._max_degree is None:
            self._max_degree = max(self.degrees, default=0)
        return self._max_degree

    def has_edge_ids(self, i: int, j: int) -> bool:
        indptr = self.indptr
        indices = self.indices
        for k in range(indptr[i], indptr[i + 1]):
            if indices[k] == j:
                return True
        return False

    def edge_ids(self) -> Iterator[Tuple[int, int]]:
        """Each undirected edge once, as ``(i, j)`` dense-id pairs.

        Emitted in the same sequence as :meth:`Network.edges` -- for every
        node ``i`` in order, the neighbors ``j`` with ``i < j``.
        """
        indptr = self.indptr
        indices = self.indices
        for i in range(self.n):
            for k in range(indptr[i], indptr[i + 1]):
                j = indices[k]
                if i < j:
                    yield (i, int(j))

    # ------------------------------------------------------------------
    # Network facade (CompiledNetwork-only scheduler entry)
    # ------------------------------------------------------------------
    @property
    def nodes(self):
        """The node objects, in dense-id order (Network facade)."""
        return self.order

    def __iter__(self) -> Iterator[Node]:
        return iter(self.order)

    def __contains__(self, node: Node) -> bool:
        return node in self.index

    def compile(self) -> "CompiledNetwork":
        """A compiled network is its own compilation (Network facade)."""
        return self

    def neighbors(self, node: Node) -> Tuple[Node, ...]:
        """The node's neighbors, in CSR row order (Network facade)."""
        return self.neighbor_objects[self.index[node]]

    def neighbor_set(self, node: Node) -> frozenset:
        """The node's neighbors as a frozenset (Network facade)."""
        return self.neighbor_sets[self.index[node]]

    def has_edge(self, u: Node, v: Node) -> bool:
        """True iff ``{u, v}`` is an edge (Network facade).

        Scans the CSR row directly instead of forcing the per-node
        frozensets into existence (those are cached if already built).
        """
        index = self.index
        try:
            i = index[u]
            j = index[v]
        except KeyError:
            return False
        if self._neighbor_sets is not None:
            return self.order[j] in self._neighbor_sets[i]
        return self.has_edge_ids(i, j)

    def raw_max_degree(self) -> int:
        """Maximum degree without the paper's floor of 2 (Network facade)."""
        return self.max_degree()

    def edge_count(self) -> int:
        """The number of undirected edges (Network facade)."""
        return self.m

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """Each undirected edge once as node-object pairs (Network facade)."""
        order = self.order
        for i, j in self.edge_ids():
            yield (order[i], order[j])

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledNetwork(n={self.n}, m={self.m})"
