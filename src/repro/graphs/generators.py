"""Graph generators used by tests, examples and benchmarks.

All generators return :class:`~repro.sim.network.Network` instances with
integer node identifiers ``0 .. n-1`` (the unique O(log n)-bit IDs of the
model).  Randomized generators take an explicit seed so every experiment
is reproducible.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Tuple

from ..sim.errors import NetworkError
from ..sim.network import Network

def empty_graph(n: int) -> Network:
    """``n`` isolated nodes."""
    return Network({node: [] for node in range(n)})


def path_graph(n: int) -> Network:
    """A path on ``n`` nodes."""
    return Network.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def ring_graph(n: int) -> Network:
    """A cycle on ``n >= 3`` nodes -- Linial's lower-bound topology."""
    if n < 3:
        raise NetworkError("a ring needs at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Network.from_edges(range(n), edges)


def complete_graph(n: int) -> Network:
    """The clique K_n."""
    return Network.from_edges(range(n), itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Network:
    """K_{a,b} with left part ``0..a-1`` and right part ``a..a+b-1``."""
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Network.from_edges(range(a + b), edges)


def star_graph(leaves: int) -> Network:
    """A star: center 0 joined to ``leaves`` leaves."""
    return Network.from_edges(
        range(leaves + 1), [(0, i) for i in range(1, leaves + 1)]
    )


def grid_graph(rows: int, cols: int) -> Network:
    """The rows x cols grid with 4-neighbor adjacency."""
    def node_id(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node_id(r, c), node_id(r, c + 1)))
            if r + 1 < rows:
                edges.append((node_id(r, c), node_id(r + 1, c)))
    return Network.from_edges(range(rows * cols), edges)


def binary_tree(depth: int) -> Network:
    """A complete binary tree of the given depth (depth 0 = single node)."""
    n = 2 ** (depth + 1) - 1
    edges = []
    for i in range(1, n):
        edges.append((i, (i - 1) // 2))
    return Network.from_edges(range(n), edges)


def gnp_graph(n: int, p: float, seed: int) -> Network:
    """Erdos-Renyi G(n, p) with a fixed seed."""
    if not 0.0 <= p <= 1.0:
        raise NetworkError("edge probability must lie in [0, 1]")

    rng = random.Random(seed)
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return Network.from_edges(range(n), edges)


def random_regular_graph(n: int, degree: int, seed: int) -> Network:
    """A random ``degree``-regular simple graph (networkx pairing model)."""
    if n * degree % 2 != 0:
        raise NetworkError("n * degree must be even")
    if degree >= n:
        raise NetworkError("degree must be smaller than n")
    import networkx

    graph = networkx.random_regular_graph(degree, n, seed=seed)
    return Network.from_edges(range(n), graph.edges())


def random_bounded_degree_graph(n: int, max_degree: int, seed: int,
                                edge_factor: float = 1.0) -> Network:
    """A random simple graph whose maximum degree stays below a cap.

    Samples ``edge_factor * n * max_degree / 2`` candidate edges and keeps
    those that do not push an endpoint past ``max_degree``.
    """
    rng = random.Random(seed)
    degree: Dict[int, int] = {node: 0 for node in range(n)}
    edges = set()
    target = int(edge_factor * n * max_degree / 2)
    attempts = 0
    while len(edges) < target and attempts < 20 * target + 100:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = frozenset((u, v))
        if key in edges:
            continue
        if degree[u] >= max_degree or degree[v] >= max_degree:
            continue
        edges.add(key)
        degree[u] += 1
        degree[v] += 1
    return Network.from_edges(
        range(n), [tuple(sorted(edge)) for edge in edges]
    )


def disjoint_cliques(count: int, size: int) -> Network:
    """``count`` disjoint cliques of the given size."""
    edges = []
    for block in range(count):
        base = block * size
        edges.extend(
            (base + i, base + j)
            for i, j in itertools.combinations(range(size), 2)
        )
    return Network.from_edges(range(count * size), edges)


def blow_up(network: Network, factor: int) -> Network:
    """Replace each node by ``factor`` copies; copies of adjacent nodes are
    fully joined, copies of the same node are independent.

    Blow-ups multiply the maximum degree by ``factor`` while multiplying the
    neighborhood independence by at most ``factor`` -- a handy family for
    stress-testing the bounded-theta algorithms.
    """
    nodes = list(network.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    new_nodes = range(len(nodes) * factor)
    edges = []
    for u, v in network.edges():
        for a in range(factor):
            for b in range(factor):
                edges.append((index[u] * factor + a, index[v] * factor + b))
    return Network.from_edges(new_nodes, edges)
