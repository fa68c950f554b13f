"""Column storage of orientations and OLDC instances against per-node
oracles.

``OrientedGraph`` keeps an out-neighbor CSR and ``OLDCInstance`` keeps
list/defect columns; the node-keyed reads are views of them.  The
oracles below are the per-node constructions the repository used before
(the validating mapping constructors, node-by-node draws and checks),
written out here so that views, random draws and the first failure each
check reports are pinned to them on seeded graphs: int and non-int
nodes, every orientation constructor, both array backends.
"""

from __future__ import annotations

import random

import pytest

from repro.coloring import OLDCInstance, random_oldc_instance
from repro.coloring.validate import check_oldc
from repro.core.fast_two_sweep import check_fast_two_sweep_preconditions
from repro.core.two_sweep import check_two_sweep_preconditions
from repro.graphs import OrientedGraph, gnp_graph, sequential_ids
from repro.graphs.oriented import (
    orient_all_out,
    orient_by_id,
    orient_by_key,
    orient_low_outdegree,
    orient_random,
)
from repro.graphs.streaming import stream_gnp
from repro.sim import Network, NetworkError, arrays
from repro.sim.errors import InfeasibleInstanceError, InstanceError


@pytest.fixture(params=["numpy", "python"])
def backend(request, monkeypatch):
    monkeypatch.setenv(arrays.ARRAYS_ENV,
                       "1" if request.param == "numpy" else "0")
    return request.param


def _networks(rng):
    yield gnp_graph(rng.randint(5, 40), 0.2, seed=rng.randrange(1000))
    yield stream_gnp(rng.randint(5, 40), 0.2, rng.randrange(1000))
    n = rng.randint(3, 30)
    names = [("v", i) if i % 2 else f"node-{i}" for i in range(n)]
    rng.shuffle(names)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}
    yield Network.from_edges(names, [(names[u], names[v])
                                     for u, v in edges])


def _orientations(rng, network):
    yield orient_random(network, random.Random(rng.randrange(1000)))
    yield orient_low_outdegree(network)
    yield orient_by_key(network, repr)
    if all(type(node) is int for node in network.compile().order):
        yield orient_by_id(network)


def _oracle(graph):
    """The same orientation through the validating mapping constructor."""
    return OrientedGraph(graph.network, {node: graph.out_neighbors(node)
                                         for node in graph.nodes})


def _legacy_random_oldc(graph, p, seed, epsilon):
    """The node-by-node draw ``random_oldc_instance`` used to make."""
    rng = random.Random(seed)
    size = p * p
    space = max(2 * size, size + 1)
    lists, defects = {}, {}
    for node in graph.nodes:
        base = int((1.0 + epsilon) * graph.beta(node) / p)
        colors = tuple(sorted(rng.sample(range(space), size)))
        lists[node] = colors
        defects[node] = {color: base + rng.randint(0, max(1, base))
                         for color in colors}
    return OLDCInstance(graph, lists, defects, space)


def _legacy_two_sweep_failure(instance, colors, q, p):
    """The first failure of the per-node Algorithm 1 preconditions."""
    graph = instance.graph
    for node in graph.nodes:
        color = colors.get(node)
        if color is None or not 0 <= color < q:
            return f"node {node!r}: initial color {color!r} outside 0..{q - 1}"
    for u in graph.nodes:
        for v in graph.out_neighbors(u):
            if colors[u] == colors[v]:
                return f"initial coloring is not proper: edge {u!r}-{v!r}"
    for node in graph.nodes:
        if graph.outdegree(node) == 0 and instance.list_size(node) > 0:
            continue
        if not instance.satisfies_eq2(p, node):
            return (f"Eq. (2) fails: weight {instance.weight(node)} <= "
                    f"max({p}, {instance.list_size(node)}/{p}) * "
                    f"beta {instance.beta(node)}")
    return None


def _legacy_check_oldc(instance, colors):
    violations = []
    for node, color in colors.items():
        if color not in instance.lists[node]:
            violations.append(
                f"node {node!r} chose color {color} outside its list")
    for node in instance.graph.nodes:
        color = colors[node]
        conflicts = sum(1 for u in instance.graph.out_neighbors(node)
                        if colors[u] == color)
        allowed = instance.defects[node].get(color, 0)
        if conflicts > allowed:
            violations.append(
                f"node {node!r}: {conflicts} same-colored out-neighbors "
                f"exceed defect {allowed} for color {color}")
    return violations


@pytest.mark.parametrize("seed", range(4))
def test_orientation_views_match_mapping_constructor(seed, backend):
    rng = random.Random(300 + seed)
    for network in _networks(rng):
        for graph in _orientations(rng, network):
            oracle = _oracle(graph)
            nodes = list(network.compile().order)
            for node in nodes:
                assert graph.out_neighbors(node) == oracle.out_neighbors(node)
                assert graph.in_neighbors(node) == oracle.in_neighbors(node)
                assert graph.outdegree(node) == oracle.outdegree(node)
                assert graph.beta(node) == oracle.beta(node)
            for u, v in network.edges():
                assert graph.points_to(u, v) == oracle.points_to(u, v)
                assert graph.points_to(u, v) != graph.points_to(v, u)
            assert graph.max_beta() == oracle.max_beta()
            assert list(graph.out_indices) == list(oracle.out_indices)
            # Dropping the same edges by list and by color mask.
            colors = [rng.randrange(3) for _ in nodes]
            dropped = [(u, v) for u, v in network.edges()
                       if colors[nodes.index(u)] == colors[nodes.index(v)]]
            for reduced in (graph.without_edges(dropped),
                            graph.without_monochromatic(colors)):
                assert type(reduced.network) is type(network)
                assert list(reduced.network.compile().order) == nodes
                assert sorted(map(repr, reduced.network.edges())) == sorted(
                    repr(edge) for edge in network.edges()
                    if edge not in dropped)
                for node in nodes:
                    assert reduced.network.neighbors(node) == tuple(
                        u for u in network.neighbors(node)
                        if (node, u) not in dropped
                        and (u, node) not in dropped)
                    assert reduced.out_neighbors(node) == tuple(
                        u for u in graph.out_neighbors(node)
                        if (node, u) not in dropped
                        and (u, node) not in dropped)


def test_unorientable_key_rejected_like_before():
    network = Network.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    # Set keys: neither endpoint's key is below the other's.
    with pytest.raises(NetworkError, match="edge 0-1 has no direction"):
        orient_by_key(network, lambda node: {0: {1}, 1: {2}, 2: {3}}[node])


@pytest.mark.parametrize("seed", range(4))
def test_instance_columns_match_per_node_draws(seed, backend):
    rng = random.Random(500 + seed)
    for network in _networks(rng):
        for graph in list(_orientations(rng, network)) + [
                orient_all_out(network)]:
            p = rng.choice([1, 2, 3])
            epsilon = rng.choice([0.0, 0.25])
            list_seed = rng.randrange(1000)
            got = random_oldc_instance(graph, p, list_seed, epsilon=epsilon)
            want = _legacy_random_oldc(graph, p, list_seed, epsilon)
            assert list(got.lists.items()) == list(want.lists.items())
            assert list(got.defects.items()) == list(want.defects.items())
            assert got.color_space_size == want.color_space_size
            for node in graph.nodes:
                assert got.weight(node) == want.weight(node)
                assert got.list_size(node) == want.list_size(node)
            assert got.max_list_size() == want.max_list_size()
            assert got.total_list_entries() == want.total_list_entries()


@pytest.mark.parametrize("seed", range(6))
def test_checks_report_the_per_node_first_failure(seed, backend):
    rng = random.Random(700 + seed)
    for network in _networks(rng):
        for graph in _orientations(rng, network):
            nodes = list(graph.nodes)
            p = rng.choice([1, 2])
            instance = random_oldc_instance(graph, p, rng.randrange(1000))
            # Thin (or empty) some lists so Eq. (2)/(7) fail at a drawn
            # node; an empty list fails even without out-neighbors.
            lists = {node: instance.lists[node][:rng.choice([0, 1, p * p])]
                     for node in nodes}
            thin = OLDCInstance(
                graph, lists,
                {node: {c: instance.defects[node][c] for c in lists[node]}
                 for node in nodes},
                instance.color_space_size,
            )
            q = len(nodes)
            ids = sequential_ids(network)
            colors = dict(ids)
            kind = rng.choice(["ok", "range", "improper"])
            if kind == "range":
                colors[rng.choice(nodes)] = q
            elif kind == "improper" and network.edge_count():
                u, v = rng.choice(list(network.edges()))
                colors[u] = colors[v]
            want = _legacy_two_sweep_failure(thin, colors, q, p)
            try:
                check_two_sweep_preconditions(thin, colors, q, p)
                got = None
            except (InstanceError, InfeasibleInstanceError) as exc:
                got = str(exc)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.endswith(want)
            epsilon = rng.choice([0.0, 0.25])
            want_node = next(
                (node for node in nodes
                 if not (graph.outdegree(node) == 0
                         and thin.list_size(node) > 0)
                 and not thin.satisfies_eq7(p, epsilon, node)), None)
            try:
                check_fast_two_sweep_preconditions(thin, p, epsilon)
                got_node = None
            except InfeasibleInstanceError as exc:
                got_node = exc.node
            assert got_node == want_node
            # check_oldc on a drawn (possibly invalid) coloring.
            pick = {node: rng.choice(instance.lists[node]) for node in nodes}
            assert check_oldc(thin, pick) == _legacy_check_oldc(thin, pick)


def test_check_oldc_rejects_nodes_outside_the_graph():
    # A node-keyed lookup of an unknown node raises, as it always did.
    graph = orient_by_id(gnp_graph(10, 0.3, seed=1))
    instance = random_oldc_instance(graph, 1, 3)
    colors = {node: instance.lists[node][0] for node in graph.nodes}
    colors["stranger"] = 0
    with pytest.raises(KeyError):
        check_oldc(instance, colors)


def test_first_unsatisfied_matches_satisfies_eq():
    network = gnp_graph(30, 0.3, seed=4)
    graph = orient_by_id(network)
    instance = random_oldc_instance(graph, 2, 9)
    for p in (1, 2, 3, 5):
        for epsilon in (None, 0.0, 0.5, 2.0):
            want = next(
                (i for i, node in enumerate(graph.nodes)
                 if not (instance.satisfies_eq2(p, node) if epsilon is None
                         else instance.satisfies_eq7(p, epsilon, node))),
                None)
            assert instance.first_unsatisfied(
                p, epsilon, exempt_sinks=False) == want
