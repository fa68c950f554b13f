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
from repro.coloring import instance as instance_module
from repro.coloring import random_instances
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


def _legacy_random_oldc(graph, p, seed, epsilon, jitter=True,
                        color_space_size=None):
    """The node-by-node draw ``random_oldc_instance`` used to make."""
    rng = random.Random(seed)
    size = p * p
    space = (max(2 * size, size + 1) if color_space_size is None
             else color_space_size)
    lists, defects = {}, {}
    for node in graph.nodes:
        base = int((1.0 + epsilon) * graph.beta(node) / p)
        colors = tuple(sorted(rng.sample(range(space), size)))
        lists[node] = colors
        defects[node] = {
            color: base + (rng.randint(0, max(1, base)) if jitter else 0)
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


@pytest.fixture
def bulk_draws(monkeypatch):
    """Whether each ``random_oldc_instance`` call took the bulk draw
    (``False``: it declined to the per-node loop)."""
    taken = []
    real = random_instances._bulk_columns

    def spy(*args):
        columns = real(*args)
        taken.append(columns is not None)
        return columns

    monkeypatch.setattr(random_instances, "_bulk_columns", spy)
    return taken


def _assert_draws_match(graph, p, seed, epsilon=0.0, jitter=True,
                        color_space_size=None):
    """``random_oldc_instance`` gives the legacy draw's columns."""
    got = random_oldc_instance(graph, p, seed, color_space_size, epsilon,
                               jitter)
    want = _legacy_random_oldc(graph, p, seed, epsilon, jitter,
                               color_space_size)
    assert got.color_space_size == want.color_space_size
    assert got.list_indptr == want.list_indptr
    assert got.list_colors == want.list_colors
    assert got.list_defects == want.list_defects
    assert set(map(type, got.list_colors + got.list_defects)) <= {int}


@pytest.fixture
def numpy_backend(monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.setenv(arrays.ARRAYS_ENV, "1")


def _assert_bulk(taken):
    """The last draw took the bulk form iff NumPy is on."""
    if arrays.get_numpy() is not None:
        assert taken and taken[-1]
    else:
        assert taken == []


@pytest.mark.parametrize("seed", range(4))
def test_instance_columns_match_per_node_draws(seed, backend, bulk_draws,
                                               monkeypatch):
    # The networks are mostly below the batch gate: lower it so the
    # bulk form draws them too.
    monkeypatch.setattr(arrays, "MIN_BATCH", 0)
    rng = random.Random(500 + seed)
    for network in _networks(rng):
        for graph in list(_orientations(rng, network)) + [
                orient_all_out(network)]:
            p = rng.choice([1, 2, 3])
            epsilon = rng.choice([0.0, 0.25])
            list_seed = rng.randrange(1000)
            got = random_oldc_instance(graph, p, list_seed, epsilon=epsilon)
            _assert_bulk(bulk_draws)
            want = _legacy_random_oldc(graph, p, list_seed, epsilon)
            assert list(got.lists.items()) == list(want.lists.items())
            assert list(got.defects.items()) == list(want.defects.items())
            assert got.color_space_size == want.color_space_size
            for node in graph.nodes:
                assert got.weight(node) == want.weight(node)
                assert got.list_size(node) == want.list_size(node)
            assert got.max_list_size() == want.max_list_size()
            assert got.total_list_entries() == want.total_list_entries()


@pytest.mark.parametrize("p", range(1, 9))
def test_bulk_draws_match_stdlib_loop(p, backend, bulk_draws):
    """Graphs at and above the batch gate, every epsilon and jitter.
    Small lists take the bulk draw; from p = 6 on its tables cost more
    than the loop, which draws instead."""
    rng = random.Random(900 + p)
    for n in (arrays.MIN_BATCH, 200):
        network = stream_gnp(n, 3.0 / (n - 1), rng.randrange(1000))
        for graph in (orient_by_id(network),
                      orient_random(network, random.Random(p))):
            for epsilon in (0.0, 0.25, 1.0):
                for jitter in (True, False):
                    _assert_draws_match(graph, p, rng.randrange(1000),
                                        epsilon, jitter)
                    if p <= 3:
                        _assert_bulk(bulk_draws)
                    elif p >= 6:
                        assert True not in bulk_draws


@pytest.mark.parametrize("seed", range(2))
def test_bulk_draws_match_stdlib_loop_on_trial_shape(seed, numpy_backend,
                                                     bulk_draws):
    """G(2000, 4/1999), the oldc-sweep trial's graph."""
    graph = orient_by_id(stream_gnp(2000, 4 / 1999, seed))
    for p in (1, 2, 3):
        for epsilon in (0.0, 0.25):
            for jitter in (True, False):
                _assert_draws_match(graph, p, 40 + seed, epsilon, jitter)
    _assert_draws_match(graph, 8, 40 + seed, 0.25)
    assert bulk_draws == [True] * 12 + [False]


@pytest.mark.parametrize("p, space, bulk", [
    (1, 1, True), (1, 21, True), (1, 22, False),
    (2, 4, True), (2, 21, True), (2, 22, False), (2, 40, False),
    (3, 85, True), (3, 86, False),
])
def test_bulk_draws_across_the_sample_setsize_switch(p, space, bulk,
                                                     backend, bulk_draws):
    """``sample`` switches to its set branch above ``setsize`` (21, plus
    a power of 4 for k > 5): the bulk form replays the pool branch and
    leaves the set branch to the loop."""
    graph = orient_by_id(stream_gnp(100, 0.05, 7))
    _assert_draws_match(graph, p, 3, 0.25, True, space)
    assert bulk_draws == ([bulk] if arrays.get_numpy() is not None else [])


@pytest.mark.parametrize("n", [0, 1])
def test_bulk_draws_of_tiny_graphs(n, backend, bulk_draws, monkeypatch):
    monkeypatch.setattr(arrays, "MIN_BATCH", 0)
    graph = orient_by_id(Network.from_edges(range(n), []))
    for p in (1, 3):
        _assert_draws_match(graph, p, 5)
        _assert_bulk(bulk_draws)


def test_bulk_draws_on_an_all_sinks_orientation(backend, bulk_draws):
    graph = orient_by_id(Network.from_edges(range(64), []))
    assert not any(graph.out_degrees)
    for jitter in (True, False):
        _assert_draws_match(graph, 2, 8, 0.25, jitter)
        _assert_bulk(bulk_draws)


def test_bulk_draws_refill_and_blocks(numpy_backend, bulk_draws,
                                      monkeypatch):
    """Too few words at first: the walk draws more from the same
    generator.  A small table budget splits the nodes into blocks that
    carry the unused words over."""
    words = []
    real_words = random_instances._mt_words
    real_chunk = random_instances._word_chunk

    def counted(np, rng, count):
        words.append(count)
        return real_words(np, rng, count)

    monkeypatch.setattr(random_instances, "_mt_words", counted)
    monkeypatch.setattr(random_instances, "_word_chunk", lambda expected: 1)
    graph = orient_by_id(stream_gnp(300, 4 / 299, 2))
    _assert_draws_match(graph, 2, 6, 0.25)
    assert len(words) > 5
    monkeypatch.setattr(random_instances, "_word_chunk", real_chunk)
    monkeypatch.setattr(random_instances, "_TABLE_ENTRIES", 1 << 12)
    for p in (1, 2, 3):
        for jitter in (True, False):
            _assert_draws_match(graph, p, 6, 0.25, jitter)


def test_bulk_draws_leave_wide_bounds_to_the_loop(backend, bulk_draws):
    """A jitter bound wider than 32 bits takes ``getrandbits`` of more
    than one word: the loop draws it, from an untouched generator."""
    graph = orient_by_id(stream_gnp(40, 0.1, 3))
    _assert_draws_match(graph, 1, 9, 1e10)
    assert bulk_draws == ([False] if arrays.get_numpy() is not None else [])


def _first_failure(instance, p, epsilon, exempt_sinks):
    """The per-node oracle of ``first_unsatisfied``."""
    graph = instance.graph
    for i, node in enumerate(graph.compiled.order):
        if (exempt_sinks and graph.outdegree(node) == 0
                and instance.list_size(node) > 0):
            continue
        if not (instance.satisfies_eq2(p, node) if epsilon is None
                else instance.satisfies_eq7(p, epsilon, node)):
            return i
    return None


@pytest.fixture
def column_checks(monkeypatch):
    """Whether each ``first_unsatisfied`` call decided over NumPy
    columns (``False``: it declined to the loop)."""
    decided = []
    real = instance_module._first_unsatisfied_array

    def spy(*args):
        found = real(*args)
        decided.append(found is not None)
        return found

    monkeypatch.setattr(instance_module, "_first_unsatisfied_array", spy)
    return decided


def _thin_instance(graph, sizes, defects_of):
    """An instance whose node ``i`` holds ``sizes[i]`` colors with the
    defects ``defects_of(i, size)``."""
    indptr, colors, defects = [0], [], []
    for i, size in enumerate(sizes):
        colors.extend(range(size))
        defects.extend(defects_of(i, size))
        indptr.append(len(colors))
    return OLDCInstance.from_columns(graph, indptr, colors, defects, 64)


@pytest.mark.parametrize("seed", range(4))
def test_first_unsatisfied_columns_match_per_node_checks(seed, backend,
                                                         column_checks):
    rng = random.Random(1100 + seed)
    network = stream_gnp(60, 0.08, seed)
    graph = orient_by_id(network)
    n = len(network)
    last = n - 1
    sinks = [i for i, d in enumerate(graph.out_degrees) if d == 0]
    full = [4] * n
    def near(i, size):  # around the Eq. (2)/(7) threshold
        return [rng.randrange(2 + graph.out_degrees[i]) for _ in range(size)]

    def roomy(i, size):
        return [3 * max(1, graph.out_degrees[i])] * size

    cases = [
        ("none fails", full, roomy),
        ("drawn", [rng.choice([0, 1, 2, 4, 9]) for _ in range(n)], near),
        ("first node", [0] + full[1:], roomy),
        ("last node", full[:-1] + [0], roomy),
        ("empty middle", full[:n // 2] + [0] + full[n // 2 + 1:], roomy),
        ("empty trailing", full[:-3] + [0, 0, 0], roomy),
        ("thin sinks", [1 if i in sinks else 4 for i in range(n)], near),
        ("last node short", full,
         lambda i, size: [0] * size if i == last else roomy(i, size)),
    ]
    for name, sizes, defects_of in cases:
        instance = _thin_instance(graph, sizes, defects_of)
        for p in (1, 2, 3):
            for epsilon in (None, 0.0, 0.25):
                for exempt_sinks in (True, False):
                    want = _first_failure(instance, p, epsilon,
                                          exempt_sinks)
                    got = instance.first_unsatisfied(p, epsilon,
                                                     exempt_sinks)
                    assert got == want, (name, p, epsilon, exempt_sinks)
    if arrays.get_numpy() is not None:
        assert column_checks == [True] * len(cases) * 18
    else:
        assert column_checks == []


def test_first_unsatisfied_keeps_the_loop_past_exact_floats(backend,
                                                           column_checks):
    """Weights from 2**53 on: NumPy's float compare could round, so the
    loop decides."""
    graph = orient_by_id(stream_gnp(40, 0.1, 5))
    for big in (1 << 53, 1 << 70):
        instance = _thin_instance(
            graph, [2] * 40, lambda i, size: [big if i == 7 else 0] * size)
        for epsilon in (None, 0.25):
            assert instance.first_unsatisfied(p=2, epsilon=epsilon) == \
                _first_failure(instance, 2, epsilon, True)
    assert column_checks == ([False] * 4 if arrays.get_numpy() is not None
                             else [])


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
