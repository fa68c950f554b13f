"""Tests for the compiled (dense-id, CSR) network view."""

from __future__ import annotations

from repro.graphs import binary_tree, complete_graph, gnp_graph, path_graph
from repro.sim import CompiledNetwork, Network


class TestCompilation:
    def test_cached_on_network(self, medium_random):
        assert medium_random.compile() is medium_random.compile()

    def test_order_and_index_are_inverse(self, medium_random):
        compiled = medium_random.compile()
        assert len(compiled.order) == len(medium_random)
        for i, node in enumerate(compiled.order):
            assert compiled.index[node] == i
        assert tuple(compiled.order) == medium_random.nodes

    def test_counts(self, medium_random):
        compiled = medium_random.compile()
        assert compiled.n == len(medium_random)
        assert compiled.m == medium_random.edge_count()
        assert len(compiled) == compiled.n

    def test_from_network_equals_compile(self, small_ring):
        direct = CompiledNetwork.from_network(small_ring)
        cached = small_ring.compile()
        assert list(direct.indptr) == list(cached.indptr)
        assert list(direct.indices) == list(cached.indices)


class TestCSR:
    def test_csr_matches_neighbors(self):
        network = gnp_graph(50, 0.12, seed=4)
        compiled = network.compile()
        for node in network:
            i = compiled.index[node]
            ids = list(compiled.neighbor_ids(i))
            assert ids == [
                compiled.index[neighbor]
                for neighbor in network.neighbors(node)
            ]
            assert compiled.neighbor_objects[i] == network.neighbors(node)
            assert compiled.neighbor_sets[i] == network.neighbor_set(node)

    def test_degrees(self):
        network = binary_tree(4)
        compiled = network.compile()
        for node in network:
            i = compiled.index[node]
            assert compiled.degree(i) == network.degree(node)
            assert compiled.degrees[i] == network.degree(node)
        assert compiled.max_degree() == network.raw_max_degree()

    def test_max_degree_empty(self):
        compiled = Network({0: []}).compile()
        assert compiled.max_degree() == 0

    def test_degrees_same_bytes_on_both_backends(self):
        from repro.sim import arrays

        network = gnp_graph(70, 0.1, seed=12)
        built = {}
        for enabled in (False, True):
            if enabled and arrays._import_numpy() is None:
                continue
            previous = arrays.set_arrays_override(enabled)
            try:
                compiled = CompiledNetwork.from_network(network)
                built[enabled] = (compiled.degrees.typecode,
                                  compiled.degrees.tobytes(),
                                  compiled.raw_max_degree())
            finally:
                arrays.set_arrays_override(previous)
        assert len(set(built.values())) == 1
        assert built[False][2] == network.raw_max_degree()

    def test_max_degree_is_cached(self):
        compiled = CompiledNetwork.from_network(binary_tree(3))
        first = compiled.raw_max_degree()
        compiled._degrees = None  # a rescan would rebuild the degrees
        assert compiled.max_degree() == first
        assert compiled._degrees is None

    def test_has_edge_ids(self):
        network = path_graph(4)
        compiled = network.compile()
        assert compiled.has_edge_ids(0, 1)
        assert not compiled.has_edge_ids(0, 2)

    def test_edge_ids_match_edges(self):
        network = gnp_graph(30, 0.2, seed=8)
        compiled = network.compile()
        by_objects = list(network.edges())
        by_ids = [
            (compiled.order[i], compiled.order[j])
            for i, j in compiled.edge_ids()
        ]
        assert by_ids == by_objects

    def test_edge_ids_cover_clique(self):
        compiled = complete_graph(5).compile()
        assert sorted(compiled.edge_ids()) == [
            (i, j) for i in range(5) for j in range(i + 1, 5)
        ]


class TestNetworkCaches:
    def test_edges_unique_and_complete(self):
        network = gnp_graph(40, 0.15, seed=2)
        edges = list(network.edges())
        assert len(edges) == network.edge_count()
        assert len({frozenset(edge) for edge in edges}) == len(edges)
        for u, v in edges:
            assert network.has_edge(u, v)

    def test_cached_stats_stable(self, medium_random):
        assert medium_random.raw_max_degree() == medium_random.raw_max_degree()
        assert medium_random.edge_count() == medium_random.edge_count()
        fresh = Network({
            node: list(medium_random.neighbors(node))
            for node in medium_random
        })
        assert fresh.raw_max_degree() == medium_random.raw_max_degree()
        assert fresh.edge_count() == medium_random.edge_count()

    def test_subgraph_not_polluted_by_parent_cache(self, medium_random):
        medium_random.compile()
        nodes = list(medium_random.nodes)[:10]
        sub = medium_random.subgraph(nodes)
        assert len(sub) == 10
        assert sub.compile().n == 10
