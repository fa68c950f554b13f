"""Tests for Algorithm 1 (Two-Sweep) -- Theorem 1.1 with epsilon = 0."""

from __future__ import annotations

import pytest

from repro.coloring import (
    OLDCInstance,
    check_oldc,
    choose_p,
    random_nonuniform_oldc_instance,
    random_oldc_instance,
    uniform_lists,
)
from repro.graphs import (
    gnp_graph,
    orient_by_id,
    orient_low_outdegree,
    orient_random,
    path_graph,
    ring_graph,
    sequential_ids,
    star_graph,
)
from repro.sim import (
    CongestModel,
    CostLedger,
    InfeasibleInstanceError,
    InstanceError,
)
from repro.core import two_sweep

import random


def run_and_check(instance, initial, q, p, **kwargs):
    ledger = CostLedger()
    result = two_sweep(instance, initial, q, p, ledger=ledger, **kwargs)
    violations = check_oldc(instance, result.colors)
    assert violations == [], violations[:3]
    return result, ledger


class TestValidity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_uniform_instances(self, seed):
        network = gnp_graph(35, 0.15, seed=seed)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=3, seed=seed)
        run_and_check(instance, sequential_ids(network), len(network), 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nonuniform_instances(self, seed):
        network = gnp_graph(30, 0.2, seed=100 + seed)
        graph = orient_by_id(network)
        instance = random_nonuniform_oldc_instance(graph, p=3, seed=seed)
        run_and_check(instance, sequential_ids(network), len(network), 3)

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_various_p(self, p):
        network = gnp_graph(25, 0.2, seed=50)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=p, seed=p)
        run_and_check(instance, sequential_ids(network), len(network), p)

    def test_random_orientation(self):
        network = gnp_graph(30, 0.2, seed=51)
        graph = orient_random(network, random.Random(9))
        instance = random_oldc_instance(graph, p=3, seed=1)
        run_and_check(instance, sequential_ids(network), len(network), 3)

    def test_low_outdegree_orientation(self):
        network = gnp_graph(30, 0.3, seed=52)
        graph = orient_low_outdegree(network)
        instance = random_oldc_instance(graph, p=2, seed=2)
        run_and_check(instance, sequential_ids(network), len(network), 2)

    def test_proper_list_coloring_via_zero_defects(self):
        """Section 1.1: lists of size beta^2 + beta + 1 and p = beta + 1
        solve proper list coloring on bounded-outdegree graphs."""
        network = gnp_graph(30, 0.25, seed=53)
        graph = orient_low_outdegree(network)
        beta = graph.max_outdegree()
        p = beta + 1
        size = beta * beta + beta + 1
        rng = random.Random(3)
        space = 3 * size
        lists = {
            node: tuple(sorted(rng.sample(range(space), size)))
            for node in graph.nodes
        }
        defects = {
            node: {color: 0 for color in lists[node]} for node in graph.nodes
        }
        instance = OLDCInstance(graph, lists, defects, space)
        result, _ = run_and_check(
            instance, sequential_ids(network), len(network), p
        )
        # Zero defects on an orientation of all edges = proper coloring.
        for u, v in network.edges():
            assert result.colors[u] != result.colors[v]


class TestRounds:
    def test_rounds_linear_in_q(self):
        network = ring_graph(20)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=4)
        _, ledger = run_and_check(
            instance, sequential_ids(network), len(network), 2
        )
        assert ledger.rounds <= 2 * len(network) + 2

    def test_fewer_initial_colors_fewer_rounds(self):
        network = path_graph(30)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=5)
        # A path is properly 2-colorable by parity.
        coloring = {node: node % 2 for node in network}
        _, ledger = run_and_check(instance, coloring, 2, 2)
        assert ledger.rounds <= 6


class TestMessages:
    def test_sublist_size_bounded_by_p(self):
        network = gnp_graph(25, 0.2, seed=54)
        graph = orient_by_id(network)
        p = 3
        instance = random_oldc_instance(graph, p=p, seed=6)
        trace = []
        two_sweep(
            instance, sequential_ids(network), len(network), p, trace=trace
        )
        for event in trace:
            if event["phase"] == 1:
                assert len(event["sublist"]) <= p

    def test_congest_with_reasonable_budget(self):
        network = gnp_graph(25, 0.2, seed=55)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=7)
        bandwidth = CongestModel(n=len(network), factor=8)
        result = two_sweep(
            instance, sequential_ids(network), len(network), 2,
            bandwidth=bandwidth,
        )
        assert check_oldc(instance, result.colors) == []


class TestPreconditions:
    def test_infeasible_instance_rejected(self):
        network = ring_graph(6)
        graph = orient_by_id(network)
        lists, defects = uniform_lists(network.nodes, (0,), 0)
        instance = OLDCInstance(graph, lists, defects)
        with pytest.raises(InfeasibleInstanceError):
            two_sweep(instance, sequential_ids(network), 6, 1)

    def test_improper_initial_coloring_rejected(self):
        network = ring_graph(6)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=8)
        bad = {node: 0 for node in network}
        with pytest.raises(InstanceError):
            two_sweep(instance, bad, 1, 2)

    def test_initial_color_out_of_range_rejected(self):
        network = ring_graph(6)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=9)
        with pytest.raises(InstanceError):
            two_sweep(instance, sequential_ids(network), 3, 2)

    def test_p_must_be_positive(self):
        network = ring_graph(6)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=10)
        with pytest.raises(InstanceError):
            two_sweep(instance, sequential_ids(network), 6, 0)

    def test_outdegree_zero_nodes_exempt(self):
        # A star oriented towards the center: leaves have outdegree 1,
        # the center 0.  The center may carry a tiny list.
        network = star_graph(4)
        graph = orient_by_id(network)  # leaves -> center 0
        lists = {0: (5,)}
        defects = {0: {5: 0}}
        for leaf in range(1, 5):
            lists[leaf] = (0, 1, 2, 3)
            defects[leaf] = {color: 1 for color in lists[leaf]}
        instance = OLDCInstance(graph, lists, defects, 8)
        result = two_sweep(instance, sequential_ids(network), 5, 2)
        assert check_oldc(instance, result.colors) == []

    def test_check_false_runs_anyway(self):
        network = path_graph(4)
        graph = orient_by_id(network)
        # Huge defects: trivially satisfiable even though Eq.(2) with
        # p = 1 and list size 2 fails the formal check at some node.
        lists, defects = uniform_lists(network.nodes, (0, 1), 10)
        instance = OLDCInstance(graph, lists, defects)
        result = two_sweep(
            instance, sequential_ids(network), 4, 1, check=False
        )
        assert check_oldc(instance, result.colors) == []


class TestChosenP:
    def test_choose_p_integration(self):
        network = gnp_graph(30, 0.15, seed=56)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=3, seed=11)
        p = choose_p(instance)
        assert p is not None
        run_and_check(instance, sequential_ids(network), len(network), p)


class TestTrace:
    def test_trace_records_both_phases(self):
        network = path_graph(5)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=12)
        trace = []
        two_sweep(
            instance, sequential_ids(network), len(network), 2, trace=trace
        )
        phases = {event["phase"] for event in trace}
        assert phases == {1, 2}
        nodes_traced = {event["node"] for event in trace}
        assert nodes_traced == set(network.nodes)

    def test_phase2_choice_satisfies_eq5(self):
        network = gnp_graph(20, 0.25, seed=57)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=3, seed=13)
        trace = []
        two_sweep(
            instance, sequential_ids(network), len(network), 3, trace=trace
        )
        for event in trace:
            if event["phase"] == 2:
                node, color = event["node"], event["color"]
                k, r = event["k"][color], event["r"][color]
                assert k + r <= instance.defect(node, color)


class TestLocalWork:
    def test_stats_present(self):
        network = gnp_graph(25, 0.2, seed=91)
        graph = orient_by_id(network)
        instance = random_oldc_instance(graph, p=2, seed=91)
        result = two_sweep(
            instance, sequential_ids(network), len(network), 2
        )
        assert result.stats["max_local_work"] > 0
        assert result.stats["total_local_work"] >= result.stats[
            "max_local_work"
        ]

    def test_near_linear_in_beta_times_list(self):
        """Section 1.1: per-node computation ~ Delta * Lambda, not
        exponential -- the instrumented counter must stay within a small
        factor of beta * p + |L| log |L| per node."""
        import math

        network = gnp_graph(60, 0.25, seed=92)
        graph = orient_by_id(network)
        p = 4
        instance = random_oldc_instance(graph, p=p, seed=92)
        result = two_sweep(
            instance, sequential_ids(network), len(network), p
        )
        size = p * p
        beta = graph.max_outdegree()
        bound = 4 * (beta * (p + 1) + size * math.ceil(math.log2(size)))
        assert result.stats["max_local_work"] <= bound


class TestStatedRules:
    """Both decision forms of the sweep kernel follow the one statement
    of each rule: ``rank_sublist`` (Phase I) and ``first_fit`` (Phase
    II), node by node."""

    @pytest.mark.parametrize("seed", range(4))
    def test_decisions_follow_rank_sublist_and_first_fit(self, seed,
                                                         monkeypatch):
        from repro.coloring.defects import first_fit, rank_sublist
        from repro.core.two_sweep import _ArrayDecisions, _PythonDecisions
        from repro.sim import arrays
        from repro.sim.message import color_bits

        network = gnp_graph(60, 0.12, seed=seed)
        graph = orient_random(network, random.Random(seed))
        p = 1 + seed % 3
        instance = random_nonuniform_oldc_instance(graph, p, seed)
        compiled = graph.compiled
        initial = [sequential_ids(network)[node] for node in compiled.order]
        lists = (instance.list_indptr, instance.list_colors,
                 instance.list_defects)
        outs = (graph.out_indptr, graph.out_indices)
        bits = color_bits(instance.color_space_size)
        forms = [_PythonDecisions(compiled, initial, p, lists, outs, bits)]
        np = arrays.get_numpy()
        if np is not None:
            monkeypatch.setattr(arrays, "MIN_BATCH", 0)
            forms.append(_ArrayDecisions.build(np, compiled, initial, p,
                                               lists, outs, bits))
            assert forms[-1] is not None
        ptr, colors, defects = lists
        for decided in forms:
            assert decided.failed is None
            for i in range(compiled.n):
                own = colors[ptr[i]:ptr[i + 1]]
                defect = dict(zip(own, defects[ptr[i]:ptr[i + 1]]))
                k = decided.k(i)
                sub = decided.sublist(i)
                assert sub == rank_sublist(own, k, defect, p), i
                r = decided.r(i, k)
                final, _ = first_fit(sub, {c: k[c] + r[c] for c in sub},
                                     defect)
                assert decided.final(i) == final, i
