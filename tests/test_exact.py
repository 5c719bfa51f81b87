import numpy as np
import pytest

import bulktree.exact as exact_mod
from bulktree import simplex
from bulktree.aggregation import TreeDistribution, atomic_cost, route_demands
from bulktree.exact import (
    DEFAULT_NODE_CAP,
    NodeCapExceeded,
    enumerate_candidate_trees,
    exact_lp_optimum,
    exact_oblivious_ratio,
    exact_optima,
    exact_optimum,
)
from bulktree.instance import Instance, demand_profile, generate_instance
from bulktree.subroutines import dijkstra

from conftest import make_instance, small_instance_corpus


class TestEnumeration:
    def test_path_has_single_tree(self, path3):
        trees = list(enumerate_candidate_trees(path3))
        assert len(trees) == 1

    def test_triangle_count_matches_hand_enumeration(self):
        inst = make_instance(
            {("r", "a"): 1.0, ("a", "b"): 1.0, ("b", "r"): 1.0}, {"a": 1}, "r"
        )
        trees = list(enumerate_candidate_trees(inst))
        # 3 spanning trees of the triangle plus the direct r-a edge
        assert len(trees) == 4

    def test_cap_refusal(self):
        inst = generate_instance("grid", 9, 3, seed=0)
        with pytest.raises(NodeCapExceeded):
            list(enumerate_candidate_trees(inst, node_cap=8))

    def test_dedup_by_edge_set(self, star4):
        trees = [t.sorted_edges() for t in enumerate_candidate_trees(star4)]
        assert len(trees) == len(set(trees))


class TestExactOptimum:
    def test_level0_is_steiner_optimum(self):
        # detour node d makes the direct edges suboptimal for aggregated flow
        inst = make_instance(
            {("r", "a"): 2.0, ("r", "b"): 2.0, ("r", "d"): 1.1, ("d", "a"): 1.0, ("d", "b"): 1.0},
            {"a": 1, "b": 1},
            "r",
        )
        tree, val = exact_optimum(inst, 0)
        assert val == pytest.approx(3.1)  # r-d, d-a, d-b
        assert ("d", "r") in tree.sorted_edges()

    def test_top_level_is_shortest_path_sum(self):
        for inst in small_instance_corpus(count=5, seed=9):
            prof = demand_profile(inst)
            _, val = exact_optimum(inst, prof.levels - 1)
            dist, _ = dijkstra(inst, inst.root)
            direct = sum(d * dist[v] for v, d in inst.demands.items())
            assert val == pytest.approx(direct)

    def test_mid_level_between_extremes(self):
        inst = make_instance(
            {("r", "a"): 1.0, ("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "r"): 1.0, ("r", "b"): 1.5},
            {"a": 2, "b": 2, "c": 2},
            "r",
        )
        prof = demand_profile(inst)
        opt = exact_optima(inst)
        assert opt.value(0) <= opt.value(1) <= opt.value(prof.levels - 1) * 2

    def test_wheel_mid_level_between_extremes(self):
        # hub-and-rim wheel: mid-level optimum sits between the aggregation
        # extreme (level 0) and the shortest-path extreme (top level)
        rim = {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0, ("a", "d"): 1.0}
        spokes = {("r", v): 1.0 for v in "abcd"}
        inst = make_instance({**rim, **spokes}, {v: 2 for v in "abcd"}, "r")
        opt = exact_optima(inst)
        levels = len(opt.per_level)
        assert levels >= 3
        for i in range(1, levels - 1):
            assert opt.value(0) <= opt.value(i) <= opt.value(levels - 1)
        assert opt.value(0) < opt.value(levels - 1)  # extremes genuinely differ

    def test_level_chain_doubling(self):
        for inst in small_instance_corpus(count=8, seed=5):
            opt = exact_optima(inst)
            vals = [opt.value(i) for i in range(len(opt.per_level))]
            for i in range(len(vals)):
                for k in range(1, len(vals) - i):
                    assert vals[i] <= vals[i + k]
                    assert vals[i + k] <= (1 << k) * vals[i]


class TestObliviousRatio:
    def test_unique_tree_ratio_one(self, path3):
        tree = route_demands(path3, [("r", "a"), ("a", "b")])
        dist = TreeDistribution(support=((tree, 1.0),), theta=1.0)
        ratio, _ = exact_oblivious_ratio(path3, dist)
        assert ratio == pytest.approx(1.0)

    def test_level0_tree_ratio_formula(self):
        inst = make_instance(
            {("r", "a"): 2.0, ("r", "b"): 2.0, ("r", "d"): 1.1, ("d", "a"): 1.0, ("d", "b"): 1.0},
            {"a": 1, "b": 1},
            "r",
        )
        opt = exact_optima(inst)
        t0 = opt.tree(0)
        dist = TreeDistribution(support=((t0, 1.0),), theta=1.0)
        ratio, worst = exact_oblivious_ratio(inst, dist, optima=opt)
        expected = max(
            atomic_cost(t0, i, inst.lengths) / opt.value(i) for i in range(len(opt.per_level))
        )
        assert ratio == pytest.approx(expected)
        assert ratio >= 1.0

    def test_any_distribution_at_least_one(self):
        for inst in small_instance_corpus(count=4, seed=17):
            trees = list(enumerate_candidate_trees(inst))
            dist = TreeDistribution(support=((trees[0], 1.0),), theta=1.0)
            ratio, _ = exact_oblivious_ratio(inst, dist)
            assert ratio >= 1.0 - 1e-12


def reference_exact_lp_optimum(inst, node_cap=DEFAULT_NODE_CAP):
    """exact_lp_optimum as first written, with each level row divided by its
    optimum: exact_optima enumerates every candidate tree, then the LP
    enumerates them again."""
    opt = exact_optima(inst, node_cap)
    trees = list(enumerate_candidate_trees(inst, node_cap))
    levels = len(opt.per_level)
    costs = np.array(
        [[atomic_cost(t, i, inst.lengths) for t in trees] for i in range(levels)]
    )
    denoms = np.array([opt.value(i) for i in range(levels)])
    n = len(trees)
    A = np.zeros((1 + levels, 1 + n))
    b = np.zeros(1 + levels)
    A[0, 1:] = 1.0
    b[0] = 1.0
    for i in range(levels):
        A[1 + i, 0] = 1.0
        A[1 + i, 1:] = -costs[i] / denoms[i]
    c = np.zeros(1 + n)
    c[0] = 1.0
    z, theta, _ = simplex.solve_min_ge(c, A, b)
    support = [(trees[j], float(w)) for j, w in enumerate(z[1:]) if w > 1e-9]
    total = sum(w for _, w in support)
    dist = TreeDistribution(support=tuple((t, w / total) for t, w in support), theta=float(theta))
    return float(theta), sorted((t.sorted_edges(), w) for t, w in dist.support)


class TestLpOptimum:
    @pytest.mark.parametrize("seed", range(3))
    def test_enumerates_once_and_matches_reference(self, seed, monkeypatch):
        inst = generate_instance("random-geometric", 7, 3, seed=seed)
        theta_ref, support_ref = reference_exact_lp_optimum(inst)
        calls = []
        enumerate_once = exact_mod.enumerate_candidate_trees

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_once(*args, **kwargs)

        monkeypatch.setattr(exact_mod, "enumerate_candidate_trees", counting)
        theta, dist = exact_lp_optimum(inst)
        assert len(calls) == 1
        assert theta == theta_ref
        support = sorted((t.sorted_edges(), w) for t, w in dist.support)
        # The master folds a sum-above-one slack into its largest weight
        # where the reference divides by the sum: the last bits may differ.
        assert [edges for edges, _ in support] == [edges for edges, _ in support_ref]
        assert [w for _, w in support] == pytest.approx([w for _, w in support_ref], abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0**-40, 1e-10, 1.0, 1e9, 1e12])
    def test_theta_independent_of_length_scale(self, scale):
        base = generate_instance("random-geometric", 7, 3, seed=0)
        inst = Instance(nodes=base.nodes, root=base.root, demands=base.demands,
                        lengths={e: w * scale for e, w in base.lengths.items()})
        theta, dist = exact_lp_optimum(inst)
        assert theta == pytest.approx(1.0171315420768403, rel=1e-12)
        ratio, _ = exact_oblivious_ratio(inst, dist)
        assert ratio <= theta * (1 + 1e-9)

    def test_zero_optimum_returns_zero_cost_tree(self):
        inst = make_instance({("a", "r"): 0.0, ("a", "b"): 0.0}, {"a": 1, "b": 2}, "r")
        theta, dist = exact_lp_optimum(inst)
        (tree, weight), = dist.support
        assert theta == dist.theta == 1.0 and weight == 1.0
        assert exact_oblivious_ratio(inst, dist)[0] == 1.0

    def test_unique_tree_theta_one(self, path3):
        theta, dist = exact_lp_optimum(path3)
        assert theta == pytest.approx(1.0)
        assert len(dist.support) == 1

    def test_mixing_beats_or_ties_single_trees(self):
        inst = make_instance(
            {("r", "a"): 1.0, ("r", "b"): 1.0, ("a", "b"): 0.5}, {"a": 1, "b": 1}, "r"
        )
        opt = exact_optima(inst)
        theta, _ = exact_lp_optimum(inst)
        for tree in enumerate_candidate_trees(inst):
            single = max(
                atomic_cost(tree, i, inst.lengths) / opt.value(i)
                for i in range(len(opt.per_level))
            )
            assert theta <= single + 1e-7

    def test_theta_lower_bounds_every_distribution(self):
        inst = make_instance(
            {("r", "a"): 1.0, ("r", "b"): 1.0, ("a", "b"): 0.5}, {"a": 1, "b": 1}, "r"
        )
        theta, dist = exact_lp_optimum(inst)
        ratio, _ = exact_oblivious_ratio(inst, dist)
        assert theta >= 1.0 - 1e-9
        assert ratio <= theta + 1e-7
