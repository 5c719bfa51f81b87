import collections
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from bulktree.framework import ConstraintSet, TreeConstraint, solve_small_primal
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
        trees = [t.sorted_edges() for t in enumerate_candidate_trees(inst)]
        # The direct r-a edge, and the path r-b-a through the Steiner node b.
        # The other two spanning trees of the triangle leave b as a leaf.
        assert sorted(trees) == [(("a", "b"), ("b", "r")), (("a", "r"),)]

    def test_geometric_n8_count(self):
        inst = generate_instance("random-geometric", 8, 3, seed=1)
        assert sum(1 for _ in enumerate_candidate_trees(inst)) == 4916

    def test_cap_refusal(self):
        inst = generate_instance("grid", 9, 3, seed=0)
        with pytest.raises(NodeCapExceeded):
            list(enumerate_candidate_trees(inst, node_cap=8))

    def test_dedup_by_edge_set(self, star4):
        trees = [t.sorted_edges() for t in enumerate_candidate_trees(star4)]
        assert len(trees) == len(set(trees))


def _reference_spanning_trees(nodes, edges):
    """All spanning trees of the given node set, as frozensets of edges."""
    need = len(nodes) - 1
    if need == 0:
        yield frozenset()
        return
    index = {v: i for i, v in enumerate(nodes)}

    def rec(pos, chosen, parent):
        if len(chosen) == need:
            yield frozenset(chosen)
            return
        if len(edges) - pos < need - len(chosen):
            return
        u, v = edges[pos]

        def find(p, x):
            while p[x] != x:
                x = p[x]
            return x

        ru, rv = find(parent, index[u]), find(parent, index[v])
        if ru != rv:
            merged = list(parent)
            merged[max(ru, rv)] = min(ru, rv)
            yield from rec(pos + 1, chosen + (edges[pos],), tuple(merged))
        yield from rec(pos + 1, chosen, parent)

    yield from rec(0, (), tuple(range(len(nodes))))


def reference_enumerate_candidate_trees(inst):
    """Every spanning tree of every node subset containing demands and root,
    Steiner leaves included: the candidate set before leaf pruning."""
    required = sorted(set(inst.demands) | {inst.root})
    optional = sorted(set(inst.nodes) - set(required))
    seen = set()
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            nodes = sorted(set(required) | set(extra))
            nodeset = set(nodes)
            edges = [e for e in inst.edges if e[0] in nodeset and e[1] in nodeset]
            for tree in _reference_spanning_trees(nodes, edges):
                if tree not in seen:
                    seen.add(tree)
                    yield route_demands(inst, tree)


def reference_lp(inst, trees, optima):
    """The distribution LP over the given trees, with each level row divided
    by its optimum, by the dense simplex: (weights with theta first, theta)."""
    levels = len(optima)
    costs = np.array(
        [[atomic_cost(t, i, inst.lengths) for t in trees] for i in range(levels)]
    )
    n = len(trees)
    A = np.zeros((1 + levels, 1 + n))
    b = np.zeros(1 + levels)
    A[0, 1:] = 1.0
    b[0] = 1.0
    for i in range(levels):
        A[1 + i, 0] = 1.0
        A[1 + i, 1:] = -costs[i] / optima[i]
    c = np.zeros(1 + n)
    c[0] = 1.0
    z, theta, _ = simplex.solve_min_ge(c, A, b)
    return z, float(theta)


@st.composite
def small_graphs(draw):
    """Connected graphs on at most 7 nodes with lengths in {0, 1, 2}, so
    zero-length edges and cost ties are common."""
    n = draw(st.integers(2, 7))
    names = [str(i) for i in range(n)]
    pairs = {(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)}
    others = [p for p in itertools.combinations(names, 2) if p not in pairs]
    if others:
        pairs |= set(draw(st.lists(st.sampled_from(others), max_size=n, unique=True)))
    lengths = {p: draw(st.sampled_from([0.0, 1.0, 2.0])) for p in sorted(pairs)}
    sinks = draw(st.lists(st.sampled_from(names), min_size=1, max_size=min(4, n), unique=True))
    demands = {v: draw(st.integers(1, 3)) for v in sinks}
    return make_instance(lengths, demands, names[0])


class TestPrunedEnumeration:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_pruned_set_keeps_every_cost_vector(self, inst):
        levels = demand_profile(inst).levels

        def cost_vector(t):
            return tuple(atomic_cost(t, i, inst.lengths) for i in range(levels))

        def leaves_carry_demand(t):
            degree = collections.Counter(v for e in t.edges for v in e)
            return all(v in inst.demands or v == inst.root for v, d in degree.items() if d == 1)

        reference = list(reference_enumerate_candidate_trees(inst))
        pruned = list(enumerate_candidate_trees(inst))
        # The candidates are exactly the reference trees without a Steiner leaf.
        assert sorted(t.sorted_edges() for t in pruned) == sorted(
            t.sorted_edges() for t in reference if leaves_carry_demand(t)
        )
        assert all(x > 0 for t in pruned for x in t.flow.values())
        kept = {cost_vector(t) for t in pruned}
        assert all(cost_vector(t) in kept for t in reference)

        ref_optima = [min(c) for c in zip(*map(cost_vector, reference))]
        opt = exact_optima(inst)
        assert [opt.value(i) for i in range(levels)] == ref_optima
        theta, _ = exact_lp_optimum(inst)
        ref_theta = 1.0 if min(ref_optima) == 0 else reference_lp(inst, reference, ref_optima)[1]
        assert theta == pytest.approx(ref_theta, rel=0, abs=1e-12)


def assert_routed_as_route_demands(inst):
    """Each candidate matches ``route_demands`` of its edges field for field,
    dict order included, and each node subset's candidates form one run in
    ascending sorted-edge order, the LP's column order."""
    trees = list(enumerate_candidate_trees(inst))
    for t in trees:
        ref = route_demands(inst, t.edges)
        assert t.edges == ref.edges
        assert list(t.flow.items()) == list(ref.flow.items())
        assert list(t.parent.items()) == list(ref.parent.items())
    runs = [
        (nodes, [t.sorted_edges() for t in group])
        for nodes, group in itertools.groupby(trees, key=lambda t: frozenset(t.nodes()))
    ]
    assert len({nodes for nodes, _ in runs}) == len(runs)
    for _, edges in runs:
        assert all(a < b for a, b in zip(edges, edges[1:]))


class TestRouting:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_matches_route_demands_on_small_graphs(self, inst):
        assert_routed_as_route_demands(inst)

    def test_matches_route_demands_on_corpus(self):
        for inst in small_instance_corpus():
            assert_routed_as_route_demands(inst)


# Recorded before the candidate search was pruned on every node's degree and
# each candidate routed once.  Per instance: the candidate count; a digest of
# every candidate's edges, flow and parent, in enumeration order; each level's
# optimum and its edges; exact_lp_optimum's theta and support.  Values are
# reprs, so a change in the last bit of any of them fails.  Costs are added
# left to right on every Python version, so the optima are held to their pins
# everywhere.  Theta and support also pass through numpy, whose version
# differs with the interpreter; they are held to their pins only where they
# were recorded, on an interpreter whose ``sum`` adds floats left to right
# (before 3.12), and elsewhere to ``reference_oracles``, which routes and
# costs every candidate through ``route_demands`` and ``atomic_cost``.
LEFT_TO_RIGHT_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 0.0
PINNED = {
    ("random-geometric", 0): (
        64, "82fc909da112744c",
        [("0.9707345959504239", (("0", "1"), ("0", "7"), ("6", "7"))),
         ("1.7368224820281597", (("0", "7"), ("1", "7"), ("6", "7"))),
         ("2.252279705196002", (("0", "1"), ("1", "7"), ("6", "7")))],
        "1.0583165914861006",
        [((("0", "1"), ("0", "7"), ("6", "7")), "0.9014996416566909"),
         ((("0", "1"), ("1", "7"), ("6", "7")), "0.09850035834330907")],
    ),
    ("random-geometric", 9): (
        368, "bda60124850fd1c7",
        [("1.6400863219096853", (("1", "4"), ("1", "7"), ("4", "5"))),
         ("2.309576076095194", (("1", "4"), ("1", "7"), ("4", "5"))),
         ("2.309576076095194", (("1", "4"), ("1", "7"), ("4", "5")))],
        "1.0",
        [((("1", "4"), ("1", "7"), ("4", "5")), "1.0")],
    ),
    ("random-geometric", 16): (
        400, "202c033e0a25ccf1",
        [("2.019220616848215",
          (("1", "2"), ("1", "6"), ("3", "5"), ("3", "7"), ("4", "6"), ("5", "6"))),
         ("2.236042285293821", (("0", "1"), ("0", "7"), ("1", "2"), ("1", "4"))),
         ("2.236042285293821", (("0", "1"), ("0", "7"), ("1", "2"), ("1", "4")))],
        "1.0381063316338333",
        [((("1", "2"), ("1", "6"), ("3", "5"), ("3", "7"), ("4", "6"), ("5", "6")),
          "0.6451226899086688"),
         ((("0", "1"), ("0", "7"), ("1", "2"), ("1", "4")), "0.35487731009133117")],
    ),
    ("random-geometric", 75): (
        110, "17a23db40e8e79a3",
        [("2.0028269038115027", (("0", "1"), ("0", "4"), ("0", "6"), ("1", "7"))),
         ("2.1939744206289498", (("0", "1"), ("0", "4"), ("0", "6"), ("1", "7"))),
         ("2.385121937446397", (("0", "1"), ("0", "4"), ("0", "6"), ("1", "7")))],
        "1.0",
        [((("0", "1"), ("0", "4"), ("0", "6"), ("1", "7")), "1.0")],
    ),
    ("grid", 1): (
        21, "ba90acbc4b4828c4",
        [("5.0", (("0", "1"), ("0", "3"), ("1", "2"), ("1", "4"), ("4", "7"))),
         ("6.0", (("0", "1"), ("0", "3"), ("1", "2"), ("1", "4"), ("4", "7"))),
         ("6.0", (("0", "1"), ("0", "3"), ("1", "2"), ("1", "4"), ("4", "7")))],
        "1.0",
        [((("0", "1"), ("0", "3"), ("1", "2"), ("1", "4"), ("4", "7")), "1.0")],
    ),
    ("grid", 2): (
        21, "7736384ee9a594e4",
        [("4.0", (("0", "1"), ("0", "3"), ("1", "2"), ("3", "6"))),
         ("5.0", (("0", "1"), ("0", "3"), ("1", "2"), ("3", "6"))),
         ("5.0", (("0", "1"), ("0", "3"), ("1", "2"), ("3", "6")))],
        "1.0",
        [((("0", "1"), ("0", "3"), ("1", "2"), ("3", "6")), "1.0")],
    ),
}


def reference_oracles(inst, trees):
    """Per-level optima and the exact LP as computed before one-pass routing:
    each candidate routed by ``route_demands``, costed by ``atomic_cost``, and
    ties broken on ``sorted_edges()``; in the same reprs as ``PINNED``."""
    routed = [route_demands(inst, t.edges) for t in trees]
    rows = [
        [atomic_cost(t, i, inst.lengths) for t in routed]
        for i in range(demand_profile(inst).levels)
    ]
    best = [
        min(range(len(routed)), key=lambda j: (row[j], routed[j].sorted_edges())) for row in rows
    ]
    optima = [(repr(row[j]), routed[j].edges) for row, j in zip(rows, best)]
    tilde = tuple(row[j] for row, j in zip(rows, best))
    assert min(tilde) > 0
    dist, _, _ = solve_small_primal(ConstraintSet(tilde=tilde, tree_constraints=[
        TreeConstraint(tree=t, level_costs=c) for t, c in zip(routed, zip(*rows))
    ]))
    return optima, repr(dist.theta), [(t.edges, repr(w)) for t, w in dist.support]


class TestPinnedOutputs:
    @pytest.mark.parametrize("model,seed", list(PINNED))
    def test_bit_identical(self, model, seed):
        inst = generate_instance(model, 8, 3, seed)
        if model == "random-geometric":
            assert 15 <= len(inst.lengths) <= 16
        count, digest, *pinned = PINNED[(model, seed)]
        trees = list(enumerate_candidate_trees(inst))
        candidates = [(t.edges, list(t.flow.items()), list(t.parent.items())) for t in trees]
        assert len(candidates) == count
        assert hashlib.sha256(repr(candidates).encode()).hexdigest()[:16] == digest
        opt = exact_optima(inst)
        theta, dist = exact_lp_optimum(inst)
        got = (
            [(repr(v), t.edges) for _, t, v in opt.per_level],
            repr(theta),
            [(t.edges, repr(w)) for t, w in dist.support],
        )
        assert got == reference_oracles(inst, trees)
        assert got[0] == pinned[0]
        if LEFT_TO_RIGHT_SUM:
            assert got[1:] == tuple(pinned[1:])


class TestExactOptimum:
    def test_level0_is_steiner_optimum(self):
        # detour node d makes the direct edges suboptimal for aggregated flow
        inst = make_instance(
            {("r", "a"): 2.0, ("r", "b"): 2.0, ("r", "d"): 1.1, ("d", "a"): 1.0, ("d", "b"): 1.0},
            {"a": 1, "b": 1},
            "r",
        )
        opt = exact_optima(inst)
        assert opt.value(0) == pytest.approx(3.1)  # r-d, d-a, d-b
        assert ("d", "r") in opt.tree(0).sorted_edges()

    def test_top_level_is_shortest_path_sum(self):
        for inst in small_instance_corpus(count=5, seed=9):
            prof = demand_profile(inst)
            val = exact_optima(inst).value(prof.levels - 1)
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

    def test_optimum_trees_carry_flow_on_every_edge(self):
        for inst in small_instance_corpus():
            opt = exact_optima(inst)
            for i in range(len(opt.per_level)):
                assert all(x > 0 for x in opt.tree(i).flow.values())

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
    z, theta = reference_lp(inst, trees, [opt.value(i) for i in range(len(opt.per_level))])
    support = [(trees[j], float(w)) for j, w in enumerate(z[1:]) if w > 1e-9]
    total = sum(w for _, w in support)
    dist = TreeDistribution(support=tuple((t, w / total) for t, w in support), theta=theta)
    return theta, sorted((t.sorted_edges(), w) for t, w in dist.support)


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
