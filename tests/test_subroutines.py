import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bulktree.subroutines as sub_mod
from bulktree.aggregation import add_up, atomic_cost, route_demands
from bulktree.exact import _spanning_trees, enumerate_candidate_trees
from bulktree.instance import Instance, canonical_edge, demand_profile, generate_instance
from bulktree.subroutines import (
    PathTable,
    _mix_seed,
    _shortest_paths,
    dijkstra,
    lbfl,
    rent_or_buy,
    rob_lower_bounds,
    steiner_tree,
)

from conftest import make_instance, small_instance_corpus

# sha256 prefix of TestRobPinned.test_outputs_pinned's entries.
ROB_DIGEST = "9d63a5eaab6b6d64"


def brute_steiner_cost(inst, terminals, weight) -> float:
    """Exhaustive optimum over spanning trees of all supersets of the terminals.

    Exponential in the number of edges; only the cross-check of
    ``steiner_optimum`` runs it."""
    required = sorted(set(terminals))
    optional = sorted(set(inst.nodes) - set(required))
    best = math.inf
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            nodes = sorted(set(required) | set(extra))
            nodeset = set(nodes)
            edges = [e for e in inst.edges if e[0] in nodeset and e[1] in nodeset]
            for tree in _spanning_trees(nodes, edges):
                best = min(best, sum(float(weight[e]) for e in tree))
    return best


def steiner_optimum(inst, terminals, weight) -> float:
    """Exact Steiner tree cost by the Dreyfus-Wagner dynamic program (1971).

    best[S][v] is the cheapest tree that connects the terminal subset S
    (a bitmask over all terminals but the first) to node v; the answer is
    best[all][first terminal].
    """
    nodes = sorted(inst.nodes)
    d = {u: {v: 0.0 if u == v else math.inf for v in nodes} for u in nodes}
    for u, v in inst.edges:
        d[u][v] = d[v][u] = min(d[u][v], float(weight[(u, v)]))
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    first, *rest = sorted(set(terminals))
    if not rest:
        return 0.0
    best = {1 << i: d[t] for i, t in enumerate(rest)}
    for S in range(1, 1 << len(rest)):
        if S & (S - 1) == 0:
            continue
        # Split S at a node u into two nonempty halves (each split once).
        merged = {u: math.inf for u in nodes}
        A = (S - 1) & S
        while A:
            if A < S ^ A:
                for u in nodes:
                    merged[u] = min(merged[u], best[A][u] + best[S ^ A][u])
            A = (A - 1) & S
        best[S] = {v: min(merged[u] + d[u][v] for u in nodes) for v in nodes}
    return best[(1 << len(rest)) - 1][first]


@pytest.mark.parametrize("inst", [
    make_instance({("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0, ("a", "d"): 1.0},
                  {"b": 1, "c": 1}, "a"),
    generate_instance("random-geometric", 6, 3, seed=0),
    generate_instance("grid", 6, 3, seed=1),
], ids=["four-cycle", "geometric-n6", "grid-n6"])
def test_steiner_optimum_matches_brute_force(inst):
    nodes = sorted(inst.nodes)
    for size in (1, 2, 3, 4):
        for terms in itertools.islice(itertools.combinations(nodes, size), 4):
            assert steiner_optimum(inst, terms, inst.lengths) == pytest.approx(
                brute_steiner_cost(inst, terms, inst.lengths), rel=1e-12)


class TestDijkstra:
    def test_ties_broken_by_node_id(self):
        # b and c both reach d at distance 2; the smaller id becomes the predecessor.
        inst = make_instance(
            {("r", "b"): 1.0, ("r", "c"): 1.0, ("b", "d"): 1.0, ("c", "d"): 1.0}, {"d": 1}, "r"
        )
        dist, pred = dijkstra(inst, "r")
        assert dist == {"r": 0.0, "b": 1.0, "c": 1.0, "d": 2.0}
        assert pred == {"b": "r", "c": "r", "d": "b"}


@st.composite
def tied_length_instances(draw):
    """Connected instances whose lengths come from {1, 2, 3} or are all 1, so
    many nodes are reached by several shortest paths of equal length."""
    n = draw(st.integers(2, 9))
    nodes = [f"v{i}" for i in range(n)]
    length = st.sampled_from(draw(st.sampled_from([[1.0], [1.0, 2.0, 3.0]])))
    edges = {canonical_edge(nodes[i], nodes[draw(st.integers(0, i - 1))]): draw(length)
             for i in range(1, n)}
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2 * n)):
        edges.setdefault((a, b), draw(length))
    root, sink = draw(st.permutations(nodes))[:2]
    return make_instance(edges, {sink: 1}, root)


class TestPathTable:
    @settings(max_examples=200, deadline=None)
    @given(inst=tied_length_instances())
    def test_matches_fresh_shortest_paths(self, inst):
        table = PathTable(inst)
        adj = inst.adjacency()
        for source in inst.nodes:
            # Asked twice: a filled entry must still equal a fresh run.
            for _ in range(2):
                assert table.get(source) == _shortest_paths(adj, source)

    def test_each_source_runs_once(self, two_cluster6, monkeypatch):
        sources = []

        def counted(inst, source):
            sources.append(source)
            return dijkstra(inst, source)

        monkeypatch.setattr(sub_mod, "dijkstra", counted)
        table = PathTable(two_cluster6)
        for source in sorted(two_cluster6.nodes) * 3:
            assert table.get(source) is table.get(source)
        assert sources == sorted(two_cluster6.nodes)

    @settings(max_examples=200, deadline=None)
    @given(inst=tied_length_instances(), data=st.data())
    def test_filled_steiner_entry_matches_fresh_tree(self, inst, data):
        nodes = sorted(inst.nodes)
        subsets = st.lists(st.sampled_from(nodes), min_size=1, max_size=len(nodes))
        table = PathTable(inst)
        for terminals in data.draw(st.lists(subsets, min_size=1, max_size=6)):
            # Asked twice, in another order: a tree built from filled paths
            # must still equal a table-less tree of the same terminal set.
            first = steiner_tree(inst, terminals, table=table)
            assert steiner_tree(inst, terminals[::-1], table=table) == first
            assert first == steiner_tree(inst, terminals)


def tree_length(inst, edges) -> float:
    return add_up(inst.lengths[e] for e in edges)


class TestSteiner:
    def test_all_nodes_terminal_is_mst(self):
        inst = make_instance(
            {("r", "a"): 1.0, ("a", "b"): 2.0, ("b", "r"): 4.0}, {"a": 1, "b": 1}, "r"
        )
        edges = steiner_tree(inst, inst.nodes)
        assert tree_length(inst, edges) == 3.0  # MST picks the two cheap edges

    def test_two_terminals_is_shortest_path(self):
        inst = make_instance(
            {("r", "a"): 1.0, ("a", "b"): 1.0, ("b", "r"): 3.0}, {"b": 1}, "r"
        )
        edges = steiner_tree(inst, ["r", "b"])
        assert edges == (("a", "b"), ("a", "r"))
        assert tree_length(inst, edges) == 2.0

    def test_four_cycle_within_ratio(self):
        inst = make_instance(
            {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0, ("a", "d"): 1.0},
            {"b": 1, "c": 1},
            "a",
        )
        terms = ["a", "b", "c"]
        cost = tree_length(inst, steiner_tree(inst, terms))
        opt = steiner_optimum(inst, terms, inst.lengths)
        assert opt <= cost <= 2 * opt

    @pytest.mark.parametrize("seed", range(6))
    def test_corpus_within_ratio(self, seed):
        inst = generate_instance("random-geometric", 7, 3, seed=seed)
        terms = sorted(inst.demands) + [inst.root]
        cost = tree_length(inst, steiner_tree(inst, terms))
        opt = steiner_optimum(inst, terms, inst.lengths)
        assert cost <= 2 * opt + 1e-9

    def test_scaling_invariance(self):
        inst = generate_instance("random-geometric", 7, 3, seed=11)
        terms = sorted(inst.demands) + [inst.root]
        base = steiner_tree(inst, terms)
        for lam in (0.5, 2.0, 4.0):
            lengths = {e: lam * w for e, w in inst.lengths.items()}
            scaled = Instance(nodes=inst.nodes, lengths=lengths, demands=inst.demands, root=inst.root)
            edges = steiner_tree(scaled, terms)
            assert edges == base
            assert tree_length(scaled, edges) == pytest.approx(
                lam * tree_length(inst, base), rel=1e-12
            )


class TestLBFL:
    def test_fallback_routes_to_root(self, star4):
        assignment, paths = lbfl(star4, lower_bound=10)
        assert list(paths) == ["r"]
        assert self._loads(star4, assignment, paths) == {"r": star4.total_demand()}

    def test_tiny_bound_allows_singletons(self, star4):
        loads = self._loads(star4, *lbfl(star4, lower_bound=1))
        assert all(load >= 1 for load in loads.values())

    def test_star_load_bound(self):
        inst = make_instance(
            {("r", "a"): 1.0, ("r", "b"): 1.0, ("r", "c"): 1.0, ("r", "d"): 1.0},
            {v: 1 for v in "abcd"},
            "r",
        )
        loads = self._loads(inst, *lbfl(inst, lower_bound=2))
        assert all(load >= 2 / 3 for load in loads.values())

    @pytest.mark.parametrize("seed,bound", [(0, 2), (1, 3), (2, 2), (3, 4)])
    def test_load_relaxation_on_corpus(self, seed, bound):
        inst = generate_instance("random-geometric", 7, 4, seed=seed)
        assignment, paths = lbfl(inst, lower_bound=bound)
        if list(paths) != [inst.root]:
            loads = self._loads(inst, assignment, paths)
            assert all(load >= bound / 3 for load in loads.values())

    @staticmethod
    def _loads(inst, assignment, paths):
        """Demand served per open facility; ``paths`` is keyed by them."""
        loads = {f: 0 for f in paths}
        for c, f in assignment.items():
            loads[f] += inst.demands[c]
        return loads


class TestRentOrBuy:
    def test_large_m_still_valid_tree(self, two_cluster6):
        tree = rent_or_buy(two_cluster6, M=1000, seed=3)
        assert set(tree.nodes()) >= set(two_cluster6.demands) | {two_cluster6.root}

    def test_tiny_m_marks_everything(self, two_cluster6):
        tree = rent_or_buy(two_cluster6, M=1, seed=3)
        buy_all = steiner_tree(two_cluster6, sorted(two_cluster6.demands) + ["r"])
        assert tree.sorted_edges() == buy_all

    def test_deterministic(self, two_cluster6):
        a = rent_or_buy(two_cluster6, M=4, seed=9)
        b = rent_or_buy(two_cluster6, M=4, seed=9)
        assert a.sorted_edges() == b.sorted_edges()

    @pytest.mark.parametrize("seed", range(3))
    def test_mean_ratio_within_four(self, seed):
        inst = generate_instance("random-geometric", 5, 3, seed=seed)
        M = 2  # the cost min(x, M) is atomic level 1
        opt = min(atomic_cost(t, 1, inst.lengths) for t in enumerate_candidate_trees(inst))
        costs = [atomic_cost(rent_or_buy(inst, M, seed=s), 1, inst.lengths) for s in range(50)]
        assert sum(costs) / len(costs) <= 4 * opt + 1e-9


class TestRobLowerBounds:
    def test_levels_and_consistency(self, two_cluster6):
        from bulktree.instance import demand_profile

        bounds = rob_lower_bounds(two_cluster6, seed=7)
        assert [i for i, _, _ in bounds] == list(range(demand_profile(two_cluster6).levels))
        for i, val, tree in bounds:
            assert val == atomic_cost(tree, i, two_cluster6.lengths)

    @pytest.mark.parametrize("inst", small_instance_corpus(count=6) + [
        generate_instance("random-geometric", 12, 6, seed=8),
    ])
    def test_shared_table_matches_fresh_calls(self, inst):
        # One table across the levels and eight seeds, so later calls are
        # served from its memo, against a fresh rent_or_buy per level.
        table = PathTable(inst)
        for seed in range(8):
            for i, val, tree in rob_lower_bounds(inst, seed, table):
                fresh = rent_or_buy(inst, 1 << i, seed=_mix_seed(seed, i))
                assert tree.edges == fresh.edges
                assert tree.flow == fresh.flow
                assert val == atomic_cost(fresh, i, inst.lengths)

    def test_each_marked_set_builds_one_tree(self, monkeypatch):
        # Demands of at least 37 mark every client at levels 0..5 (M <= 32),
        # so those six levels share one marked set.
        base = generate_instance("grid", 9, 8, seed=3)
        demands = {v: 37 * int(v) for v in base.demands if v != base.root}
        inst = Instance(nodes=base.nodes, lengths=base.lengths, demands=demands, root=base.root)
        built, steiner, routed = [], [], []

        def counting(record, fn):
            def counted(*args, **kwargs):
                record.append(args[1])
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(sub_mod, "_augmented_tree", counting(built, sub_mod._augmented_tree))
        monkeypatch.setattr(sub_mod, "steiner_tree", counting(steiner, sub_mod.steiner_tree))
        monkeypatch.setattr(sub_mod, "route_demands", counting(routed, sub_mod.route_demands))
        levels = demand_profile(inst).levels
        for seed in range(3):
            for record in (built, steiner, routed):
                record.clear()
            rob_lower_bounds(inst, seed)
            assert len(set(built)) == len(built)  # no marked set twice
            assert frozenset(demands) in built
            assert len(built) <= levels - 5
            # One Steiner tree and one routing per marked set, no more.
            assert len(steiner) == len(routed) == len(built)

    def test_values_dominate_exact_optima(self):
        from bulktree.exact import exact_optima

        inst = generate_instance("random-geometric", 6, 3, seed=4)
        opt = exact_optima(inst)
        for i, val, _ in rob_lower_bounds(inst, seed=21):
            assert val >= opt.value(i) - 1e-9
            assert val <= 4 * opt.value(i) + 1e-9  # frozen for this seed; mean bound is the contract


def heavy_instances() -> list:
    """Geometric, grid and path instances with demands in 1..1000 (up to 10 levels)."""
    rng = np.random.default_rng(31)
    out = []
    for model, n, s in [("random-geometric", 12, 3), ("grid", 12, 4), ("path", 10, 5),
                        ("random-geometric", 9, 6), ("grid", 9, 7)]:
        base = generate_instance(model, n, (n - 1) // 2, seed=s)
        demands = {v: int(rng.integers(1, 1001)) for v in base.demands}
        out.append(Instance(nodes=base.nodes, lengths=base.lengths, demands=demands, root=base.root))
    return out


class TestRobPinned:
    def test_outputs_pinned(self):
        # Every bound and tree over the corpus and heavy instances at four
        # seeds, recorded before rent_or_buy stopped drawing where every
        # mark is certain and before the union stopped being pruned again.
        entries = []
        for inst in small_instance_corpus() + heavy_instances():
            for seed in (0, 1, 5, 17):
                entries.append([(i, repr(val), tree.edges, sorted(tree.flow.items()),
                                 sorted(tree.parent.items()))
                                for i, val, tree in rob_lower_bounds(inst, seed)])
        assert hashlib.sha256(repr(entries).encode()).hexdigest()[:16] == ROB_DIGEST

    @pytest.mark.parametrize("inst", small_instance_corpus(count=4) + heavy_instances())
    def test_certain_marks_draw_nothing(self, inst, monkeypatch):
        # At M <= every demand each client is marked whatever the draws, so
        # no generator is made and the tree is the Steiner tree of them all.
        def refuse(*args, **kwargs):
            raise AssertionError("rent_or_buy drew although every mark is certain")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        smallest = min(inst.demands.values())
        buy_all = steiner_tree(inst, sorted(inst.demands) + [inst.root])
        for M in sorted({1, smallest // 2 or 1, smallest}):
            for seed in (0, 3):
                tree = rent_or_buy(inst, M, seed=seed)
                assert tree.edges == buy_all
                assert tree.flow == route_demands(inst, buy_all).flow


def reference_prune(edges, terminals, lengths, start: str) -> set:
    """``_prune_to_tree`` as it was before its tree shortcut: the shortest
    paths inside the union from start to every terminal."""
    adj: dict = {}
    for (u, v) in sorted(edges):
        w = lengths[(u, v)]
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    for v in adj:
        adj[v].sort()
    _, pred = _shortest_paths(adj, start)
    keep: set = set()
    for t in sorted(terminals):
        node = t
        while node != start:
            e = canonical_edge(node, pred[node])
            if e in keep:
                break
            keep.add(e)
            node = pred[node]
    return keep


@st.composite
def prune_inputs(draw):
    """An edge union, lengths, terminals and start, of one of four kinds: a
    tree whose every leaf is a terminal or start, a tree with a leaf that is
    neither, a tree plus extra edges (so with cycles), and a tree at start
    plus a detached component holding a cycle."""
    kind = draw(st.sampled_from(["terminal-leaves", "free-leaf", "cycles", "detached-cycle"]))
    n = draw(st.integers(1, 9))
    nodes = [f"v{i}" for i in range(n)]
    edges = {canonical_edge(nodes[i], nodes[draw(st.integers(0, i - 1))]) for i in range(1, n)}
    start = draw(st.sampled_from(nodes))
    terminals = set(draw(st.lists(st.sampled_from(nodes), max_size=n)))
    degree = {v: 0 for v in nodes}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    leaves = {v for v in nodes if degree[v] == 1}
    if kind == "terminal-leaves":
        terminals |= leaves
    elif kind == "free-leaf" and leaves - {start}:
        terminals.discard(draw(st.sampled_from(sorted(leaves - {start}))))
    elif kind == "cycles":
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        edges |= set(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=n))) if pairs else set()
    elif kind == "detached-cycle":
        ring = [f"w{i}" for i in range(draw(st.integers(3, 5)))]
        edges |= {canonical_edge(a, b) for a, b in zip(ring, ring[1:] + ring[:1])}
        terminals |= set(draw(st.lists(st.sampled_from(ring), max_size=2)))
    length = st.sampled_from(draw(st.sampled_from([[1.0], [1.0, 2.0, 3.0], [0.0, 1.0, 2.5]])))
    lengths = {e: draw(length) for e in sorted(edges)}
    return edges, sorted(terminals), lengths, start, kind


class TestPruneShortcut:
    @settings(max_examples=600, deadline=None)
    @given(case=prune_inputs())
    def test_matches_full_prune(self, case):
        edges, terminals, lengths, start, kind = case
        try:
            want = reference_prune(edges, terminals, lengths, start)
        except KeyError:
            return  # a terminal the union does not reach: no prune to match
        assert sub_mod._prune_to_tree(set(edges), terminals, lengths, start) == want
        if kind == "terminal-leaves" and edges and set(terminals) <= {v for e in edges for v in e}:
            # The shortcut, not the Dijkstra, answered.
            with mock.patch.object(sub_mod, "_shortest_paths", side_effect=AssertionError):
                assert sub_mod._prune_to_tree(set(edges), terminals, lengths, start) == edges

    def test_detached_cycle_is_not_a_tree(self):
        # Five edges on six nodes, but {a, b, c} is a cycle away from start.
        edges = {("r", "s"), ("s", "t"), ("a", "b"), ("b", "c"), ("a", "c")}
        lengths = dict.fromkeys(edges, 1.0)
        assert sub_mod._prune_to_tree(set(edges), ["t"], lengths, "r") == {("r", "s"), ("s", "t")}
