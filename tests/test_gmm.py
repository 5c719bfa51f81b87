import bisect
import gc
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bulktree.gmm as gmm_mod
from bulktree.aggregation import add_up, atomic_cost, function_cost
from bulktree.exact import exact_optima
from bulktree.gmm import (
    FACILITY,
    STEINER,
    GmmTrace,
    StageCosts,
    StagePlan,
    _cdf,
    _cut_forest,
    gmm_tree,
    oracle_tree,
)
from bulktree.instance import Instance, canonical_edge, demand_profile, generate_instance
from bulktree.pipes import AlphaVector, alpha_to_pipes, thresholds
from bulktree.regularize import regularize
from bulktree.subroutines import lbfl, steiner_tree

from conftest import make_instance

REGULAR_TWO_LEVEL = AlphaVector(alpha={0: F(16), 4: F(4)}, D=16)


def two_cluster():
    return make_instance(
        {("r", "a"): 4.0, ("a", "b"): 1.0, ("r", "c"): 4.0, ("c", "d"): 1.0, ("d", "e"): 1.0},
        {v: 2 for v in "abcde"},
        "r",
    )


def _components(edges, roots):
    """Parent maps of the forest, one per root, in the given root order."""
    adj = {}
    for u, v in sorted(edges):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    out = []
    seen = set()
    for root in roots:
        parent = {}
        order = [root]
        seen.add(root)
        for u in order:
            for v in sorted(adj.get(u, ())):
                if v not in seen:
                    seen.add(v)
                    parent[v] = u
                    order.append(v)
        out.append((root, parent))
    return out


def _postorder(parent, root):
    children = {}
    for v, p in parent.items():
        children.setdefault(p, []).append(v)
    for p in children:
        children[p].sort()
    out = []

    def visit(u):
        for ch in children.get(u, ()):
            visit(ch)
        out.append(u)

    visit(root)
    return out


def _path_to_ancestor(parent, node, stop):
    path = [node]
    while path[-1] not in stop:
        path.append(parent[path[-1]])
    return path


def _tree_path(parent, root, u, v):
    """Unique path between u and v in the tree given by the parent map."""
    anc_u = {u}
    x = u
    while x != root:
        x = parent[x]
        anc_u.add(x)
    up_v = _path_to_ancestor(parent, v, anc_u)
    junction = up_v[-1]
    up_u = _path_to_ancestor(parent, u, {junction})
    return up_u + list(reversed(up_v[:-1]))


def reference_cut_forest(tree_edges, root, cur, capacity):
    """The forest cut as first written: recompute every component after each
    cut and cut the first over-capacity node in post-order, until none is left."""
    edges = set(tree_edges)
    roots = [root]
    while True:
        comps = _components(edges, roots)
        if capacity is None:
            return comps
        cut = None
        for comp_root, parent in comps:
            post = _postorder(parent, comp_root)
            sub = {v: cur.get(v, 0) for v in post}
            for v in post:
                if v != comp_root:
                    sub[parent[v]] += sub[v]
            for v in post:
                if v != comp_root and F(sub[v]) > capacity:
                    cut = (v, parent[v])
                    break
            if cut:
                break
        if cut is None:
            return comps
        edges.discard(canonical_edge(*cut))
        roots.append(cut[0])


@st.composite
def forest_cut_cases(draw):
    n = draw(st.integers(1, 14))
    nodes = [f"v{i}" for i in range(n)]
    order = draw(st.permutations(nodes))
    # Node order[i] hangs off an earlier node: a random tree on all n nodes.
    edges = {
        canonical_edge(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)
    }
    root = draw(st.sampled_from(nodes))
    cur = draw(st.dictionaries(st.sampled_from(nodes), st.integers(0, 12)))
    capacity = draw(st.none() | st.fractions(min_value=0, max_value=30, max_denominator=6))
    return sorted(edges), root, cur, capacity


class TestCutForest:
    @settings(max_examples=300, deadline=None)
    @given(case=forest_cut_cases())
    def test_one_pass_matches_reference(self, case):
        edges, root, cur, capacity = case
        assert _cut_forest(edges, root, cur, capacity) == reference_cut_forest(
            edges, root, cur, capacity
        )

    def test_deep_path_cuts_without_recursion(self):
        # A 1,500-node path hanging off the root, unit demand everywhere and
        # capacity 100: a cut every 101 nodes from the far end, 14 of them.
        nodes = [f"v{i:04d}" for i in range(1500)]
        edges = [canonical_edge(a, b) for a, b in zip(nodes, nodes[1:])]
        comps = _cut_forest(edges, nodes[0], {v: 1 for v in nodes}, F(100))
        assert len(comps) == 15
        assert [c for c, _ in comps] == [nodes[0]] + [nodes[1500 - 101 * j] for j in range(1, 15)]
        assert sum(len(parent) + 1 for _, parent in comps) == 1500

    @settings(max_examples=300, deadline=None)
    @given(case=forest_cut_cases())
    def test_capacity_zero_isolates_every_demand(self, case):
        # The fact the plan's capacity-0 Steiner step rests on: with nothing
        # to consolidate in any component, that step moves no demand.
        edges, root, cur, _ = case
        for comp_root, parent in _cut_forest(edges, root, cur, F(0)):
            live = [v for v in {comp_root} | set(parent) if v != root and cur.get(v, 0) > 0]
            assert len(live) <= 1


class TestGmmTree:
    def test_requires_regular_vector(self, path3):
        irregular = AlphaVector(alpha={0: F(1), 1: F(1)}, D=2)
        with pytest.raises(ValueError, match="not gamma-regular"):
            gmm_tree(path3, irregular, seed=0)

    def test_unseparated_vector_refused_before_thresholds(self, path3):
        # thresholds holds None where a significance point is undefined, as
        # here at pipe 0; the staged construction must refuse the vector
        # before it could read that None.
        unseparated = AlphaVector(alpha={0: 1, 1: 1}, D=4)
        assert thresholds(alpha_to_pipes(unseparated)).significance[0] is None
        with pytest.raises(ValueError, match="not gamma-regular"):
            StagePlan(path3, unseparated)
        with pytest.raises(ValueError, match="not gamma-regular"):
            gmm_tree(path3, unseparated, seed=0)

    def test_single_demand_is_shortest_path(self):
        inst = make_instance(
            {("r", "a"): 1.0, ("a", "b"): 1.0, ("r", "b"): 5.0}, {"b": 1}, "r"
        )
        alpha = AlphaVector(alpha={0: F(1)}, D=1)
        tree, _ = gmm_tree(inst, alpha, seed=5)
        assert tree.sorted_edges() == (("a", "b"), ("a", "r"))

    def test_all_demand_at_root_lays_nothing(self):
        inst = make_instance({("r", "a"): 1.0}, {"r": 2}, "r")
        trace = GmmTrace()
        tree, costs = gmm_tree(inst, REGULAR_TWO_LEVEL, seed=1, trace=trace)
        assert tree.sorted_edges() == () and costs == []
        assert trace.fallback_stage is None

    def test_deterministic_across_runs(self):
        inst = two_cluster()
        t1, c1 = gmm_tree(inst, REGULAR_TWO_LEVEL, seed=42)
        t2, c2 = gmm_tree(inst, REGULAR_TWO_LEVEL, seed=42)
        assert t1.sorted_edges() == t2.sorted_edges()
        assert c1 == c2

    def test_spans_demands_with_conserved_flow(self):
        inst = two_cluster()
        for seed in range(12):
            tree, costs = gmm_tree(inst, REGULAR_TWO_LEVEL, seed=seed)
            assert set(tree.nodes()) >= set(inst.demands) | {inst.root}
            from bulktree.instance import canonical_edge

            at_root = sum(
                tree.flow[canonical_edge(c, inst.root)]
                for c, p in tree.parent.items()
                if p == inst.root
            )
            assert at_root == inst.total_demand()
            assert all(c.steiner_cost >= 0 and c.facility_cost >= 0 for c in costs)

    def test_pure_linear_reduces_to_shortest_paths(self):
        # A single top-level weight makes the significance bound exceed total
        # demand, so stage 0 falls back to shortest paths into the root.
        inst = two_cluster()
        top = demand_profile(inst).levels - 1
        alpha = AlphaVector(alpha={top: F(1)}, D=demand_profile(inst).D)
        trace = GmmTrace()
        tree, _ = gmm_tree(inst, alpha, seed=3, trace=trace)
        assert trace.fallback_stage == 0
        opt = exact_optima(inst)
        assert atomic_cost(tree, top, inst.lengths) == pytest.approx(opt.value(top))

    def test_stage_costs_accounting(self):
        inst = two_cluster()
        _, costs = gmm_tree(inst, REGULAR_TWO_LEVEL, seed=42)
        assert costs[0].stage == 0
        assert costs[0].steiner_cost == 0.0  # first pipe has zero fixed cost
        assert sum(c.steiner_cost + c.facility_cost for c in costs) < float("inf")

    def test_cost_vs_staged_accounting_ratio_recorded(self):
        # The proof bounds the final tree's cost by 4x the staged pipe costs;
        # the code only promises nonnegative finite stage costs, so record the
        # observed ratio rather than asserting the proof constant.
        inst = two_cluster()
        ratios = []
        for seed in range(20):
            tree, costs = gmm_tree(inst, REGULAR_TWO_LEVEL, seed=seed)
            total = sum(c.steiner_cost + c.facility_cost for c in costs)
            assert total > 0
            ratios.append(function_cost(tree, REGULAR_TWO_LEVEL, inst.lengths) / total)
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        print(f"\ntree cost over staged pipe cost, range: {min(ratios):.3f}..{max(ratios):.3f}")


class TestConsolidationStatistics:
    def test_unbiased_demand_after_consolidation(self):
        inst = two_cluster()
        sums = {v: 0.0 for v in inst.demands}
        sums_sq = {v: 0.0 for v in inst.demands}
        n = 400
        for seed in range(n):
            trace = GmmTrace()
            gmm_tree(inst, REGULAR_TWO_LEVEL, seed=seed, trace=trace)
            snap = next(s for st, step, s, _ in trace.consolidations if (st, step) == (0, 4))
            for v in inst.demands:
                sums[v] += snap[v]
                sums_sq[v] += snap[v] ** 2
        for v, d in inst.demands.items():
            mean = sums[v] / n
            var = max(sums_sq[v] / n - mean**2, 0.0)
            se = (var / n) ** 0.5
            assert abs(mean - d) <= 3 * se + 1e-9

    def test_stage_demand_meets_lower_bound(self):
        # Every live node entering stage 1 carries at least b_0 / 3 demand.
        inst = two_cluster()
        th = thresholds(alpha_to_pipes(REGULAR_TWO_LEVEL))
        b0 = float(th.significance[0])
        for seed in range(40):
            trace = GmmTrace()
            gmm_tree(inst, REGULAR_TWO_LEVEL, seed=seed, trace=trace)
            snap = next(s for st, step, s, _ in trace.consolidations if (st, step) == (0, 4))
            holders = {v: d for v, d in snap.items() if d > 0}
            assert holders
            assert all(d >= b0 / 3 for d in holders.values())


class TestOracleTree:
    def test_indicator_weight_close_to_level_optimum(self):
        inst = two_cluster()
        opt = exact_optima(inst)
        D = demand_profile(inst).D
        for level in (0, demand_profile(inst).levels - 1):
            alpha = AlphaVector(alpha={level: F(1)}, D=D)
            ratios = []
            for seed in range(10):
                tree = oracle_tree(inst, alpha, seed=seed)
                ratios.append(atomic_cost(tree, level, inst.lengths) / opt.value(level))
            assert min(ratios) >= 1 - 1e-9
            assert sum(ratios) / len(ratios) <= 8  # frozen empirical headroom

    def test_uniform_weights_ratio_recorded(self):
        inst = generate_instance("random-geometric", 6, 3, seed=8)
        D = demand_profile(inst).D
        alpha = AlphaVector(alpha={i: F(1) for i in range(demand_profile(inst).levels)}, D=D)
        opt = exact_optima(inst)
        denom = float(opt.multi_level_cost(alpha))
        ratios = []
        for seed in range(10):
            tree = oracle_tree(inst, alpha, seed=seed)
            ratios.append(function_cost(tree, alpha, inst.lengths) / denom)
        assert min(ratios) >= 1 - 1e-9
        assert sum(ratios) / len(ratios) <= 8  # frozen empirical headroom

    def test_degenerate_single_demand(self):
        inst = make_instance({("r", "a"): 2.0, ("a", "b"): 1.0}, {"b": 1}, "r")
        alpha = AlphaVector(alpha={0: F(2), 1: F(3)}, D=2)
        tree = oracle_tree(inst, alpha, seed=1)
        assert tree.sorted_edges() == (("a", "b"), ("a", "r"))


def _reference_move_demand(cur, holders, target, parent, comp_root, edge_flow, used):
    for h in holders:
        if h == target:
            continue
        amount = cur[h]
        path = _tree_path(parent, comp_root, h, target)
        for a, b in zip(path, path[1:]):
            e = canonical_edge(a, b)
            edge_flow[e] = edge_flow.get(e, 0) + amount
            used.add(e)
        cur[target] = cur.get(target, 0) + amount
        cur[h] = 0


def reference_run(plan, seed, trace=None, streams=None):
    """The staged construction as written before the plan memoized its
    steps: every run rebuilds each Steiner forest from the live demand and
    draws every consolidation target afresh.  Stage 0, whose pipe has no
    fixed cost, builds its Steiner tree under hop counts, on a copy of the
    instance with every length 1.0.  It reads only the plan's instance,
    pipes, thresholds and path table.  Stage k's step draws from
    ``default_rng([seed, k, step])``, kept in streams under (k, step): runs
    given the same dict read on where the run before stopped."""
    streams = {} if streams is None else streams

    def stream(k, step):
        if (k, step) not in streams:
            streams[(k, step)] = np.random.default_rng([int(seed), k, step])
        return streams[(k, step)]

    inst, pipes, th, table = plan.inst, plan.pipes.pipes, plan.th, plan.table
    unit = Instance(nodes=inst.nodes, lengths={e: 1.0 for e in inst.lengths},
                    demands=inst.demands, root=inst.root)

    def steiner_forest(k, cur):
        active = sorted(v for v, d in cur.items() if d > 0 and v != inst.root)
        if not active:
            return None
        if pipes[k].fixed > 0:
            edges = steiner_tree(inst, set(active) | {inst.root}, table=table)
        else:
            edges = steiner_tree(unit, set(active) | {inst.root})
        return reference_cut_forest(edges, inst.root, cur, th.capacities[k])

    def facility_clusters(k):
        assignment, paths = lbfl(inst, th.significance[k], table=table)
        clusters = {}
        for v, f in sorted(assignment.items()):
            clusters.setdefault(f, []).append(v)
        out = []
        for f in sorted(clusters):
            group = sorted(clusters[f])
            probs = np.array([inst.demands[v] for v in group], dtype=float)
            out.append((f, group, probs / probs.sum(), paths[f]))
        return out

    total_original = inst.total_demand()
    cur = dict(inst.demands)
    used = set()
    costs = []
    last = len(pipes) - 1
    for k in range(last + 1):
        sigma_k, delta_k = pipes[k].fixed, pipes[k].rate
        comps = steiner_forest(k, cur)
        if comps is None:
            break
        rng_steiner = stream(k, 2)
        stage_sigma_edges = set()
        for comp_root, parent in comps:
            members = {comp_root} | set(parent)
            holders = sorted(v for v in members if cur.get(v, 0) > 0 and v != inst.root)
            if not holders:
                continue
            if comp_root == inst.root:
                target = inst.root
            elif len(holders) == 1:
                target = holders[0]
            else:
                probs = np.array([cur[v] for v in holders], dtype=float)
                target = holders[int(rng_steiner.choice(len(holders), p=probs / probs.sum()))]
            stage_flow = {}
            _reference_move_demand(cur, holders, target, parent, comp_root, stage_flow, used)
            stage_sigma_edges.update(stage_flow)
        steiner_cost = float(sigma_k) * add_up(inst.lengths[e] for e in sorted(stage_sigma_edges))
        if trace is not None:
            trace.record(k, 2, {v: cur.get(v, 0) for v in inst.demands},
                         cur.get(inst.root, 0) - inst.demands.get(inst.root, 0))
        if k == last:
            costs.append(StageCosts(stage=k, steiner_cost=steiner_cost, facility_cost=0.0))
            break
        facility_flow = {}
        if F(total_original) < th.significance[k]:
            holders = sorted(v for v, d in cur.items() if d > 0 and v != inst.root)
            if holders:
                _, pred = table.get(inst.root)
                _reference_move_demand(cur, holders, inst.root, pred, inst.root, facility_flow, used)
            facility_cost = float(delta_k) * add_up(
                inst.lengths[e] * f for e, f in facility_flow.items()
            )
            costs.append(StageCosts(stage=k, steiner_cost=steiner_cost, facility_cost=facility_cost))
            if trace is not None:
                trace.fallback_stage = k
            break
        rng_facility = stream(k, 4)
        for f, group, p, pred in facility_clusters(k):
            holders = [v for v in group if cur.get(v, 0) > 0]
            if not holders:
                continue
            target = group[int(rng_facility.choice(len(group), p=p))]
            _reference_move_demand(cur, holders, target, pred, f, facility_flow, used)
        facility_cost = float(delta_k) * add_up(
            inst.lengths[e] * f for e, f in facility_flow.items()
        )
        if trace is not None:
            trace.record(k, 4, {v: cur.get(v, 0) for v in inst.demands},
                         cur.get(inst.root, 0) - inst.demands.get(inst.root, 0))
        costs.append(StageCosts(stage=k, steiner_cost=steiner_cost, facility_cost=facility_cost))
    assert sum(cur.values()) == total_original
    assert {v for v, d in cur.items() if d > 0} <= {inst.root}
    return table.routed_tree(used), costs


def heavy_plan(model, n, demand_count, instance_seed, demands, offset, ratios):
    """A plan on a generated graph with the given demands, over weights on
    every fifth level from offset, each ratios[j] times below the last."""
    base = generate_instance(model, n, demand_count, instance_seed)
    inst = Instance(nodes=base.nodes, lengths=base.lengths, demands=demands, root=base.root)
    profile = demand_profile(inst)
    alpha = {}
    weight = F(1)
    for i, ratio in zip(range(offset, profile.levels, 5), ratios):
        alpha[i] = weight
        weight /= ratio
    regular, _ = regularize(AlphaVector(alpha=alpha, D=profile.D))
    return StagePlan(inst, regular)


@st.composite
def heavy_cases(draw):
    """Geometric, grid and path graphs with n <= 10 and demands in 1..1000.
    Weights 4 to 11 times apart on levels five apart stay separated through
    regularization: up to four pipes, so runs reach the stage-2 facility step
    and cut components that share a draw."""
    model = draw(st.sampled_from(["random-geometric", "grid", "path"]))
    n = draw(st.integers(6, 10))
    demand_count = draw(st.integers(n // 2, n - 1))
    instance_seed = draw(st.integers(0, 99))
    nodes = sorted(generate_instance(model, n, demand_count, instance_seed).demands)
    demands = {v: draw(st.integers(1, 1000)) for v in nodes}
    ratios = draw(st.lists(st.integers(4, 11), min_size=3, max_size=3))
    return model, n, demand_count, instance_seed, demands, draw(st.integers(0, 2)), ratios


def _staged_states(trace, inst):
    """The distinct (stage, live demand) states the traced runs began a
    Steiner step from: stage 0 starts from the original demands, and stage
    k + 1 from the snapshot after stage k's facility step."""
    states = {(0, tuple(sorted(inst.demands.items())))}
    for stage, step, snap, _ in trace.consolidations:
        if step == 4:
            states.add((stage + 1, tuple(sorted((v, d) for v, d in snap.items() if d > 0))))
    return states


class TestStagePlanMemo:
    @settings(max_examples=60, deadline=None)
    @given(case=heavy_cases())
    # Runs here revisit a live node set with other amounts at stage 2.
    @example(case=("grid", 10, 9, 13, {"1": 317, "2": 656, "3": 22, "4": 574, "5": 827,
                                        "6": 788, "7": 62, "8": 275, "9": 93}, 1, [8, 7, 7]))
    # Every run's one drawing facility step (stage 0) has clusters of 1, 1
    # and 2 members, in that order: the one-member clusters' draws must
    # advance the stream, or the two-member cluster reads the wrong uniform.
    @example(case=("grid", 7, 4, 49, {"1": 99, "2": 622, "3": 447, "6": 14}, 2, [11, 4, 9]))
    def test_runs_match_reference(self, case):
        # One plan, one seed, 32 runs on one set of streams: later runs are
        # served from the memo and read on where the run before stopped.
        plan = heavy_plan(*case)
        seed = 7
        streams = {}
        runs, traces = [], []
        for _ in range(32):
            trace = GmmTrace()
            runs.append(reference_run(plan, seed, trace, streams))
            traces.append(trace)
        got, exhausted_at = [], None
        for run in plan.runs(seed, 32):
            got.append(run)
            if exhausted_at is None and plan.exhausted:
                exhausted_at = len(got)
        assert len(got) == len(runs)
        # Once the run tree is exhausted, every run ends as an earlier one did.
        if exhausted_at is not None:
            assert plan.exhausted
            for tree, costs in got[exhausted_at:]:
                assert any(t is tree and c == costs for t, c in got[:exhausted_at])
        for (tree, costs), (ref_tree, ref_costs) in zip(got, runs):
            assert tree.sorted_edges() == ref_tree.sorted_edges()
            assert tree.flow == ref_tree.flow
            assert costs == ref_costs
        # The traces, through the stream source run and runs share.
        source = gmm_mod._streams(seed)
        for want in traces:
            trace = GmmTrace()
            plan._run(source, trace)
            assert trace.consolidations == want.consolidations
            assert trace.fallback_stage == want.fallback_stage
        # The first run is the single run of that seed.
        trace = GmmTrace()
        assert plan.run(seed, trace) == got[0]
        assert trace.consolidations == traces[0].consolidations

    def test_each_state_builds_one_forest(self, monkeypatch):
        base = generate_instance("grid", 9, 8, seed=3)
        demands = {v: 37 * int(v) + 11 for v in base.demands}
        inst = Instance(nodes=base.nodes, lengths=base.lengths, demands=demands, root=base.root)
        profile = demand_profile(inst)
        alpha = AlphaVector(alpha={i: F(1, i + 1) for i in range(profile.levels)}, D=profile.D)
        regular, _ = regularize(alpha)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return steiner_tree(*args, **kwargs)

        monkeypatch.setattr(gmm_mod, "steiner_tree", counted)
        plan = StagePlan(inst, regular)
        trace = GmmTrace()
        steps = 0
        for seed in range(60):
            before = len(trace.consolidations)
            plan.run(seed, trace)
            steps += sum(step == 2 for _, step, _, _ in trace.consolidations[before:])
        states = _staged_states(trace, inst)
        assert len(states) > 1
        assert len(calls) <= len(states)
        assert len(calls) < steps  # the memo was hit

    def test_run_tree_freed_without_the_cycle_collector(self):
        # The run tree holds no reference cycle, so an oracle call's plan
        # and all its nodes go when the call returns, not at the next
        # collection.
        def nodes():
            return sum(isinstance(o, gmm_mod._Node) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            plan = TestStagePlanSeeds.drawing_plan()
            list(plan.runs(7, 32))
            assert nodes() > 2
            del plan
            assert nodes() == 0
        finally:
            gc.enable()

    def test_capacity_zero_step_builds_no_tree(self, monkeypatch):
        # Stage 0's pipe has capacity 0, so its Steiner step moves nothing:
        # no Steiner tree is built before that step's snapshot, and the step
        # never asks for its stream.
        trace = GmmTrace()
        built_after = []

        def counted(*args, **kwargs):
            built_after.append(len(trace.consolidations))
            return steiner_tree(*args, **kwargs)

        monkeypatch.setattr(gmm_mod, "steiner_tree", counted)
        inst = two_cluster()
        plan = StagePlan(inst, REGULAR_TWO_LEVEL)
        assert plan.th.capacities[0] == 0
        source = gmm_mod._streams(3)
        asked = set()

        def streams(k, step):
            asked.add((k, step))
            return source(k, step)

        for _ in range(4):
            before = len(trace.consolidations)
            plan._run(streams, trace)
            assert trace.consolidations[before] == (0, STEINER, dict(sorted(inst.demands.items())), 0)
        assert (0, STEINER) not in asked
        assert built_after and min(built_after) >= 1


class TestDrawTable:
    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.integers(1, 1000), min_size=1, max_size=12),
           seed=st.integers(0, 2**63 - 1), k=st.integers(0, 16),
           step=st.sampled_from([STEINER, FACILITY]))
    def test_inverts_like_generator_choice(self, weights, seed, k, step):
        # The plan's draws must equal Generator.choice's, index and stream
        # position both; a numpy release that changes choice fails here.
        p = np.array(weights, dtype=float)
        p /= p.sum()
        table = _cdf(weights)
        ours = np.random.default_rng([seed, k, step])
        theirs = np.random.default_rng([seed, k, step])
        assert bisect.bisect_right(table, ours.random()) == int(theirs.choice(len(weights), p=p))
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("weights", [[0], [3, 0, 2], [1, -1]])
    def test_nonpositive_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="positive"):
            _cdf(weights)


class TestStagePlanSeeds:
    @staticmethod
    def drawing_plan():
        # Every run of this plan draws at stage 0's facility step.
        return heavy_plan("grid", 7, 4, 49, {"1": 99, "2": 622, "3": 447, "6": 14}, 2, [11, 4, 9])

    def test_negative_seed_refused_as_numpy_does(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng([-1, 0, FACILITY])
        plan = self.drawing_plan()
        with pytest.raises(ValueError, match=re.escape(str(numpy_error.value))):
            plan.run(-1)
        with pytest.raises(ValueError, match=re.escape(str(numpy_error.value))):
            next(plan.runs(-1, 3))

    @pytest.mark.parametrize("seed", [2**64, 2**70 + 3])
    def test_seed_above_64_bits_runs(self, seed):
        plan = self.drawing_plan()
        streams = {}
        want = [reference_run(plan, seed, streams=streams) for _ in range(4)]
        got = list(plan.runs(seed, 4))
        assert [(t.sorted_edges(), c) for t, c in got] == [(t.sorted_edges(), c) for t, c in want]
        assert plan.run(seed) == got[0]
