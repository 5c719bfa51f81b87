import gc
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bulktree.exact as exact_mod
import bulktree.framework as framework_mod

from bulktree.aggregation import RoutedTree, TreeDistribution, atomic_cost
from bulktree.exact import exact_lp_optimum, exact_oblivious_ratio, exact_optima
from bulktree.framework import (
    MAX_PRICING_CALLS,
    ConstraintSet,
    DualPoint,
    OracleResult,
    SolveConfig,
    TreeConstraint,
    default_rmax,
    ellipsoid_feasibility,
    separation_oracle,
    solve_oblivious,
    solve_small_primal,
)
from bulktree.gmm import FACILITY, STEINER, StagePlan
from bulktree.instance import Instance, demand_profile, generate_instance
from bulktree.pipes import AlphaVector
from bulktree.regularize import regularize
from bulktree.subroutines import PathTable, _mix_seed, rob_lower_bounds

from conftest import make_instance, small_instance_corpus
from test_simplex import reference_solve_min_ge


def scaled_solve(inst, factor, seed):
    """theta and support of a solve with every length times factor."""
    scaled = Instance(nodes=inst.nodes, root=inst.root, demands=inst.demands,
                      lengths={e: w * factor for e, w in inst.lengths.items()})
    dist, _ = solve_oblivious(scaled, SolveConfig(seed=seed))
    return dist.theta, [(t.sorted_edges(), w) for t, w in dist.support]


def tilde_for(inst, seed=7):
    return tuple(v for _, v, _ in rob_lower_bounds(inst, seed))


def reference_separation_oracle(point, tilde, c_target, inst, seed, rmax=None):
    """The oracle's retry loop as first written: every attempt regularizes
    and stages the weight vector again, on a fresh plan with no memo.  All
    attempts read one set of ``default_rng([seed, k, step])`` streams, each
    from where the one before it stopped.  The weighted value is added left
    to right, as the oracle adds it."""
    scaled = np.asarray(point.alpha, dtype=float)
    budget = float(scaled.sum())
    if budget > 1.0 + 1e-12:
        return OracleResult(kind="rob_cut")
    if budget <= 1e-15:
        return OracleResult(kind="feasible_at_zero")
    levels = len(tilde)
    alpha_raw = {
        i: Fraction(float(scaled[i])) / Fraction(float(tilde[i]))
        for i in range(levels)
        if scaled[i] > 0
    }
    vec = AlphaVector(alpha=alpha_raw, D=demand_profile(inst).D)
    threshold = 2.0 * c_target * budget
    cap = rmax if rmax is not None else default_rmax(inst)
    streams = {}

    def stream(k, step):
        if (k, step) not in streams:
            streams[(k, step)] = np.random.default_rng([int(seed), k, step])
        return streams[(k, step)]

    best = None
    attempts = 0
    threshold_met = False
    for attempt in range(cap):
        attempts += 1
        regular, _ = regularize(vec)
        tree, _ = StagePlan(inst, regular)._run(stream)
        costs = tuple(atomic_cost(tree, i, inst.lengths) for i in range(levels))
        value = 0.0
        for i, a in alpha_raw.items():
            value += float(a) * costs[i]
        if best is None or value < best[0]:
            best = (value, tree, costs)
        if value < threshold:
            threshold_met = True
            break
        if value < point.beta:
            break
    value, tree, costs = best
    if value < point.beta:
        return OracleResult(kind="tree_cut", tree=tree, level_costs=costs, cost=value,
                            attempts=attempts, threshold_met=threshold_met)
    return OracleResult(kind="feasible", cost=value, attempts=attempts, threshold_met=threshold_met)


def oracle_outcome(res):
    edges = None if res.tree is None else res.tree.sorted_edges()
    return res.kind, edges, res.level_costs, res.cost, res.attempts, res.threshold_met


def heavy_instances():
    """n=16 geometric, grid and path graphs with demands 1..1000 per node."""
    rng = np.random.default_rng(27)
    out = []
    for model in ("random-geometric", "grid", "path"):
        for seed in (1, 2):
            base = generate_instance(model, 16, 7, seed)
            demands = {v: int(rng.integers(1, 1001)) for v in base.demands}
            out.append(Instance(nodes=base.nodes, lengths=base.lengths,
                                demands=demands, root=base.root))
    return out


def heavy_grid():
    base = generate_instance("grid", 9, 3, seed=4)
    return Instance(nodes=base.nodes, lengths=base.lengths, root=base.root,
                    demands={v: 37 * (i + 1) for i, v in enumerate(sorted(base.demands))})


def crowded_grid():
    """Twelve heavy demands on a 16-node grid: one Steiner or facility step
    cuts several components or clusters that each draw from the stream."""
    base = generate_instance("grid", 16, 12, seed=3)
    return Instance(nodes=base.nodes, lengths=base.lengths, root=base.root,
                    demands={v: 37 * int(v) + 11 for v in base.demands})


def oracle_trials(inst, tilde):
    """Twelve oracle calls' arguments (positional, keyword) on random points."""
    m = len(tilde)
    rng = np.random.default_rng(m)
    for trial in range(12):
        y = rng.random(m) * (rng.random(m) < 0.7)
        y = y / max(y.sum(), 1e-300) * rng.choice([0.3, 0.9, 1.0, 1.2])
        # Betas below, near and above the tree costs; c_target spans the threshold.
        point = DualPoint(alpha=tuple(y), beta=float(rng.choice([0.0, 0.5, 1.0, 1e9])))
        yield (point, tilde, float(rng.choice([0.1, 0.5, 4.0])), inst, trial), \
            dict(rmax=int(rng.choice([3, 20])))


class TestSeparationOracle:
    @pytest.mark.parametrize("make", [
        lambda: generate_instance("random-geometric", 10, 4, seed=3),
        lambda: generate_instance("random-geometric", 12, 6, seed=8),
        lambda: generate_instance("path", 7, 3, seed=1),
        heavy_grid,
        crowded_grid,
    ])
    def test_hoisted_retry_loop_matches_reference(self, make):
        inst = make()
        tilde = tilde_for(inst)
        kinds = set()
        # One table across the trials, as in a solve, so later trials reuse
        # the shortest paths and level costs of earlier ones.
        table = PathTable(inst)
        for args, kw in oracle_trials(inst, tilde):
            res = separation_oracle(*args, **kw, table=table)
            assert oracle_outcome(res) == oracle_outcome(reference_separation_oracle(*args, **kw))
            kinds.add(res.kind)
        assert {"tree_cut", "feasible"} <= kinds

    def test_crowded_grid_draws_several_groups_per_step(self, monkeypatch):
        # The premise of the crowded_grid case above: within one Steiner or
        # facility step, later groups read later uniforms of the same stream.
        plans = []

        class Recorded(StagePlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(self)

        monkeypatch.setattr(framework_mod, "StagePlan", Recorded)
        inst = crowded_grid()
        for args, kw in oracle_trials(inst, tilde_for(inst)):
            separation_oracle(*args, **kw)
        drawing = {STEINER: 0, FACILITY: 0}
        nodes = [plan._root for plan in plans]
        while nodes:
            node = nodes.pop()
            nodes.extend(node.children.values())
            if node.groups:
                drawing[node.step] = max(drawing[node.step],
                                         sum(g.cdf is not None for g in node.groups))
        assert drawing[STEINER] >= 2 and drawing[FACILITY] >= 2

    @pytest.mark.parametrize("model", ["grid", "random-geometric"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_exhausted_run_tree_stops_the_retries(self, model, seed, monkeypatch):
        # An 8-node call at beta 0 with a threshold no tree meets ends
        # feasible after every retry.  The retries stop walking once the
        # plan's run tree is exhausted, with the full loop's outcome,
        # attempts included.
        inst = generate_instance(model, 8, 3, seed=seed)
        tilde = tilde_for(inst)
        m = len(tilde)
        args = (DualPoint(alpha=(0.5 / m,) * m, beta=0.0), tilde, 1e-9, inst, seed)
        walks = []
        walk = StagePlan._run

        def counted(self, *a, **kw):
            walks.append(1)
            return walk(self, *a, **kw)

        monkeypatch.setattr(StagePlan, "_run", counted)
        res = separation_oracle(*args)
        monkeypatch.undo()
        assert res.kind == "feasible" and not res.threshold_met
        assert len(walks) < res.attempts == default_rmax(inst)
        assert oracle_outcome(res) == oracle_outcome(reference_separation_oracle(*args))

    @pytest.mark.parametrize("rmax", [0, -2])
    def test_rmax_below_one_refused(self, two_cluster6, rmax):
        tilde = tilde_for(two_cluster6)
        m = len(tilde)
        point = DualPoint(alpha=(0.5 / m,) * m, beta=0.0)
        with pytest.raises(ValueError, match="rmax"):
            separation_oracle(point, tilde, 4.0, two_cluster6, seed=1, rmax=rmax)

    def test_zero_point_reported(self, two_cluster6):
        tilde = tilde_for(two_cluster6)
        point = DualPoint(alpha=(0.0,) * len(tilde), beta=1.0)
        res = separation_oracle(point, tilde, 1.0, two_cluster6, seed=1)
        assert res.kind == "feasible_at_zero"

    def test_budget_violation_immediate(self, two_cluster6):
        tilde = tilde_for(two_cluster6)
        m = len(tilde)
        point = DualPoint(alpha=(2.0 / m,) * m, beta=1.0)
        res = separation_oracle(point, tilde, 1.0, two_cluster6, seed=1)
        assert res.kind == "rob_cut"

    def test_tree_cut_when_beta_large(self, two_cluster6):
        tilde = tilde_for(two_cluster6)
        m = len(tilde)
        point = DualPoint(alpha=(0.5 / m,) * m, beta=1e9)
        res = separation_oracle(point, tilde, 4.0, two_cluster6, seed=1)
        assert res.kind == "tree_cut"
        assert res.cost < 1e9
        assert len(res.level_costs) == m

    def test_feasible_when_beta_zero(self, two_cluster6):
        tilde = tilde_for(two_cluster6)
        m = len(tilde)
        point = DualPoint(alpha=(0.5 / m,) * m, beta=0.0)
        res = separation_oracle(point, tilde, 4.0, two_cluster6, seed=1)
        assert res.kind == "feasible"

    def test_markov_retry_terminates_quickly(self, two_cluster6):
        # Calibrate an empirical oracle constant, then check the retry loop
        # exits within 2*log2(n+2) attempts in at least 95% of trials.
        tilde = tilde_for(two_cluster6)
        m = len(tilde)
        rng = np.random.default_rng(123)
        pilot = []
        for _ in range(10):
            y = rng.random(m)
            y = 0.9 * y / y.sum()
            point = DualPoint(alpha=tuple(y), beta=1e9)
            res = separation_oracle(point, tilde, 1e9, two_cluster6, seed=int(rng.integers(1 << 30)))
            pilot.append(res.cost / y.sum())
        c_cal = max(pilot)
        budget = 2 * math.ceil(math.log2(len(two_cluster6.nodes) + 2))
        ok = 0
        trials = 100
        for t in range(trials):
            y = rng.random(m)
            y = 0.9 * y / y.sum()
            # At beta 0 no tree violates, so only the threshold or rmax ends the loop.
            point = DualPoint(alpha=tuple(y), beta=0.0)
            res = separation_oracle(point, tilde, c_cal, two_cluster6, seed=t)
            if res.threshold_met and res.attempts <= budget:
                ok += 1
        assert ok >= 0.95 * trials


class TestSmallPrimal:
    def test_single_tree(self, path3):
        from bulktree.aggregation import route_demands

        tree = route_demands(path3, [("r", "a"), ("a", "b")])
        tilde = tilde_for(path3)
        costs = tuple(atomic_cost(tree, i, path3.lengths) for i in range(len(tilde)))
        cs = ConstraintSet(tilde=tilde, tree_constraints=[TreeConstraint(tree, costs)])
        dist, _, _ = solve_small_primal(cs)
        assert len(dist.support) == 1
        assert dist.support[0][1] == pytest.approx(1.0)
        assert dist.theta == pytest.approx(max(c / t for c, t in zip(costs, tilde)))

    def test_dominated_tree_gets_no_weight(self):
        # a-b is longer than either direct edge, so the direct-star tree
        # strictly dominates the path tree at every level
        inst = make_instance(
            {("r", "a"): 1.0, ("r", "b"): 1.0, ("a", "b"): 1.2}, {"a": 1, "b": 1}, "r"
        )
        from bulktree.aggregation import route_demands

        good = route_demands(inst, [("r", "a"), ("r", "b")])
        bad = route_demands(inst, [("r", "a"), ("a", "b")])
        tilde = tilde_for(inst)
        levels = len(tilde)
        cost = lambda t: tuple(atomic_cost(t, i, inst.lengths) for i in range(levels))
        cg, cb = cost(good), cost(bad)
        if all(a <= b for a, b in zip(cg, cb)):
            cs = ConstraintSet(
                tilde=tilde,
                tree_constraints=[TreeConstraint(bad, cb), TreeConstraint(good, cg)],
            )
            dist, _, _ = solve_small_primal(cs)
            assert len(dist.support) == 1
            assert dist.support[0][0].sorted_edges() == good.sorted_edges()

    def test_matches_vertex_enumeration(self):
        # Independent oracle: enumerate every basic solution of the small
        # primal's standard form and take the best feasible vertex.
        from bulktree.exact import enumerate_candidate_trees
        from test_simplex import brute_vertex_optimum

        inst = make_instance(
            {("r", "a"): 1.0, ("r", "b"): 1.0, ("a", "b"): 0.5}, {"a": 1, "b": 1}, "r"
        )
        opt = exact_optima(inst)
        levels = len(opt.per_level)
        tilde = tuple(opt.value(i) for i in range(levels))
        trees = list(enumerate_candidate_trees(inst))
        cs = ConstraintSet(
            tilde=tilde,
            tree_constraints=[
                TreeConstraint(t, tuple(atomic_cost(t, i, inst.lengths) for i in range(levels)))
                for t in trees
            ],
        )
        dist, _, _ = solve_small_primal(cs)
        n = len(trees)
        A = np.zeros((1 + levels, 1 + n))
        b = np.zeros(1 + levels)
        A[0, 1:] = 1.0
        b[0] = 1.0
        for i in range(levels):
            A[1 + i, 0] = tilde[i]
            for j, tc in enumerate(cs.tree_constraints):
                A[1 + i, 1 + j] = -tc.level_costs[i]
        c = np.zeros(1 + n)
        c[0] = 1.0
        brute_obj, _ = brute_vertex_optimum(c, A, b)
        assert dist.theta == pytest.approx(brute_obj, abs=1e-7)
        theta_full, _ = exact_lp_optimum(inst)
        assert dist.theta == pytest.approx(theta_full, abs=1e-7)


    @pytest.mark.parametrize("seed", range(3))
    def test_duals_price_every_column(self, seed):
        from bulktree.exact import enumerate_candidate_trees

        inst = generate_instance("random-geometric", 6, 3, seed=seed)
        tilde = tilde_for(inst)
        levels = len(tilde)
        cs = ConstraintSet(tilde=tilde, tree_constraints=[
            TreeConstraint(t, tuple(atomic_cost(t, i, inst.lengths) for i in range(levels)))
            for t in enumerate_candidate_trees(inst)
        ])
        dist, y0, alpha = solve_small_primal(cs)
        # Strong duality, and alpha is a dual-feasible weight vector under
        # which no tree of the set costs less than y0.
        assert y0 == pytest.approx(dist.theta, rel=1e-9)
        assert min(alpha) >= -1e-12 and sum(alpha) <= 1 + 1e-9
        for tc in cs.tree_constraints:
            cost = sum(a * c / t for a, c, t in zip(alpha, tc.level_costs, tilde))
            assert cost >= y0 - 1e-9


class TestEllipsoid:
    def test_box_bound_infeasible_quickly(self, two_cluster6):
        tilde = tilde_for(two_cluster6)
        # Any scaled point in the box has tree cost at most max_i A_i(T)/tilde_i
        # over any tree spanning the demands; a beta above that bound is infeasible.
        from bulktree.aggregation import route_demands
        from bulktree.subroutines import steiner_tree

        terminals = sorted(two_cluster6.demands) + [two_cluster6.root]
        tree = route_demands(two_cluster6, steiner_tree(two_cluster6, terminals))
        bound = sum(
            atomic_cost(tree, i, two_cluster6.lengths) / tilde[i] for i in range(len(tilde))
        )
        res = ellipsoid_feasibility(
            two_cluster6, beta=2 * bound + 5, c=None, seed=3, tilde=tilde, bit_budget=4
        )
        assert res.status == "infeasible"
        assert res.theta is not None and res.theta < 2 * bound + 5

    def test_beta_zero_feasible(self, two_cluster6):
        tilde = tilde_for(two_cluster6)
        res = ellipsoid_feasibility(
            two_cluster6, beta=0.0, c=None, seed=3, tilde=tilde, bit_budget=4
        )
        assert res.status == "feasible"

    def test_collapse_reports_iterations_run(self):
        # On this heavy-demand grid the ellipsoid at beta = 1 collapses
        # numerically long before its iteration budget runs out.
        base = generate_instance("grid", 5, 2, seed=2)
        inst = Instance(
            nodes=base.nodes, lengths=base.lengths, demands={"1": 187, "4": 65}, root=base.root
        )
        tilde = tilde_for(inst)
        m = len(tilde)
        max_iter = min(10 * m * m, int(2 * (m + 1) * m * m * math.log(2)) + 1)
        res = ellipsoid_feasibility(
            inst, beta=1.0, c=None, seed=0, tilde=tilde, bit_budget=1
        )
        assert res.status == "unresolved"
        assert res.oracle_calls <= res.iterations < max_iter

    def test_harvest_bounded_by_iterations(self, two_cluster6):
        tilde = tilde_for(two_cluster6)
        res = ellipsoid_feasibility(
            two_cluster6, beta=3.0, c=None, seed=3, tilde=tilde, bit_budget=4
        )
        assert len(res.constraint_set.tree_constraints) <= res.iterations


class TestSolveOblivious:
    def test_unique_tree_instance(self, path3):
        dist, report = solve_oblivious(path3, SolveConfig(seed=2))
        assert len(dist.support) == 1
        assert dist.theta == pytest.approx(1.0, abs=1e-6)
        assert all(r["ratio"] <= 1.0 + 1e-9 for r in report.levels)

    def test_star_support_bound_and_consistency(self, star4):
        dist, report = solve_oblivious(star4, SolveConfig(seed=5))
        D = demand_profile(star4).D
        assert len(dist.support) <= 1 + int(math.log2(D))
        worst = max(r["ratio"] for r in report.levels)
        assert worst <= dist.theta + 1e-7

    def test_deterministic(self, two_cluster6):
        cfg = SolveConfig(seed=11)
        d1, r1 = solve_oblivious(two_cluster6, cfg)
        d2, r2 = solve_oblivious(two_cluster6, cfg)
        assert [(t.sorted_edges(), w) for t, w in d1.support] == [
            (t.sorted_edges(), w) for t, w in d2.support
        ]
        assert d1.theta == d2.theta and vars(r1) == vars(r2)

    def test_no_brute_force_within_node_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_oblivious enumerated candidate trees")

        monkeypatch.setattr(exact_mod, "enumerate_candidate_trees", refuse)
        inst = generate_instance("random-geometric", exact_mod.DEFAULT_NODE_CAP, 3, seed=1)
        _, report = solve_oblivious(inst, SolveConfig(seed=1))
        assert not hasattr(report, "exact")

    def test_repeat_solves_identical_and_leave_no_table(self):
        inst = generate_instance("random-geometric", 10, 4, seed=5)
        attrs = set(vars(inst))

        def alive(cls):
            gc.collect()
            return sum(isinstance(o, cls) for o in gc.get_objects())

        before = alive(PathTable), alive(RoutedTree), alive(StagePlan)
        outs = []
        for _ in range(2):
            dist, report = solve_oblivious(inst, SolveConfig(seed=4))
            outs.append((dist.theta, [(t.sorted_edges(), w) for t, w in dist.support],
                         vars(report)))
        assert outs[0] == outs[1]
        assert set(vars(inst)) == attrs
        del dist, report
        # No table or stage plan, and so no memo of routed trees or of
        # stage steps, outlives the solve.
        assert (alive(PathTable), alive(RoutedTree), alive(StagePlan)) == before
        for name, module in sys.modules.items():
            if name.startswith("bulktree"):
                assert not any(isinstance(v, (PathTable, StagePlan)) for v in vars(module).values())

    def test_false_certificate_raises(self, two_cluster6, monkeypatch):
        # A master that reports half its true theta: the run must not hand
        # out that certificate.
        master = framework_mod.solve_small_primal

        def too_low(cs):
            dist, y0, alpha = master(cs)
            return TreeDistribution(support=dist.support, theta=dist.theta / 2), y0, alpha

        monkeypatch.setattr(framework_mod, "solve_small_primal", too_low)
        with pytest.raises(RuntimeError, match="false certificate"):
            solve_oblivious(two_cluster6, SolveConfig(seed=0))

    @pytest.mark.parametrize("factor", [1.1, 0.9])
    def test_master_duals_off_one_raise(self, two_cluster6, monkeypatch, factor):
        # A master whose level duals do not sum to 1 is a simplex fault; the
        # oracle must not price against that budget, nor stop the solve
        # without saying why.
        master = framework_mod.solve_small_primal

        def scaled(cs):
            dist, y0, alpha = master(cs)
            return dist, y0, tuple(a * factor for a in alpha)

        monkeypatch.setattr(framework_mod, "solve_small_primal", scaled)
        with pytest.raises(RuntimeError, match="duals sum to"):
            solve_oblivious(two_cluster6, SolveConfig(seed=0))

    def test_duals_just_above_one_are_priced(self, two_cluster6, monkeypatch):
        # Master duals that sum to 1 + 5e-12 are within the master's 1e-9,
        # but above the oracle's budget slack: column generation must scale
        # them back and price them, not read the oracle's budget cut.
        master = framework_mod.solve_small_primal

        def scaled(cs):
            dist, y0, alpha = master(cs)
            return dist, y0, tuple(a * (1 + 5e-12) for a in alpha)

        monkeypatch.setattr(framework_mod, "solve_small_primal", scaled)
        _, report = solve_oblivious(two_cluster6, SolveConfig(seed=0))
        assert report.runs
        assert all(run["kind"] != "rob_cut" and run["attempts"] > 0 for run in report.runs)

    @pytest.mark.parametrize("seed", range(3))
    def test_theta_at_most_best_rent_or_buy_tree(self, two_cluster6, seed):
        # The master starts from the rent-or-buy trees, so mixing never does
        # worse than the best of them alone.
        bounds = rob_lower_bounds(two_cluster6, _mix_seed(seed, 0xAB))
        tilde = [v for _, v, _ in bounds]
        best_single = min(
            max(atomic_cost(tree, i, two_cluster6.lengths) / tilde[i] for i in range(len(tilde)))
            for _, _, tree in bounds
        )
        dist, report = solve_oblivious(two_cluster6, SolveConfig(seed=seed))
        assert report.tilde == tuple(tilde)
        assert dist.theta <= best_single * (1 + 1e-12)

    def test_same_solves_as_row_loop_simplex(self, monkeypatch):
        # The whole-tableau pivot must reproduce the row-by-row kernel's
        # pivots and values, so whole solves and the exact LP do not move.
        def outputs():
            solves = []
            for inst in small_instance_corpus() + heavy_instances():
                dist, report = solve_oblivious(inst, SolveConfig(seed=1))
                solves.append((
                    repr(dist.theta),
                    [(t.sorted_edges(), repr(w)) for t, w in dist.support],
                    report.runs, len(report.tilde),
                ))
            lps = []
            for model in ("random-geometric", "grid"):
                _, theta, dist = exact_mod.exact_optima_and_lp(generate_instance(model, 8, 3, 1))
                lps.append((repr(theta), [(t.sorted_edges(), repr(w)) for t, w in dist.support]))
            return solves, lps

        got = outputs()
        assert min(levels for *_, levels in got[0][-6:]) >= 12
        calls = []

        def reference(c, A, b):
            calls.append(len(c))
            return reference_solve_min_ge(c, A, b)

        monkeypatch.setattr(framework_mod.simplex, "solve_min_ge", reference)
        assert outputs() == got
        assert calls

    def test_one_run_row_per_pricing_call(self, two_cluster6):
        dist, report = solve_oblivious(two_cluster6, SolveConfig(seed=3))
        assert 1 <= len(report.runs) <= MAX_PRICING_CALLS
        assert report.runs[-1]["kind"] != "tree_cut" or len(report.runs) == MAX_PRICING_CALLS
        assert report.runs[-1]["theta"] == dist.theta
        thetas = [row["theta"] for row in report.runs]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(thetas, thetas[1:]))

    def test_capped_run_returns_master_with_last_column(self, monkeypatch):
        # On this grid the first pricing call adds a column.
        inst = generate_instance("grid", 16, 7, seed=1)
        monkeypatch.setattr(framework_mod, "MAX_PRICING_CALLS", 1)
        dist, report = solve_oblivious(inst, SolveConfig(seed=1))
        (row,) = report.runs
        assert row["kind"] == "tree_cut"
        assert dist.theta < row["theta"]
        assert max(r["ratio"] for r in report.levels) <= dist.theta * (1 + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(["random-geometric", "grid", "path"]),
        n=st.integers(4, 12),
        seed=st.integers(0, 50),
        power=st.integers(-40, 40),
    )
    def test_power_of_two_rescaling_is_exact(self, model, n, seed, power):
        inst = generate_instance(model, n, max(1, (n - 1) // 2), seed)
        base = scaled_solve(inst, 1.0, seed)
        assert scaled_solve(inst, 2.0**power, seed) == base

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(4, 12), seed=st.integers(0, 50), exponent=st.integers(-12, 12))
    def test_decimal_rescaling_keeps_theta(self, n, seed, exponent):
        # Only random-geometric: on grids, float rounding can break ties among
        # equal-length paths differently at another scale.
        inst = generate_instance("random-geometric", n, max(1, (n - 1) // 2), seed)
        theta, _ = scaled_solve(inst, 1.0, seed)
        assert scaled_solve(inst, 10.0**exponent, seed)[0] == pytest.approx(theta, rel=1e-9)

    @pytest.mark.parametrize("inst", [
        make_instance({("a", "r"): 1.0}, {"r": 3}, "r"),
        make_instance({("a", "r"): 0.0, ("a", "b"): 0.0}, {"a": 1, "b": 2}, "r"),
        Instance(nodes=("r",), lengths={}, demands={"r": 1}, root="r"),
    ], ids=["demand-at-root", "zero-lengths", "single-node"])
    def test_zero_level_bound_returns_zero_cost_tree(self, inst):
        dist, report = solve_oblivious(inst, SolveConfig(seed=1))
        (tree, weight), = dist.support
        assert weight == 1.0 and dist.theta == 1.0
        assert report.runs == []
        assert all(atomic_cost(tree, r["i"], inst.lengths) == 0.0 for r in report.levels)
        assert [r["ratio"] for r in report.levels] == [1.0] * demand_profile(inst).levels
        ratio, _ = exact_oblivious_ratio(inst, dist)
        assert ratio == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_guarantee_chain_random_instances(self, seed):
        inst = generate_instance("random-geometric", 6, 3, seed=seed)
        dist, report = solve_oblivious(inst, SolveConfig(seed=seed))
        opt = exact_optima(inst)
        ratio, _ = exact_oblivious_ratio(inst, dist, optima=opt)
        slack = max(report.tilde[i] / opt.value(i) for i in range(len(report.tilde)))
        assert 1.0 - 1e-9 <= ratio <= dist.theta * slack + 1e-7
