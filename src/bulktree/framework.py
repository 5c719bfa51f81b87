"""End-to-end solver: the tree-distribution LP by column generation.

The distribution LP asks for weights w over spanning trees with sum w >= 1
that minimize theta, the worst level ratio sum_T w_T * A_i(T) / tilde_i
(tilde_i: the rent-or-buy upper bound on the level-i optimum).  Its dual asks
for level weights alpha >= 0 with sum alpha <= 1 that maximize the cheapest
tree's cost sum_i alpha_i * A_i(T) / tilde_i.

The restricted master holds the distinct rent-or-buy trees to start with and
is solved by the in-house simplex, which also returns its duals.  The
randomized oracle then looks for a tree whose cost under those duals is below
the master's theta*: such a tree is a column with negative reduced cost and
joins the master.  The loop stops when the oracle finds none within its
retries (the paper's "no violated tree" condition), when it returns a tree
the master already holds, or at a fixed cap on pricing calls.  Every master
optimum is a primal-feasible distribution whose worst level ratio is its
theta*, so a capped run still returns a valid answer.  The master's vertex
solution has at most 1 + levels basic variables, theta among them, hence
the support of at most 1 + log2(D) trees.

The central-cut ellipsoid over the same dual is kept as
``ellipsoid_feasibility``; the solver does not call it.  It stays until the
benchmark's tracer, which wraps it by name, stops doing so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simplex
from .aggregation import RoutedTree, TreeDistribution, add_up, level_rows
from .gmm import StagePlan
from .instance import Instance, demand_profile
from .pipes import AlphaVector
from .regularize import regularize
from .subroutines import PathTable, rob_lower_bounds, _mix_seed

__all__ = [
    "SolveConfig",
    "TreeConstraint",
    "ConstraintSet",
    "OracleResult",
    "separation_oracle",
    "solve_small_primal",
    "solve_oblivious",
]


# Pricing calls per solve.  Random-geometric n=64 converges in about 10.
MAX_PRICING_CALLS = 64

# The dual polytope's tolerance on its budget row sum(y) <= 1.  The ellipsoid
# cuts a center that sums above 1 + BUDGET_SLACK, and column generation
# rescales any master duals it accepts that sum above it.
BUDGET_SLACK = 1e-12


@dataclass(frozen=True)
class SolveConfig:
    seed: int


def default_rmax(inst: Instance) -> int:
    return 16 * math.ceil(math.log2(len(inst.nodes) + 2))


@dataclass(frozen=True)
class TreeConstraint:
    tree: RoutedTree
    level_costs: tuple[float, ...]


@dataclass
class ConstraintSet:
    tilde: tuple[float, ...]
    tree_constraints: list[TreeConstraint]

    def add(self, tc: TreeConstraint) -> bool:
        key = tc.tree.edges
        if any(t.tree.edges == key for t in self.tree_constraints):
            return False
        self.tree_constraints.append(tc)
        return True


@dataclass(frozen=True)
class OracleResult:
    """A "tree_cut" carries the cheapest tree found, whose ``cost`` under the
    weights is below beta, and its level costs; a "feasible" found none."""

    kind: str  # "tree_cut" | "feasible"
    cost: float
    attempts: int
    threshold_met: bool
    tree: RoutedTree | None = None
    level_costs: tuple[float, ...] | None = None


def separation_oracle(
    alpha,
    beta: float,
    tilde,
    c_target: float,
    inst: Instance,
    seed: int,
    table: PathTable | None = None,
) -> OracleResult:
    """Refute the dual point (alpha, beta) with a tree, or declare it feasible.

    alpha is in scaled coordinates y_i = a_i * tilde_i of the level weights
    a: nonnegative, with a positive entry (``AlphaVector`` refuses an
    all-zero point with ValueError).  Every such point is priced.  The box
    and the budget sum(y) <= 1 are the polytope's own rows, which the caller
    keeps: the ellipsoid cuts them, and column generation passes the
    master's level duals, which sum to 1, with beta just below its theta*.

    Repeatedly asks the randomized construction for a tree whose cost under
    a is below 2 * c_target * sum(y), capped at ``default_rmax(inst)``
    attempts, and returns the best tree found as a violated constraint when
    its cost is below beta.  The retry loop also stops as soon as a tree
    violates beta (the cut is valid regardless of the threshold); at beta 0
    no tree does, so the loop runs until the threshold or the cap.

    The weight vector is regularized and staged once; each attempt repeats
    only the seeded part of the construction.  All attempts read one set of
    streams, ``default_rng([seed, stage, step])``, each from where the one
    before it stopped, so attempt 0 returns the tree
    ``oracle_tree(inst, a, seed)`` would.  The plan walks its attempts
    through one memoized tree of runs: an attempt draws its targets afresh,
    but builds only the Steiner forests, moves and trees that no earlier
    attempt of this call reached.  Once the plan is exhausted, every later
    attempt would end at a tree already priced, none of which met the
    threshold or beta, and none of which can replace the best one.  So the
    loop stops there and reports ``attempts`` as the cap, which is what running
    the remaining attempts would report.
    """
    scaled = np.asarray(alpha, dtype=float)
    alpha_raw = {
        i: Fraction(float(scaled[i])) / Fraction(float(tilde[i]))
        for i in range(len(tilde))
        if scaled[i] > 0
    }
    vec = AlphaVector(alpha=alpha_raw, D=demand_profile(inst).D)
    threshold = 2.0 * c_target * float(scaled.sum())
    cap = default_rmax(inst)
    regular, _ = regularize(vec)
    plan = StagePlan(inst, regular, table)
    weights = [(i, float(a)) for i, a in alpha_raw.items()]
    best: tuple[float, RoutedTree, tuple[float, ...]] | None = None
    attempts = 0
    threshold_met = False
    for tree, _ in plan.runs(seed, cap):
        attempts += 1
        costs = plan.table.level_costs(tree)
        value = add_up(a * costs[i] for i, a in weights)
        if best is None or value < best[0]:
            best = (value, tree, costs)
        if value < threshold:
            threshold_met = True
            break
        if value < beta:
            break
        if plan.exhausted:
            # Every later attempt ends at a tree an earlier one priced: none
            # met the threshold or beta, and none can replace best.
            attempts = cap
            break
    value, tree, costs = best
    if value < beta:
        return OracleResult(kind="tree_cut", cost=value, attempts=attempts,
                            threshold_met=threshold_met, tree=tree, level_costs=costs)
    return OracleResult(kind="feasible", cost=value, attempts=attempts, threshold_met=threshold_met)


@dataclass
class EllipsoidResult:
    """status: "infeasible", "feasible" or "unresolved".  oracle_calls counts
    oracle calls only, not box or budget cuts; theta is the certificate's
    theta* when "infeasible".  constraint_set holds the harvested trees."""

    status: str
    constraint_set: ConstraintSet
    iterations: int
    oracle_calls: int
    theta: float | None = None


def ellipsoid_feasibility(
    inst: Instance, beta: float, seed: int, tilde, bit_budget: int = 64
) -> EllipsoidResult:
    """Central-cut ellipsoid over the scaled dual polytope with the randomized oracle.

    The polytope's own rows, the unit box and sum(y) <= 1 + BUDGET_SLACK, are
    cut here, so the oracle (with c_target = beta / 2) sees only centers
    inside both.  Infeasibility is declared only with a duality certificate:
    the small primal over the harvested trees must reach theta* < beta, or a
    harvested tree must cost zero at every level.  Runs that exhaust the
    volume or iteration budget without a certificate or a feasible point
    come back "unresolved".
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    table = PathTable(inst)
    tilde = tuple(float(t) for t in tilde)
    if any(t <= 0 for t in tilde):
        raise ValueError("level bound of zero; instance has a zero-cost level")
    m = len(tilde)
    cs = ConstraintSet(tilde=tilde, tree_constraints=[])
    center = np.full(m, 0.5)
    P = np.eye(m) * (m / 4.0)
    max_iter = min(10 * m * m * bit_budget, int(2 * (m + 1) * m * m * bit_budget * math.log(2)) + 1)
    oracle_calls = 0
    iterations = max_iter
    for iteration in range(max_iter):
        cut = None  # gradient of a violated "<=" constraint at the center
        for i in range(m):  # the box and budget are structural, never harvested
            if center[i] < 0:
                g = np.zeros(m)
                g[i] = -1.0
                cut = g
                break
            if center[i] > 1:
                g = np.zeros(m)
                g[i] = 1.0
                cut = g
                break
        if cut is None and center.sum() > 1.0 + BUDGET_SLACK:
            cut = np.ones(m)
        if cut is None:
            res = separation_oracle(
                tuple(float(x) for x in center), beta, tilde, beta / 2.0, inst,
                _mix_seed(seed, 7919 + iteration), table=table,
            )
            oracle_calls += 1
            if res.kind == "feasible":
                return EllipsoidResult(
                    status="feasible", constraint_set=cs,
                    iterations=iteration + 1, oracle_calls=oracle_calls,
                )
            grad = np.array([res.level_costs[i] / tilde[i] for i in range(m)])
            if cs.add(TreeConstraint(tree=res.tree, level_costs=res.level_costs)):
                dist, _ = solve_small_primal(cs)
                if dist.theta < beta - 1e-9 or not grad.any():
                    return EllipsoidResult(
                        status="infeasible", constraint_set=cs, iterations=iteration + 1,
                        oracle_calls=oracle_calls, theta=dist.theta,
                    )
            cut = -grad
        norm = float(np.linalg.norm(cut))
        cut = cut / norm
        Pg = P @ cut
        quad = float(cut @ Pg)
        if quad <= 1e-300:
            iterations = iteration + 1
            break  # numerically collapsed
        if m == 1:
            r = math.sqrt(float(P[0, 0]))
            step = math.copysign(r / 2.0, float(cut[0]))
            center = center - np.array([step])
            P = np.array([[(r / 2.0) ** 2]])
        else:
            b = Pg / math.sqrt(quad)
            center = center - b / (m + 1)
            P = (m * m / (m * m - 1.0)) * (P - (2.0 / (m + 1)) * np.outer(b, b))
            P = (P + P.T) / 2.0
    return EllipsoidResult(
        status="unresolved", constraint_set=cs, iterations=iterations,
        oracle_calls=oracle_calls,
    )


def solve_small_primal(cs: ConstraintSet) -> tuple[TreeDistribution, tuple[float, ...]]:
    """Vertex optimum of the restricted distribution LP over harvested trees.

    Solves  min theta  s.t.  sum_j w_j >= 1  and, per level i,
    theta - sum_j w_j * A_i(T_j) / tilde_i >= 0,  w >= 0,
    with every level row divided by its bound, so the LP reads the same at
    any length scale.  Returns a distribution supported on at most
    1 + log2(D) trees whose worst level ratio against the tilde bounds equals
    theta*, and the level rows' duals alpha: a weight vector in scaled
    coordinates under which no tree of the set costs less than theta*, which
    by LP duality is also the sum row's dual.
    """
    if not cs.tree_constraints:
        raise ValueError("constraint set has no tree constraints")
    trees = cs.tree_constraints
    levels = len(cs.tilde)
    n = len(trees)
    A = np.zeros((1 + levels, 1 + n))
    b = np.zeros(1 + levels)
    A[0, 1:] = 1.0
    b[0] = 1.0
    A[1:, 0] = 1.0
    costs = np.array([tc.level_costs for tc in trees], dtype=float)
    A[1:, 1:] = -(costs / np.asarray(cs.tilde, dtype=float)).T
    c = np.zeros(1 + n)
    c[0] = 1.0
    z, theta, y = simplex.solve_min_ge(c, A, b)
    weights = [(float(z[1 + j]), j) for j in range(n) if z[1 + j] > 1e-9]
    # Fold the sum-above-one slack into the largest weights: shrinking weights
    # only lowers every level cost, so theta* remains valid.
    weights.sort(reverse=True)
    excess = add_up(w for w, _ in weights) - 1.0
    folded = []
    for w, j in weights:
        if excess > 0:
            take = min(excess, w - 1e-12)
            w -= take
            excess -= take
        folded.append((w, j))
    support = tuple((trees[j].tree, w) for w, j in folded if w > 1e-12)
    dist = TreeDistribution(support=support, theta=float(theta))
    return dist, tuple(float(a) for a in y[1:])


@dataclass
class SolveReport:
    tilde: tuple[float, ...]
    levels: list
    runs: list


def _column_generation(
    inst: Instance, config: SolveConfig, bounds, table: PathTable
) -> tuple[TreeDistribution, list]:
    """Price columns into the master until the oracle finds no cheaper tree.

    Returns the last master's distribution and one row per pricing call.
    """
    tilde = tuple(v for _, v, _ in bounds)
    cs = ConstraintSet(tilde=tilde, tree_constraints=[])
    for _, _, tree in bounds:
        cs.add(TreeConstraint(tree=tree, level_costs=table.level_costs(tree)))
    runs = []
    for call in range(MAX_PRICING_CALLS + 1):
        dist, alpha = solve_small_primal(cs)
        if call == MAX_PRICING_CALLS:
            break
        # Every bound is positive here, so theta* > 0: its column is basic and
        # its reduced cost, 1 - sum(alpha), is zero.  Any other sum is a
        # simplex fault, and the oracle would price against the wrong budget.
        # A sum a rounding error above 1 is scaled back, so the priced point
        # lies inside the polytope the oracle's threshold is stated for.
        budget = sum(alpha)
        if abs(budget - 1.0) > 1e-9:
            raise RuntimeError(f"master level duals sum to {budget!r}, not 1")
        if budget > 1.0 + BUDGET_SLACK:
            alpha = tuple(a / budget for a in alpha)
        beta = dist.theta * (1 - 1e-9)
        res = separation_oracle(
            alpha, beta, tilde, beta / 2.0, inst, _mix_seed(config.seed, 7919 + call),
            table=table,
        )
        added = res.kind == "tree_cut" and cs.add(
            TreeConstraint(tree=res.tree, level_costs=res.level_costs)
        )
        runs.append({
            "theta": dist.theta, "kind": res.kind, "attempts": res.attempts,
            "columns": len(cs.tree_constraints),
        })
        if not added:
            break
    return dist, runs


def solve_oblivious(inst: Instance, config: SolveConfig) -> tuple[TreeDistribution, SolveReport]:
    """Compute the level bounds and solve the distribution LP over trees by
    column generation; ``dist.theta`` is the final master's theta*.

    A level whose bound is zero has a rent-or-buy tree of zero cost there.
    Every edge of that tree carries flow, so all its edges have length zero
    and it costs zero at every level.  It is returned alone with theta 1,
    the 0/0 rule of ``level_ratio``, and no LP is solved.
    """
    # One shortest-path table per solve: it is dropped when the solve returns.
    table = PathTable(inst)
    bounds = rob_lower_bounds(inst, _mix_seed(config.seed, 0xAB), table)
    tilde = tuple(v for _, v, _ in bounds)
    zero_tree = next((tree for _, v, tree in bounds if v == 0), None)
    if zero_tree is None:
        dist, runs = _column_generation(inst, config, bounds, table)
    else:
        dist, runs = TreeDistribution(support=((zero_tree, 1.0),), theta=1.0), []
    if len(dist.support) > table.levels:  # 1 + log2(D)
        raise RuntimeError("support bound violated")
    rows = level_rows(dist, tilde, inst.lengths)
    worst = max(row["ratio"] for row in rows)
    if worst > dist.theta * (1 + 1e-9):
        raise RuntimeError(
            f"false certificate: worst level ratio {worst!r} exceeds theta {dist.theta!r}"
        )
    return dist, SolveReport(tilde=tilde, levels=rows, runs=runs)
