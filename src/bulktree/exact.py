"""Brute-force oracles for desk-scale verification.

Enumerates every tree spanning the demands and the root whose leaves all
carry demand or are the root; other nodes may join as Steiner nodes of
degree at least 2.  From these candidates it derives exact per-level
optima, the exact oblivious ratio of a given distribution, and the true
optimum of the full tree-distribution LP.  Refuses instances above the
node cap instead of silently truncating.

The candidate set is exact.  The edge into a Steiner leaf carries zero
flow, so removing the leaf leaves every level cost bit-identical: the
remaining terms are summed in the same order.  Removing Steiner leaves
until none is left turns any tree into a candidate, so no per-level
optimum changes, and the LP loses only columns that duplicate a kept one.
Every edge of a candidate carries positive flow.

The search over each node subset is a backtracking enumeration of spanning
trees (Read and Tarjan, 1975) that takes each edge before skipping it, so a
subset's trees come in ascending sorted-edge order.  It is pruned on degree:
every node needs degree at least 1, a Steiner node 2, and a branch dies as
soon as the edges still to come cannot give every node its minimum.  Each
tree is routed once, by ``route_demands``' own walk (``aggregation.route_tree``)
run without its checks, since the search already built a tree, and costed at
every level by ``aggregation.level_costs``, the routine ``atomic_cost`` uses.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .aggregation import RoutedTree, TreeDistribution, level_costs, level_rows, route_tree
from .framework import ConstraintSet, TreeConstraint, solve_small_primal
from .instance import Instance, demand_profile

DEFAULT_NODE_CAP = 8


class NodeCapExceeded(ValueError):
    pass


def _check_cap(inst: Instance, node_cap: int) -> None:
    if len(inst.nodes) > node_cap:
        raise NodeCapExceeded(
            f"instance has {len(inst.nodes)} nodes, above the brute-force cap {node_cap}"
        )


def _spanning_trees(nodes: list[str], edges: list, optional=()) -> Iterator[tuple]:
    """Spanning trees of the given node set, as tuples of edges in the order of
    ``edges``, in which every node of ``optional`` has degree at least 2.

    The search takes each edge before it skips it, so the trees come in
    ascending order of their edge tuples.  Every node needs degree 1, an
    optional node 2, and two cuts drop only branches that would yield nothing:
    a skip dies when one of the skipped edge's ends can no longer reach its
    minimum from the edges still to come; a take dies when the degree still
    missing, summed over the nodes, exceeds twice the number of edges still to
    take.  On a full tree the second cut is the final check that every
    optional node reached degree 2, which the first cannot make: the search
    stops at a tree's last edge, before the edges after it are passed.
    """
    need = len(nodes) - 1
    if need == 0:
        yield ()
        return
    index = {v: i for i, v in enumerate(nodes)}
    ends = [(index[u], index[v]) for u, v in edges]
    low = [2 if v in optional else 1 for v in nodes]
    # left[pos][x]: edges at position pos or later that touch node x
    left = [[0] * len(nodes) for _ in range(len(edges) + 1)]
    for pos in range(len(edges) - 1, -1, -1):
        left[pos] = list(left[pos + 1])
        for x in ends[pos]:
            left[pos][x] += 1
    if any(n < k for n, k in zip(left[0], low)):
        return
    degree = [0] * len(nodes)
    # the degree still missing, summed over the nodes below their minimum
    short = sum(low)
    up = list(range(len(nodes)))  # union-find links; each union is undone on backtrack
    chosen: list = []

    def rec(pos: int):
        nonlocal short
        # Each turn takes edge pos if it closes no cycle, then skips it.
        while len(edges) - pos >= need - len(chosen):
            a, b = ends[pos]
            ra, rb = a, b
            while up[ra] != ra:
                ra = up[ra]
            while up[rb] != rb:
                rb = up[rb]
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                up[hi] = lo
                gain = (degree[a] < low[a]) + (degree[b] < low[b])
                degree[a] += 1
                degree[b] += 1
                chosen.append(edges[pos])
                short -= gain
                # each edge still to take adds 2 to the degree sum
                if short <= 2 * (need - len(chosen)):
                    if len(chosen) < need:
                        yield from rec(pos + 1)
                    else:
                        yield tuple(chosen)
                short += gain
                chosen.pop()
                degree[a] -= 1
                degree[b] -= 1
                up[hi] = hi
            pos += 1
            rest = left[pos]
            if degree[a] + rest[a] < low[a] or degree[b] + rest[b] < low[b]:
                return

    yield from rec(0)


def enumerate_candidate_trees(inst: Instance, node_cap: int = DEFAULT_NODE_CAP) -> Iterator[RoutedTree]:
    """Every tree spanning the demands and the root whose leaves all carry
    demand or are the root.

    Optional (Steiner) nodes must have degree at least 2.  Each node subset
    gives distinct trees, so no two candidates share an edge set.  Within a
    subset the trees come in ascending sorted-edge order.
    """
    _check_cap(inst, node_cap)
    required = sorted(set(inst.demands) | {inst.root})
    optional = sorted(set(inst.nodes) - set(required))
    all_edges = inst.edges
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            nodes = sorted(set(required) | set(extra))
            demand = {v: inst.demands.get(v, 0) for v in nodes}
            edges = [e for e in all_edges if e[0] in demand and e[1] in demand]
            for tree in _spanning_trees(nodes, edges, extra):
                yield route_tree(inst.root, demand, tree)


@dataclass(frozen=True)
class ExactOptima:
    """Per-level optimal trees and values; the mixed benchmark is derived lazily."""

    per_level: tuple[tuple[int, RoutedTree, float], ...]

    def value(self, i: int) -> float:
        return self.per_level[i][2]

    def tree(self, i: int) -> RoutedTree:
        return self.per_level[i][1]

    def multi_level_cost(self, alpha) -> Fraction:
        """Sum over levels of weight_i times the level-i optimum, exact."""
        return sum(
            (a * Fraction(self.value(i)) for i, a in alpha.alpha.items()), Fraction(0)
        )


def exact_optima(inst: Instance, node_cap: int = DEFAULT_NODE_CAP) -> ExactOptima:
    return _optima_of(*_costed_candidates(inst, node_cap))


def _costed_candidates(inst: Instance, node_cap: int) -> tuple[list[RoutedTree], list[tuple[float, ...]]]:
    """The candidate trees and costs[j][i], the atomic cost of trees[j] at level i.

    ``level_costs`` costs each tree at every level from one read of its flow,
    so every cost is bit-identical to ``atomic_cost``'s.
    """
    trees = list(enumerate_candidate_trees(inst, node_cap))
    levels = range(demand_profile(inst).levels)
    return trees, [level_costs(t, levels, inst.lengths) for t in trees]


def _optima_of(trees: list[RoutedTree], costs) -> ExactOptima:
    """Per level, the cheapest of the trees, ties broken by sorted edges."""
    out = []
    for i, row in enumerate(zip(*costs)):
        best = min(row)
        j = min((j for j, c in enumerate(row) if c == best), key=lambda j: trees[j].edges)
        out.append((i, trees[j], row[j]))
    return ExactOptima(per_level=tuple(out))


def exact_oblivious_ratio(
    inst: Instance, dist: TreeDistribution, node_cap: int = DEFAULT_NODE_CAP,
    optima: ExactOptima | None = None,
) -> tuple[float, int]:
    """Worst over levels of expected distribution cost divided by the exact optimum."""
    opt = optima if optima is not None else exact_optima(inst, node_cap)
    rows = level_rows(dist, [value for _, _, value in opt.per_level], inst.lengths)
    worst = max(rows, key=lambda row: row["ratio"])  # the first of equal ratios
    return worst["ratio"], worst["i"]


def exact_lp_optimum(
    inst: Instance, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[float, TreeDistribution]:
    """Solve the full distribution LP over every candidate tree with true
    optima, with the solver's master LP."""
    _, theta, dist = exact_optima_and_lp(inst, node_cap)
    return theta, dist


def exact_optima_and_lp(
    inst: Instance, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[ExactOptima, float, TreeDistribution]:
    """``exact_optima`` and ``exact_lp_optimum`` from one enumeration.

    A zero optimum at any level means a tree of zero cost at every level,
    which is then optimal alone with theta 1, the 0/0 rule of ``level_ratio``.
    """
    trees, costs = _costed_candidates(inst, node_cap)
    opt = _optima_of(trees, costs)
    optima = tuple(opt.value(i) for i in range(len(opt.per_level)))
    if min(optima) == 0:
        return opt, 1.0, TreeDistribution(support=((opt.tree(0), 1.0),), theta=1.0)
    cs = ConstraintSet(tilde=optima, tree_constraints=[
        TreeConstraint(tree=t, level_costs=c) for t, c in zip(trees, costs)
    ])
    dist, _ = solve_small_primal(cs)
    return opt, dist.theta, dist
