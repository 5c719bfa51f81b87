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
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .aggregation import (
    RoutedTree, TreeDistribution, atomic_cost, distribution_cost, level_ratio, route_demands,
)
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


def _find(parent: tuple, x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def _spanning_trees(nodes: list[str], edges: list, optional=()) -> Iterator[frozenset]:
    """Spanning trees of the given node set, as frozensets of edges, in which
    every node of ``optional`` has degree at least 2.

    A branch that skips an edge is cut as soon as one of its optional ends can
    no longer reach degree 2 from the edges still to come.
    """
    need = len(nodes) - 1
    if need == 0:
        yield frozenset()
        return
    index = {v: i for i, v in enumerate(nodes)}
    ends = [(index[u], index[v]) for u, v in edges]
    steiner = [index[v] for v in optional]
    is_steiner = [v in optional for v in nodes]
    # left[pos][x]: edges at position pos or later that touch node x
    left = [[0] * len(nodes) for _ in range(len(edges) + 1)]
    for pos in range(len(edges) - 1, -1, -1):
        left[pos] = list(left[pos + 1])
        for x in ends[pos]:
            left[pos][x] += 1
    if any(left[0][x] < 2 for x in steiner):
        return
    degree = [0] * len(nodes)

    def rec(pos: int, chosen: tuple, parent: tuple):
        if len(chosen) == need:
            if all(degree[x] >= 2 for x in steiner):
                yield frozenset(chosen)
            return
        if len(edges) - pos < need - len(chosen):
            return
        a, b = ends[pos]
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            merged = list(parent)
            merged[max(ra, rb)] = min(ra, rb)
            degree[a] += 1
            degree[b] += 1
            yield from rec(pos + 1, chosen + (edges[pos],), tuple(merged))
            degree[a] -= 1
            degree[b] -= 1
        rest = left[pos + 1]
        if (is_steiner[a] and degree[a] + rest[a] < 2) or (is_steiner[b] and degree[b] + rest[b] < 2):
            return
        yield from rec(pos + 1, chosen, parent)

    yield from rec(0, (), tuple(range(len(nodes))))


def enumerate_candidate_trees(inst: Instance, node_cap: int = DEFAULT_NODE_CAP) -> Iterator[RoutedTree]:
    """Every tree spanning the demands and the root whose leaves all carry
    demand or are the root.

    Optional (Steiner) nodes must have degree at least 2.  Each node subset
    gives distinct trees, so no two candidates share an edge set.
    """
    _check_cap(inst, node_cap)
    required = sorted(set(inst.demands) | {inst.root})
    optional = sorted(set(inst.nodes) - set(required))
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            nodes = sorted(set(required) | set(extra))
            nodeset = set(nodes)
            edges = [e for e in inst.edges if e[0] in nodeset and e[1] in nodeset]
            for tree in _spanning_trees(nodes, edges, extra):
                yield route_demands(inst, tree)


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


def _costed_candidates(inst: Instance, node_cap: int) -> tuple[list[RoutedTree], list[list[float]]]:
    """The candidate trees and costs[i][j], the atomic cost of trees[j] at level i."""
    trees = list(enumerate_candidate_trees(inst, node_cap))
    costs = [
        [atomic_cost(t, i, inst.lengths) for t in trees]
        for i in range(demand_profile(inst).levels)
    ]
    return trees, costs


def _optima_of(trees: list[RoutedTree], costs) -> ExactOptima:
    """Per level, the cheapest of the trees, ties broken by sorted edges."""
    out = []
    for i, row in enumerate(costs):
        j = min(range(len(trees)), key=lambda j: (row[j], trees[j].sorted_edges()))
        out.append((i, trees[j], row[j]))
    return ExactOptima(per_level=tuple(out))


def exact_optimum(inst: Instance, i: int, node_cap: int = DEFAULT_NODE_CAP) -> tuple[RoutedTree, float]:
    opt = exact_optima(inst, node_cap)
    if i < 0 or i >= len(opt.per_level):
        raise ValueError(f"level out of range: {i}")
    return opt.tree(i), opt.value(i)


def exact_oblivious_ratio(
    inst: Instance, dist: TreeDistribution, node_cap: int = DEFAULT_NODE_CAP,
    optima: ExactOptima | None = None,
) -> tuple[float, int]:
    """Worst over levels of expected distribution cost divided by the exact optimum."""
    opt = optima if optima is not None else exact_optima(inst, node_cap)
    worst, worst_level = 0.0, 0
    for i, _, denom in opt.per_level:
        ratio = level_ratio(distribution_cost(dist, i, inst.lengths), denom)
        if ratio > worst:
            worst, worst_level = ratio, i
    return worst, worst_level


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
    trees, cost_rows = _costed_candidates(inst, node_cap)
    opt = _optima_of(trees, cost_rows)
    optima = tuple(opt.value(i) for i in range(len(opt.per_level)))
    if min(optima) == 0:
        return opt, 1.0, TreeDistribution(support=((opt.tree(0), 1.0),), theta=1.0)
    cs = ConstraintSet(tilde=optima, tree_constraints=[
        TreeConstraint(tree=t, level_costs=costs) for t, costs in zip(trees, zip(*cost_rows))
    ])
    dist, _, _ = solve_small_primal(cs)
    return opt, dist.theta, dist
