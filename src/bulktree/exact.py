"""Brute-force oracles for desk-scale verification.

Enumerates every tree spanning the demands and the root (optional extra
nodes allowed), from which it derives exact per-level optima, the exact
oblivious ratio of a given distribution, and the true optimum of the full
tree-distribution LP.  Refuses instances above the node cap instead of
silently truncating.
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


def _spanning_trees(nodes: list[str], edges: list) -> Iterator[frozenset]:
    """All spanning trees of the given node set, as frozensets of edges."""
    need = len(nodes) - 1
    if need == 0:
        yield frozenset()
        return
    index = {v: i for i, v in enumerate(nodes)}

    def rec(pos: int, chosen: tuple, parent: tuple):
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


def enumerate_candidate_trees(inst: Instance, node_cap: int = DEFAULT_NODE_CAP) -> Iterator[RoutedTree]:
    """Every spanning tree of every node subset containing demands and root.

    Steiner nodes are optional; results are deduplicated by edge set.
    """
    _check_cap(inst, node_cap)
    required = sorted(set(inst.demands) | {inst.root})
    optional = sorted(set(inst.nodes) - set(required))
    seen: set[frozenset] = set()
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            nodes = sorted(set(required) | set(extra))
            nodeset = set(nodes)
            edges = [e for e in inst.edges if e[0] in nodeset and e[1] in nodeset]
            for tree in _spanning_trees(nodes, edges):
                if tree not in seen:
                    seen.add(tree)
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
    _check_cap(inst, node_cap)
    trees = list(enumerate_candidate_trees(inst, node_cap))
    return _optima_of(trees, _level_costs(inst, trees))


def _level_costs(inst: Instance, trees: list[RoutedTree]) -> list[list[float]]:
    """costs[i][j]: atomic cost of trees[j] at level i."""
    return [
        [atomic_cost(t, i, inst.lengths) for t in trees]
        for i in range(demand_profile(inst).levels)
    ]


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
    """Solve the full distribution LP over every enumerated tree with true
    optima, with the solver's master LP.

    A zero optimum at any level means a tree of zero cost at every level,
    which is then optimal alone with theta 1, the 0/0 rule of ``level_ratio``.
    """
    _check_cap(inst, node_cap)
    trees = list(enumerate_candidate_trees(inst, node_cap))
    cost_rows = _level_costs(inst, trees)
    opt = _optima_of(trees, cost_rows)
    optima = tuple(opt.value(i) for i in range(len(opt.per_level)))
    if min(optima) == 0:
        return 1.0, TreeDistribution(support=((opt.tree(0), 1.0),), theta=1.0)
    cs = ConstraintSet(tilde=optima, tree_constraints=[
        TreeConstraint(tree=t, level_costs=costs) for t, costs in zip(trees, zip(*cost_rows))
    ])
    dist, _, _ = solve_small_primal(cs)
    return dist.theta, dist
