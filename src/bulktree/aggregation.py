"""Routed trees, atomic cost functions, and weighted tree distributions.

The i-th atomic function is min(x, 2^i).  Any concave nondecreasing cost with
f(0) = 0 that is linear between successive powers of two is a nonnegative
combination of atomic functions, so evaluating a tree under every atomic level
is enough to evaluate it under every such cost.  Flows are integral: a routed
tree carries, on each edge, exactly the demand hanging below that edge when
the tree is oriented toward the root.

Trees are stored as explicit edge sets plus a parent map rooted at the
instance root, so flow computation is a single leaf-to-root sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .instance import Edge, Instance, canonical_edge

EPS = 1e-9


class RoutingError(ValueError):
    """Edge set is not a tree spanning the demands and the root."""


@dataclass(frozen=True)
class RoutedTree:
    """A tree spanning demands and root, with per-edge integral flow toward the root."""

    edges: tuple[Edge, ...]
    flow: dict[Edge, int]
    root: str
    parent: dict[str, str]

    def nodes(self) -> set[str]:
        out = {self.root}
        for u, v in self.edges:
            out.add(u)
            out.add(v)
        return out

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))


def route_demands(inst: Instance, tree_edges) -> RoutedTree:
    """Orient the edges toward the root and accumulate subtree demands onto them."""
    edges = tuple(sorted(canonical_edge(u, v) for u, v in tree_edges))
    if len(set(edges)) != len(edges):
        raise RoutingError("duplicate edge in tree")
    nodes = {inst.root}
    for u, v in edges:
        if (u, v) not in inst.lengths:
            raise RoutingError(f"edge {(u, v)!r} not in instance")
        nodes.add(u)
        nodes.add(v)
    if len(edges) != len(nodes) - 1:
        raise RoutingError("edge set contains a cycle or is disconnected")
    tree = route_tree(inst.root, {v: inst.demands.get(v, 0) for v in nodes}, edges)
    if len(tree.parent) != len(edges):  # a node the walk did not reach
        raise RoutingError("edge set contains a cycle or is disconnected")
    missing = sorted(v for v in inst.demands if v not in nodes and v != inst.root)
    if missing:
        raise RoutingError(f"demand node(s) {missing} disconnected from tree")
    return tree


def route_tree(root: str, demand: dict, edges: tuple) -> RoutedTree:
    """``route_demands``' walk, without its checks: a BFS from the root that
    orients each edge toward it, then a leaf-to-root sweep of subtree demands.
    ``demand`` maps every node the edges touch to its demand.  The ``edges``
    are canonical and ascend, so each node meets its smaller neighbours first,
    as first ends, then its larger ones: every adjacency list is sorted.  A
    node is entered once, so a cycle in the root's component leaves nodes
    unreached, and ``parent`` then has fewer entries than ``edges``.
    """
    adj: dict[str, list] = {v: [] for v in demand}
    for e in edges:
        u, v = e
        adj[u].append((v, e))
        adj[v].append((u, e))
    parent = {root: root}
    links = []  # (node, its parent, the edge between them), in BFS order
    order = [root]
    for u in order:
        for v, e in adj[u]:
            if v not in parent:
                parent[v] = u
                links.append((v, u, e))
                order.append(v)
    del parent[root]
    subtree = dict(demand)
    for v, u, _ in reversed(links):
        subtree[u] += subtree[v]
    flow = {e: subtree[v] for v, _, e in links}
    return RoutedTree(edges=edges, flow=flow, root=root, parent=parent)


def add_up(terms) -> float:
    """The float sum of the terms, added left to right.

    Since Python 3.12 the builtin ``sum`` compensates float sums, so the same
    terms give other last bits there than on 3.10 and 3.11.  The float sums
    that reach an artifact are added here or in ``level_costs``, in the same
    order on every version.
    """
    total = 0.0
    for t in terms:
        total += t
    return total


def level_costs(tree: RoutedTree, levels, lengths) -> tuple[float, ...]:
    """The tree's atomic cost at each of the given levels.

    The flow is read once; each level i then adds l_e * min(x_e, 2^i) left to
    right in flow order."""
    caps = []
    for i in levels:
        if not isinstance(i, int) or i < 0 or i > 62:
            raise ValueError(f"level out of range: {i}")
        caps.append(1 << i)
    terms = [(lengths[e], x) for e, x in tree.flow.items()]
    costs = []
    for cap in caps:
        cost = 0.0
        for w, x in terms:
            cost += w * (x if x < cap else cap)
        costs.append(cost)
    return tuple(costs)


def atomic_cost(tree: RoutedTree, i: int, lengths) -> float:
    """Cost of the tree under the i-th atomic function: sum_e l_e * min(x_e, 2^i)."""
    return level_costs(tree, (i,), lengths)[0]


def level_ratio(cost: float, bound: float) -> float:
    """cost / bound, reading 0/0 as 1: only a zero-cost tree meets a zero bound."""
    if bound == 0:
        return 1.0 if cost <= 1e-12 else float("inf")
    return cost / bound


def function_cost(tree: RoutedTree, f, lengths) -> float:
    """Cost under an AlphaVector (sum of weighted atomic costs) or a PipeSchedule."""
    from .pipes import AlphaVector, PipeSchedule

    if isinstance(f, AlphaVector):
        return add_up(float(a) * atomic_cost(tree, i, lengths) for i, a in f.alpha.items())
    if isinstance(f, PipeSchedule):
        return add_up(lengths[e] * float(f.value(Fraction(x))) for e, x in tree.flow.items())
    raise TypeError(f"unsupported cost function {type(f).__name__}")


@dataclass(frozen=True)
class TreeDistribution:
    """Weighted trees; weights sum to exactly one after construction."""

    support: tuple[tuple[RoutedTree, float], ...]
    theta: float

    def __post_init__(self):
        if not self.support:
            raise ValueError("distribution support must be nonempty")
        total = add_up(w for _, w in self.support)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(f"weights must sum to 1 (got {total})")
        if any(w <= 0 or w > 1 + EPS for _, w in self.support):
            raise ValueError("weights must lie in (0, 1]")
        if abs(total - 1.0) > 0:
            object.__setattr__(
                self, "support", tuple((t, w / total) for t, w in self.support)
            )


def distribution_cost(dist: TreeDistribution, i: int, lengths) -> float:
    """Expected atomic cost of the distribution at level i."""
    return add_up(w * atomic_cost(t, i, lengths) for t, w in dist.support)


def level_rows(dist: TreeDistribution, tilde, lengths) -> list[dict]:
    """Per level i: the distribution's expected cost, the bound tilde_i and
    their ratio.  Each support tree is costed at every level in one pass;
    the expected cost adds the same terms in the same order as
    ``distribution_cost``."""
    costs = [(w, level_costs(t, range(len(tilde)), lengths)) for t, w in dist.support]
    rows = []
    for i, bound in enumerate(tilde):
        expected = add_up(w * c[i] for w, c in costs)
        rows.append({
            "i": i, "expected_cost": expected, "lower_bound": bound,
            "ratio": level_ratio(expected, bound),
        })
    return rows
