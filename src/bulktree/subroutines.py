"""Approximation subroutines: shortest paths, Steiner tree, load-balanced
facility location, and single-sink rent-or-buy.

Constant factors certified by the methods used here (not best-known ratios):

  steiner_tree   metric-closure MST, ratio 2
  lbfl           ball-growing greedy; every opened facility serves at least
                 the requested lower bound L (stronger than the L/3 relaxation
                 callers rely on); falls back to the root when total demand
                 is below L
  rent_or_buy    sample-and-augment with marking probability min(1, d_v/M);
                 expected ratio <= 2 + steiner ratio = 4

All tie-breaking is lexicographic on node ids: Dijkstra orders its heap by
(distance, node), Kruskal sorts edges by (distance, u, v), and every iteration
over node sets is over sorted ids.  Edge lengths are treated as an opaque
nonnegative function, so scaling all lengths by a positive constant scales
costs and leaves selected edge sets unchanged.

Each subroutine returns only what its callers read: ``steiner_tree`` its
sorted edges, ``lbfl`` its assignment and each open facility's shortest-path
map, ``rent_or_buy`` its routed tree.  Costs are computed from those with
``aggregation``, which adds every cost in one order.

Shortest paths are read through a PathTable: a solve that passes one table
to every call runs Dijkstra at most once per source and builds each
rent-or-buy tree once per marked set; a call given no table fills its own.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from .instance import Edge, Instance, canonical_edge, demand_profile
from .aggregation import RoutedTree, level_costs, route_demands


def _shortest_paths(adj, source: str) -> tuple[dict[str, float], dict[str, str]]:
    """Dijkstra over adj, which maps a node to its sorted (neighbour, length)
    pairs as ``Instance.adjacency()`` does.  Ties are broken by (distance,
    node id)."""
    dist = {source: 0.0}
    pred: dict[str, str] = {}
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, ()):
            nd = d + float(w)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def dijkstra(inst: Instance, source: str) -> tuple[dict[str, float], dict[str, str]]:
    """Distances and predecessors from source; ties broken by (distance, node id)."""
    return _shortest_paths(inst.adjacency(), source)


class PathTable:
    """The per-solve cache of one instance.

    It keeps, each computed at most once:

    - the shortest paths from each source under the instance's lengths;
    - ``rent_or_buy``'s routed tree per marked set, on which alone it depends;
    - each routed tree's atomic level costs.

    A solve builds one table and drops it when it returns.  The maps and
    trees it hands out are shared between callers and must not be mutated.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._paths: dict[str, tuple[dict[str, float], dict[str, str]]] = {}
        self._rob: dict[frozenset, RoutedTree] = {}
        self._level_costs: dict[tuple[tuple[Edge, ...], int], tuple[float, ...]] = {}

    def get(self, source: str) -> tuple[dict[str, float], dict[str, str]]:
        hit = self._paths.get(source)
        if hit is None:
            hit = self._paths[source] = dijkstra(self.inst, source)
        return hit

    def routed_tree(self, used) -> RoutedTree:
        """The tree the staged construction returns for the edge union
        ``used``: the shortest paths inside it, under the lengths, from the
        root to every demand, with the demands routed to the root."""
        inst = self.inst
        edges = _prune_to_tree(used, sorted(inst.demands), inst.lengths, inst.root)
        return route_demands(inst, edges)

    def level_costs(self, tree: RoutedTree, levels: int) -> tuple[float, ...]:
        """``aggregation.level_costs`` of the tree at levels 0..levels-1 under
        the lengths."""
        key = (tree.edges, levels)
        hit = self._level_costs.get(key)
        if hit is None:
            hit = self._level_costs[key] = level_costs(tree, range(levels), self.inst.lengths)
        return hit


def _walk_path(pred: dict[str, str], source: str, target: str) -> list[str]:
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def steiner_tree(inst: Instance, terminals, *, table: PathTable | None = None) -> tuple[Edge, ...]:
    """Metric-closure MST heuristic: the sorted edges of a tree spanning the
    terminals, whose length is within 2x of the optimal Steiner tree's."""
    terms = sorted(set(terminals))
    if not terms:
        raise ValueError("terminals must be nonempty")
    if table is None:
        table = PathTable(inst)
    dists: dict[str, dict[str, float]] = {}
    preds: dict[str, dict[str, str]] = {}
    for t in terms:
        dists[t], preds[t] = table.get(t)
    closure = sorted(
        (dists[a][b], a, b) for i, a in enumerate(terms) for b in terms[i + 1 :]
    )
    parent = {t: t for t in terms}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: set[Edge] = set()
    for _, a, b in closure:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        path = _walk_path(preds[a], a, b)
        edges.update(canonical_edge(u, v) for u, v in zip(path, path[1:]))
    return tuple(sorted(_prune_to_tree(edges, terms, inst.lengths, min(terms))))


def _prune_to_tree(edges: set[Edge], terminals, lengths, start: str) -> set[Edge]:
    """Extract a cycle-free subset spanning the terminals from a path union.

    Keeps the union of the shortest paths from start to every terminal inside
    the union, so the cost is no larger than the union's.  A union that is
    already a tree holding every terminal, whose every leaf is a terminal or
    start, is that set: each of its edges lies on the one path from start to
    some terminal.  It is returned as it is, without the Dijkstra.
    """
    if _is_terminal_tree(edges, terminals, start):
        return edges
    adj: dict[str, list[tuple[str, float]]] = {}
    for (u, v) in sorted(edges):
        w = lengths[(u, v)]
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    for v in adj:
        adj[v].sort()
    _, pred = _shortest_paths(adj, start)
    keep: set[Edge] = set()
    for t in sorted(terminals):
        node = t
        while node != start:
            e = canonical_edge(node, pred[node])
            if e in keep:
                break
            keep.add(e)
            node = pred[node]
    return keep


def _is_terminal_tree(edges: set[Edge], terminals, start: str) -> bool:
    """True when the edges form one tree through start that holds every
    terminal and whose leaves are all terminals or start."""
    adj: dict[str, list[str]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if start not in adj or len(edges) != len(adj) - 1:
        return False
    ends = set(terminals)
    ends.add(start)
    if not ends.issubset(adj):
        return False
    if any(len(nbrs) == 1 and v not in ends for v, nbrs in adj.items()):
        return False
    # n - 1 edges on n nodes are a tree exactly when start reaches them all.
    seen = {start}
    stack = [start]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def lbfl(
    inst: Instance, lower_bound, *, table: PathTable | None = None
) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    """Load-balanced facility location via ball-growing greedy, over the
    instance's demands.

    Opens facilities at demand nodes, each serving >= lower_bound demand;
    leftovers join their nearest open facility.  When total demand is below
    the bound, everything is routed to the root, which is then the only
    facility.  Returns the assignment of each client to its facility, and the
    shortest-path predecessor map of each open facility, keyed by facility.
    """
    table = PathTable(inst) if table is None else table
    L = lower_bound
    demands = inst.demands
    clients = sorted(demands)
    if sum(demands.values()) < L:
        return {c: inst.root for c in clients}, {inst.root: table.get(inst.root)[1]}
    sp = {c: table.get(c) for c in clients}
    remaining = set(clients)
    opened: list[str] = []
    assignment: dict[str, str] = {}
    while remaining and sum(demands[c] for c in remaining) >= L:
        best = None
        for u in sorted(remaining):
            ball = sorted(remaining, key=lambda v: (sp[u][0][v], v))
            got, members, conn = 0, [], 0.0
            for v in ball:
                members.append(v)
                got += demands[v]
                conn += demands[v] * sp[u][0][v]
                if got >= L:
                    break
            cand = (conn, u, tuple(members))
            if best is None or cand < best:
                best = cand
        _, center, members = best
        opened.append(center)
        for v in members:
            assignment[v] = center
            remaining.discard(v)
    for v in sorted(remaining):
        assignment[v] = min(opened, key=lambda f: (sp[v][0][f], f))
    return assignment, {f: table.get(f)[1] for f in sorted(opened)}


def rent_or_buy(inst: Instance, M, seed: int, table: PathTable | None = None) -> RoutedTree:
    """Sample-and-augment for the two-pipe cost min(x, M) per unit length.

    Marks each demand independently with probability min(1, d_v/M), buys a
    Steiner tree on the marked set plus the root, and rents shortest paths
    from the remaining demands into the bought structure.  Returns the routed
    tree.  Marks are drawn only where one is uncertain: when every client's
    probability is 1, all are marked and no generator is made.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    table = PathTable(inst) if table is None else table
    clients = sorted(inst.demands)
    marks = [min(1.0, inst.demands[c] / float(M)) for c in clients]
    if all(p == 1.0 for p in marks):
        # Every draw r in [0, 1) is below 1.0: all clients are marked.
        key = frozenset(clients)
    else:
        draws = np.random.default_rng([int(seed), 0x726F62]).random(len(clients))
        key = frozenset(c for c, r, p in zip(clients, draws, marks) if r < p)
    hit = table._rob.get(key)
    if hit is None:
        hit = table._rob[key] = _augmented_tree(inst, key, table)
    return hit


def _augmented_tree(inst: Instance, marked: frozenset, table: PathTable) -> RoutedTree:
    """``rent_or_buy``'s tree for the marked clients, built afresh.

    The union is routed as it is, unpruned: the bought part is a pruned
    Steiner tree, whose leaves are marked clients or the root, and each rented
    path adds a chain of new nodes that ends at the first node already in the
    structure, so the union stays a tree whose every leaf is a terminal.
    """
    clients = sorted(inst.demands)
    edges: set[Edge] = set(steiner_tree(inst, marked | {inst.root}, table=table))
    nodes = {inst.root}
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    for c in clients:
        if c in nodes:
            continue
        dist, pred = table.get(c)
        target = min(nodes, key=lambda v: (dist.get(v, math.inf), v))
        path = _walk_path(pred, c, target)
        for u, v in zip(path, path[1:]):
            edges.add(canonical_edge(u, v))
            nodes.add(u)
            if v in nodes:
                break  # reached the bought structure; renting stops here
            nodes.add(v)
    return route_demands(inst, edges)


def rob_lower_bounds(
    inst: Instance, seed: int, table: PathTable | None = None
) -> list[tuple[int, float, RoutedTree]]:
    """Per level i, the atomic cost of a rent-or-buy tree with M = 2^i.

    The values upper-bound each level's optimum within the rent-or-buy
    method's expected constant and feed the dual constraint of the solver.
    Each distinct tree is built and costed at every level once.
    """
    levels = demand_profile(inst).levels
    table = PathTable(inst) if table is None else table
    out = []
    for i in range(levels):
        tree = rent_or_buy(inst, 1 << i, seed=_mix_seed(seed, i), table=table)
        out.append((i, table.level_costs(tree, levels)[i], tree))
    return out


def _mix_seed(seed: int, tag: int) -> int:
    return (int(seed) * 0x9E3779B97F4A7C15 + tag * 0xBF58476D1CE4E5B9 + 1) % (1 << 63)
