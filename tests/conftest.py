import itertools
from fractions import Fraction

import numpy as np
import pytest

from bulktree.instance import Instance, canonical_edge


def make_instance(edge_lengths: dict, demands: dict, root: str) -> Instance:
    lengths = {canonical_edge(u, v): float(w) for (u, v), w in edge_lengths.items()}
    nodes = {root} | set(demands)
    for u, v in lengths:
        nodes.add(u)
        nodes.add(v)
    return Instance(nodes=tuple(sorted(nodes)), lengths=lengths, demands=dict(demands), root=root)


def parent_map(tree, root: str) -> dict:
    """Each node's parent toward the root, by the BFS of
    ``aggregation.route_tree``: the ascending edges give every node its
    neighbours in sorted order, and the map lists nodes as the walk reaches
    them."""
    adj: dict = {}
    for u, v in tree.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent = {}
    order = [root]
    for u in order:
        for v in adj.get(u, ()):
            if v != root and v not in parent:
                parent[v] = u
                order.append(v)
    return parent


def tree_nodes(tree, root: str) -> set:
    """The root and every end of the tree's edges."""
    return {root} | {v for e in tree.edges for v in e}


def two_cluster() -> Instance:
    """Two clusters hanging off the root; demand 2 at each of five nodes."""
    return make_instance(
        {("r", "a"): 4.0, ("a", "b"): 1.0, ("r", "c"): 4.0, ("c", "d"): 1.0, ("d", "e"): 1.0},
        {v: 2 for v in "abcde"},
        "r",
    )


@pytest.fixture
def path3() -> Instance:
    """r -- a -- b with unit lengths, unit demands at a and b."""
    return make_instance({("r", "a"): 1.0, ("a", "b"): 1.0}, {"a": 1, "b": 1}, "r")


@pytest.fixture
def star4() -> Instance:
    """Root at center, three unit leaf demands."""
    return make_instance(
        {("r", "a"): 1.0, ("r", "b"): 1.0, ("r", "c"): 1.0}, {"a": 1, "b": 1, "c": 1}, "r"
    )


@pytest.fixture
def two_cluster6() -> Instance:
    return two_cluster()


def random_alpha(rng: np.random.Generator, max_levels: int = 7):
    """Random rational weight vector with D <= 2^(max_levels-1)."""
    from bulktree.pipes import AlphaVector

    log_d = int(rng.integers(0, max_levels))
    D = 1 << log_d
    count = int(rng.integers(1, log_d + 2))
    levels = sorted(rng.choice(log_d + 1, size=min(count, log_d + 1), replace=False).tolist())
    alpha = {}
    for lvl in levels:
        num = int(rng.integers(1, 64))
        den = int(rng.integers(1, 16))
        alpha[int(lvl)] = Fraction(num, den)
    return AlphaVector(alpha=alpha, D=D)


def small_instance_corpus(count: int = 20, max_nodes: int = 7, seed: int = 1234) -> list:
    """Random connected instances with integer lengths for exact-arithmetic checks."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(4, max_nodes + 1))
        names = [str(i) for i in range(n)]
        edges = {}
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges[(names[j], names[i])] = int(rng.integers(1, 9))
        extra = int(rng.integers(0, n))
        pairs = list(itertools.combinations(range(n), 2))
        for idx in rng.choice(len(pairs), size=min(extra, len(pairs)), replace=False):
            i, j = pairs[int(idx)]
            key = (names[i], names[j])
            if canonical_edge(*key) not in {canonical_edge(*k) for k in edges}:
                edges[key] = int(rng.integers(1, 9))
        k = int(rng.integers(2, min(4, n - 1) + 1))
        picks = rng.choice(n - 1, size=k, replace=False)
        demands = {names[int(p) + 1]: int(rng.integers(1, 4)) for p in picks}
        out.append(make_instance(edges, demands, names[0]))
    return out
