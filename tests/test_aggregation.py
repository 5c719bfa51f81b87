import math
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulktree.aggregation import (
    RoutingError,
    TreeDistribution,
    add_up,
    atomic_cost,
    distribution_cost,
    function_cost,
    level_costs,
    route_demands,
)
from bulktree.instance import canonical_edge, demand_profile
from bulktree.pipes import AlphaVector, alpha_to_pipes, make_schedule

from conftest import make_instance, parent_map, random_alpha, two_cluster


def test_route_path(path3):
    tree = route_demands(path3, [("r", "a"), ("a", "b")])
    assert tree.flow == {("a", "r"): 2, ("a", "b"): 1}


def test_route_sorts_and_canonicalizes_edges(two_cluster6):
    # The edges come reversed and with flipped ends; the tree holds them
    # canonical and ascending, which sorted_edges() relies on.
    given = [(v, u) for u, v in reversed(two_cluster6.edges)]
    tree = route_demands(two_cluster6, given)
    assert tree.edges == tuple(sorted(canonical_edge(u, v) for u, v in given))
    assert tree.sorted_edges() == tree.edges


def test_route_single_demand():
    inst = make_instance({("r", "v"): 1.0}, {"v": 3}, "r")
    tree = route_demands(inst, [("r", "v")])
    assert tree.flow == {("r", "v"): 3}


def test_route_star(star4):
    tree = route_demands(star4, star4.edges)
    assert all(f == 1 for f in tree.flow.values())


def test_route_rejects_cycle():
    inst = make_instance(
        {("r", "a"): 1.0, ("a", "b"): 1.0, ("b", "r"): 1.0}, {"a": 1}, "r"
    )
    with pytest.raises(RoutingError):
        route_demands(inst, inst.edges)


def within_seconds(seconds, fn, *args):
    """fn(*args); the test fails if the call still runs after the wall time."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except TimeoutError:
        pass  # fail below, outside the handler, with no traceback into fn
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pytest.fail(f"still running after {seconds} s")


def test_route_rejects_cycle_through_root_beside_detached_edge():
    # Four edges on five nodes, so the edge count passes: the triangle r-a-b
    # holds the root and c-d hangs apart.  The walk must end with c and d
    # unreached; one that skips only the node it came from circles the
    # triangle forever, so the call runs under a time bound.
    inst = make_instance(
        {("r", "a"): 1.0, ("a", "b"): 1.0, ("b", "r"): 1.0, ("c", "d"): 1.0, ("a", "c"): 1.0},
        {"b": 1, "d": 1}, "r",
    )
    edges = [("r", "a"), ("a", "b"), ("b", "r"), ("c", "d")]
    with pytest.raises(RoutingError) as err:
        within_seconds(1.0, route_demands, inst, edges)
    assert str(err.value) == "edge set contains a cycle or is disconnected"


def test_route_rejects_disconnected_demand(path3):
    with pytest.raises(RoutingError, match="disconnected"):
        route_demands(path3, [("r", "a")])


def test_root_flow_sums(path3, star4, two_cluster6):
    for inst in (path3, star4, two_cluster6):
        tree = route_demands(inst, _spanning_edges(inst))
        at_root = sum(
            tree.flow[canonical_edge(c, inst.root)]
            for c, p in parent_map(tree, inst.root).items()
            if p == inst.root
        )
        assert at_root == inst.total_demand()


def _spanning_edges(inst):
    # deterministic spanning tree via BFS
    seen = {inst.root}
    edges = []
    frontier = [inst.root]
    adj = inst.adjacency()
    for u in frontier:
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                edges.append((u, v))
                frontier.append(v)
    return edges


def test_atomic_path_values(path3):
    tree = route_demands(path3, [("r", "a"), ("a", "b")])
    assert atomic_cost(tree, 0, path3.lengths) == 2.0
    assert atomic_cost(tree, 1, path3.lengths) == 3.0


def test_atomic_top_level_is_identity(two_cluster6):
    tree = route_demands(two_cluster6, _spanning_edges(two_cluster6))
    top = demand_profile(two_cluster6).levels - 1
    direct = sum(two_cluster6.lengths[e] * f for e, f in tree.flow.items())
    assert atomic_cost(tree, top, two_cluster6.lengths) == pytest.approx(direct)


def test_atomic_level_out_of_range(path3):
    tree = route_demands(path3, [("r", "a"), ("a", "b")])
    with pytest.raises(ValueError, match="level out of range"):
        atomic_cost(tree, -1, path3.lengths)


def test_costs_add_left_to_right():
    # Flow order is (a, r), (a, b), (b, c).  Left to right, each 1e-16 is below
    # half an ulp of 1.0 and is lost; a compensated sum, as the builtin sum
    # makes since Python 3.12, gives 1.0000000000000002.
    inst = make_instance({("r", "a"): 1.0, ("a", "b"): 1e-16, ("b", "c"): 1e-16}, {"c": 1}, "r")
    tree = route_demands(inst, inst.edges)
    assert list(tree.flow) == [("a", "r"), ("a", "b"), ("b", "c")]
    dist = TreeDistribution(support=((tree, 1.0),), theta=1.0)
    assert atomic_cost(tree, 0, inst.lengths) == 1.0
    assert level_costs(tree, range(3), inst.lengths) == (1.0, 1.0, 1.0)
    assert distribution_cost(dist, 0, inst.lengths) == 1.0
    assert add_up([1.0, 1e100, 1.0, -1e100]) == 0.0


def test_level_costs_match_atomic_cost(two_cluster6):
    tree = route_demands(two_cluster6, _spanning_edges(two_cluster6))
    levels = range(demand_profile(two_cluster6).levels)
    assert level_costs(tree, levels, two_cluster6.lengths) == tuple(
        atomic_cost(tree, i, two_cluster6.lengths) for i in levels
    )
    assert level_costs(tree, (), two_cluster6.lengths) == ()
    with pytest.raises(ValueError, match="level out of range"):
        level_costs(tree, (0, 63), two_cluster6.lengths)


def test_function_cost_single_level(path3):
    tree = route_demands(path3, [("r", "a"), ("a", "b")])
    f = AlphaVector(alpha={0: Fraction(1)}, D=2)
    assert function_cost(tree, f, path3.lengths) == 2.0


def test_function_cost_linearity(path3):
    tree = route_demands(path3, [("r", "a"), ("a", "b")])
    f = AlphaVector(alpha={0: Fraction(1), 1: Fraction(1)}, D=2)
    assert function_cost(tree, f, path3.lengths) == 5.0


def test_function_cost_pipe_alpha_agreement(path3):
    tree = route_demands(path3, [("r", "a"), ("a", "b")])
    alpha = AlphaVector(alpha={0: Fraction(1), 1: Fraction(1)}, D=2)
    pipes = make_schedule([(0, 2), (1, 1)])  # envelope of the same function on [0, 2]
    assert function_cost(tree, pipes, path3.lengths) == function_cost(tree, alpha, path3.lengths) == 5.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monotone_doubling_between_levels(data):
    # A_i <= A_{i+1} <= 2 A_i pointwise carries over to whole-tree costs.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = int(rng.integers(3, 7))
    names = [str(i) for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(names[j], names[i])] = float(rng.integers(1, 5))
    demands = {names[i]: int(rng.integers(1, 5)) for i in range(1, n)}
    inst = make_instance(edges, demands, names[0])
    tree = route_demands(inst, edges.keys())
    levels = demand_profile(inst).levels
    for i in range(levels - 1):
        lo = atomic_cost(tree, i, inst.lengths)
        hi = atomic_cost(tree, i + 1, inst.lengths)
        assert lo <= hi + 1e-9
        assert hi <= 2 * lo + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_alpha_pipe_cost_agreement_random(seed):
    inst = two_cluster()
    rng = np.random.default_rng(seed)
    alpha = random_alpha(rng, max_levels=demand_profile(inst).levels)
    tree = route_demands(inst, _spanning_edges(inst))
    via_alpha = function_cost(tree, alpha, inst.lengths)
    via_pipes = function_cost(tree, alpha_to_pipes(alpha), inst.lengths)
    assert via_pipes == pytest.approx(via_alpha, rel=1e-9)


def test_distribution_single_tree(path3):
    tree = route_demands(path3, [("r", "a"), ("a", "b")])
    dist = TreeDistribution(support=((tree, 1.0),), theta=1.0)
    assert distribution_cost(dist, 0, path3.lengths) == atomic_cost(tree, 0, path3.lengths)


def test_distribution_two_trees_mixes():
    inst = make_instance(
        {("r", "a"): 1.0, ("r", "b"): 1.0, ("a", "b"): 1.0}, {"a": 1, "b": 1}, "r"
    )
    t1 = route_demands(inst, [("r", "a"), ("r", "b")])
    t2 = route_demands(inst, [("r", "a"), ("a", "b")])
    dist = TreeDistribution(support=((t1, 0.5), (t2, 0.5)), theta=1.0)
    expected = 0.5 * atomic_cost(t1, 0, inst.lengths) + 0.5 * atomic_cost(t2, 0, inst.lengths)
    assert distribution_cost(dist, 0, inst.lengths) == pytest.approx(expected)


def test_distribution_empty_support_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        TreeDistribution(support=(), theta=1.0)


def test_distribution_weights_renormalized(path3):
    tree = route_demands(path3, [("r", "a"), ("a", "b")])
    dist = TreeDistribution(support=((tree, 0.5 + 1e-8), (tree, 0.5)), theta=1.0)
    assert math.isclose(sum(w for _, w in dist.support), 1.0, abs_tol=1e-15)


def test_distribution_bad_weights_rejected(path3):
    tree = route_demands(path3, [("r", "a"), ("a", "b")])
    with pytest.raises(ValueError, match="sum to 1"):
        TreeDistribution(support=((tree, 0.4),), theta=1.0)
