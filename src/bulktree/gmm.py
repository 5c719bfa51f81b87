"""Randomized stage-wise tree construction: the separation-oracle subroutine.

Given a gamma-regular weight vector, converts it to pipes and lays pipe type
k at stage k:

  1. Steiner step: build a Steiner tree over the live demand nodes and the
     root, route toward the root, and repeatedly cut the farthest-upstream
     edge carrying more than the pipe capacity sigma_k/delta_k, leaving a
     forest whose non-root components each gathered at least that much flow.
     Pipe 0 has sigma_0 = 0 and so capacity 0: the cut leaves every demand
     node alone in its component, nothing moves, and no tree is built.
  2. Consolidation: each non-root component sends all its live demand to one
     of its demand nodes, chosen with probability proportional to live
     demand.  Demand reaching the root component is delivered and parks at
     the root.
  3. Facility step: a load-balanced facility location on the ORIGINAL
     demands with lower bound at the significance point b_k and per-unit
     cost delta_k; when total demand is below b_k everything routes to the
     root and the remaining stages are skipped.
  4. Consolidation: within each facility cluster, the live demand moves to
     one original demand node chosen with probability proportional to
     original demand.

The final stage's pipe is flat, so its Steiner step has unbounded capacity
and delivers everything to the root.  Consolidations are unbiased: the
expected live demand at any original node equals its original demand after
every consolidation step.

Determinism: one named random stream per (stage, step) derived from the
master seed, ``np.random.default_rng([seed, stage, step])``, components
processed in cut-creation order (root first), "farthest upstream" resolved
by post-order depth-first traversal with lexicographic children.  Given the
live demand at the start of a step, everything but that step's drawn
targets is therefore fixed, so a ``StagePlan`` keeps a tree of its runs:
each node holds its step's groups, the targets drawn at a step pick the
next node, and a leaf holds the tree and costs a run ended with.  The draws
themselves are not cached: a run takes one uniform per drawing group, in
group order, from its step's stream and inverts it against the group's
cached cumulative table, which picks the index ``Generator.choice`` would,
so memoized runs return what fresh runs would.  The retries of one oracle
call share one seed's streams: each retry reads on where the one before it
stopped, so the first is the single run.  Each node counts the children
that could still lead to a new leaf; once the root's count is 0 the plan is
exhausted, and no later retry can end at a tree an earlier one did not.
Per-stage cost accounting records the fixed cost of Steiner-step pipes and
the incremental cost of facility-step pipes; the returned tree is a
deterministic shortest-path extraction inside the union of all edges that
carried live demand, re-flowed from scratch, built once per leaf.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .aggregation import RoutedTree, add_up
from .instance import Edge, Instance, canonical_edge
from .pipes import AlphaVector, is_gamma_regular, thresholds
from .regularize import regularize
from .subroutines import PathTable, lbfl, steiner_tree

__all__ = ["StageCosts", "GmmTrace", "StagePlan", "gmm_tree", "oracle_tree"]


@dataclass(frozen=True)
class StageCosts:
    stage: int
    steiner_cost: float   # fixed cost of pipes laid in the Steiner step
    facility_cost: float  # incremental cost of pipes laid in the facility step


@dataclass
class GmmTrace:
    """Optional observation hook: live-demand snapshots after each consolidation.

    delivered is the demand already absorbed at the root when the snapshot was
    taken; consolidation unbiasedness (expected live demand at a node equals
    its original demand) is a statement about events with nothing absorbed yet.
    """

    consolidations: list = field(default_factory=list)  # (stage, step, snapshot, delivered)
    fallback_stage: int | None = None

    def record(self, stage: int, step: int, demand: dict, delivered: int) -> None:
        self.consolidations.append((stage, step, dict(sorted(demand.items())), delivered))


def _cut_forest(tree_edges, root: str, cur: dict[str, int], capacity):
    """Cut every farthest-upstream over-capacity edge in one rooted walk.

    The pre-order from the root takes the largest child first, so its reverse
    is the post-order with sorted children.  In that order a node whose uncut
    subtree demand exceeds capacity is cut from its parent and carries
    nothing further up; capacity None (the flat pipe) cuts nothing.  Returns
    (component root, parent map) pairs: the true root's first, then the cut
    components in cut order.  ``StagePlan`` builds its groups from the
    result once per run-tree node; nothing here is cached.
    """
    adj: dict[str, list[str]] = {}
    for u, v in tree_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent: dict[str, str] = {}
    order: list[str] = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for v in sorted(adj.get(u, ())):
            if v != parent.get(u):
                parent[v] = u
                stack.append(v)
    cuts: list[str] = []
    if capacity is not None:
        carried: dict[str, int] = {}
        for v in reversed(order[1:]):  # post-order without the root
            sub = cur.get(v, 0) + carried.get(v, 0)
            if sub > capacity:
                cuts.append(v)
            else:
                carried[parent[v]] = carried.get(parent[v], 0) + sub
    comps: dict[str, dict[str, str]] = {c: {} for c in [root, *cuts]}
    comp_of = {root: root}
    for v in order[1:]:  # parents come before their children
        if v in comps:
            comp_of[v] = v
        else:
            c = comp_of[v] = comp_of[parent[v]]
            comps[c][v] = parent[v]
    return list(comps.items())


def _move_demand(cur, holders, target, parent, flow):
    """Move each holder's demand to target along the tree of the parent map,
    adding it to flow on the path h -> junction -> target."""
    chain = [target]
    while chain[-1] in parent:
        chain.append(parent[chain[-1]])
    depth = {v: i for i, v in enumerate(chain)}
    for h in holders:
        if h == target:
            continue
        amount = cur[h]
        path = [h]
        while path[-1] not in depth:
            path.append(parent[path[-1]])
        path.extend(reversed(chain[:depth[path[-1]]]))
        for a, b in zip(path, path[1:]):
            e = canonical_edge(a, b)
            flow[e] = flow.get(e, 0) + amount
        cur[target] = cur.get(target, 0) + amount
        cur[h] = 0


def _state(cur: dict[str, int]) -> tuple[tuple[str, int], ...]:
    """The live demand as a run-tree state: its positive (node, demand) pairs, sorted."""
    return tuple(sorted((v, d) for v, d in cur.items() if d > 0))


def _cdf(weights) -> list[float]:
    """The cumulative table ``Generator.choice`` builds from the weights'
    probabilities: a uniform u draws index ``bisect_right(table, u)``, the
    index choice returns for the same u."""
    p = np.array(weights, dtype=float)
    if not (p > 0).all():
        raise ValueError(f"draw weights must be positive: {weights}")
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class _Group(NamedTuple):
    """One component or cluster of a step: its demand holders move to one target."""

    holders: tuple[str, ...]
    choices: tuple[str, ...]  # the candidate targets; the target itself when fixed
    cdf: list[float] | None   # cumulative draw table over choices; None: no draw
    parent: dict[str, str]    # the tree the demand moves in


STEINER, FACILITY = 2, 4  # step numbers, part of each stream's name


def _streams(seed: int):
    """The stream source of one seed: ``(k, step)`` gives stage k's step
    its stream ``default_rng([seed, k, step])``, made at the first ask and
    handed out again after, so whoever shares the source reads on in it."""
    made: dict[tuple[int, int], np.random.Generator] = {}

    def stream(k: int, step: int) -> np.random.Generator:
        rng = made.get((k, step))
        if rng is None:
            rng = made[(k, step)] = np.random.default_rng([int(seed), k, step])
        return rng

    return stream


@dataclass(eq=False, slots=True)
class _Node:
    """One point of a plan's run tree.

    An inner node is about to take stage k's step from state; a leaf ends
    the runs that reach it and holds their tree.  used is the union of the
    edges that carried flow on the way here, costs the stages finished, and
    steiner_cost stage k's Steiner cost while its facility step is pending.
    children maps the targets a run draws to the node it goes on to.  open
    counts the children not yet closed, those not yet built included: it
    starts at the number of target tuples the step can draw, a leaf has
    none, and a node closes when its count reaches 0.
    """

    state: tuple
    used: frozenset
    costs: tuple
    k: int = 0
    step: int = STEINER
    steiner_cost: float = 0.0
    groups: list | None = None
    open: int = 0
    tree: RoutedTree | None = None
    children: dict = field(default_factory=dict)


def _close_leaf(path: list[_Node]) -> None:
    """A new leaf hangs below path[-1], the last node of the walk from the
    root that built it: each node on the path, from the leaf up, has one
    child fewer open, and closes with it when it has none left.  Nodes keep
    no link up, so the tree holds no reference cycle and goes with its plan,
    not at the next cyclic collection; the walk's path stands in for one."""
    for node in reversed(path):
        node.open -= 1
        if node.open:
            return


class StagePlan:
    """The staged construction for one gamma-regular weight vector.

    A run is a walk through states, a state being the live demand as a sorted
    tuple of positive (node, demand) pairs.  Given the state at the start of
    a step, everything but the drawn consolidation targets is fixed, and the
    retries of one oracle call keep walking the same few paths.  So the plan
    keeps one structure for its lifetime, its run tree: a node per point a
    run has reached, the targets drawn picking each child, and a leaf per
    distinct way a run has ended, holding the routed tree and the per-stage
    costs.  An inner node holds its step's groups: for the Steiner step,
    stage k's cut Steiner forest, each component's holders and its fixed
    target or cumulative draw table; for the facility step, the facility
    clusters that hold demand (or the fallback's route to the root).  A
    child is built on the first walk that draws its targets, by moving the
    demand along each group's tree; later walks through it only draw.

    ``run(seed)`` takes the same uniforms from the same stream per (seed,
    stage, step) as a construction without the memo, one ``random()`` per
    drawing group in group order, one-member facility clusters included, and
    inverts each against the group's cached cumulative table; that picks the
    index ``Generator.choice`` would and leaves the stream where choice
    would, so it returns the same tree, costs and trace.  A stream is created
    only when its step has a draw to make.  ``runs(seed, count)`` gives its
    runs one set of streams: a (stage, step) stream is created the first
    time any of them draws there, and each run reads on where the one before
    it stopped.  The conservation and parked-demand checks and the trace
    snapshots still run on every call, read from the tree's states.  The
    returned tree is shared with every other run that ends at the same
    leaf.  Once every child of the root has closed, ``exhausted``
    is true: no later run can end at a leaf that no earlier run reached.
    The separation oracle builds one plan per call, so the memo lives only
    that long.
    """

    def __init__(self, inst: Instance, alpha: AlphaVector, table: PathTable | None = None):
        check = is_gamma_regular(alpha)
        if not check:
            raise ValueError(f"weight vector is not gamma-regular: {check}")
        self.inst = inst
        self.pipes = alpha.schedule()
        self.th = thresholds(self.pipes)
        self.table = PathTable(inst) if table is None else table
        self._total = inst.total_demand()
        # Stage k falls back to routing everything to the root when the total
        # demand is below its significance point b_k.
        self._fallback = [self._total < b for b in self.th.significance]
        self._root = self._node(0, STEINER, _state(inst.demands), frozenset(), ())

    @property
    def exhausted(self) -> bool:
        """Whether every run from here on ends at a leaf an earlier run reached."""
        return self._root.open == 0

    def _steiner_forest(self, k: int, cur: dict[str, int]):
        """Stage k's Steiner tree over the live demand and the root, cut at
        the pipe capacity; None when no demand is live outside the root."""
        inst = self.inst
        active = sorted(v for v, d in cur.items() if d > 0 and v != inst.root)
        if not active:
            return None
        if self.th.capacities[k] == 0:
            return []  # sub > 0 cuts off every demand node alone: nothing would move
        edges = steiner_tree(inst, set(active) | {inst.root}, table=self.table)
        return _cut_forest(edges, inst.root, cur, self.th.capacities[k])

    def _facility_clusters(self, k: int) -> list:
        """Stage k's clusters as (members, cumulative draw table, path map)."""
        inst = self.inst
        assignment, paths = lbfl(inst, self.th.significance[k], table=self.table)
        clusters: dict[str, list[str]] = {}
        for v, f in sorted(assignment.items()):
            clusters.setdefault(f, []).append(v)
        out = []
        for f in sorted(clusters):
            group = tuple(sorted(clusters[f]))
            cdf = _cdf([inst.demands[v] for v in group])
            # paths[f] is the facility's shortest-path predecessor map, a
            # tree rooted at f, so consolidation follows the forest's own edges.
            out.append((group, cdf, paths[f]))
        return out

    def _make_groups(self, k: int, step: int, cur: dict[str, int]) -> list[_Group] | None:
        """The groups of one step from the live demand cur; None when a
        Steiner step finds no demand live outside the root."""
        root = self.inst.root
        groups = []
        if step == STEINER:
            comps = self._steiner_forest(k, cur)
            if comps is None:
                return None
            for comp_root, parent in comps:
                members = {comp_root} | set(parent)
                holders = tuple(sorted(v for v in members if cur.get(v, 0) > 0 and v != root))
                if not holders:
                    continue
                choices, cdf = holders, None
                if comp_root == root:
                    choices = (root,)
                elif len(holders) > 1:
                    cdf = _cdf([cur[v] for v in holders])
                groups.append(_Group(holders, choices, cdf, parent))
        elif self._fallback[k]:
            holders = tuple(sorted(v for v, d in cur.items() if d > 0 and v != root))
            if holders:
                _, pred = self.table.get(root)
                groups.append(_Group(holders, (root,), None, pred))
        else:
            for group, cdf, pred in self._facility_clusters(k):
                holders = tuple(v for v in group if cur.get(v, 0) > 0)
                if holders:
                    groups.append(_Group(holders, group, cdf, pred))
        return groups

    def _node(self, k: int, step: int, state: tuple, used: frozenset, costs: tuple,
              steiner_cost: float = 0.0) -> _Node:
        """The node about to take stage k's step from state: a leaf when a
        Steiner step finds no demand live outside the root."""
        groups = self._make_groups(k, step, dict(state))
        if groups is None:
            return self._leaf(state, used, costs)
        return _Node(state, used, costs, k, step, steiner_cost, groups,
                     open=math.prod(len(g.choices) for g in groups))

    def _leaf(self, state: tuple, used: frozenset, costs: tuple) -> _Node:
        return _Node(state, used, costs, tree=self.table.routed_tree(used))

    def _child(self, node: _Node, targets: tuple) -> _Node:
        """Take node's step to the targets drawn: move each group's demand
        along its tree, cost the pipes laid, and build the next node."""
        k = node.k
        cur = dict(node.state)
        flow: dict[Edge, int] = {}
        for g, target in zip(node.groups, targets):
            _move_demand(cur, g.holders, target, g.parent, flow)
        state, used = _state(cur), node.used.union(flow)
        pipe, lengths = self.pipes.pipes[k], self.inst.lengths
        if node.step == STEINER:  # fixed cost of the pipes laid
            cost = float(pipe.fixed) * add_up(lengths[e] for e in sorted(flow))
            if k == len(self.pipes.pipes) - 1:  # the flat pipe delivers everything
                stage = StageCosts(stage=k, steiner_cost=cost, facility_cost=0.0)
                return self._leaf(state, used, node.costs + (stage,))
            return self._node(k, FACILITY, state, used, node.costs, cost)
        # Facility step on original demands with lower bound b_k: incremental
        # cost of the flow.
        cost = float(pipe.rate) * add_up(lengths[e] * f for e, f in flow.items())
        costs = node.costs + (StageCosts(stage=k, steiner_cost=node.steiner_cost, facility_cost=cost),)
        if self._fallback[k]:
            return self._leaf(state, used, costs)
        return self._node(k + 1, STEINER, state, used, costs)

    def _record(self, trace: GmmTrace, k: int, step: int, state: tuple) -> None:
        inst, cur = self.inst, dict(state)
        trace.record(k, step, {v: cur.get(v, 0) for v in inst.demands},
                     cur.get(inst.root, 0) - inst.demands.get(inst.root, 0))

    def run(self, seed: int, trace: GmmTrace | None = None) -> tuple[RoutedTree, list[StageCosts]]:
        """One seeded run: the tree and the per-stage costs gmm_tree returns."""
        return self._run(_streams(seed), trace)

    def runs(self, seed: int, count: int):
        """``count`` runs on one set of streams, yielded one at a time, so the
        caller may stop early.  Each run reads on where the one before it
        stopped, so the first is ``run(seed)``."""
        streams = _streams(seed)
        for _ in range(count):
            yield self._run(streams)

    def _run(self, streams, trace: GmmTrace | None = None) -> tuple[RoutedTree, list[StageCosts]]:
        """Walk the run tree from the root, drawing each step's targets from
        ``streams(k, step)``, asked for only when a group draws."""
        node, path = self._root, []
        while node.tree is None:
            k, step = node.k, node.step
            rng = None
            targets = []
            for g in node.groups:
                if g.cdf is None:
                    targets.append(g.choices[0])
                    continue
                if rng is None:
                    rng = streams(k, step)
                # One-member clusters draw too: their uniform advances the stream.
                targets.append(g.choices[bisect.bisect_right(g.cdf, rng.random())])
            targets = tuple(targets)
            path.append(node)
            child = node.children.get(targets)
            if child is None:
                child = node.children[targets] = self._child(node, targets)
                if child.tree is not None:
                    _close_leaf(path)
            if trace is not None:
                if step == FACILITY and self._fallback[k]:
                    trace.fallback_stage = k
                else:
                    self._record(trace, k, step, child.state)
            node = child
        state = node.state
        if sum(d for _, d in state) != self._total:
            raise RuntimeError("consolidation must conserve demand")
        if any(v != self.inst.root for v, _ in state):
            raise RuntimeError(f"live demand left outside the root: {dict(state)}")
        return node.tree, list(node.costs)


def gmm_tree(
    inst: Instance,
    alpha: AlphaVector,
    seed: int,
    trace: GmmTrace | None = None,
) -> tuple[RoutedTree, list[StageCosts]]:
    """Run the staged construction; requires a gamma-regular weight vector."""
    return StagePlan(inst, alpha).run(seed, trace)


def oracle_tree(inst: Instance, alpha: AlphaVector, seed: int) -> RoutedTree:
    """Regularize an arbitrary weight vector, then run the staged construction.

    The returned tree is meant to be evaluated under the ORIGINAL weights;
    the regularization's bounded distortion carries the cost guarantee over.

    No solve calls this: the separation oracle walks the same construction
    through its own plan.  It stays while ``perfbench/tracer.py`` wraps it by
    name.
    """
    regular, _ = regularize(alpha)
    tree, _ = gmm_tree(inst, regular, seed)
    return tree
