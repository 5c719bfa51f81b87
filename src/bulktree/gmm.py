"""Randomized stage-wise tree construction: the separation-oracle subroutine.

Given a gamma-regular weight vector, converts it to pipes and lays pipe type
k at stage k:

  1. Steiner step: build a Steiner tree over the live demand nodes and the
     root, route toward the root, and repeatedly cut the farthest-upstream
     edge carrying more than the pipe capacity sigma_k/delta_k, leaving a
     forest whose non-root components each gathered at least that much flow.
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
master seed, components processed in cut-creation order (root first),
"farthest upstream" resolved by post-order depth-first traversal with
lexicographic children.
Per-stage cost accounting records the fixed cost of Steiner-step pipes and
the incremental cost of facility-step pipes; the returned tree is a
deterministic shortest-path extraction inside the union of all edges that
carried live demand, re-flowed from scratch.  It depends only on that union,
so the PathTable builds it once per union and hands the same tree out again.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .aggregation import RoutedTree
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


def _components(edges: set, roots: list[str]) -> list[tuple[str, dict[str, str]]]:
    """Parent maps of the forest, one per root, in the given root order."""
    adj: dict[str, list[str]] = {}
    for u, v in sorted(edges):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    out = []
    seen: set[str] = set()
    for root in roots:
        parent: dict[str, str] = {}
        order = [root]
        seen.add(root)
        for u in order:
            for v in sorted(adj.get(u, ())):
                if v not in seen:
                    seen.add(v)
                    parent[v] = u
                    order.append(v)
        out.append((root, parent))
    return out


def _postorder(parent: dict[str, str], root: str) -> list[str]:
    children: dict[str, list[str]] = {}
    for v, p in parent.items():
        children.setdefault(p, []).append(v)
    for p in children:
        children[p].sort()
    out: list[str] = []

    def visit(u: str) -> None:
        for ch in children.get(u, ()):
            visit(ch)
        out.append(u)

    visit(root)
    return out


def _cut_forest(tree_edges, root: str, cur: dict[str, int], capacity):
    """Cut every farthest-upstream over-capacity edge in one post-order pass.

    A node whose uncut subtree demand exceeds capacity is cut from its parent
    and carries nothing further up.  capacity None means unbounded (the flat
    pipe): no cutting.  Returns the component list (root, parent map) with
    the true root's component first, then the cut components in cut order.
    """
    edges = set(tree_edges)
    roots = [root]
    if capacity is not None:
        _, parent = _components(edges, roots)[0]
        carried: dict[str, int] = {}
        for v in _postorder(parent, root)[:-1]:  # the root comes last
            sub = cur.get(v, 0) + carried.get(v, 0)
            if Fraction(sub) > capacity:
                edges.discard(canonical_edge(v, parent[v]))
                roots.append(v)
            else:
                carried[parent[v]] = carried.get(parent[v], 0) + sub
    return _components(edges, roots)


def _path_to_ancestor(parent: dict[str, str], node: str, stop: set[str]) -> list[str]:
    path = [node]
    while path[-1] not in stop:
        path.append(parent[path[-1]])
    return path


def _tree_path(parent: dict[str, str], root: str, u: str, v: str) -> list[str]:
    """Unique path between u and v in the tree given by the parent map."""
    anc_u = {u}
    x = u
    while x != root:
        x = parent[x]
        anc_u.add(x)
    up_v = _path_to_ancestor(parent, v, anc_u)
    junction = up_v[-1]
    up_u = _path_to_ancestor(parent, u, {junction})
    return up_u + list(reversed(up_v[:-1]))


def _move_demand(cur, holders, target, parent, comp_root, edge_flow, used):
    for h in holders:
        if h == target:
            continue
        amount = cur[h]
        path = _tree_path(parent, comp_root, h, target)
        for a, b in zip(path, path[1:]):
            e = canonical_edge(a, b)
            edge_flow[e] = edge_flow.get(e, 0) + amount
            used.add(e)
        cur[target] = cur.get(target, 0) + amount
        cur[h] = 0


class StagePlan:
    """The staged construction for one gamma-regular weight vector.

    Everything that does not depend on the seed is computed once here: the
    pipes and thresholds, the stage-0 Steiner forest (stage 0 always starts
    from the original demands), and each stage's facility clustering on the
    original demands, built when a run first reaches it.  ``run(seed)``
    repeats only the seeded consolidations and the stages after them; the
    tree it returns is shared with every other run of the same table that
    used the same edges.
    """

    def __init__(self, inst: Instance, alpha: AlphaVector, table: PathTable | None = None):
        check = is_gamma_regular(alpha)
        if not check:
            raise ValueError(f"weight vector is not gamma-regular: {check}")
        self.inst = inst
        self.pipes = alpha.schedule()
        self.th = thresholds(self.pipes)
        self.table = PathTable(inst) if table is None else table
        self._clusters: dict[int, list] = {}
        self._stage0 = self._steiner_forest(0, inst.demands)

    def _steiner_forest(self, k: int, cur: dict[str, int]):
        """Stage k's Steiner tree over the live demand and the root, cut at
        the pipe capacity; None when no demand is live outside the root."""
        inst = self.inst
        active = sorted(v for v, d in cur.items() if d > 0 and v != inst.root)
        if not active:
            return None
        weight = inst.lengths if self.pipes.pipes[k].fixed > 0 else self.table.hops
        st = steiner_tree(inst, set(active) | {inst.root}, weight, table=self.table)
        return _cut_forest(st.tree_edges, inst.root, cur, self.th.capacities[k])

    def _facility_clusters(self, k: int) -> list:
        """Stage k's clusters as (facility, members, draw probabilities, path map)."""
        if k not in self._clusters:
            inst = self.inst
            fl = lbfl(inst, inst.demands, self.th.significance[k], inst.lengths, table=self.table)
            clusters: dict[str, list[str]] = {}
            for v, f in sorted(fl.assignment.items()):
                clusters.setdefault(f, []).append(v)
            out = []
            for f in sorted(clusters):
                group = sorted(clusters[f])
                probs = np.array([inst.demands[v] for v in group], dtype=float)
                # paths[f] is the facility's shortest-path predecessor map, a
                # tree rooted at f, so consolidation follows the forest's own edges.
                out.append((f, group, probs / probs.sum(), fl.paths[f]))
            self._clusters[k] = out
        return self._clusters[k]

    def run(self, seed: int, trace: GmmTrace | None = None) -> tuple[RoutedTree, list[StageCosts]]:
        """One seeded run: the tree and the per-stage costs gmm_tree returns."""
        inst, pipes = self.inst, self.pipes.pipes
        total_original = inst.total_demand()
        cur: dict[str, int] = dict(inst.demands)
        used: set[Edge] = set()
        costs: list[StageCosts] = []
        last = len(pipes) - 1  # flat pipe index
        for k in range(last + 1):
            sigma_k, delta_k = pipes[k].fixed, pipes[k].rate
            # Steiner step: cheap fixed-cost aggregation, cut at capacity.
            comps = self._stage0 if k == 0 else self._steiner_forest(k, cur)
            if comps is None:
                break
            rng_steiner = np.random.default_rng([int(seed), k, 2])
            stage_sigma_edges: set[Edge] = set()
            for comp_root, parent in comps:
                members = {comp_root} | set(parent)
                holders = sorted(v for v in members if cur.get(v, 0) > 0 and v != inst.root)
                if not holders:
                    continue
                if comp_root == inst.root:
                    target = inst.root
                elif len(holders) == 1:
                    target = holders[0]
                else:
                    probs = np.array([cur[v] for v in holders], dtype=float)
                    target = holders[int(rng_steiner.choice(len(holders), p=probs / probs.sum()))]
                stage_flow: dict[Edge, int] = {}
                _move_demand(cur, holders, target, parent, comp_root, stage_flow, used)
                stage_sigma_edges.update(stage_flow)
            steiner_cost = float(sigma_k) * sum(inst.lengths[e] for e in sorted(stage_sigma_edges))
            if trace is not None:
                trace.record(k, 2, {v: cur.get(v, 0) for v in inst.demands},
                             cur.get(inst.root, 0) - inst.demands.get(inst.root, 0))
            if k == last:
                costs.append(StageCosts(stage=k, steiner_cost=steiner_cost, facility_cost=0.0))
                break
            # Facility step on original demands with lower bound b_k.
            facility_flow: dict[Edge, int] = {}
            if Fraction(total_original) < self.th.significance[k]:
                holders = sorted(v for v, d in cur.items() if d > 0 and v != inst.root)
                if holders:
                    _, pred = self.table.get(inst.root)
                    _move_demand(cur, holders, inst.root, pred, inst.root, facility_flow, used)
                facility_cost = float(delta_k) * sum(
                    inst.lengths[e] * f for e, f in facility_flow.items()
                )
                costs.append(StageCosts(stage=k, steiner_cost=steiner_cost, facility_cost=facility_cost))
                if trace is not None:
                    trace.fallback_stage = k
                break
            rng_facility = np.random.default_rng([int(seed), k, 4])
            for f, group, p, pred in self._facility_clusters(k):
                holders = [v for v in group if cur.get(v, 0) > 0]
                if not holders:
                    continue
                target = group[int(rng_facility.choice(len(group), p=p))]
                _move_demand(cur, holders, target, pred, f, facility_flow, used)
            facility_cost = float(delta_k) * sum(
                inst.lengths[e] * f for e, f in facility_flow.items()
            )
            if trace is not None:
                trace.record(k, 4, {v: cur.get(v, 0) for v in inst.demands},
                             cur.get(inst.root, 0) - inst.demands.get(inst.root, 0))
            costs.append(StageCosts(stage=k, steiner_cost=steiner_cost, facility_cost=facility_cost))
        parked = {v: d for v, d in cur.items() if d > 0}
        if sum(cur.values()) != total_original:
            raise RuntimeError("consolidation must conserve demand")
        if not set(parked) <= {inst.root}:
            raise RuntimeError(f"live demand left outside the root: {parked}")
        return self.table.routed_tree(used), costs


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
    """
    regular, _ = regularize(alpha)
    tree, _ = gmm_tree(inst, regular, seed)
    return tree
