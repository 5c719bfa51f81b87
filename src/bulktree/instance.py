"""Problem instances: undirected graphs with edge lengths, integer demands, a root.

An instance is immutable after construction and safe to share across workers.
Node ids are strings everywhere; edges are stored canonically as (min, max)
pairs.  Edge lengths are nonnegative finite doubles; the pipe algebra works in
exact rationals, where breakpoint identities matter.

File format (JSON, schema "bulktree/v1"):

    {"nodes": ["r", "a", ...],
     "edges": [{"u": "r", "v": "a", "length": 1.0}, ...],
     "demands": {"a": 1, ...},
     "root": "r"}

Unknown fields are rejected.  Parallel edges are rejected outright rather
than collapsed to the cheaper copy: strictness beats silent mutation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
import numpy as np

SCHEMA = "bulktree/v1"

Edge = tuple[str, str]

GENERATOR_MODELS = ("random-geometric", "grid", "star", "path")


class ValidationError(ValueError):
    """The instance violates a structural invariant; message names the invariant."""


class ParseError(ValueError):
    """The file cannot be parsed against the documented schema."""


def canonical_edge(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Instance:
    nodes: tuple[str, ...]
    lengths: dict[Edge, float]
    demands: dict[str, int]
    root: str

    def __post_init__(self):
        _validate(self)
        adj: dict[str, list[tuple[str, float]]] = {v: [] for v in self.nodes}
        for (u, v), w in sorted(self.lengths.items()):
            adj[u].append((v, w))
            adj[v].append((u, w))
        for v in adj:
            adj[v].sort()
        if len(_connected_from(adj, self.root)) != len(adj):
            raise ValidationError("graph must be connected")
        object.__setattr__(self, "_adjacency", adj)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.lengths))

    def adjacency(self) -> dict[str, list[tuple[str, float]]]:
        return self._adjacency  # type: ignore[attr-defined]

    def total_demand(self) -> int:
        return sum(self.demands.values())


@dataclass(frozen=True)
class DemandProfile:
    """Total demand rounded up to a power of two, and the atomic level count."""

    D: int
    levels: int


def _connected_from(adj, start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v, _ in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _validate(inst: Instance) -> None:
    """Every structural check but connectivity, which needs the adjacency."""
    if not inst.nodes:
        raise ValidationError("instance must have at least one node")
    if len(set(inst.nodes)) != len(inst.nodes):
        raise ValidationError("duplicate node ids")
    nodeset = set(inst.nodes)
    for (u, v), w in inst.lengths.items():
        if u == v:
            raise ValidationError(f"self-loop at node {u!r}")
        if (u, v) != canonical_edge(u, v):
            raise ValidationError(f"edge {(u, v)!r} not in canonical order")
        if u not in nodeset or v not in nodeset:
            raise ValidationError(f"edge {(u, v)!r} references unknown node")
        if not (isinstance(w, (int, float)) and not isinstance(w, bool)):
            raise ValidationError(f"length of edge {(u, v)!r} must be a number")
        if not math.isfinite(w) or w < 0:
            raise ValidationError(f"length must be >= 0 and finite on edge {(u, v)!r}")
    if inst.root not in nodeset:
        raise ValidationError(f"root {inst.root!r} not in node set")
    for v, d in inst.demands.items():
        if v not in nodeset:
            raise ValidationError(f"demand node {v!r} not in node set")
        if isinstance(d, bool) or not isinstance(d, int) or d <= 0:
            raise ValidationError(f"demand at {v!r} must be a positive integer")
    if sum(inst.demands.values()) < 1:
        raise ValidationError("total demand must be >= 1")


def demand_profile(inst: Instance) -> DemandProfile:
    total = inst.total_demand()
    D = 1 << (total - 1).bit_length()
    return DemandProfile(D=D, levels=D.bit_length())


def load_instance(path) -> Instance:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    return instance_from_obj(raw)


def instance_from_obj(raw) -> Instance:
    if not isinstance(raw, dict):
        raise ParseError("top-level value must be an object")
    # "meta" carries generator provenance (seed, model); ignored on load.
    allowed = {"nodes", "edges", "demands", "root", "schema", "meta"}
    unknown = set(raw) - allowed
    if unknown:
        raise ParseError(f"unknown field(s): {sorted(unknown)}")
    if "root" not in raw:
        raise ParseError("root required")
    for key in ("nodes", "edges", "demands"):
        if key not in raw:
            raise ParseError(f"{key} required")
    nodes = raw["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(v, str) for v in nodes):
        raise ParseError("nodes must be a list of strings")
    lengths: dict[Edge, float] = {}
    if not isinstance(raw["edges"], list):
        raise ParseError("edges must be a list")
    for idx, entry in enumerate(raw["edges"]):
        if not isinstance(entry, dict) or set(entry) != {"u", "v", "length"}:
            raise ParseError(f"edge #{idx} must have exactly fields u, v, length")
        u, v, w = entry["u"], entry["v"], entry["length"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise ParseError(f"edge #{idx}: u and v must be strings")
        key = canonical_edge(u, v)
        if key in lengths:
            raise ValidationError(f"parallel edge {key!r} rejected")
        lengths[key] = float(w) if isinstance(w, (int, float)) and not isinstance(w, bool) else w
    demands_raw = raw["demands"]
    if not isinstance(demands_raw, dict):
        raise ParseError("demands must be an object")
    demands = dict(sorted(demands_raw.items()))
    return Instance(nodes=tuple(sorted(nodes)), lengths=lengths, demands=demands, root=raw["root"])


def instance_to_obj(inst: Instance) -> dict:
    return {
        "schema": SCHEMA,
        "nodes": list(inst.nodes),
        "edges": [{"u": u, "v": v, "length": inst.lengths[(u, v)]} for u, v in inst.edges],
        "demands": dict(sorted(inst.demands.items())),
        "root": inst.root,
    }


def save_instance(inst: Instance, path, meta: dict | None = None) -> None:
    obj = instance_to_obj(inst)
    if meta is not None:
        obj["meta"] = meta
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def generate_instance(model: str, n: int, demand_count: int, seed: int) -> Instance:
    """Deterministic instance families with unit demands at sampled nodes."""
    if model not in GENERATOR_MODELS:
        raise ValidationError(f"unknown model {model!r}; choose from {GENERATOR_MODELS}")
    if n < 2 or demand_count < 1 or demand_count > n - 1:
        raise ValidationError("infeasible parameter combination: need n >= 2, 1 <= demand-count <= n-1")
    rng = np.random.default_rng([int(seed), _MODEL_TAG[model]])
    names = [str(i) for i in range(n)]
    lengths: dict[Edge, float] = {}
    if model == "path":
        root = "0"
        for i in range(n - 1):
            lengths[canonical_edge(names[i], names[i + 1])] = 1.0
    elif model == "star":
        root = "0"  # center
        for i in range(1, n):
            lengths[canonical_edge("0", names[i])] = 1.0
    elif model == "grid":
        root = "0"  # corner
        cols = math.ceil(math.sqrt(n))
        for i in range(n):
            r, c = divmod(i, cols)
            if c + 1 < cols and i + 1 < n and (i + 1) // cols == r:
                lengths[canonical_edge(names[i], names[i + 1])] = 1.0
            if i + cols < n:
                lengths[canonical_edge(names[i], names[i + cols])] = 1.0
    else:  # random-geometric
        pts = rng.random((n, 2))
        radius = max(0.4, math.sqrt(2.0 * math.log(max(n, 2)) / n))
        diff = pts[:, None] - pts[None, :]
        dist = np.hypot(diff[..., 0], diff[..., 1]).tolist()
        for i in range(n):
            for j in range(i + 1, n):
                d = dist[i][j]
                if d <= radius:
                    lengths[canonical_edge(names[i], names[j])] = max(d, 1e-6)
        _connect_components(names, dist, lengths)
        root = min(names, key=lambda v: (pts[int(v)][0] + pts[int(v)][1], v))
    candidates = sorted(v for v in names if v != root)
    picks = rng.choice(len(candidates), size=demand_count, replace=False)
    demands = {candidates[i]: 1 for i in sorted(int(p) for p in picks)}
    return Instance(nodes=tuple(sorted(names)), lengths=lengths, demands=demands, root=root)


_MODEL_TAG = {m: i for i, m in enumerate(GENERATOR_MODELS)}


def _connect_components(names, dist, lengths) -> None:
    # Greedily link the component of names[0] to its closest outside node, so
    # geometric samples always validate.
    adj = {v: [] for v in names}
    for (u, v) in lengths:
        adj[u].append((v, 0.0))
        adj[v].append((u, 0.0))
    part = _connected_from(adj, names[0])
    while len(part) < len(names):
        d, a, b = min(
            (dist[int(a)][int(b)], a, b) for a in part for b in names if b not in part
        )
        lengths[canonical_edge(a, b)] = max(d, 1e-6)
        part |= _connected_from(adj, b)  # b's component joins through the new link
