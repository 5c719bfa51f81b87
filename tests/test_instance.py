import json
import math
import re
import sys

import numpy as np
import pytest

from bulktree.framework import SolveConfig, solve_oblivious
from bulktree.instance import (
    GENERATOR_MODELS,
    Instance,
    ParseError,
    ValidationError,
    canonical_edge,
    demand_profile,
    generate_instance,
    instance_from_obj,
    load_instance,
    save_instance,
    write_json,
)

from conftest import make_instance


def write(tmp_path, obj):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(obj))
    return p


PATH3 = {
    "nodes": ["r", "a", "b"],
    "edges": [{"u": "r", "v": "a", "length": 1.0}, {"u": "a", "v": "b", "length": 1.0}],
    "demands": {"a": 1, "b": 1},
    "root": "r",
}


def test_load_minimal_path(tmp_path):
    inst = load_instance(write(tmp_path, PATH3))
    assert inst.root == "r"
    assert inst.total_demand() == 2
    assert demand_profile(inst).D == 2


def test_negative_length_rejected(tmp_path):
    bad = json.loads(json.dumps(PATH3))
    bad["edges"][0]["length"] = -1.0
    with pytest.raises(ValidationError, match="length must be >= 0"):
        load_instance(write(tmp_path, bad))


def test_missing_root_rejected(tmp_path):
    bad = {k: v for k, v in PATH3.items() if k != "root"}
    with pytest.raises(ParseError, match="root required"):
        load_instance(write(tmp_path, bad))


def test_unknown_field_rejected():
    bad = dict(PATH3, extra=1)
    with pytest.raises(ParseError, match="unknown field"):
        instance_from_obj(bad)


def test_parallel_edge_rejected():
    bad = json.loads(json.dumps(PATH3))
    bad["edges"].append({"u": "a", "v": "r", "length": 2.0})
    with pytest.raises(ValidationError, match="parallel edge"):
        instance_from_obj(bad)


def test_disconnected_rejected():
    bad = json.loads(json.dumps(PATH3))
    bad["nodes"].append("z")
    with pytest.raises(ValidationError, match="connected"):
        instance_from_obj(bad)


def test_self_loop_rejected():
    bad = json.loads(json.dumps(PATH3))
    bad["edges"].append({"u": "b", "v": "b", "length": 1.0})
    with pytest.raises(ValidationError, match="self-loop"):
        instance_from_obj(bad)


def _edit(**changes):
    """PATH3 with top-level fields replaced, or dropped where the value is None."""
    obj = dict(PATH3, **changes)
    return {k: v for k, v in obj.items() if v is not None}


def _edge(**fields):
    return {"u": "a", "v": "b", "length": 1.0, **fields}


@pytest.mark.parametrize("payload, error, match", [
    ("[]", ParseError, "top-level value must be an object"),
    (_edit(nodes=None), ParseError, "nodes required"),
    (_edit(edges=None), ParseError, "edges required"),
    (_edit(demands=None), ParseError, "demands required"),
    (_edit(nodes=["r", "a", 1]), ParseError, "nodes must be a list of strings"),
    (_edit(edges={"u": "r"}), ParseError, "edges must be a list"),
    (_edit(edges=[{"u": "r", "v": "a"}]), ParseError, "exactly fields u, v, length"),
    (_edit(edges=[_edge(u=1)]), ParseError, "u and v must be strings"),
    (_edit(demands=[["a", 1]]), ParseError, "demands must be an object"),
    (_edit(nodes=[], edges=[], demands={}), ValidationError, "at least one node"),
    (_edit(nodes=["r", "a", "b", "a"]), ValidationError, "duplicate node ids"),
    (_edit(edges=[_edge(v="z")]), ValidationError, "references unknown node"),
    (_edit(edges=[_edge(length="1")]), ValidationError, "must be a number"),
    (_edit(edges=[_edge(length=True)]), ValidationError, "must be a number"),
    ('{"nodes": ["a", "b", "r"], "edges": [{"u": "a", "v": "b", "length": NaN}],'
     ' "demands": {"a": 1}, "root": "r"}', ValidationError, "must be >= 0 and finite"),
    (_edit(edges=[_edge(length=10**400)]), ValidationError,
     re.escape("length must be >= 0 and finite on edge ('a', 'b')")),
    (_edit(root="z"), ValidationError, "root 'z' not in node set"),
    (_edit(root=["r"]), ParseError, "root must be a string"),
    (_edit(root={}), ParseError, "root must be a string"),
    (_edit(demands={"z": 1}), ValidationError, "demand node 'z' not in node set"),
    (_edit(demands={"a": True}), ValidationError, "positive integer"),
    (_edit(demands={"a": 0}), ValidationError, "positive integer"),
    (_edit(demands={"a": 1.5}), ValidationError, "positive integer"),
    (_edit(demands={}), ValidationError, "total demand must be >= 1"),
    ('{"nodes": ["r"],', ParseError, "invalid JSON at line 1"),
], ids=["not-object", "no-nodes", "no-edges", "no-demands", "node-not-string",
        "edges-not-list", "edge-fields", "endpoint-not-string", "demands-not-object",
        "no-node", "duplicate-node", "unknown-endpoint", "length-string",
        "length-bool", "length-nan", "length-beyond-float", "unknown-root", "root-list",
        "root-object", "unknown-demand-node", "demand-bool",
        "demand-zero", "demand-fraction", "demands-empty", "invalid-json"])
def test_instance_file_refused(tmp_path, payload, error, match):
    p = tmp_path / "inst.json"
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    with pytest.raises(error, match=match):
        load_instance(p)


@pytest.mark.parametrize("root", [["r"], {}], ids=["list", "object"])
def test_instance_non_string_root_refused(root):
    with pytest.raises(ValidationError, match="root must be a string"):
        Instance(nodes=("a", "r"), lengths={("a", "r"): 1.0}, demands={"a": 1}, root=root)


def test_instance_length_beyond_float_range_refused():
    # float() of this int overflows; it must read as an infinite length.
    with pytest.raises(ValidationError, match=re.escape("length must be >= 0 and finite on edge ('a', 'r')")):
        Instance(nodes=("a", "r"), lengths={("a", "r"): 10**400}, demands={"a": 1}, root="r")


def _a_b_r(length, demand_a):
    """Nodes a, b, r; edges a-r and a-b of one length; demands a and b = 1."""
    return Instance(nodes=("a", "b", "r"), lengths={("a", "r"): length, ("a", "b"): length},
                    demands={"a": demand_a, "b": 1}, root="r")


@pytest.mark.parametrize("length, demand_a, match", [
    (1e-310, 1, "positive length below the smallest normal double"),
    (1e308, 1, "sum of lengths times total demand must be finite"),
    (1.0, 2**62, re.escape("total demand must be at most 2**62")),
    (1.0, 10**400, re.escape("total demand must be at most 2**62")),
], ids=["subnormal-length", "cost-beyond-float", "levels-above-62", "demand-beyond-float"])
def test_instance_beyond_solver_floats_refused(tmp_path, length, demand_a, match):
    # Each of these once crashed deep in a solve: an exact weight over a
    # subnormal bound overflowed float(), a level cost was infinite, a level
    # was above the 62 that level costs take, and a demand overflowed float().
    with pytest.raises(ValidationError, match=match):
        _a_b_r(length, demand_a)
    obj = {"nodes": ["a", "b", "r"], "root": "r", "demands": {"a": demand_a, "b": 1},
           "edges": [{"u": "a", "v": "r", "length": length},
                     {"u": "a", "v": "b", "length": length}]}
    with pytest.raises(ValidationError, match=match):
        load_instance(write(tmp_path, obj))


@pytest.mark.parametrize("length, demand_a", [(sys.float_info.min, 1), (1.0, 2**62 - 1)],
                         ids=["smallest-normal-length", "total-demand-2^62"])
def test_instance_at_solver_float_bounds_solves(length, demand_a):
    dist, _ = solve_oblivious(_a_b_r(length, demand_a), SolveConfig(seed=1))
    assert dist.theta == 1.0


def test_generate_unknown_model_rejected():
    with pytest.raises(ValidationError, match="unknown model 'tree'"):
        generate_instance("tree", 5, 2, seed=0)


def test_zero_demand_steiner_nodes_allowed():
    inst = make_instance({("r", "a"): 1.0, ("a", "b"): 1.0}, {"b": 1}, "r")
    assert "a" in inst.nodes and "a" not in inst.demands


@pytest.mark.parametrize(
    "total,expected_d,expected_levels",
    [(1, 1, 1), (5, 8, 4), (8, 8, 4), (2, 2, 2), (9, 16, 5)],
)
def test_demand_profile_rounding(total, expected_d, expected_levels):
    demands = {"a": total}
    inst = make_instance({("r", "a"): 1.0}, demands, "r")
    prof = demand_profile(inst)
    assert prof.D == expected_d
    assert prof.levels == expected_levels


def test_demand_profile_idempotent():
    inst = make_instance({("r", "a"): 1.0}, {"a": 5}, "r")
    d = demand_profile(inst).D
    again = make_instance({("r", "a"): 1.0}, {"a": d}, "r")
    assert demand_profile(again).D == d


def test_generate_star_shape():
    inst = generate_instance("star", 5, 4, seed=7)
    assert inst.root == "0"
    assert len(inst.edges) == 4
    assert all("0" in e for e in inst.edges)
    assert len(inst.demands) == 4 and all(d == 1 for d in inst.demands.values())


def test_generate_path_shape():
    inst = generate_instance("path", 3, 2, seed=0)
    assert inst.root == "0"
    assert inst.edges == (("0", "1"), ("1", "2"))


def test_generate_deterministic():
    a = generate_instance("random-geometric", 9, 4, seed=42)
    b = generate_instance("random-geometric", 9, 4, seed=42)
    assert a == b
    c = generate_instance("random-geometric", 9, 4, seed=43)
    assert a != c


@pytest.mark.parametrize("model", ["random-geometric", "grid", "star", "path"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_instances_validate(model, seed):
    inst = generate_instance(model, 8, 3, seed=seed)
    # construction re-validates; also check round-trip through the file format
    assert inst.total_demand() == 3


def reference_geometric(n, demand_count, seed):
    """random-geometric with one numpy scalar call per pair: the lengths in
    insertion order, the root and the demands."""
    rng = np.random.default_rng([seed, GENERATOR_MODELS.index("random-geometric")])
    pts = rng.random((n, 2))
    names = [str(i) for i in range(n)]

    def dist(a, b):
        return float(np.hypot(*(pts[int(a)] - pts[int(b)])))

    radius = max(0.4, math.sqrt(2.0 * math.log(max(n, 2)) / n))
    lengths = {}
    for i in range(n):
        for j in range(i + 1, n):
            if dist(i, j) <= radius:
                lengths[canonical_edge(names[i], names[j])] = max(dist(i, j), 1e-6)
    while True:  # link node 0's component to its closest outside node
        reach, stack = {"0"}, ["0"]
        while stack:
            u = stack.pop()
            for a, b in lengths:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in reach:
                        reach.add(y)
                        stack.append(y)
        rest = [v for v in names if v not in reach]
        if not rest:
            break
        d, a, b = min((dist(a, b), a, b) for a in sorted(reach) for b in sorted(rest))
        lengths[canonical_edge(a, b)] = max(d, 1e-6)
    root = min(names, key=lambda v: (pts[int(v)][0] + pts[int(v)][1], v))
    candidates = sorted(v for v in names if v != root)
    picks = rng.choice(len(candidates), size=demand_count, replace=False)
    return list(lengths.items()), root, {candidates[i]: 1 for i in sorted(int(p) for p in picks)}


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_geometric_matches_scalar_reference(n):
    for seed in range(50):
        inst = generate_instance("random-geometric", n, (n - 1) // 2, seed)
        got = list(inst.lengths.items()), inst.root, inst.demands
        assert got == reference_geometric(n, (n - 1) // 2, seed)


def test_generate_infeasible_params():
    with pytest.raises(ValidationError, match="infeasible parameter combination"):
        generate_instance("path", 3, 3, seed=0)


def test_save_load_roundtrip(tmp_path):
    inst = generate_instance("random-geometric", 7, 3, seed=5)
    p = tmp_path / "x.json"
    save_instance(inst, p)
    again = load_instance(p)
    assert again == inst


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_write_json_refuses_non_finite(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        write_json(path, {"ratio": value})
    assert not path.exists()


def test_missing_file():
    with pytest.raises(ParseError, match="no such file"):
        load_instance("/nonexistent/definitely-missing.json")
