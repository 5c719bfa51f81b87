import json
import math

import numpy as np
import pytest

from bulktree.instance import (
    GENERATOR_MODELS,
    ParseError,
    ValidationError,
    canonical_edge,
    demand_profile,
    generate_instance,
    instance_from_obj,
    load_instance,
    save_instance,
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


def test_missing_file():
    with pytest.raises(ParseError, match="no such file"):
        load_instance("/nonexistent/definitely-missing.json")
