import json
import os
import subprocess
import sys

import pytest

import bulktree
import bulktree.exact as exact_mod
from bulktree.cli import main
from bulktree.framework import SolveConfig, solve_oblivious
from bulktree.instance import generate_instance, load_instance

BENCH_HEADER = ["instance", "theta", "theta_opt", "exact_ratio", "support", "total_demand"]


def run(argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star.json"
    assert run(["gen", "star", "--n", 6, "--demands", 4, "--out", p, "--seed", 9]) == 0
    return p


def test_gen_and_solve_and_eval(tmp_path, star_file):
    dist = tmp_path / "dist.json"
    rep = tmp_path / "rep.json"
    code = run(
        ["solve", star_file, "--out", dist, "--report", rep, "--seed", 3]
    )
    assert code == 0
    payload = json.loads(dist.read_text())
    assert payload["schema"] == "bulktree/v1"
    assert payload["seed"] == 3 and "config_hash" in payload
    assert len(payload["trees"]) >= 1
    report = json.loads(rep.read_text())
    assert "beta_final" not in payload
    assert {"theta", "levels", "runs"} <= set(report) and "exact" not in report

    out = tmp_path / "eval.json"
    assert run(["eval", star_file, dist, "--out", out, "--exact", "--seed", 3]) == 0
    ev = json.loads(out.read_text())
    assert ev["exact_oblivious_ratio"] >= 1.0 - 1e-9
    # solve and eval build their rows alike; --exact only adds the optimum.
    assert [{k: v for k, v in row.items() if k != "exact_optimum"} for row in ev["levels"]] \
        == payload["diagnostics"]["levels"]
    assert all("exact_optimum" in row for row in ev["levels"])


@pytest.mark.parametrize("instance", [
    {"nodes": ["a", "r"], "edges": [{"u": "a", "v": "r", "length": 1.0}],
     "demands": {"r": 3}, "root": "r"},
    {"nodes": ["a", "b", "r"],
     "edges": [{"u": "a", "v": "r", "length": 0.0}, {"u": "a", "v": "b", "length": 0.0}],
     "demands": {"a": 1, "b": 2}, "root": "r"},
    {"nodes": ["r"], "edges": [], "demands": {"r": 1}, "root": "r"},
], ids=["demand-at-root", "zero-lengths", "single-node"])
def test_zero_level_bound_solve_and_eval(tmp_path, instance):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    dist, rep, out = tmp_path / "dist.json", tmp_path / "rep.json", tmp_path / "eval.json"
    assert run(["solve", inst, "--out", dist, "--report", rep, "--seed", 1]) == 0
    payload = json.loads(dist.read_text())
    assert payload["theta"] == 1.0
    assert [t["weight"] for t in payload["trees"]] == [1.0]
    report = json.loads(rep.read_text())
    assert report["theta"] == 1.0
    assert run(["eval", inst, dist, "--out", out, "--exact", "--seed", 1]) == 0
    ev = json.loads(out.read_text())
    assert ev["max_ratio_vs_bound"] == 1.0 and ev["exact_oblivious_ratio"] == 1.0


def test_solve_missing_file_exit_2(tmp_path, capsys):
    code = run(["solve", tmp_path / "nope.json", "--out", tmp_path / "d.json", "--seed", 1])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"]["type"] == "ParseError"


@pytest.mark.parametrize("command", ["solve", "eval", "regularize", "gmm", "brute", "pipes"])
def test_unreadable_input_exit_2(tmp_path, star_file, capsys, command):
    # A directory passes argparse but cannot be opened as a file.
    d = tmp_path / "dir"
    d.mkdir()
    out = ["--out", tmp_path / "o.json"]
    argv = {
        "solve": ["solve", d, *out, "--seed", 1],
        "eval": ["eval", star_file, d, *out, "--seed", 1],
        "regularize": ["regularize", d, *out],
        "gmm": ["gmm", star_file, d, *out, "--seed", 1],
        "brute": ["brute", d, *out],
        "pipes": ["pipes", d],
    }[command]
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] and err["message"]


def test_solve_byte_identical_reruns(tmp_path, star_file):
    outs = []
    for name in ("d1.json", "d2.json"):
        p = tmp_path / name
        assert run(["solve", star_file, "--out", p, "--seed", 7]) == 0
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


def test_eval_matches_module_calls(tmp_path, star_file):
    from bulktree.aggregation import TreeDistribution, distribution_cost, route_demands
    from bulktree.instance import load_instance

    inst = load_instance(star_file)
    tree_edges = list(inst.edges)
    hand = {
        "schema": "bulktree/v1",
        "theta": 1.0,
        "trees": [{"weight": 1.0, "edges": [[u, v] for u, v in tree_edges]}],
    }
    dpath = tmp_path / "hand.json"
    dpath.write_text(json.dumps(hand))
    out = tmp_path / "ev.json"
    assert run(["eval", star_file, dpath, "--out", out, "--seed", 5]) == 0
    ev = json.loads(out.read_text())
    tree = route_demands(inst, tree_edges)
    dist = TreeDistribution(support=((tree, 1.0),), theta=1.0)
    for row in ev["levels"]:
        assert row["expected_cost"] == distribution_cost(dist, row["i"], inst.lengths)


def test_eval_exact_over_cap_refused(tmp_path, capsys):
    big = tmp_path / "big.json"
    assert run(["gen", "grid", "--n", 12, "--demands", 3, "--out", big, "--seed", 1]) == 0
    dist = tmp_path / "d.json"
    assert run(["solve", big, "--out", dist, "--seed", 2]) == 0
    capsys.readouterr()
    code = run(["eval", big, dist, "--out", tmp_path / "e.json", "--exact", "--seed", 2])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "NodeCapExceeded"
    assert not (tmp_path / "e.json").exists()


def test_gmm_and_regularize_and_pipes(tmp_path, star_file, capsys):
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"D": 4, "alpha": {"0": 1.0, "1": 1.0}}))
    reg = tmp_path / "reg.json"
    assert run(["regularize", alpha, "--out", reg]) == 0
    payload = json.loads(reg.read_text())
    assert payload["report"]["total_f_lower_factor"] == 7.5
    gout = tmp_path / "g.json"
    assert run(["gmm", star_file, alpha, "--out", gout, "--seed", 2]) == 0
    g = json.loads(gout.read_text())
    assert g["tree"]["edges"]
    capsys.readouterr()
    assert run(["pipes", alpha]) == 0
    # delta_0 = 2, delta_1 = 1 and gamma = 1/4: 2*gamma*delta_0 - delta_1 = 0,
    # so pipe 0 has no significance point.
    assert capsys.readouterr().out.splitlines() == [
        "k\tsigma\tdelta\tcapacity\tindifference\tsignificance",
        "0\t0\t2\t0\t1\tundef",
        "1\t1\t1\t1\t2\t5",
        "2\t3\t0\tinf\tinf\tinf",
    ]


# The README claims these three artifacts are byte-identical on every
# supported interpreter: they are computed in pure Python and add every float
# cost left to right.  The alpha file is the CLI smoke's.  Level 0 of the
# inline instance sums 0.1 + 0.2 + 0.3 + 1.1, which a compensated sum would
# round to 1.7.
PINNED_ALPHA = {"D": 8, "alpha": {"0": 1.0, "1": 0.5, "3": 0.25}}
PINNED_INSTANCE = {
    "nodes": ["a", "b", "c", "d", "r"],
    "edges": [{"u": "r", "v": "a", "length": 0.1}, {"u": "a", "v": "b", "length": 0.2},
              {"u": "r", "v": "c", "length": 0.7}, {"u": "b", "v": "c", "length": 0.3},
              {"u": "c", "v": "d", "length": 1.1}, {"u": "a", "v": "d", "length": 2.3}],
    "demands": {"b": 3, "c": 1, "d": 2},
    "root": "r",
}


def test_pure_python_artifacts_pinned(tmp_path, capsys):
    alpha, reg = tmp_path / "alpha.json", tmp_path / "reg.json"
    alpha.write_text(json.dumps(PINNED_ALPHA) + "\n")
    assert run(["regularize", alpha, "--out", reg]) == 0
    exact = {"0": [1, 1], "1": [1, 2], "3": [1, 4]}
    stages = [("cap_capacity", 1.0, 1, 1), ("regularize_delta", 3.0, 2, 1),
              ("regularize_sigma", 2.5, 0, 0)]
    expected = {
        "gamma": 0.25,
        "input": {**PINNED_ALPHA, "alpha_exact": exact, "schema": "bulktree/v1"},
        "output": {"D": 8, "alpha": {"2": 1.75}, "alpha_exact": {"2": [7, 4]},
                   "schema": "bulktree/v1"},
        "report": {
            "stages": [{"distortion_bound": bound, "pipes_removed": removed,
                        "rotations": rotations, "stage": stage}
                       for stage, bound, removed, rotations in stages],
            "total_f_lower_factor": 7.5,
        },
        "schema": "bulktree/v1",
    }
    assert reg.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    capsys.readouterr()
    assert run(["pipes", alpha]) == 0
    assert capsys.readouterr().out == (
        "k\tsigma\tdelta\tcapacity\tindifference\tsignificance\n"
        "0\t0\t1.75\t0\t1\t8\n"
        "1\t1\t0.75\t1.33333333\t2\t12\n"
        "2\t2\t0.25\t8\t8\t24\n"
        "3\t4\t0\tinf\tinf\tinf\n"
    )

    inst, out = tmp_path / "inst.json", tmp_path / "brute.json"
    inst.write_text(json.dumps(PINNED_INSTANCE))
    assert run(["brute", inst, "--out", out]) == 0
    tree = [["a", "b"], ["a", "r"], ["b", "c"], ["c", "d"]]
    assert json.loads(out.read_text())["levels"] == [
        {"edges": tree, "i": i, "optimum": optimum}
        for i, optimum in enumerate([1.7000000000000002, 3.4000000000000004,
                                     4.300000000000001, 4.9])
    ]


def test_gmm_deterministic(tmp_path, star_file):
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"D": 4, "alpha": {"0": 1.0}}))
    outs = []
    for name in ("g1.json", "g2.json"):
        p = tmp_path / name
        assert run(["gmm", star_file, alpha, "--out", p, "--seed", 31]) == 0
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, gen, alpha", [
    ("gen", None, None),
    ("solve", ("random-geometric", 8, 3, 1), None),
    ("eval", ("random-geometric", 8, 3, 1), None),
    # The CLI smoke's inputs: no step of this run draws, so numpy never sees the seed.
    ("gmm", ("random-geometric", 8, 3, 1), {"D": 8, "alpha": {"0": 1.0, "1": 0.5, "3": 0.25}}),
    # A stage-0 facility step draws here.
    ("gmm", ("random-geometric", 14, 6, 5), {"D": 8, "alpha": {"0": 1.0, "2": 0.05}}),
], ids=["gen", "solve", "eval", "gmm-no-draw", "gmm-draws"])
def test_negative_seed_refused(tmp_path, command, gen, alpha):
    inst, dist = tmp_path / "inst.json", tmp_path / "dist.json"
    if gen is not None:
        model, n, demands, seed = gen
        assert run(["gen", model, "--n", n, "--demands", demands, "--seed", seed, "--out", inst]) == 0
    if command == "eval":
        assert run(["solve", inst, "--seed", 1, "--out", dist]) == 0
    if alpha is not None:
        (tmp_path / "alpha.json").write_text(json.dumps(alpha))
    argv = {
        "gen": ["gen", "star", "--n", 6, "--demands", 4],
        "solve": ["solve", inst],
        "eval": ["eval", inst, dist],
        "gmm": ["gmm", inst, tmp_path / "alpha.json"],
    }[command] + ["--out", tmp_path / "out.json"]
    assert run([*argv, "--seed", 0]) == 0
    try:
        code = run([*argv, "--seed", -1])
    except SystemExit as exc:  # argparse refuses by exiting
        code = exc.code
    assert code == 2


def test_brute_outputs(tmp_path, star_file):
    out = tmp_path / "b.json"
    tsv = tmp_path / "b.tsv"
    assert run(["brute", star_file, "--out", out, "--tsv", tsv]) == 0
    payload = json.loads(out.read_text())
    assert payload["theta_opt"] >= 1.0 - 1e-9
    assert tsv.read_text().startswith("i\toptimum")


def test_brute_enumerates_once(tmp_path, monkeypatch):
    inst_file, out = tmp_path / "inst.json", tmp_path / "b.json"
    assert run(["gen", "random-geometric", "--n", 8, "--demands", 3, "--out", inst_file,
                "--seed", 1]) == 0
    inst = load_instance(inst_file)
    opt = exact_mod.exact_optima(inst)
    theta_opt, _ = exact_mod.exact_lp_optimum(inst)
    calls = []
    enumerate_trees = exact_mod.enumerate_candidate_trees

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_trees(*args, **kwargs)

    monkeypatch.setattr(exact_mod, "enumerate_candidate_trees", counting)
    assert run(["brute", inst_file, "--out", out]) == 0
    assert len(calls) == 1
    assert json.loads(out.read_text()) == {
        "schema": "bulktree/v1",
        "levels": [
            {"i": i, "optimum": val, "edges": [[u, v] for u, v in tree.sorted_edges()]}
            for i, tree, val in opt.per_level
        ],
        "theta_opt": theta_opt,
    }


def test_bench_table_and_determinism(tmp_path):
    t1 = tmp_path / "b1.tsv"
    t2 = tmp_path / "b2.tsv"
    above_cap = exact_mod.DEFAULT_NODE_CAP + 1
    for t in (t1, t2):
        assert run(
            ["bench", "star", "--sizes", f"5,{above_cap}", "--seeds", "1,2", "--out", t]
        ) == 0
    assert t1.read_bytes() == t2.read_bytes()
    lines = t1.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert lines[0].split("\t") == BENCH_HEADER
    rows = [dict(zip(BENCH_HEADER, line.split("\t"))) for line in lines[1:]]
    for seed, row in zip((1, 2), rows):
        assert row["instance"] == f"star-n5-s{seed}"
        exact_ratio, theta_opt = float(row["exact_ratio"]), float(row["theta_opt"])
        assert exact_ratio >= 1.0
        assert theta_opt <= exact_ratio * (1 + 1e-9)
        inst = generate_instance("star", 5, 2, seed)
        dist, _ = solve_oblivious(inst, SolveConfig(seed=seed))
        assert exact_ratio == exact_mod.exact_oblivious_ratio(inst, dist)[0]
        assert theta_opt == exact_mod.exact_lp_optimum(inst)[0]
    for row in rows[2:]:
        # Above the node cap both brute-force columns stay blank.
        assert row["instance"].startswith(f"star-n{above_cap}-") and row["theta"] != "error"
        assert row["theta_opt"] == row["exact_ratio"] == ""


def test_bench_records_infeasible_size_as_error_row(tmp_path):
    # n = 1 cannot be generated; that cell is an error row and the run goes on.
    out = tmp_path / "b.tsv"
    assert run(["bench", "star", "--sizes", "1,5", "--seeds", "1", "--out", out]) == 0
    header, *rows = out.read_text().strip().splitlines()
    assert rows[0].split("\t") == ["star-n1-s1", "error", "ValidationError", "", "", ""]
    assert len(rows) == 2 and rows[1].split("\t")[0] == "star-n5-s1"
    assert rows[1].split("\t")[1] != "error"


def test_bench_empty_seed_list(tmp_path):
    out = tmp_path / "b.tsv"
    assert run(["bench", "star", "--sizes", "5", "--seeds", "", "--out", out]) == 0
    assert out.read_text().splitlines() == ["\t".join(BENCH_HEADER)]


@pytest.mark.parametrize("seeds", ["1,-1", "1,x", "-1"])
def test_bench_bad_seed_is_usage_error(tmp_path, seeds):
    # Each listed seed is parsed as --seed is: a usage error, and no table.
    out = tmp_path / "b.tsv"
    with pytest.raises(SystemExit) as exc:
        run(["bench", "star", "--sizes", 5, "--seeds", seeds, "--out", out])
    assert exc.value.code == 2
    assert not out.exists()


def test_import_loads_no_scipy_or_networkx():
    # Both are installed alongside, but the solver needs neither.
    src = os.path.dirname(os.path.dirname(bulktree.__file__))
    code = "import sys, bulktree, bulktree.cli; print(sorted({'scipy', 'networkx'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["solve", "inst", "--out", "d.json", "--seed", 1],
    ["eval", "inst", "d.json", "--out", "e.json", "--exact", "--seed", 1],
    ["brute", "inst", "--out", "b.json"],
    ["bench", "star", "--sizes", 5, "--seeds", 1, "--out", "b.tsv"],
    ["regularize", "alpha.json", "--out", "r.json"],
    ["gmm", "inst", "alpha.json", "--out", "g.json", "--seed", 1],
    ["pipes", "alpha.json"],
], ids=["solve", "eval", "brute", "bench", "regularize", "gmm", "pipes"])
def test_node_cap_flag_removed(argv):
    # Neither --node-cap nor --gamma nor --config is an option any more.
    for flag in (["--node-cap", 8], ["--gamma", 0.3], ["--config", "cfg.json"]):
        with pytest.raises(SystemExit) as exc:
            run([*argv, *flag])
        assert exc.value.code == 2


@pytest.mark.parametrize("command, payload", [
    ("eval", {"trees": [{"weight": 1.0}]}),
    ("eval", {"trees": [[["a", "r"]]]}),
    ("eval", {"trees": {"weight": 1.0}}),
    ("eval", {"trees": [{"weight": 1.0, "edges": [["a"]]}]}),
    ("eval", {"trees": [{"weight": 0.0, "edges": []}]}),
    ("eval", {"trees": [{"weight": -1.0, "edges": []}]}),
    ("eval", {"trees": [{"weight": float("nan"), "edges": []}]}),
    ("eval", {"trees": [{"weight": float("inf"), "edges": []}]}),
    ("eval", {"trees": [{"weight": "1", "edges": []}]}),
    ("eval", {"trees": [{"weight": None, "edges": []}]}),
    ("eval", {"theta": None, "trees": []}),
    ("pipes", {"D": 4, "alpha": {"0": 1.0}, "alpha_exact": {"0": [1]}}),
    ("pipes", {"D": 4, "alpha": {"0": 1.0}, "alpha_exact": {"0": [1, 0]}}),
    ("pipes", {"D": 4, "alpha": {"0": None}}),
    ("pipes", {"D": 4, "alpha": {"0": float("inf")}}),
    ("pipes", {"D": None, "alpha": {"0": 1.0}}),
    ("pipes", {"D": 8.5, "alpha": {"0": 1.0}}),
    ("pipes", {"D": 4, "alpha": {"0": 1.0}, "alpha_exact": {"0": [1.9, 2]}}),
    ("pipes", {"D": 4, "alpha": {"0": 1.0}, "alpha_exact": {"0": [1, 2.0]}}),
    ("pipes", {"D": 4, "alpha": {"0": 1.0}, "alpha_exact": {"0": [True, 2]}}),
    ("pipes", {"D": 4, "alpha": {"0": 1.0}, "alpha_exact": {"0": ["1", 2]}}),
    ("pipes", {"D": 4, "alpha": {"0": "1.5"}}),
    ("pipes", {"D": 4, "alpha": {"0": True}}),
], ids=["tree-without-edges", "tree-as-list", "trees-not-list", "edge-not-pair",
        "weight-zero", "weight-negative", "weight-nan", "weight-inf", "weight-string",
        "weight-null", "theta-null", "pair-too-short", "pair-zero-denominator", "alpha-null",
        "alpha-inf", "D-null", "D-fraction", "pair-float-numerator", "pair-float-denominator",
        "pair-bool", "pair-string", "alpha-string", "alpha-bool"])
def test_malformed_input_exit_2(tmp_path, star_file, capsys, command, payload):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(payload))
    if command == "eval":
        code = run(["eval", star_file, src, "--out", tmp_path / "e.json", "--seed", 1])
    else:
        code = run(["pipes", src])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ParseError"


def test_outputs_do_not_depend_on_hash_order(tmp_path):
    # String hashing, and with it the iteration order of sets of node ids,
    # changes per process; solve and gmm artifacts must not.
    src = os.path.dirname(os.path.dirname(bulktree.__file__))
    (tmp_path / "alpha.json").write_text('{"D": 8, "alpha": {"0": 1.0, "1": 0.5, "3": 0.25}}')
    assert run(["gen", "random-geometric", "--n", 8, "--demands", 3, "--seed", 1,
                "--out", tmp_path / "geo.json"]) == 0
    assert run(["gen", "grid", "--n", 9, "--demands", 8, "--seed", 1,
                "--out", tmp_path / "grid.json"]) == 0
    code = (
        "import sys\n"
        "from bulktree.cli import main\n"
        "out = sys.argv[1]\n"
        "for name in ('geo', 'grid'):\n"
        "    assert main(['solve', name + '.json', '--seed', '1', '--out', f'{out}/{name}-dist.json',\n"
        "                 '--report', f'{out}/{name}-report.json']) == 0\n"
        "    assert main(['gmm', name + '.json', 'alpha.json', '--seed', '1',\n"
        "                 '--out', f'{out}/{name}-gmm.json']) == 0\n"
    )
    outputs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"hash-{hash_seed}"
        out.mkdir()
        subprocess.run(
            [sys.executable, "-c", code, str(out)], cwd=tmp_path, capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        )
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]
