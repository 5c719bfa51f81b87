"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, directly from the contract; exact
oracles come from the exact module, from exhaustive enumeration in this file
and from the Dreyfus-Wagner Steiner optimum of test_subroutines.  Criterion 2's threshold sandwich is evaluated on regularized vectors:
the separation assumptions it encodes do not hold for arbitrary weight
vectors (counterexample: weights {0: 2, 1: 1} put the significance point at
4, above the next capacity 2).
"""
import functools
import itertools
import math
import time
from fractions import Fraction as F

import numpy as np

from bulktree.aggregation import add_up, atomic_cost
from bulktree.exact import enumerate_candidate_trees, exact_oblivious_ratio, exact_optima
from bulktree.framework import SolveConfig, default_rmax, separation_oracle, solve_oblivious
from bulktree.gmm import GmmTrace, gmm_tree
from bulktree.instance import demand_profile, generate_instance
from bulktree.pipes import (
    GAMMA,
    AlphaVector,
    alpha_to_pipes,
    is_gamma_regular,
    pipes_to_alpha,
    thresholds,
)
from bulktree.regularize import cap_capacity, regularize, regularize_delta, regularize_sigma
from bulktree.subroutines import lbfl, rent_or_buy, rob_lower_bounds, steiner_tree

from conftest import make_instance, random_alpha, small_instance_corpus
from test_subroutines import steiner_optimum


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {description}")

        return wrapper

    return deco


def alpha_corpus(count, seed, max_levels=7):
    rng = np.random.default_rng(seed)
    return [random_alpha(rng, max_levels=max_levels) for _ in range(count)]


@criterion(1, "function representation equivalence and round-trip (exact, 500 vectors)")
def test_c01_function_representation_equivalence():
    start = time.monotonic()
    for a in alpha_corpus(500, seed=101):
        p = alpha_to_pipes(a)
        for x in range(a.D + 1):
            assert a.value(x) == p.value(x)  # exact rational equality
        assert pipes_to_alpha(p, D=a.D) == a
    assert time.monotonic() - start < 10.0


@criterion(2, "threshold sandwich and indifference/significance bound (Lemma 11)")
def test_c02_threshold_sanity():
    bound = (1 - 2 * GAMMA**2) / GAMMA
    for a in alpha_corpus(500, seed=202):
        reg, _ = regularize(a)
        th = thresholds(alpha_to_pipes(reg))
        k_pairs = len(th.significance)
        for k in range(k_pairs):
            assert th.capacities[k] <= th.significance[k]
            upper = th.capacities[k + 1]
            if upper is not None:  # flat pipe has unbounded capacity
                assert th.significance[k] <= upper
            g, b = th.indifference[k], th.significance[k]
            assert g <= b <= bound * g


@criterion(3, "regularization certificates: regular outputs, stage distortions 1, 3, 5/2")
def test_c03_regularization_certificates():
    start = time.monotonic()
    for a in alpha_corpus(200, seed=303):
        capped, _ = cap_capacity(a)          # rotation claims assert in-run
        rated, _ = regularize_delta(capped)
        final, _ = regularize_sigma(rated)
        assert is_gamma_regular(final)
        for x in range(1, a.D + 1):
            fx, cx, rx, gx = a.value(x), capped.value(x), rated.value(x), final.value(x)
            assert fx <= 1 * cx
            assert cx <= 3 * rx
            assert rx <= F(5, 2) * gx
    assert time.monotonic() - start < 60.0


@criterion(4, "capacity-cap stage raises the mixed benchmark by at most 2x (exact)")
def test_c04_cap_capacity_l_bound():
    rng = np.random.default_rng(404)
    for inst in small_instance_corpus(count=20, max_nodes=7, seed=404):
        opt = exact_optima(inst)
        profile = demand_profile(inst)
        levels = sorted(
            rng.choice(profile.levels, size=int(rng.integers(1, profile.levels + 1)), replace=False).tolist()
        )
        alpha = AlphaVector(
            alpha={int(l): F(int(rng.integers(1, 32)), int(rng.integers(1, 8))) for l in levels},
            D=profile.D,
        )
        capped, _ = cap_capacity(alpha)
        before = opt.multi_level_cost(alpha)
        after = opt.multi_level_cost(capped)
        assert after <= 2 * before  # exact rational comparison


@criterion(5, "per-level optimum chain: opt_i <= opt_{i+k} <= 2^k opt_i (exact)")
def test_c05_level_chain():
    for inst in small_instance_corpus(count=20, max_nodes=7, seed=505):
        opt = exact_optima(inst)
        vals = [F(opt.value(i)) for i in range(len(opt.per_level))]
        for i in range(len(vals)):
            for k in range(1, len(vals) - i):
                assert vals[i] <= vals[i + k] <= (1 << k) * vals[i]


@criterion(6, "consolidation unbiasedness over 2000 seeded runs (3 standard errors)")
def test_c06_consolidation_unbiasedness():
    inst = make_instance(
        {("r", "a"): 4.0, ("a", "b"): 1.0, ("r", "c"): 4.0, ("c", "d"): 1.0, ("d", "e"): 1.0},
        {v: 2 for v in "abcde"},
        "r",
    )
    alpha = AlphaVector(alpha={0: F(16), 4: F(4)}, D=16)
    assert is_gamma_regular(alpha)
    n = 2000
    by_event: dict = {}
    for seed in range(n):
        trace = GmmTrace()
        gmm_tree(inst, alpha, seed=seed, trace=trace)
        for stage, step, snap, delivered in trace.consolidations:
            by_event.setdefault((stage, step), []).append((snap, delivered))
    # Unbiasedness is a statement about the consolidation draw; once demand
    # has been absorbed at the root the per-node mean drops by the delivered
    # mass, so assert on events that precede any delivery in every run.
    pure = {
        k: [s for s, _ in v]
        for k, v in by_event.items()
        if len(v) == n and all(d == 0 for _, d in v)
    }
    assert (0, 4) in pure  # the first facility consolidation runs in every seed
    for event, snaps in sorted(pure.items()):
        for v, d in inst.demands.items():
            xs = np.array([s[v] for s in snaps], dtype=float)
            se = xs.std(ddof=0) / math.sqrt(n)
            assert abs(xs.mean() - d) <= 3 * se + 1e-9, (event, v)


@criterion(7, "solver structural guarantees and end-to-end ratio chain on 20 instances")
def test_c07_framework_guarantees():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    done = 0
    while done < 20:
        n = int(rng.integers(5, 8))
        k = int(rng.integers(2, 5))
        if k > n - 1:
            continue
        seed = int(rng.integers(0, 10000))
        inst = generate_instance("random-geometric", n, k, seed=seed)
        dist, report = solve_oblivious(inst, SolveConfig(seed=seed))
        D = demand_profile(inst).D
        assert len(dist.support) <= 1 + int(math.log2(D))
        worst_vs_bound = max(r["ratio"] for r in report.levels)
        assert worst_vs_bound <= dist.theta + 1e-7
        opt = exact_optima(inst)
        ratio, _ = exact_oblivious_ratio(inst, dist, optima=opt)
        slack = max(report.tilde[i] / opt.value(i) for i in range(len(report.tilde)))
        assert math.isfinite(ratio) and ratio >= 1.0 - 1e-9
        assert ratio <= dist.theta * slack + 1e-7
        done += 1
    assert time.monotonic() - start < 300.0


@criterion(8, "subroutine certificates: steiner 2x, rent-or-buy mean 4x, facility load L/3")
def test_c08_subroutine_certificates():
    # exact steiner corpus, all instances at most 8 nodes
    graphs = [
        make_instance(
            {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0, ("a", "d"): 1.0},
            {"b": 1, "c": 1}, "a",
        ),
        make_instance(
            {("h", "x"): 1.0, ("h", "y"): 1.0, ("h", "z"): 1.0,
             ("x", "y"): 2.0, ("y", "z"): 2.0, ("x", "z"): 2.0},
            {"x": 1, "y": 1, "z": 1}, "x",
        ),
    ]
    for seed in range(4):
        graphs.append(generate_instance("random-geometric", 8, 4, seed=seed))
        graphs.append(generate_instance("grid", 8, 3, seed=seed))
    for inst in graphs:
        nodes = sorted(inst.nodes)
        for size in (2, 3, min(5, len(nodes))):
            for terms in itertools.islice(itertools.combinations(nodes, size), 6):
                cost = add_up(inst.lengths[e] for e in steiner_tree(inst, terms))
                opt = steiner_optimum(inst, terms, inst.lengths)
                assert cost <= 2 * opt + 1e-9

    for seed in range(3):
        inst = generate_instance("random-geometric", 5, 3, seed=seed)
        M = 2  # the cost min(x, M) is atomic level 1
        opt = min(atomic_cost(t, 1, inst.lengths) for t in enumerate_candidate_trees(inst))
        costs = [atomic_cost(rent_or_buy(inst, M, seed=s), 1, inst.lengths) for s in range(50)]
        assert sum(costs) / len(costs) <= 4 * opt + 1e-9

    for seed, bound in [(0, 2), (1, 3), (2, 2), (3, 5)]:
        inst = generate_instance("random-geometric", 7, 4, seed=seed)
        assignment = lbfl(inst, lower_bound=bound)
        loads = {f: 0 for f in assignment.values()}  # the open facilities
        for c, f in assignment.items():
            loads[f] += inst.demands[c]
        if set(loads) != {inst.root}:
            assert all(load >= bound / 3 for load in loads.values())


@criterion(9, "separation retry loop exits within its cap on at least 95% of 200 trials")
def test_c09_oracle_termination():
    inst = make_instance(
        {("r", "a"): 4.0, ("a", "b"): 1.0, ("r", "c"): 4.0, ("c", "d"): 1.0, ("d", "e"): 1.0},
        {v: 2 for v in "abcde"},
        "r",
    )
    tilde = tuple(v for _, v, _ in rob_lower_bounds(inst, seed=7))
    m = len(tilde)
    rmax = default_rmax(inst)
    rng = np.random.default_rng(909)
    pilot = []
    for _ in range(10):
        y = rng.random(m)
        y = 0.9 * y / y.sum()
        res = separation_oracle(tuple(y), 1e9, tilde, 1e9, inst, seed=int(rng.integers(1 << 30)))
        pilot.append(res.cost / y.sum())
    c_cal = max(pilot)
    ok = 0
    trials = 200
    for t in range(trials):
        y = rng.random(m)
        y = 0.9 * y / y.sum()
        # At beta 0 no tree violates, so only the threshold or the cap ends the loop.
        res = separation_oracle(tuple(y), 0.0, tilde, c_cal, inst, seed=t)
        if res.threshold_met and res.attempts <= rmax:
            ok += 1
    assert ok >= 0.95 * trials


@criterion(10, "every CLI command is byte-identical under identical seed")
def test_c10_cli_determinism(tmp_path):
    from bulktree.cli import main

    def run(argv):
        assert main([str(a) for a in argv]) == 0

    inst = tmp_path / "inst.json"
    alpha = tmp_path / "alpha.json"
    alpha.write_text('{"D": 8, "alpha": {"0": 1.0, "1": 0.5, "3": 0.125}}')

    def artifacts(tag):
        d = tmp_path / tag
        d.mkdir()
        run(["gen", "star", "--n", 6, "--demands", 4, "--out", d / "i.json", "--seed", 5])
        run(["solve", d / "i.json", "--out", d / "dist.json", "--report", d / "rep.json",
             "--seed", 5])
        run(["eval", d / "i.json", d / "dist.json", "--out", d / "eval.json", "--exact",
             "--seed", 5])
        run(["regularize", alpha, "--out", d / "reg.json"])
        run(["gmm", d / "i.json", alpha, "--out", d / "gmm.json", "--seed", 5])
        run(["brute", d / "i.json", "--out", d / "brute.json", "--tsv", d / "brute.tsv"])
        run(["bench", "path", "--sizes", "4,5", "--seeds", "1", "--out", d / "bench.tsv"])
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    assert artifacts("one") == artifacts("two")
