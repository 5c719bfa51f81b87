"""Command-line front end.

Subcommands: gen, solve, eval, regularize, gmm, brute, bench, pipes.
Artifacts are schema-versioned JSON (or TSV for tables) written to declared
output paths; logs go to stderr as key=value lines.  Randomized commands
require an explicit nonnegative seed (no wall-clock seeding) and every
randomized artifact embeds the seed and a ``config_hash``, so runs can be
replayed exactly.  The solver has no setting besides the seed, so for solve,
eval and gmm the hash covers the seed alone; for gen it covers the model, n,
demands and seed.  Exit codes: 0 success, 2 validation/parse error, 3
numeric or internal failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from . import exact as exact_mod
from .aggregation import RoutedTree, TreeDistribution, level_rows, route_demands
from .framework import SolveConfig, solve_oblivious
from .gmm import GmmTrace, gmm_tree
from .instance import (
    GENERATOR_MODELS,
    Instance,
    ParseError,
    ValidationError,
    generate_instance,
    load_instance,
    save_instance,
)
from .pipes import GAMMA, AlphaVector, alpha_to_pipes, indifference_point, significance_point
from .regularize import RegularizationInternalError, regularize
from .simplex import LPError
from .subroutines import rob_lower_bounds, _mix_seed

SCHEMA = "bulktree/v1"


def _log(**kv) -> None:
    print(" ".join(f"{k}={v}" for k, v in kv.items()), file=sys.stderr)


def _error_json(exc: Exception, code: int) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _weight_from_obj(v) -> Fraction:
    """A number, or an exact [numerator, denominator] pair of integers."""
    if _is_number(v):
        return Fraction(float(v))
    if isinstance(v, list) and len(v) == 2 and all(
        isinstance(x, int) and not isinstance(x, bool) for x in v
    ):
        return Fraction(*v)
    raise ValueError(f"not a weight: {v!r}")


def _alpha_from_obj(obj) -> AlphaVector:
    if not isinstance(obj, dict) or "alpha" not in obj or "D" not in obj:
        raise ParseError("alpha JSON needs fields 'alpha' and 'D'")
    src = obj.get("alpha_exact", obj["alpha"])
    if not isinstance(src, dict):
        raise ParseError("alpha weights must be an object")
    alpha = {}
    for k, v in src.items():
        try:
            alpha[int(k)] = _weight_from_obj(v)
        except (TypeError, ValueError, ArithmeticError):
            raise ParseError(
                f"alpha entry {k!r}: {v!r} must map an integer level to a finite number "
                "or a pair [numerator, denominator] with a nonzero denominator"
            ) from None
    D = obj["D"]
    if isinstance(D, bool) or not (isinstance(D, int) or (isinstance(D, float) and D.is_integer())):
        raise ParseError(f"D must be an integer, got {D!r}")
    return AlphaVector(alpha=alpha, D=int(D))


def _alpha_to_obj(a: AlphaVector) -> dict:
    return {
        "schema": SCHEMA,
        "D": a.D,
        "alpha": {str(i): float(v) for i, v in a.alpha.items()},
        "alpha_exact": {str(i): [v.numerator, v.denominator] for i, v in a.alpha.items()},
    }


def _tree_to_obj(tree: RoutedTree) -> dict:
    return {
        "edges": [[u, v] for u, v in tree.sorted_edges()],
        "flow": {f"{u}|{v}": f for (u, v), f in sorted(tree.flow.items())},
    }


def _distribution_to_obj(dist: TreeDistribution, extra: dict) -> dict:
    return {
        "schema": SCHEMA,
        "theta": dist.theta,
        "trees": [
            {"weight": w, "edges": [[u, v] for u, v in t.sorted_edges()]}
            for t, w in dist.support
        ],
        **extra,
    }


def _distribution_from_obj(obj, inst: Instance) -> TreeDistribution:
    if not isinstance(obj, dict) or not isinstance(obj.get("trees"), list):
        raise ParseError("distribution JSON needs a list field 'trees'")
    theta = obj.get("theta", 0.0)
    if not _is_number(theta):
        raise ParseError("theta must be a number")
    support = []
    for idx, entry in enumerate(obj["trees"]):
        if not isinstance(entry, dict) or "edges" not in entry or "weight" not in entry:
            raise ParseError(f"tree #{idx} must be an object with fields 'edges' and 'weight'")
        edges, weight = entry["edges"], entry["weight"]
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)
            for e in edges
        ):
            raise ParseError(f"tree #{idx}: edges must be a list of [u, v] node pairs")
        if not (_is_number(weight) and 0 < weight < math.inf):
            raise ParseError(f"tree #{idx}: weight must be a finite positive number")
        support.append((route_demands(inst, [tuple(e) for e in edges]), float(weight)))
    return TreeDistribution(support=tuple(support), theta=float(theta))


def cmd_gen(args) -> int:
    inst = generate_instance(args.model, args.n, args.demands, args.seed)
    gen_cfg = {"model": args.model, "n": args.n, "demands": args.demands, "seed": args.seed}
    save_instance(inst, args.out, meta={**gen_cfg, "config_hash": _config_hash(gen_cfg)})
    _log(cmd="gen", model=args.model, n=args.n, out=args.out)
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    config = SolveConfig(seed=args.seed)
    t0 = time.monotonic()
    dist, report = solve_oblivious(inst, config)
    _log(cmd="solve", instance=args.instance, theta=f"{dist.theta:.6g}",
         support=len(dist.support), seconds=f"{time.monotonic() - t0:.2f}")
    meta = {"seed": args.seed, "config_hash": _config_hash({"seed": args.seed})}
    _write_json(args.out, _distribution_to_obj(dist, {
        **meta,
        "diagnostics": {"levels": report.levels, "tilde": list(report.tilde)},
    }))
    if args.report:
        _write_json(args.report, {
            "schema": SCHEMA, **meta,
            "theta": dist.theta,
            "support_size": len(dist.support), "levels": report.levels,
            "runs": report.runs,
        })
    return 0


def cmd_eval(args) -> int:
    inst = load_instance(args.instance)
    with open(args.distribution) as fh:
        dist = _distribution_from_obj(json.load(fh), inst)
    bounds = rob_lower_bounds(inst, _mix_seed(args.seed, 0xAB))
    rows = level_rows(dist, [v for _, v, _ in bounds], inst.lengths)
    out = {
        "schema": SCHEMA,
        "seed": args.seed,
        "config_hash": _config_hash({"seed": args.seed}),
        "levels": rows,
        "max_ratio_vs_bound": max(r["ratio"] for r in rows),
    }
    if args.exact:
        opt = exact_mod.exact_optima(inst)
        ratio, worst = exact_mod.exact_oblivious_ratio(inst, dist, optima=opt)
        for row in rows:
            row["exact_optimum"] = opt.value(row["i"])
        out["exact_oblivious_ratio"] = ratio
        out["worst_level"] = worst
    _write_json(args.out, out)
    _log(cmd="eval", instance=args.instance, out=args.out)
    return 0


def cmd_regularize(args) -> int:
    with open(args.alpha) as fh:
        vec = _alpha_from_obj(json.load(fh))
    out_vec, report = regularize(vec)
    _write_json(args.out, {
        "schema": SCHEMA,
        "gamma": float(GAMMA),
        "input": _alpha_to_obj(vec),
        "output": _alpha_to_obj(out_vec),
        "report": {
            "total_f_lower_factor": float(report.total_f_lower_factor),
            "stages": [
                {
                    "stage": st.stage,
                    "distortion_bound": float(st.distortion_bound),
                    "pipes_removed": st.pipes_removed,
                    "rotations": len(st.rotations),
                }
                for st in report.stages
            ],
        },
    })
    _log(cmd="regularize", out=args.out)
    return 0


def cmd_gmm(args) -> int:
    inst = load_instance(args.instance)
    with open(args.alpha) as fh:
        vec = _alpha_from_obj(json.load(fh))
    reg, _ = regularize(vec)
    trace = GmmTrace()
    tree, costs = gmm_tree(inst, reg, args.seed, trace=trace)
    _write_json(args.out, {
        "schema": SCHEMA,
        "seed": args.seed,
        "config_hash": _config_hash({"seed": args.seed}),
        "tree": _tree_to_obj(tree),
        "stage_costs": [
            {"stage": c.stage, "steiner_cost": c.steiner_cost, "facility_cost": c.facility_cost}
            for c in costs
        ],
        "fallback_stage": trace.fallback_stage,
    })
    _log(cmd="gmm", out=args.out)
    return 0


def cmd_brute(args) -> int:
    inst = load_instance(args.instance)
    opt, theta_opt, _ = exact_mod.exact_optima_and_lp(inst)
    obj = {
        "schema": SCHEMA,
        "levels": [
            {"i": i, "optimum": val, "edges": [[u, v] for u, v in tree.sorted_edges()]}
            for i, tree, val in opt.per_level
        ],
        "theta_opt": theta_opt,
    }
    _write_json(args.out, obj)
    if args.tsv:
        with open(args.tsv, "w") as fh:
            fh.write("i\toptimum\n")
            for i, _, val in opt.per_level:
                fh.write(f"{i}\t{val!r}\n")
            fh.write(f"theta_opt\t{theta_opt!r}\n")
    _log(cmd="brute", out=args.out)
    return 0


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rows = []
    for n in sizes:
        for seed in args.seeds:
            instance_id = f"{args.family}-n{n}-s{seed}"
            t0 = time.monotonic()
            try:
                inst = generate_instance(args.family, n, max(1, (n - 1) // 2), seed)
                dist, _ = solve_oblivious(inst, SolveConfig(seed=seed))
                theta_opt = exact_ratio = ""
                if len(inst.nodes) <= exact_mod.DEFAULT_NODE_CAP:
                    opt, lp_theta, _ = exact_mod.exact_optima_and_lp(inst)
                    theta_opt = repr(lp_theta)
                    exact_ratio = repr(exact_mod.exact_oblivious_ratio(inst, dist, optima=opt)[0])
                rows.append(
                    (instance_id, repr(dist.theta), theta_opt, exact_ratio,
                     str(len(dist.support)), str(inst.total_demand()))
                )
            except Exception as exc:  # per-row failure recorded, run continues
                rows.append((instance_id, "error", type(exc).__name__, "", "", ""))
            _log(cmd="bench", instance=instance_id, seconds=f"{time.monotonic() - t0:.2f}")
    with open(args.out, "w") as fh:
        fh.write("instance\ttheta\ttheta_opt\texact_ratio\tsupport\ttotal_demand\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")
    return 0


def cmd_pipes(args) -> int:
    with open(args.alpha) as fh:
        vec = _alpha_from_obj(json.load(fh))
    schedule = alpha_to_pipes(vec)
    print("k\tsigma\tdelta\tcapacity\tindifference\tsignificance")
    for k, pipe in enumerate(schedule.pipes):
        cap = None if pipe.rate == 0 else pipe.fixed / pipe.rate
        g = b = None
        undef_b = False
        if k + 1 < len(schedule.pipes):
            nxt = schedule.pipes[k + 1]
            g = indifference_point(pipe, nxt)
            b = significance_point(pipe, nxt)
            undef_b = b is None

        def fmt(x, undef=False):
            if undef:
                return "undef"
            return "inf" if x is None else f"{float(x):.9g}"

        print(
            f"{k}\t{float(pipe.fixed):.9g}\t{float(pipe.rate):.9g}"
            f"\t{fmt(cap)}\t{fmt(g)}\t{fmt(b, undef_b)}"
        )
    return 0


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only nonnegative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _seeds(text: str) -> list[int]:
    """A --seeds value: comma-separated seeds, each one a --seed; may be empty."""
    return [_seed(s) for s in text.split(",")] if text else []


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bulktree", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=_seed, required=True,
                       help="master seed, a nonnegative integer (required; no wall-clock seeding)")

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("model", choices=GENERATOR_MODELS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--demands", type=int, required=True)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="compute an oblivious tree distribution")
    p.add_argument("instance")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    add_seed(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a distribution file against an instance")
    p.add_argument("instance")
    p.add_argument("distribution")
    p.add_argument("--out", required=True)
    p.add_argument("--exact", action="store_true", help="also compare against brute-force optima")
    add_seed(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("regularize", help="regularize a weight vector JSON")
    p.add_argument("alpha")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_regularize)

    p = sub.add_parser("gmm", help="run the staged tree construction once")
    p.add_argument("instance")
    p.add_argument("alpha")
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_gmm)

    p = sub.add_parser("brute", help="brute-force per-level optima and the LP optimum")
    p.add_argument("instance")
    p.add_argument("--out", required=True)
    p.add_argument("--tsv")
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("bench", help="solve a family grid and emit a TSV summary")
    p.add_argument("family", choices=GENERATOR_MODELS)
    p.add_argument("--sizes", required=True, help="comma-separated node counts")
    p.add_argument("--seeds", type=_seeds, required=True,
                   help="comma-separated nonnegative integer seeds (may be empty)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("pipes", help="print a weight vector's pipe table as TSV")
    p.add_argument("alpha")
    p.set_defaults(func=cmd_pipes)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, exact_mod.NodeCapExceeded, OSError, ValueError) as exc:
        return _error_json(exc, 2)
    except (LPError, RegularizationInternalError, ArithmeticError, RuntimeError) as exc:
        return _error_json(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
