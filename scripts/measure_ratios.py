#!/usr/bin/env python3
"""Measure solver quality across instance families.

For each (family, size, seed) cell: solve, then compare the distribution's
worst level ratio against the rent-or-buy bounds and (within the node cap)
against exact brute-force optima.  Prints a TSV table to stdout.

Usage:
    python3 scripts/measure_ratios.py --families star,path,random-geometric \
        --sizes 5,6,7 --seeds 0,1,2
"""
import argparse
import sys
import time

from bulktree.exact import DEFAULT_NODE_CAP, exact_oblivious_ratio, exact_optima_and_lp
from bulktree.framework import SolveConfig, solve_oblivious
from bulktree.instance import generate_instance


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--families", default="star,path,grid,random-geometric")
    ap.add_argument("--sizes", default="5,6,7")
    ap.add_argument("--seeds", default="0,1,2")
    args = ap.parse_args()

    print("instance\ttheta\texact_ratio\ttheta_opt\tsupport\tseconds")
    for family in args.families.split(","):
        for n in (int(s) for s in args.sizes.split(",")):
            for seed in (int(s) for s in args.seeds.split(",")):
                inst = generate_instance(family, n, max(1, (n - 1) // 2), seed)
                t0 = time.monotonic()
                dist, _ = solve_oblivious(inst, SolveConfig(seed=seed))
                elapsed = time.monotonic() - t0
                exact_ratio = theta_opt = ""
                if len(inst.nodes) <= DEFAULT_NODE_CAP:
                    opt, lp_theta, _ = exact_optima_and_lp(inst)
                    ratio, _ = exact_oblivious_ratio(inst, dist, optima=opt)
                    exact_ratio = f"{ratio:.4f}"
                    theta_opt = f"{lp_theta:.4f}"
                print(
                    f"{family}-n{n}-s{seed}\t{dist.theta:.4f}\t{exact_ratio}\t{theta_opt}"
                    f"\t{len(dist.support)}\t{elapsed:.2f}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
