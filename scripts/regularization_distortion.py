#!/usr/bin/env python3
"""Empirical distortion profile of the regularization pipeline.

Samples random weight vectors, runs the three stages, and reports the
distribution of the observed pointwise distortion per stage (the certified
ceilings are 1, 3, and 5/2) plus how much mass the pipeline removes.

Usage:
    python3 scripts/regularization_distortion.py --count 500 --seed 7
"""
import argparse
import sys
from fractions import Fraction

import numpy as np

from bulktree.pipes import AlphaVector
from bulktree.regularize import cap_capacity, regularize_delta, regularize_sigma


def random_vector(rng: np.random.Generator) -> AlphaVector:
    log_d = int(rng.integers(0, 7))
    D = 1 << log_d
    count = int(rng.integers(1, log_d + 2))
    levels = rng.choice(log_d + 1, size=min(count, log_d + 1), replace=False)
    alpha = {int(l): Fraction(int(rng.integers(1, 64)), int(rng.integers(1, 16))) for l in levels}
    return AlphaVector(alpha=alpha, D=D)


def worst_drop(before: AlphaVector, after: AlphaVector, D: int) -> float:
    return max(float(before.value(x) / after.value(x)) for x in range(1, D + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    drops = {"capacity": [], "rate": [], "fixed": []}
    removed = []
    for _ in range(args.count):
        a = random_vector(rng)
        capped, r1 = cap_capacity(a)
        rated, r2 = regularize_delta(capped)
        final, r3 = regularize_sigma(rated)
        drops["capacity"].append(worst_drop(a, capped, a.D))
        drops["rate"].append(worst_drop(capped, rated, a.D))
        drops["fixed"].append(worst_drop(rated, final, a.D))
        removed.append(r1.pipes_removed + r2.pipes_removed + r3.pipes_removed)

    print("stage\tceiling\tmean\tp95\tmax")
    ceilings = {"capacity": 1.0, "rate": 3.0, "fixed": 2.5}
    for stage, vals in drops.items():
        arr = np.array(vals)
        print(
            f"{stage}\t{ceilings[stage]:.2f}\t{arr.mean():.4f}"
            f"\t{np.quantile(arr, 0.95):.4f}\t{arr.max():.4f}"
        )
    print(f"pipes removed per vector: mean {np.mean(removed):.2f}, max {max(removed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
