"""Seeded workloads for the bulktree benchmark.

Each workload turns one workload seed into a fixed list of cases (instance,
solve seed); the solver only ever sees the generated ``Instance`` objects.
Sizes are chosen so that one pass fits in a 30-second run on a 2-core
machine and holds enough distinct instances that its figures differ little
from seed to seed.  Time left after the first pass repeats it, and each
instance's median over the repeats absorbs some of the machine's noise.

Run as a script (``python3 perfbench/workloads.py <workload> <seed>``) it
imports bulktree, generates the workload and prints the seconds that took;
the benchmark uses this to time set-up in fresh interpreters.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # pin BLAS/OpenMP pools before numpy is imported

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import bulktree  # noqa: E402

# Exhaustive enumeration cost grows steeply with edge count (one exact_optima
# on an 8-node geometric graph: 0.18 s at 16 edges, 0.64 s at 18, 1.6 s at 20),
# so geometric draws outside a narrow edge window are skipped: every verify-n8
# pass then does about the same exact work, whatever the seed.
VERIFY_EDGES = (15, 16)


@dataclass(frozen=True)
class Case:
    label: str
    inst: bulktree.Instance
    seed: int  # solve seed handed to SolveConfig


def _stream(workload_seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(workload_seed), tag])


def _draw_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def geo_solve(workload_seed: int) -> list[Case]:
    """Random-geometric graphs with the generator's unit demands: Dijkstra-bound."""
    n = 16
    rng = _stream(workload_seed, 1)
    return [
        Case(f"rg-n{n}-s{s}", bulktree.generate_instance("random-geometric", n, (n - 1) // 2, s), s)
        for s in _draw_seeds(rng, 30)
    ]


def _heavy(model: str, n: int, s: int, rng: np.random.Generator) -> Case:
    base = bulktree.generate_instance(model, n, (n - 1) // 2, s)
    demands = {v: int(rng.integers(1, 1001)) for v in base.demands}
    inst = bulktree.Instance(nodes=base.nodes, lengths=base.lengths, demands=demands, root=base.root)
    return Case(f"{model}-n{n}-s{s}", inst, s)


def heavy_demand(workload_seed: int) -> list[Case]:
    """Few nodes, demands up to 1000: 12-14 levels.

    Lengths keep the generator's scale.  Rescaled lengths leave the solver's
    work unchanged but hit a sporadic LP failure (see the known-defect probe
    in run.py), which belongs in the defect report, not in the timed loop.
    """
    rng = _stream(workload_seed, 2)
    shapes = [("random-geometric", 16), ("grid", 16), ("path", 16)] * 5
    return [_heavy(model, n, s, rng) for (model, n), s in zip(shapes, _draw_seeds(rng, len(shapes)))]


def verify_n8(workload_seed: int) -> list[Case]:
    """Desk-scale instances within the brute-force node cap, half geometric, half grid."""
    rng = _stream(workload_seed, 3)
    cases = []
    geo = 0
    while geo < 24:
        s = _draw_seeds(rng, 1)[0]
        inst = bulktree.generate_instance("random-geometric", 8, 3, s)
        if VERIFY_EDGES[0] <= len(inst.lengths) <= VERIFY_EDGES[1]:
            cases.append(Case(f"rg-n8-s{s}", inst, s))
            geo += 1
    for s in _draw_seeds(rng, 12):
        cases.append(Case(f"grid-n8-s{s}", bulktree.generate_instance("grid", 8, 3, s), s))
    return cases


BUILDERS = {"geo-solve": geo_solve, "heavy-demand": heavy_demand, "verify-n8": verify_n8}


def build(workload: str, workload_seed: int) -> list[Case]:
    return BUILDERS[workload](workload_seed)


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]))
    print(repr(time.perf_counter() - _T0))
