import itertools

import numpy as np
import pytest

from bulktree.simplex import LPInfeasible, solve_min_ge


def brute_vertex_optimum(c, A, b):
    """Enumerate basic solutions of [A | -I] z_ext = b and take the best feasible one."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    full = np.hstack([A, -np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    best = None
    for cols in itertools.combinations(range(n + m), m):
        B = full[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        x = np.linalg.solve(B, b)
        if (x < -1e-9).any():
            continue
        z = np.zeros(n + m)
        z[list(cols)] = x
        val = float(cost @ z)
        if best is None or val < best[0] - 1e-12:
            best = (val, z[:n])
    return best


@pytest.mark.parametrize("seed", range(25))
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    A = rng.integers(-3, 6, size=(m, n)).astype(float)
    b = rng.integers(-2, 4, size=m).astype(float)
    c = rng.integers(1, 5, size=n).astype(float)  # positive costs keep it bounded
    brute = brute_vertex_optimum(c, A, b)
    if brute is None:
        with pytest.raises(LPInfeasible):
            solve_min_ge(c, A, b)
        return
    z, obj, y = solve_min_ge(c, A, b)
    assert obj == pytest.approx(brute[0], abs=1e-7)
    assert (A @ z >= b - 1e-7).all()
    assert (z >= -1e-9).all()
    # The row duals are dual feasible and certify the optimum.
    assert y.shape == (m,)
    assert (y >= -1e-9).all()
    assert (A.T @ y <= c + 1e-7).all()
    assert b @ y == pytest.approx(obj, abs=1e-7)


def test_simple_known_lp():
    # min x + y  s.t. x + y >= 2, x >= 0.5
    z, obj, y = solve_min_ge([1.0, 1.0], [[1, 1], [1, 0]], [2.0, 0.5])
    assert obj == pytest.approx(2.0)
    assert y == pytest.approx([1.0, 0.0])


def test_infeasible_detected():
    # x >= 1 and -x >= 0 cannot both hold
    with pytest.raises(LPInfeasible):
        solve_min_ge([1.0], [[1.0], [-1.0]], [1.0, 0.5])


def test_degenerate_terminates():
    A = [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
    b = [1.0, 1.0, 2.0]
    z, obj, _ = solve_min_ge([1.0, 2.0], A, b)
    assert obj == pytest.approx(1.0)


def test_vertex_solution_is_sparse():
    # 2 rows: a basic optimum has at most 2 nonzero entries among 6 variables
    rng = np.random.default_rng(3)
    A = rng.random((2, 6)) + 0.1
    b = [1.0, 1.0]
    c = rng.random(6) + 0.5
    z, _, _ = solve_min_ge(c, A, b)
    assert (z > 1e-9).sum() <= 2


def test_leftover_artificials_driven_out():
    # b = 0 leaves phase 1 at objective 0 with both artificials still basic,
    # so both must be pivoted out before phase 2.
    c, A, b = [3.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0]
    z, obj, y = solve_min_ge(c, A, b)
    assert obj == pytest.approx(brute_vertex_optimum(c, A, b)[0], abs=1e-7)
    A, b, c = np.array(A), np.array(b), np.array(c)
    assert (A @ z >= b - 1e-7).all() and (z >= -1e-9).all()
    assert (y >= -1e-9).all()
    assert (A.T @ y <= c + 1e-7).all()
    assert b @ y == pytest.approx(obj, abs=1e-7)
