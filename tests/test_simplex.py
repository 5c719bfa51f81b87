import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulktree.simplex import TOL, LPError, LPInfeasible, LPUnbounded, solve_min_ge


# The row-by-row kernel that the whole-tableau pivot replaced, kept as the
# reference: the pivot sequence and every value must stay the same.
def reference_solve_min_ge(c, A, b) -> tuple[np.ndarray, float, np.ndarray]:
    """Minimize c.z subject to A z >= b, z >= 0; returns (z*, objective, y*).

    The dual y_i of row i is the phase-2 reduced cost of its surplus column:
    a flipped row flips both its surplus column and its multiplier, so the
    sign comes out right for every row.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    # Standard form A z - s = b with surplus s; flip rows with negative b so
    # the right-hand side is nonnegative and artificials form a unit basis.
    T = np.hstack([A, -np.eye(m)])
    rhs = b.copy()
    for i in range(m):
        if rhs[i] < 0:
            T[i] *= -1.0
            rhs[i] *= -1.0
    total = n + m
    art = np.eye(m)
    tab = np.hstack([T, art])
    basis = list(range(total, total + m))
    # Phase 1: minimize the artificial sum.
    cost1 = np.zeros(total + m)
    cost1[total:] = 1.0
    tab, rhs, basis, obj1 = _simplex(tab, rhs, basis, cost1)
    if obj1 > 1e-7:
        raise LPInfeasible(f"phase-1 objective {obj1}")
    # Drive leftover artificials out of the basis where possible.
    for i, bi in enumerate(basis):
        if bi >= total:
            pivot_col = next(
                (j for j in range(total) if abs(tab[i, j]) > TOL), None
            )
            if pivot_col is not None:
                _pivot(tab, rhs, i, pivot_col)
                basis[i] = pivot_col
    keep = [i for i, bi in enumerate(basis) if bi < total]
    tab = tab[keep][:, :total]
    rhs = rhs[keep]
    basis = [basis[i] for i in keep]
    cost2 = np.zeros(total)
    cost2[:n] = c
    tab, rhs, basis, obj2 = _simplex(tab, rhs, basis, cost2)
    z = np.zeros(total)
    for i, bi in enumerate(basis):
        z[bi] = rhs[i]
    y = -(cost2[basis] @ tab[:, n:])
    return z[:n], float(obj2), y


def _pivot(tab, rhs, row, col):
    piv = tab[row, col]
    tab[row] /= piv
    rhs[row] /= piv
    for i in range(tab.shape[0]):
        if i != row and abs(tab[i, col]) > 0:
            rhs[i] -= tab[i, col] * rhs[row]
            tab[i] -= tab[i, col] * tab[row]


def _simplex(tab, rhs, basis, cost):
    tab = tab.copy()
    rhs = rhs.copy()
    basis = list(basis)
    for _ in range(100000):
        y = cost[basis] @ tab
        reduced = cost - y
        entering = next((j for j in range(tab.shape[1]) if reduced[j] < -TOL), None)
        if entering is None:
            break
        ratios = [
            (rhs[i] / tab[i, entering], basis[i], i)
            for i in range(tab.shape[0])
            if tab[i, entering] > TOL
        ]
        if not ratios:
            raise LPUnbounded("no leaving variable")
        leaving_row = min(ratios)[2]
        _pivot(tab, rhs, leaving_row, entering)
        basis[leaving_row] = entering
    else:
        raise LPError("simplex iteration cap reached")
    obj = float(cost[basis] @ rhs)
    return tab, rhs, basis, obj


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


def master_lp(costs):
    """The master's shape: a theta column, a sum row, one level row per level.

    ``costs[i][j]`` is tree j's level-i cost already divided by its bound.
    """
    costs = np.asarray(costs, dtype=float)
    levels, trees = costs.shape
    A = np.zeros((1 + levels, 1 + trees))
    A[0, 1:] = 1.0
    A[1:, 0] = 1.0
    A[1:, 1:] = -costs
    b = np.zeros(1 + levels)
    b[0] = 1.0
    c = np.zeros(1 + trees)
    c[0] = 1.0
    return c, A, b


def outcome(solve, c, A, b):
    try:
        return solve(c, A, b)
    except LPError as exc:
        return type(exc)


@st.composite
def general_lps(draw):
    m, n = draw(st.integers(1, 16)), draw(st.integers(1, 24))
    if draw(st.booleans()):
        entry = st.integers(-3, 5).map(float)
        cost = st.integers(-1, 5).map(float)
    else:
        entry = st.floats(-5, 5, allow_subnormal=False)
        cost = st.floats(-1, 5, allow_subnormal=False)
    A = np.array([[draw(entry) for _ in range(n)] for _ in range(m)])
    b = np.array([draw(entry) for _ in range(m)])
    c = np.array([draw(cost) for _ in range(n)])
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        A[:, j] = 0.0
    if m > 1:
        for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                      max_size=3)):
            A[dst], b[dst] = A[src], b[src]
    return c, A, b


@st.composite
def master_lps(draw):
    levels, trees = draw(st.integers(1, 15)), draw(st.integers(1, 23))
    if draw(st.booleans()):
        entry = st.integers(0, 12).map(lambda k: k / 4)
    else:
        entry = st.floats(0.0, 20.0, allow_subnormal=False)
    costs = np.array([[draw(entry) for _ in range(trees)] for _ in range(levels)])
    if levels > 1:
        for src, dst in draw(st.lists(st.tuples(st.integers(0, levels - 1),
                                                st.integers(0, levels - 1)), max_size=3)):
            costs[dst] = costs[src]
    return master_lp(costs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(general_lps(), master_lps()))
def test_matches_row_loop_reference(lp):
    c, A, b = lp
    got, want = outcome(solve_min_ge, c, A, b), outcome(reference_solve_min_ge, c, A, b)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    (z, obj, y), (z_ref, obj_ref, y_ref) = got, want
    assert obj == obj_ref
    assert z.shape == z_ref.shape and (z == z_ref).all()
    assert y.shape == y_ref.shape and (y == y_ref).all()


@pytest.mark.parametrize("seed", range(20))
def test_master_duals_certify_optimum(seed):
    # Heavy-demand masters have 12-14 level rows below the sum row.
    rng = np.random.default_rng(seed)
    levels, trees = int(rng.integers(1, 15)), int(rng.integers(1, 40))
    costs = rng.random((levels, trees)) * rng.choice([1.0, 4.0, 20.0])
    if seed % 4 == 0:
        costs[-1] = costs[0]
    c, A, b = master_lp(costs)
    z, obj, y = solve_min_ge(c, A, b)
    assert (z >= -1e-9).all() and (A @ z >= b - 1e-7).all()
    assert obj == pytest.approx(c @ z, abs=1e-9)
    assert (y >= -1e-9).all()
    assert (A.T @ y <= c + 1e-7).all()
    assert b @ y == pytest.approx(obj, abs=1e-7)
