"""Dense two-phase primal simplex with Bland's rule, for the small tree LPs.

Solves   min c.z   s.t.  A z >= b,  z >= 0

and returns a vertex (basic) optimal solution, which is what gives the sparse
support of the extracted tree distributions, together with the row duals
y >= 0 (A^T y <= c, b.y = c.z) that price new columns.  Bland's rule (smallest eligible
index for both entering and leaving variable) rules out cycling.

The LPs are small (a sum row and one row per level, up to 15 rows when
demands reach 1000), but the master is solved once per pricing call, and
with a row-by-row pivot it took about 30% of a heavy-demand solve.  So a
pivot updates the whole tableau with one rank-1 update, one numpy call at
any row count, and the entering, ratio and drive-out scans read Python lists
from one ``tolist()`` each, since indexing numpy scalars one at a time costs
more than the scan itself at these sizes.  Each entry still gets the
multiply and subtract of a row-by-row update, in the same order, so the
pivot sequence and every value match it; only a zero in a row whose factor
is zero may change sign, and no comparison or division reads that sign.
"""
from __future__ import annotations

import numpy as np

TOL = 1e-9


class LPError(RuntimeError):
    pass


class LPInfeasible(LPError):
    pass


class LPUnbounded(LPError):
    pass


def solve_min_ge(c, A, b) -> tuple[np.ndarray, float, np.ndarray]:
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
                (j for j, v in enumerate(tab[i, :total].tolist()) if abs(v) > TOL), None
            )
            if pivot_col is not None:
                _pivot(tab, rhs, i, pivot_col)
                basis[i] = pivot_col
    keep = [i for i, bi in enumerate(basis) if bi < total]
    tab = tab[:, :total]
    if len(keep) < m:
        tab, rhs = tab[keep], rhs[keep]
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
    """Pivot on (row, col) with one rank-1 update of the whole tableau.

    Each other row gets x - f * y, the multiply and subtract of a row loop;
    the pivot row's factor is zero, so it stays as divided.
    """
    piv = tab[row, col]
    tab[row] /= piv
    rhs[row] /= piv
    f = tab[:, col].copy()
    f[row] = 0.0
    rhs -= f * rhs[row]
    tab -= f[:, None] * tab[row]


def _simplex(tab, rhs, basis, cost):
    """Bland's-rule iterations on (tab, rhs, basis), which are updated in place."""
    for _ in range(100000):
        y = cost[basis] @ tab
        reduced = (cost - y).tolist()
        entering = next((j for j, r in enumerate(reduced) if r < -TOL), None)
        if entering is None:
            break
        column = tab[:, entering].tolist()
        rhs_values = rhs.tolist()
        ratios = [
            (rhs_values[i] / a, basis[i], i) for i, a in enumerate(column) if a > TOL
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
