"""Small exact linear algebra helpers.

Row reduction runs on integer rows without division (``rref_int``); the
rational routines scale each row to integers, reduce, and divide by the
pivots once at the end, so they return lists of Fraction. Matrices are small
(dimension <= a few hundred), so plain Gauss-Jordan elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def rref_int(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns (rows, pivot_columns). Row r (r < number of pivots) is a nonzero
    integer multiple of row r of the reduced row echelon form: its pivot
    entry is nonzero, every other pivot column of it is zero, and dividing it
    by its pivot entry gives the RREF row. The remaining rows are zero. Each
    elimination cross-multiplies the two rows and divides the result by its
    gcd; pivots are chosen as in ``rref``.
    """
    rows = [list(row) for row in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                new = [piv * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref_solution(rows, pivots, col):
    """Read one solution off ``rref_int`` of an augmented matrix [M | B].

    The solution x of M x = (column ``col`` of B) with its free variables
    zero, as (D, [(pivot column c, numerator n)]) with x[c] = n / D; D is the
    lcm of the pivot entries of the rows the solution uses. Consistency is
    the caller's business: no pivot may lie in the B part.
    """
    used = [(row, c) for row, c in zip(rows, pivots) if row[col]]
    denom = lcm(*(row[c] for row, c in used))
    return denom, [(c, row[col] * (denom // row[c])) for row, c in used]


def rref(mat):
    """Reduced row echelon form over Fraction; returns (rows, pivot_columns)."""
    rows, pivots = rref_int([clear_denominators(row) for row in mat])
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    out += [[Fraction(0)] * len(row) for row in rows[len(pivots):]]
    return out, pivots


def rank(mat):
    return len(rref(mat)[1])


def nullspace(mat, ncols=None):
    """Basis of the right nullspace, as lists of Fraction."""
    if not mat:
        if ncols is None:
            return []
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(mat[0])
    rows, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def solve(mat, rhs):
    """One exact solution x of mat @ x = rhs, or None if inconsistent."""
    if not mat:
        return None
    ncols = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    rows, pivots = rref(aug)
    for row in rows:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rows[r][-1]
    return x


def inverse(mat):
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (gcd 1).

    The zero vector is returned unchanged.
    """
    if all(isinstance(x, int) for x in vec):
        g = gcd(*vec)
        return tuple(x // g for x in vec) if g else tuple(vec)
    fracs = [Fraction(x) for x in vec]
    if all(x == 0 for x in fracs):
        return tuple(0 for _ in fracs)
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)
