"""Small exact linear algebra helpers over Fraction.

Everything here operates on lists of lists of Fraction (or int); matrices are
small (dimension <= a few dozen), so plain Gaussian elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = _frac_rows(mat)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


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
