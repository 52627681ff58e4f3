"""Small exact linear algebra helpers.

There is one elimination, ``rref_int``: fraction-free Gauss-Jordan on
integer rows. Everything else reads its answer off those rows. ``nullspace``
returns primitive integer vectors, ``inverse`` an integer matrix over one
common denominator. Rational input rows are first scaled to integers, which
leaves the row space unchanged. Matrices are small (dimension <= a few
hundred), so plain elimination is fine.
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
    gcd; the pivot of a column is its first nonzero entry at or below the
    current row, so the pivot columns are the greedy first independent
    columns.
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


def _rref_scaled(mat):
    """``rref_int`` of rows scaled to primitive integers; its rows stay so."""
    return rref_int([clear_denominators(row) for row in mat])


def nullspace(mat, ncols=None):
    """Basis of the right null space, one primitive integer tuple per free
    column fc: the vector with x[fc] > 0 and every other free entry zero.

    ``ncols`` gives the width of an empty matrix, whose null space is
    spanned by the unit vectors.
    """
    if mat:
        ncols = len(mat[0])
    rows, pivots = _rref_scaled(mat)
    basis = []
    for fc in range(ncols or 0):
        if fc in pivots:
            continue
        # x[fc] = 1 leaves M x = 0 for x[c] = -y[c], where M y = column fc
        denom, terms = rref_solution(rows, pivots, fc)
        vec = [0] * ncols
        vec[fc] = denom
        for c, num in terms:
            vec[c] = -num
        basis.append(clear_denominators(vec))
    return basis


def inverse(mat):
    """(D, N) with D > 0 the least common denominator of the entries of
    mat^-1 and N = D mat^-1 an integer matrix; ValueError if mat is singular.

    Row r of ``_rref_scaled`` of [mat | I] is p_r [e_r | row r of mat^-1];
    it is primitive, so |p_r| is the least denominator of that row.
    """
    n = len(mat)
    rows, pivots = _rref_scaled(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    den = lcm(*(row[r] for r, row in enumerate(rows)))
    return den, [[x * den // row[r] for x in row[n:]] for r, row in enumerate(rows)]


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (gcd 1).

    The zero vector is returned unchanged.
    """
    try:
        g = gcd(*vec)  # TypeError on a Fraction or a float
    except TypeError:
        pass
    else:
        return tuple(x // g for x in vec) if g > 1 else tuple(vec)
    fracs = [Fraction(x) for x in vec]
    if all(x == 0 for x in fracs):
        return tuple(0 for _ in fracs)
    denom = lcm(*(x.denominator for x in fracs))
    ints = [int(x * denom) for x in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)
