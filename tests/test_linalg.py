import random
from fractions import Fraction
from math import gcd

import pytest

from eigencone import linalg


def test_nullspace():
    assert linalg.nullspace([[1, 1, 0]]) == [(-1, 1, 0), (0, 0, 1)]
    assert linalg.nullspace([[2, 3, 0], [0, 0, 4]]) == [(-3, 2, 0)]


def test_inverse():
    # (D, N): N = D mat^-1 over the least common denominator D
    assert linalg.inverse([[2, 1], [1, 1]]) == (1, [[1, -1], [-1, 2]])
    assert linalg.inverse([[2, -1], [-1, 2]]) == (3, [[2, 1], [1, 2]])
    assert linalg.inverse([[0, 1], [3, 0]]) == (3, [[0, 1], [3, 0]])
    # the empty Levi block of a Borel subgroup
    assert linalg.inverse([]) == (1, [])


def test_clear_denominators():
    assert linalg.clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert linalg.clear_denominators([4, 6]) == (2, 3)
    assert linalg.clear_denominators([0, 0]) == (0, 0)
    assert linalg.clear_denominators([Fraction(-1, 2), 0]) == (-1, 0)


@pytest.mark.parametrize(
    "vec",
    [
        (4, -6, 0), (0, 0, 0), (-3,), (0, 5), (12, 18, -30), (-7, 0, 14), (),
        (3, -5, 0), (1,), (-1, 0), (0,), (2**70, -(2**71)),
    ],
)
def test_clear_denominators_int_path_matches_fraction_path(vec):
    # the int path (gcd succeeds) against the Fraction path, fed the same
    # values as Fractions of denominator 1 and as int/Fraction mixtures
    got = linalg.clear_denominators(list(vec))
    assert type(got) is tuple
    assert got == linalg.clear_denominators(vec)
    assert got == linalg.clear_denominators([Fraction(x) for x in vec])
    for parity in (0, 1):
        mixed = [Fraction(x) if i % 2 == parity else x for i, x in enumerate(vec)]
        assert linalg.clear_denominators(mixed) == got
    assert all(type(x) is int for x in got)
    # a primitive or zero vector comes back as it is
    if gcd(*vec) <= 1:
        assert got == tuple(vec)
    # halving every entry leaves the primitive vector unchanged
    assert linalg.clear_denominators([Fraction(x, 2) for x in vec]) == got


def _reference_rref(mat):
    """Plain Gauss-Jordan over Fraction, dividing at every pivot."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _random_matrices(rng):
    """Integer, rational, rank-deficient, zero and empty matrices."""
    mats = [[], [[]], [[0, 0, 0]], [[0], [0]]]
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        mats.append([[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)]
                     for _ in range(m)])
        mats.append([[Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                      for _ in range(n)] for _ in range(m)])
        mats.append([[0] * n for _ in range(m)])
        # a product through a thinner middle has rank < min(m, n)
        k = rng.randint(1, max(1, min(m, n) - 1))
        a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        b = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(k)]
        mats.append([[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                     for row in a])
    return mats


def test_rref_against_fraction_gauss_jordan():
    rng = random.Random(20180309)
    for mat in _random_matrices(rng):
        want = _reference_rref(mat)
        if mat and mat[0]:
            ints = [linalg.clear_denominators(row) for row in mat]
            rows, pivots = linalg.rref_int(ints)
            assert pivots == want[1]
            assert all(type(x) is int for row in rows for x in row)
            for row, c, ref in zip(rows, pivots, want[0]):
                assert [Fraction(x, row[c]) for x in row] == ref
            assert all(not any(row) for row in rows[len(pivots):])


def test_nullspace_against_fraction_gauss_jordan():
    rng = random.Random(314)
    for mat in _random_matrices(rng):
        ncols = len(mat[0]) if mat else 0
        ref_rows, ref_pivots = _reference_rref(mat)
        free = [c for c in range(ncols) if c not in ref_pivots]
        got = linalg.nullspace(mat)
        assert len(got) == len(free), mat
        for vec, fc in zip(got, free):
            assert type(vec) is tuple and all(type(x) is int for x in vec)
            assert linalg.clear_denominators(vec) == vec
            # the reference vector has 1 at fc and 0 at every other free column
            want = [Fraction(int(c == fc)) for c in range(ncols)]
            for row, pc in zip(ref_rows, ref_pivots):
                want[pc] = -row[fc]
            assert vec[fc] > 0
            assert list(vec) == [vec[fc] * x for x in want], mat
    assert linalg.nullspace([], ncols=3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_inverse_against_fraction_gauss_jordan():
    rng = random.Random(1968)
    for mat in _random_matrices(rng):
        # the leading square block: regular and singular cases alike
        k = min(len(mat), len(mat[0])) if mat else 0
        sq = [row[:k] for row in mat[:k]]
        if not sq:
            continue
        ref_rows, ref_pivots = _reference_rref(
            [row + [int(i == j) for j in range(k)] for i, row in enumerate(sq)]
        )
        if ref_pivots[:k] != list(range(k)):
            with pytest.raises(ValueError):
                linalg.inverse(sq)
            continue
        den, got = linalg.inverse(sq)
        assert type(den) is int and den > 0
        assert all(type(x) is int for row in got for x in row)
        assert [[Fraction(x, den) for x in row] for row in got] == [
            row[k:] for row in ref_rows
        ], sq
        # D is the least common denominator exactly when gcd(D, N) = 1
        assert gcd(den, *(x for row in got for x in row)) == 1, sq


def test_rref_solution_against_fraction_gauss_jordan():
    rng = random.Random(1729)
    checked = 0
    while checked < 60:
        n, extra = rng.randint(1, 5), rng.randint(0, 3)
        mat = [[rng.choice([0, rng.randint(-7, 7)]) for _ in range(n + extra)]
               for _ in range(n)]
        rhs = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(n)]
        if len(linalg.rref_int(mat)[1]) < n:
            continue
        rows, pivots = linalg.rref_int([a + b for a, b in zip(mat, rhs)])
        for t in range(3):
            denom, terms = linalg.rref_solution(rows, pivots, n + extra + t)
            x = [Fraction(0)] * (n + extra)
            for c, num in terms:
                x[c] = Fraction(num, denom)
            ref_rows, ref_pivots = _reference_rref(
                [a + [b[t]] for a, b in zip(mat, rhs)]
            )
            want = [Fraction(0)] * (n + extra)
            for row, c in zip(ref_rows, ref_pivots):
                want[c] = row[-1]
            assert x == want
            assert denom > 0 and all(num for _, num in terms)
        checked += 1


def test_rref_solution_denominator_is_an_lcm():
    # x = (1/2, 1/3): the pivots 2 and 3 need the common denominator 6
    rows, pivots = linalg.rref_int([[2, 0, 1], [0, 3, 1]])
    assert linalg.rref_solution(rows, pivots, 2) == (6, [(0, 3), (1, 2)])
