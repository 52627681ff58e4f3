from fractions import Fraction

import pytest

from eigencone import linalg


def test_rref_identity():
    rows, pivots = linalg.rref([[1, 0], [0, 1]])
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rank():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 2], [3, 4]]) == 2
    assert linalg.rank([]) == 0


def test_nullspace():
    ns = linalg.nullspace([[1, 1, 0]])
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] == 0 or v[2] != 0


def test_solve():
    x = linalg.solve([[2, 0], [0, 3]], [4, 9])
    assert x == [2, 3]
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_inverse():
    inv = linalg.inverse([[2, 1], [1, 1]])
    assert inv == [[1, -1], [-1, 2]]


def test_clear_denominators():
    assert linalg.clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert linalg.clear_denominators([4, 6]) == (2, 3)
    assert linalg.clear_denominators([0, 0]) == (0, 0)
    assert linalg.clear_denominators([Fraction(-1, 2), 0]) == (-1, 0)


@pytest.mark.parametrize(
    "vec", [(4, -6, 0), (0, 0, 0), (-3,), (0, 5), (12, 18, -30), (-7, 0, 14), ()]
)
def test_clear_denominators_int_path_matches_fraction_path(vec):
    got = linalg.clear_denominators(list(vec))
    assert got == linalg.clear_denominators([Fraction(x) for x in vec])
    assert all(type(x) is int for x in got)
