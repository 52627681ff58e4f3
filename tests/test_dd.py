"""Regression gate and brute-force cross-check for the double description.

The digests below were recorded from earlier engines: A2-C3 from the
original one (full scan of every ray in play per adjacency test), A4-D4
from the bitmask engine that still added rows in the caller's order, A5
and F4 from the max-cutoff engine over a product table whose Chevalley
covers were x -> x s_beta. Any
rewrite of ``cone._dd`` must reproduce the same sorted ray lists, whatever
the row order: each type also runs with its rows shuffled and reversed
(D4 reversed did not finish in 300 s with caller-order engines).
"""

import hashlib
import itertools
import random
from array import array
from fractions import Fraction
from operator import mul

import pytest

from eigencone import cone, linalg, rays
from eigencone.linalg import clear_denominators
from eigencone.rootdata import build_root_system

# type -> (ray count, sha256 of the sorted rays, one line of
# space-separated integers each) for s = 3
GATE = {
    "A2": (
        8,
        "2303b650cb0fb5f4003a9c18fb55c9936d0d1fc5f38e7a444feee06480bef83e",
    ),
    "B2": (
        12,
        "89123a9715795cc035d44d03049b69575047d17bd02df9308d89dfd09aee605b",
    ),
    "G2": (
        24,
        "453472f20a7ecd0c2e5ce8e2c952813a025e58ab5ccf3277338ac2fbb68fe415",
    ),
    "A3": (
        18,
        "838453bdac542c8fb4fda1658b81b81cc3dbab8ecb9df58e2bec8166612120f6",
    ),
    "B3": (
        51,
        "74edc3fb2e689809ee6869d136f2ab9f6bf062995b1a65b82d9e9c6de636f9be",
    ),
    "C3": (
        51,
        "0bd687aa0864c89fc5dab9d0c38f796cc287921aaa4717c55c418da19be963d8",
    ),
    "A4": (
        42,
        "ced5ebc81f1443831019510e32ea27f5691841b36e4f3ffb767fbf0d6d9b3658",
    ),
    "B4": (
        237,
        "3bbcf9023932286e8883da5eb64d572a01f10defe4e8f81d24265b1e8a14960c",
    ),
    "C4": (
        237,
        "ca5ce3fef102095611d67ede0a97c3974436d60a0be1dd33f2a0a02484ed0aaf",
    ),
    "D4": (
        81,
        "417122995c82ad9078a01ec052f4a126860f9bb556eaa84202a469a3dafb4dc2",
    ),
    "A5": (
        112,
        "68ce6c232c91240611b74fb62e70561c714ce6c7217a01659a96234373fdeb93",
    ),
    "F4": (
        1020,
        "318c8d047a7b972742b66aeca83a6ec7e43e26c78dda46175e9ed18e34333b5e",
    ),
}


def _digest(ray_list):
    text = "".join(" ".join(map(str, r)) + "\n" for r in ray_list)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("typ", sorted(GATE))
def test_gamma_cone_rays_match_recorded(typ):
    count, digest = GATE[typ]
    h = rays.gamma_hrep(build_root_system(typ), 3)
    got = cone.extremal_rays(h)
    assert len(got) == count
    assert _digest(got) == digest
    rows = list(h.inequalities)
    random.Random(0).shuffle(rows)
    for order in (rows, h.inequalities[::-1]):
        assert cone.extremal_rays(cone.HRep(h.dim, order, h.equalities)) == got


@pytest.mark.parametrize("typ", ["A3", "B3"])
def test_dd_work_ignores_row_order(typ):
    # the unsorted output of the engine itself, not only the sorted set
    h = rays.gamma_hrep(build_root_system(typ), 3)
    rows = list(h.inequalities)
    random.Random(1).shuffle(rows)
    assert rows != h.inequalities
    assert cone._dd(rows, h.dim) == cone._dd(h.inequalities, h.dim)


def _epsilon_rays(typ):
    """The s = 3 cone rays of B_n or C_n in epsilon coordinates, made
    primitive: omega_k = e_1 + .. + e_k, except omega_n = (e_1 + .. + e_n) / 2
    in B_n."""
    n = int(typ[1:])
    out = set()
    for ray in cone.extremal_rays(rays.gamma_hrep(build_root_system(typ), 3)):
        eps = []
        for t in range(3):
            c = list(ray[t * n : (t + 1) * n])
            if typ[0] == "B":
                c[-1] = Fraction(c[-1], 2)
            eps += [sum(c[j:]) for j in range(n)]
        out.add(clear_denominators(eps))
    return out


@pytest.mark.parametrize("n,count", [(3, 51), (4, 237)])
def test_b_and_c_cones_agree_in_epsilon_coordinates(n, count):
    # the eigencones of B_n and C_n are one cone once both are written in
    # epsilon coordinates (Belkale-Kumar 2010)
    b, c = _epsilon_rays(f"B{n}"), _epsilon_rays(f"C{n}")
    assert len(b) == count
    assert b == c


def _brute_force_rays(rows, n):
    """Primitive generators of every 1-dim solution space of n-1 rows that
    satisfy the whole system."""
    out = set()
    for subset in itertools.combinations(rows, n - 1):
        null = linalg.nullspace([list(r) for r in subset], ncols=n)
        if len(null) != 1:
            continue
        v = clear_denominators(null[0])
        for cand in (v, tuple(-x for x in v)):
            if all(sum(a * b for a, b in zip(r, cand)) >= 0 for r in rows):
                out.add(cand)
    return sorted(out)


def _random_pointed_rows(rng, n):
    while True:
        rows = [
            tuple(rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(n))
            for _ in range(rng.randint(n, 9))
        ]
        if len(linalg.rref_int(rows)[1]) == n:
            return rows


@pytest.mark.parametrize("seed", range(60))
def test_extremal_rays_match_brute_force(seed):
    rng = random.Random(seed)
    n = 3 + seed % 3
    rows = _random_pointed_rows(rng, n)
    expected = _brute_force_rays(rows, n)
    assert cone.extremal_rays(cone.HRep(n, rows)) == expected
    rng.shuffle(rows)
    assert cone.extremal_rays(cone.HRep(n, rows)) == expected


@pytest.mark.parametrize("seed", range(40))
def test_wide_slack_fields_match_brute_force(seed):
    # the DD packs each ray's slacks into fixed-width fields and widens them
    # (8-64 bit arrays, then int lists) when a new ray could overflow them.
    # With the unit rows (odd seeds) the DD starts from the unit rays, so
    # the fields start narrow and widen as the rays grow; without them,
    # entries up to 2^40 push the slacks of the rays past 2^63.
    rng = random.Random(1000 + seed)
    n = 3 + seed % 3
    scale = (2**6, 2**20, 2**40, 2**40)[seed % 4]
    rows = [
        tuple(x * rng.randint(1, scale) for x in row)
        for row in _random_pointed_rows(rng, n)
    ]
    if seed % 2:
        rows += [tuple(int(c == r) for c in range(n)) for r in range(n)]
    expected = _brute_force_rays(rows, n)
    got = cone.extremal_rays(cone.HRep(n, rows))
    assert got == expected
    if seed % 4 == 2:
        assert max(abs(sum(map(mul, r, x))) for r in rows for x in got) > 2**63
    rng.shuffle(rows)
    assert cone.extremal_rays(cone.HRep(n, rows)) == expected


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 256])
def test_packed_fields_round_trip_at_the_range_ends(width):
    top = 2 ** (width - 1)
    assert cone._width(top - 1, 8) == width
    assert cone._width(top, 8) == 2 * width
    vals = [3, -top, 0, top - 1, -1, 0]
    bias = cone._bias(width, len(vals))
    packed = cone._pack(vals, width, bias)
    assert packed == sum(v << (width * r) for r, v in enumerate(vals))
    assert list(cone._unpack(packed, width, bias, len(vals))) == vals


@pytest.mark.parametrize("width", [16, 32, 64, 128, 256])
def test_packed_row_evaluation_matches_dot_products(width):
    # row 0 starts with 2^a and every vector with 2^b, a + b = width - 4, so
    # the bound l1(rows) * max|x| lands in [2^(width-4), 2^(width-1)) with
    # at most five columns; fields past 64 bits decode to int lists
    rng = random.Random(width)
    a = (width - 4) // 2
    b = width - 4 - a
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [
            tuple(rng.randint(-(2**a), 2**a) for _ in range(n))
            for _ in range(rng.randint(1, 8))
        ]
        rows[0] = (2**a,) + rows[0][1:]
        rows.append((0,) * n)
        # nonnegative rows against nonnegative vectors give all >= 0
        if rng.random() < 0.5:
            rows = [tuple(map(abs, row)) for row in rows]
        vecs = [
            (2**b,) + tuple(rng.randint(-(2**b), 2**b) for _ in range(n - 1))
            for _ in range(4)
        ]
        vecs += [tuple(map(abs, v)) for v in vecs]
        vecs.append((0,) * n)
        rng.shuffle(rows)
        packed, got_width, bias = cone._evaluate(rows, vecs)
        assert got_width == width
        for x, p in zip(vecs, packed):
            want = [sum(map(mul, row, x)) for row in rows]
            vals = cone._unpack(p, width, bias, len(rows))
            assert type(vals) is (list if width > 64 else array)
            assert list(vals) == want
            assert ((p + bias) & bias == bias) == (min(want) >= 0)
            assert (p == 0) == all(v == 0 for v in want)


@pytest.mark.parametrize("seed", range(40))
def test_equality_faces_match_brute_force(seed):
    # One or two rows tight at some extremal ray become equalities. A face
    # of a pointed cone is generated by the cone's extremal rays on it, so
    # the DD over the projected rows must give the brute-force rays of the
    # whole system that are tight on those rows.
    rng = random.Random(2000 + seed)
    n = 3 + seed % 3
    scale = (1, 2**20, 2**40, 2**40)[seed % 4]
    full = []
    while not full:  # a cone that is only the origin has no faces to cut
        rows = [
            tuple(x * rng.randint(1, scale) for x in row)
            for row in _random_pointed_rows(rng, n)
        ]
        full = _brute_force_rays(rows, n)
    ray = rng.choice(full)
    tight = [row for row in rows if not sum(map(mul, row, ray))]
    eqs = rng.sample(tight, 1 + (seed // 4) % 2)
    expected = [x for x in full if not any(sum(map(mul, e, x)) for e in eqs)]
    assert ray in expected
    ineqs = [row for row in rows if row not in eqs]
    assert cone.extremal_rays(cone.HRep(n, ineqs, eqs)) == expected
    rng.shuffle(ineqs)
    rng.shuffle(eqs)
    assert cone.extremal_rays(cone.HRep(n, ineqs, eqs)) == expected
