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
from math import gcd
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


def _blocks(h):
    """The block count that extremal_rays detects for h."""
    return cone._blocks(h, linalg.nullspace(h.equalities, ncols=h.dim))


def _plain(monkeypatch):
    """From here on, extremal_rays detects no symmetry and runs the plain
    double description, without walls: a reference for the block route."""
    monkeypatch.setattr(cone, "_blocks", lambda h, basis: 1)


def _digest(ray_list):
    text = "".join(" ".join(map(str, r)) + "\n" for r in ray_list)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("typ", sorted(GATE))
def test_gamma_cone_rays_match_recorded(typ, monkeypatch):
    # the block route on the cone, then the plain engine on reordered rows
    count, digest = GATE[typ]
    h = rays.gamma_hrep(build_root_system(typ), 3)
    assert _blocks(h) == 3
    got = cone.extremal_rays(h)
    assert len(got) == count
    assert _digest(got) == digest
    _plain(monkeypatch)
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


# -- reference engine -----------------------------------------------------


def _reference_dd(rows, n):
    """The double description engine that kept each ray's slacks decoded
    into an array, and per row the count and the slot bitmask of the rays
    negative there: a step found its zero rays in one pass over the arrays,
    and each entering ray walked its parents' negative rows. Same row
    order, adjacency test and slot use as ``cone._dd``."""
    rows = cone._Rows(sorted(rows, key=cone._row_key))
    m = len(rows)
    start = linalg.rref_int(zip(*rows))[1]
    if len(start) < n:
        raise cone.NotPointedError(linalg.nullspace(rows, ncols=n)[0])
    rays, slack, value, zrows = {}, {}, {}, {}
    viol, negm = [0] * m, [0] * m
    tight, free = [0] * n, []

    def enter(ray, packed, zl, maybe):
        # maybe: the rows where the slack can be negative; returns the slot bit
        vals = cone._unpack(packed, width, bias, m)
        negs = [r for r in maybe if vals[r] < 0]
        s = free.pop() if free else len(rays)
        bit = 1 << s
        rays[s], slack[s], value[s], zrows[s] = ray, (packed, negs), vals, zl
        for p in zl:
            tight[p] |= bit
        for r in negs:
            viol[r] += 1
            negm[r] |= bit
        return bit

    # the start rows are processed rows 0..n-1; initial ray c is tight at
    # all of them but row c
    inv = linalg.inverse([rows[i] for i in start])[1]
    first = [clear_denominators(col) for col in zip(*inv)]
    packed, width, bias = cone._evaluate(rows, first)
    live = 0
    for c, (ray, p) in enumerate(zip(first, packed)):
        negs = [b // width for b in cone._bits(~(p + bias) & bias)]
        live |= enter(ray, p, [q for q in range(n) if q != c], negs)
    need = max(n - 2, 0)
    while any(viol):
        r = viol.index(max(viol))
        pos = len(tight)
        negative, zero = negm[r], 0
        for s, vals in value.items():
            if not vals[r]:
                zero |= 1 << s
                zrows[s].append(pos)
        positive = live & ~negative & ~zero
        new = {}  # ray -> (tight rows, a, b, g, slot i, slot j)
        for j in cone._bits(negative):
            zj = zrows[j]
            spare = len(zj) - need
            if spare < 0:
                continue
            if spare < 2:  # within[spare - 1] (none at spare 0), within[spare]
                low, cand = positive if spare else 0, positive
                for p in zj:
                    t = tight[p]
                    cand = cand & t | low
                    low &= t
                    if not cand:
                        break
            else:
                within = [positive] * (spare + 1)
                for p in zj:
                    t = tight[p]
                    for k in range(spare, 0, -1):
                        within[k] = within[k] & t | within[k - 1]
                    within[0] &= t
                    if not within[spare]:
                        break
                cand = within[spare]
            for i in cone._bits(cand):
                # i and j are adjacent iff no other ray is tight at every
                # row where both are; stop as soon as only the pair is left
                bit = 1 << i
                pair = bit | 1 << j
                acc = live
                for p in zj:
                    t = tight[p]
                    if t & bit:
                        acc &= t
                        if acc == pair:
                            break
                if acc != pair:
                    continue
                a, b = value[i][r], -value[j][r]
                combo = [a * y + b * x for x, y in zip(rays[i], rays[j])]
                g = gcd(*combo)
                # Both coefficients are positive and both parents are >= 0
                # on every processed row, so the combination is zero on a
                # processed row exactly where both parents are; it is zero
                # on this row by construction. Combinatorially distinct
                # parents can give the same ray, with the same zero set; a
                # surviving ray never equals it, as it would be tight at
                # every common row and fail the test above.
                ray = tuple(x // g for x in combo)
                if ray not in new:
                    zl = [p for p in zj if tight[p] & bit] + [pos]
                    new[ray] = (zl, a, b, g, i, j)
        bound = rows.l1 * max((max(map(abs, ray)) for ray in new), default=0)
        if bound >> (width - 1):
            width = cone._width(bound, width)
            bias = cone._bias(width, m)
            for s, vals in value.items():
                slack[s] = (cone._pack(vals, width, bias), slack[s][1])
        born = []
        for ray, (zl, a, b, g, i, j) in new.items():
            (si, ni), (sj, nj) = slack[i], slack[j]
            # with a, b > 0 a slack can be negative only where a parent's is
            packed = a * sj + b * si
            born.append((ray, packed // g if g > 1 else packed, zl, {*ni, *nj}))
        dead = set()  # the processed rows tight at some deleted ray
        for s in cone._bits(negative):
            dead.update(zrows.pop(s))
            del rays[s], value[s]
            for q in slack.pop(s)[1]:
                viol[q] -= 1
                negm[q] ^= 1 << s
            free.append(s)
        live ^= negative
        # bit s of tight[p] is set iff p is in zrows[s], so only the rows
        # tight at a deleted ray can hold a deleted slot
        for p in dead:
            tight[p] &= ~negative
        tight.append(zero)
        for args in born:
            live |= enter(*args)
    return list(rays.values())


REFERENCE_TYPES = ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "B4", "C4"]


def _gamma_rows(typ):
    h = rays.gamma_hrep(build_root_system(typ), 3)
    assert not h.equalities
    return list(h.inequalities), h.dim


@pytest.mark.parametrize("typ", REFERENCE_TYPES)
def test_dd_matches_reference_engine(typ):
    # equal unsorted lists mean every step chose the same row and filled the
    # same slots in the same order
    rows, n = _gamma_rows(typ)
    shuffled = rows[:]
    random.Random(2).shuffle(shuffled)
    for order in (sorted(rows, key=cone._row_key), shuffled):
        assert cone._dd(order, n) == _reference_dd(order, n)


# The edge of the candidate scan: a live ray is tight at n - 1 or more
# processed rows, so a violating ray keeps at least one spare row for
# n >= 2, and at n = 1 the only ray has no positive partner. The reference
# engine still skips a ray without spare rows and scans none at spare 0.
@pytest.mark.parametrize("rows,want", [
    ([(1,)], [(1,)]),
    ([(1,), (-1,)], []),
    ([(1, 0), (0, 1)], [(0, 1), (1, 0)]),
    ([(1, 0), (0, 1), (1, -1)], [(1, 0), (1, 1)]),
    ([(1, 0), (0, 1), (1, -1), (-1, 1)], [(1, 1)]),
    ([(1, 0), (-1, 0), (0, 1)], [(0, 1)]),
    ([(1, 0), (0, 1), (-1, -1)], []),
])
def test_dd_in_one_and_two_dimensions(rows, want):
    n = len(rows[0])
    got = cone._dd(rows, n)
    assert got == _reference_dd(rows, n)
    assert sorted(got) == want


def _cube_rows(d):
    """The cone over the cube [-1, 1]^d: 2d rows, 2^d rays (1, +-1, ..)."""
    return [
        tuple([1] + [sign * (c == i) for c in range(d)])
        for i in range(d)
        for sign in (1, -1)
    ]


@pytest.mark.parametrize("typ", ["B3", "D4", "cube"])
def test_dd_widens_from_narrow_fields(typ, monkeypatch):
    # From 8-bit fields the B3 and D4 slacks outgrow their fields mid-run,
    # so every live ray is repacked and the raw bytes and the counts are
    # rebuilt. The cube's slacks fit 8 bits throughout (the reference
    # engine, which keeps its counts in a list, never widens there), but
    # its 128 live rays overflow an 8-bit count.
    rows, n = (_cube_rows(7), 8) if typ == "cube" else _gamma_rows(typ)
    want = cone._dd(rows, n)
    real, calls = cone._width, []

    def spy(bound, width):
        calls.append((width, real(bound, width)))
        return calls[-1][1]

    monkeypatch.setattr(cone, "_START_WIDTH", 8)
    monkeypatch.setattr(cone, "_width", spy)
    assert _reference_dd(rows, n) == want
    assert (calls == [(8, 8)]) == (typ == "cube")
    calls.clear()
    assert cone._dd(rows, n) == want
    # the start rays fit 8 bits, and one later step widens to 16
    assert calls == [(8, 8), (8, 16)]
    if typ == "cube":
        assert sorted(want) == sorted(
            (1,) + v for v in itertools.product((1, -1), repeat=7)
        )


@pytest.mark.parametrize("scale", [2**8, 2**24 + 2**16])
def test_dd_reads_every_byte_of_a_field(scale):
    # Scaled rows cut out the same cone through the same steps. Every slack
    # is a multiple of 2^8 (of 2^16 at the second scale), in fields that
    # widen from 16 to 32 bits (from 32 to 64), so a ray is tight only where
    # every byte of its field is zero, not only the top or the bottom one.
    rows, n = _gamma_rows("B3")
    scaled = [tuple(scale * x for x in row) for row in rows]
    assert cone._dd(scaled, n) == cone._dd(rows, n)


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


@pytest.mark.parametrize("seed", range(20))
def test_zero_masks_match_dot_products(seed):
    # both directions of the zero pattern, per vector and per row, with
    # slacks up to 2^50 so that the fields widen past 32 bits
    rng = random.Random(6000 + seed)
    n = rng.randint(1, 5)
    rows = [
        tuple(rng.choice((-(2**20), -1, 0, 0, 1, 3)) for _ in range(n))
        for _ in range(rng.randint(1, 40))
    ]
    vecs = [
        tuple(rng.choice((-1, 0, 0, 1, 2**30)) for _ in range(n))
        for _ in range(rng.randint(1, 30))
    ]
    by_vec, by_row = cone._zero_masks(rows, vecs)
    for v, x in enumerate(vecs):
        for r, row in enumerate(rows):
            zero = not sum(map(mul, row, x))
            assert by_vec[v] >> r & 1 == zero
            assert by_row[r] >> v & 1 == zero
    assert cone._zero_masks(rows, []) == ([], [0] * len(rows))
    assert cone._zero_masks([], vecs) == ([0] * len(vecs), [])


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


def _check_certificate(rng, h, want):
    # the rays want of h, shuffled with positive sums of two or three of
    # them, certify to exactly those rays; without one ray, the rest and the
    # sums generate a smaller cone, which the certificate must refuse
    sums = [
        clear_denominators([sum(c) for c in zip(*rng.sample(want, k))])
        for k in (2, 3, 2)
        if k <= len(want)
    ]
    cands = want + sums
    rng.shuffle(cands)
    assert sorted(cone.certified_rays(h, cands)) == want
    lost = rng.choice(want)
    with pytest.raises(cone.ConsistencyError):
        cone.certified_rays(h, [c for c in cands if c != lost])


@pytest.mark.parametrize("seed", range(40))
def test_certified_rays_match_brute_force(seed):
    # on the brute-force rays of a full-dimensional pointed cone, then on a
    # face of it cut out as in test_equality_faces_match_brute_force, where
    # the facets of step 4 lie inside a proper subspace; the certificate
    # wants the face to span the equality subspace, so the face is drawn
    # again until it does
    rng = random.Random(3000 + seed)
    n = 3 + seed % 3
    while True:
        rows = _random_pointed_rows(rng, n)
        want = _brute_force_rays(rows, n)
        if want and len(linalg.rref_int(want)[1]) == n:
            break
    _check_certificate(rng, cone.HRep(n, rows), want)
    while True:
        ray = rng.choice(want)
        tight = [row for row in rows if not sum(map(mul, row, ray))]
        eqs = rng.sample(tight, 1 + seed % 2)
        face = [x for x in want if not any(sum(map(mul, e, x)) for e in eqs)]
        rank = len(linalg.rref_int(face)[1]) + len(linalg.rref_int(eqs)[1])
        if rank == n:
            break
    ineqs = [row for row in rows if row not in eqs]
    _check_certificate(rng, cone.HRep(n, ineqs, eqs), face)


# -- the block route ------------------------------------------------------


@pytest.mark.parametrize(
    "typ, s",
    [pytest.param(t, 4, id=t) for t in ("A2", "B2", "G2", "A3", "B3", "C3")]
    + [pytest.param(t, 5, id=f"{t}-s5") for t in ("A1", "A2", "B2", "G2")],
)
def test_block_route_matches_the_plain_double_description_at_s4(typ, s, monkeypatch):
    # the s-fold cone through its s! block permutations, against one double
    # description of the same rows; s = 5 as well, a few ms each
    h = rays.gamma_hrep(build_root_system(typ), s)
    assert _blocks(h) == s
    route = cone.extremal_rays(h)
    _plain(monkeypatch)
    assert route == cone.extremal_rays(h)


# (blocks, block size, orbits of random rows, with the unit rows)
SYMMETRIC_SHAPES = [(2, 1, 3, False), (3, 1, 2, False), (2, 2, 2, True),
                    (3, 1, 3, True), (4, 1, 1, True), (3, 2, 1, True)]


def _block_orbits(seeds, s, size):
    """Every image of every seed row under permuting s blocks of ``size``
    coordinates, sorted."""
    return sorted({
        tuple(r[t * size + i] for t in perm for i in range(size))
        for r in seeds
        for perm in itertools.permutations(range(s))
    })


def _random_symmetric_rows(rng, s, size, orbits, units):
    """A pointed cone whose rows are the orbits of a few random rows."""
    n = s * size
    while True:
        seeds = [
            tuple(rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(n))
            for _ in range(orbits)
        ]
        if units:
            seeds.append((1,) + (0,) * (n - 1))
        rows = _block_orbits(seeds, s, size)
        if len(linalg.rref_int(rows)[1]) == n:
            return rows


def _symmetric_case(seed):
    rng = random.Random(4000 + seed)
    s, size, orbits, units = SYMMETRIC_SHAPES[seed % len(SYMMETRIC_SHAPES)]
    rows = _random_symmetric_rows(rng, s, size, orbits, units)
    return s, rows, _brute_force_rays(rows, s * size)


@pytest.mark.parametrize("seed", range(48))
def test_block_route_matches_brute_force(seed):
    s, rows, want = _symmetric_case(seed)
    n = len(rows[0])
    assert _blocks(cone.HRep(n, rows)) >= s  # s qualifies; a larger one may too
    assert cone.extremal_rays(cone.HRep(n, rows)) == want
    random.Random(seed).shuffle(rows)
    assert cone.extremal_rays(cone.HRep(n, rows)) == want


def test_block_route_cases_reach_the_walls():
    # Over the cases above, the cone cut by the walls has extremal rays on
    # a wall that are extremal rays of the cone, and others on two walls
    # that are not: the route must keep the first and drop the second.
    kept = dropped = 0
    for seed in range(48):
        s, rows, want = _symmetric_case(seed)
        size = len(rows[0]) // s
        walls = [
            tuple(int(u == t) - int(u == t + 1) for u in range(s) for _ in range(size))
            for t in range(s - 1)
        ]
        for x in _brute_force_rays(rows + walls, len(rows[0])):
            on = sum(not sum(map(mul, w, x)) for w in walls)
            kept += on >= 1 and x in want
            dropped += on >= 2 and x not in want
    assert kept and dropped


@pytest.mark.parametrize("seed", range(12))
def test_block_route_with_symmetric_equalities(seed, monkeypatch):
    # the orbit of one more random row as equalities: the route against the
    # plain engine, which the brute-force tests above cover with equalities
    rng = random.Random(5000 + seed)
    s, size, orbits, _ = SYMMETRIC_SHAPES[seed % len(SYMMETRIC_SHAPES)]
    rows = _random_symmetric_rows(rng, s, size, orbits, True)
    n = s * size
    eqs = _block_orbits([tuple(rng.choice((-1, 0, 1)) for _ in range(n))], s, size)
    h = cone.HRep(n, rows, eqs)
    assert _blocks(h) >= s
    route = cone.extremal_rays(h)
    _plain(monkeypatch)
    assert route == cone.extremal_rays(h)
