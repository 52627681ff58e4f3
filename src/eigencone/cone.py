"""Exact polyhedral cone engine.

Double description over exact integers: convert a homogeneous system of
inequalities and equalities into the minimal generating set of extremal
rays. This is the independent verifier for every ray claim made elsewhere:
nothing in here knows about root systems. ``certified_rays`` picks the
extremal rays out of candidates once it has certified that they generate
the cone.

When the rows of an H-rep are invariant under permuting some number of
equal coordinate blocks, as the rows of an s-fold tensor cone are under
permuting the s factors, ``extremal_rays`` finds that symmetry itself, runs
the double description on one fundamental domain of that symmetric group
only and closes the result under it (Bremner, Dutour Sikiric and
Schuermann, "Polyhedral representation conversion up to symmetries", 2009).

Only pointed cones are handled (a line left after restricting to the
equality subspace raises NotPointedError); all cones in scope are cut out
inside a dominant chamber, so this is not a restriction in practice.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter, mul

from . import linalg
from .linalg import clear_denominators

__all__ = [
    "HRep",
    "extremal_rays",
    "certified_rays",
    "is_extremal",
    "contains",
    "NotPointedError",
    "ConsistencyError",
]


class NotPointedError(ValueError):
    """The cone contains a line; carries one lineality vector."""

    def __init__(self, vector):
        self.vector = tuple(vector)
        super().__init__(f"cone is not pointed; lineality vector {self.vector}")


class ConsistencyError(ArithmeticError):
    """A computed result broke an identity that it must satisfy: a ray
    outside its own system, candidate rays that do not generate their cone,
    a face inventory against the theorem, a non-integral weight
    multiplicity, or a product table against its own exactness
    (``schubert.ProductTableError``)."""


def _normalize_rows(rows):
    seen = set()
    out = []
    for row in rows:
        prim = clear_denominators(row)
        if not any(prim):
            continue
        if prim not in seen:
            seen.add(prim)
            out.append(prim)
    return out


@dataclass
class HRep:
    """Homogeneous system {x : ineq . x >= 0, eq . x = 0}. Each block of rows
    is normalized once into a ``_Rows``, which keeps its packed columns; a
    block of another H-rep is shared as it is. Replace blocks, never edit."""

    dim: int
    inequalities: list = field(default_factory=list)
    equalities: list = field(default_factory=list)

    def __post_init__(self):
        for name in ("inequalities", "equalities"):
            rows = getattr(self, name)
            if not isinstance(rows, _Rows):
                setattr(self, name, _Rows(_normalize_rows(rows)))
        for row in self.inequalities + self.equalities:
            if len(row) != self.dim:
                raise ValueError(
                    f"row {row} has length {len(row)}, expected {self.dim}"
                )


def _bits(x):
    """Positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _row_key(row):
    """Canonical row order: fewest nonzero entries first, then lexicographic."""
    return len(row) - row.count(0), row


# signed array typecode per field width; wider fields decode to int lists
_CODES = {array(c).itemsize * 8: c for c in "bhiq"}
_SWAP = sys.byteorder != "little"
_START_WIDTH = 16
_NEG = bytes(b"01"[b >> 7] for b in range(256))  # top byte of a negative field
_ZERO = bytes(b"10"[b > 0] for b in range(256))


def _mask(column, table):
    """Bit s is set iff table maps byte s of column to "1"."""
    return int(column.translate(table)[::-1], 2)


def _width(bound, width):
    """The least field width, doubling from ``width``, whose signed range
    holds every integer of absolute value at most ``bound``."""
    while bound >> (width - 1):
        width *= 2
    return width


def _bias(width, m):
    """2^(width-1) in each of m fields: added to a packed vector it makes
    every field nonnegative, so no field borrows from the next."""
    return ((1 << width * m) - 1) // ((1 << width) - 1) << (width - 1)


def _pack(vals, width, bias):
    """sum of vals[r] * 2^(width*r), from fields that fit ``width``."""
    code = _CODES.get(width)
    if code is None:
        raw = b"".join(v.to_bytes(width // 8, "little", signed=True) for v in vals)
    else:
        vals = array(code, vals)
        if _SWAP:
            vals.byteswap()
        raw = vals.tobytes()
    # two's complement fields -> biased fields -> the signed sum
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(packed, width, bias, m):
    """The m fields of a packed vector, as one array (or list) indexed by row."""
    raw = ((packed + bias) ^ bias).to_bytes(width * m // 8, "little")
    code = _CODES.get(width)
    if code is None:
        k = width // 8
        return [
            int.from_bytes(raw[i:i + k], "little", signed=True)
            for i in range(0, len(raw), k)
        ]
    vals = array(code, raw)
    if _SWAP:
        vals.byteswap()
    return vals


class _Rows(list):
    """A block of rows with its largest row L1 norm, so |row . x| <= l1 *
    max|x_i|, and per field width its packed columns, packed on first use."""

    def __init__(self, rows=()):
        super().__init__(rows)
        self.l1 = max((sum(map(abs, row)) for row in self), default=0)
        self._packs = {}

    def packed(self, width):
        """The bias and the packed columns at a field width."""
        if width not in self._packs:
            bias = _bias(width, len(self))
            self._packs[width] = bias, [_pack(c, width, bias) for c in zip(*self)]
        return self._packs[width]


def _evaluate(rows, vecs):
    """The slack vector (row . v for every row) of each integer vector v,
    packed, with the field width and bias that decode it.

    It is sum of v_c * (packed column c), with the columns packed once per
    ``_Rows`` block and width. The fields hold every slack, as |row . v| <=
    rows.l1 * max|v_i|, and every column entry. Field r of packed + bias has
    its top bit set iff row r is >= 0 at v; packed is 0 iff every row is.
    """
    rows = rows if isinstance(rows, _Rows) else _Rows(rows)
    top = max((abs(x) for v in vecs for x in v), default=0)
    width = _width(rows.l1 * max(top, 1), _START_WIDTH)
    bias, cols = rows.packed(width)
    return [sum(map(mul, v, cols)) for v in vecs], width, bias


def _values(rows, vecs):
    """The slack vector of each integer vector in vecs, decoded by row."""
    packed, width, bias = _evaluate(rows, vecs)
    return [_unpack(p, width, bias, len(rows)) for p in packed]


def _violators(h, vecs):
    """The integer vectors in vecs that break an equality or an inequality."""
    ineq, _, bias = _evaluate(h.inequalities, vecs)
    eq = _evaluate(h.equalities, vecs)[0]
    return [
        v for v, p, z in zip(vecs, ineq, eq) if z or (p + bias) & bias != bias
    ]


def _vector(h, x):
    """x as a primitive integer vector of the ambient space of h."""
    if len(x) != h.dim:
        raise ValueError(f"vector has length {len(x)}, expected {h.dim}")
    return clear_denominators(x)


def contains(h, x):
    """Exact membership of the vector x."""
    return not _violators(h, [_vector(h, x)])


def _dd(rows, n):
    """Double description for {y in Q^n : row . y >= 0}.

    The rows are put in canonical order (``_row_key``). The pivot columns
    of one ``rref_int`` of their transpose are the first n independent rows
    in that order, and the columns of their integer inverse are the first n
    rays; if the rows have rank below n, NotPointedError carries a null
    vector of the rows, a line of the cone. Each step then adds the row
    that the most current rays violate, the earliest in canonical order on
    a tie (the max-cutoff rule of Fukuda and Prodon, "Double description
    method revisited", 1996), until no row is violated. Both the work and
    the result therefore depend only on the set of rows.

    Each ray lives in a slot s. slack[s] packs its slack vector (its value
    on every row) into one integer, sum of v_r * 2^(width*r); a new ray's
    is (a * S_j + b * S_i) // g, with the coefficients and gcd of the ray
    itself, exact field by field. raw holds the fields of every slot as
    two's complement bytes, size bytes a slot, so the bytes of row r over
    all slots are strided slices, and translating them gives the slot masks
    of the negative rays (top byte) and the zero rays (every byte). count
    packs the number of rays negative at each row: a ray adds the top bits
    of packed + bias, shifted to the bottom of each field. Fields must hold
    every |row . ray| <= (max row L1 norm) * max|ray_i| and the live ray
    count: they start at 16 bits and double, every live ray repacked and
    raw and count rebuilt, when a step breaks that bound.

    zrows[s] lists the processed rows tight at the ray, ascending, and
    tight[p] is the slot bitmask of the rays tight at processed row p. Rays
    i and j are adjacent iff the AND of tight[p] over the rows where both
    are tight leaves only the pair (the combinatorial test). They then
    share at least n - 2 rows, so the candidates for a violating ray j are
    the positive rays that miss at most len(zrows[j]) - (n - 2) of j's
    rows: within[k] holds those that miss at most k of the rows seen so
    far, and the scan stops once the last level is empty. Returns the
    extremal rays as primitive integer tuples, in no particular order.
    """
    rows = _Rows(sorted(rows, key=_row_key))
    m = len(rows)
    start = linalg.rref_int(zip(*rows))[1]
    if len(start) < n:
        raise NotPointedError(linalg.nullspace(rows, ncols=n)[0])
    rays, slack, zrows = {}, {}, {}
    tight, free, raw = [0] * n, [], bytearray()

    def put(s, packed):
        # slot s holds packed: its bytes in raw, its negative rows in count
        nonlocal count
        slack[s] = packed
        raw[s * size:(s + 1) * size] = ((packed + bias) ^ bias).to_bytes(size, "little")
        count += (~(packed + bias) & bias) >> (width - 1)

    def widen(bound):
        nonlocal width, bias, size, raw, count
        if bound >> (width - 1):
            old = width, bias
            width = _width(bound, width)
            bias, size = _bias(width, m), width * m // 8
            raw, count = bytearray(len(raw) * width // old[0]), 0
            for s, p in slack.items():
                put(s, _pack(_unpack(p, *old, m), width, bias))

    def enter(ray, packed, zl):
        s = free.pop() if free else len(rays)
        rays[s], zrows[s] = ray, zl
        put(s, packed)
        for p in zl:
            tight[p] |= 1 << s
        return 1 << s

    def field(s):
        o = s * size + col
        return int.from_bytes(raw[o:o + nbytes], "little", signed=True)

    # the start rows are processed rows 0..n-1; initial ray c is tight at
    # all of them but row c
    inv = linalg.inverse([rows[i] for i in start])[1]
    first = [clear_denominators(col) for col in zip(*inv)]
    packed, width, bias = _evaluate(rows, first)
    size, count, live = width * m // 8, 0, 0
    for c, (ray, p) in enumerate(zip(first, packed)):
        live |= enter(ray, p, [q for q in range(n) if q != c])
    widen(n)  # a count is at most the number of live rays
    need = max(n - 2, 0)
    while count:
        counts = _unpack(count, width, bias, m)
        r = counts.index(max(counts))
        pos, nbytes = len(tight), width // 8
        col = r * nbytes
        negative = live & _mask(raw[col + nbytes - 1::size], _NEG)
        zero = live
        for o in range(col, col + nbytes):
            zero &= _mask(raw[o::size], _ZERO)
        for s in _bits(zero):
            zrows[s].append(pos)
        positive = live & ~negative & ~zero
        new = []  # (ray, tight rows, a, b, g, slot i, slot j)
        for j in _bits(negative):
            zj = zrows[j]
            # every live ray is tight at n - 1 or more processed rows, so
            # spare >= 1 for n >= 2; at n = 1 there is one ray and no
            # positive ray to pair with it
            spare = len(zj) - need
            if spare < 2:  # within[0], within[1]
                low = cand = positive
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
            for i in _bits(cand):
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
                a, b = field(i), -field(j)
                combo = [a * y + b * x for x, y in zip(rays[i], rays[j])]
                g = gcd(*combo)
                # Both coefficients are positive and both parents are >= 0
                # on every processed row, so the combination is zero on a
                # processed row exactly where both parents are; it is zero
                # on this row by construction. The new ray lies in the
                # relative interior of the 2-face that the adjacent pair
                # spans, and distinct pairs span distinct 2-faces, whose
                # relative interiors are disjoint, so no two new rays
                # coincide; nor does a new ray equal a surviving one, which
                # would be tight at every common row and fail the test above.
                zl = [p for p in zj if tight[p] & bit] + [pos]
                new.append((tuple(x // g for x in combo), zl, a, b, g, i, j))
        bound = rows.l1 * max((max(map(abs, t[0])) for t in new), default=0)
        widen(max(bound, len(rays) + len(new)))
        born = []
        for ray, zl, a, b, g, i, j in new:
            packed = a * slack[j] + b * slack[i]
            born.append((ray, packed // g if g > 1 else packed, zl))
        dead = set()  # the processed rows tight at some deleted ray
        for s in _bits(negative):
            dead.update(zrows.pop(s))
            del rays[s]
            p = slack.pop(s)
            count -= (~(p + bias) & bias) >> (width - 1)
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


def _blocks(h, basis):
    """The largest s >= 2 dividing h.dim such that the inequalities of h, as
    a set, and its equality subspace, spanned by ``basis``, are invariant
    under swapping any two adjacent of s equal coordinate blocks; those swaps
    generate every block permutation. 1 if there is no such s."""
    have = set(h.inequalities)
    for s in range(h.dim, 1, -1):
        if h.dim % s:
            continue
        size = h.dim // s
        for t in range(1, s):
            a, b, c = (t - 1) * size, t * size, (t + 1) * size
            swap = itemgetter(*range(a), *range(b, c), *range(a, b), *range(c, h.dim))
            if not all(swap(row) in have for row in h.inequalities) or any(
                _evaluate(h.equalities, [swap(v) for v in basis])[0]
            ):
                break
        else:
            return s
    return 1


def _walls(dim, s):
    """The rows (sum of block t) - (sum of block t + 1), t = 1 .. s - 1, of s
    equal blocks: where all are >= 0 is a fundamental domain D of the block
    permutations."""
    size = dim // s
    return [
        tuple(int(u == t) - int(u == t + 1) for u in range(s) for _ in range(size))
        for t in range(s - 1)
    ]


def _unfold(h, s, found):
    """The extremal rays of the cone C of h, whose rows are invariant under
    permuting s coordinate blocks, from the extremal rays ``found`` of C n D,
    D cut out by ``_walls``.

    A found ray off every wall is kept: C n D and C agree near it. A found
    ray c on a wall is kept iff it passes the candidate test of
    ``certified_rays`` against the pool of every block permutation of every
    found ray, which holds every extremal ray of C. A block permutation g
    maps the rows of C onto themselves, so g^-1 e is tight wherever c is
    iff e is tight wherever g c is: c is kept iff, for every g, no found ray
    but g c itself is tight at every row where g c is. Those rows are the
    images under g of the rows where c is, so neither the pool nor the
    images of c are ever evaluated. The kept rays are then closed under the
    permutations.
    """
    rows, size = h.inequalities, h.dim // s
    at = {row: p for p, row in enumerate(rows)}
    # each block permutation as an itemgetter on coordinates, which maps
    # rows to rows too, and as a list on row positions
    moves = []
    for perm in itertools.permutations(range(s)):
        move = itemgetter(*(t * size + i for t in perm for i in range(size)))
        moves.append((move, [at[move(row)] for row in rows]))
    zeros, cols = _zero_masks(rows, found)
    full = (1 << len(found)) - 1
    index = {r: i for i, r in enumerate(found)}

    def extremal(c, z):
        tight = list(_bits(z))
        for move, perm in moves:
            i = index.get(move(c))
            own = 0 if i is None else 1 << i
            if not _alone(cols, map(perm.__getitem__, tight), full, own):
                return False
        return True

    walls = _walls(h.dim, s)
    kept = [
        c for c, z in zip(found, zeros)
        if all(sum(map(mul, w, c)) for w in walls) or extremal(c, z)
    ]
    return sorted({move(c) for c in kept for move, _ in moves})


def extremal_rays(h):
    """Minimal generating rays of the cone, primitive and lex sorted.

    The double description runs on the inequalities written in a basis of
    the equality subspace, each basis vector's slacks over all of them read
    off packed columns. Every ray found is then evaluated exactly, again
    from packed columns, against every inequality and every equality of h
    itself; a ray outside the system raises ConsistencyError.

    When the inequalities and the equality subspace are invariant under
    permuting s > 1 equal coordinate blocks (``_blocks``, the largest such
    s), the double description runs on C n D instead, C plus the s - 1 rows
    of ``_walls``, where D = {sum of block 1 >= .. >= sum of block s} is a
    fundamental domain of those permutations, and ``_unfold`` turns its rays
    into those of C. This is exact. Sorting the block sums moves every
    extremal ray of C into D, where it is still extremal, so the
    permutations of the rays of C n D hold every extremal ray of C. A point
    of C that is not extremal is a positive sum of the extremal rays of its
    face, each tight wherever the point is, so a ray of that pool is
    extremal iff no other one is tight at every row where it is (the test of
    ``certified_rays``). C n D can be pointed where C is not, so C's own
    rows are checked for a line first.
    """
    basis = linalg.nullspace(h.equalities, ncols=h.dim)
    n = len(basis)
    if n == 0:
        return []
    s = _blocks(h, basis)
    proj = _normalize_rows(zip(*_values(h.inequalities, basis)))

    def ambient(vecs):
        # coordinate c of sum v_i basis[i] is column c of the basis at v
        return [clear_denominators(v) for v in _values(list(zip(*basis)), vecs)]

    try:
        if s > 1:
            # full rank on the first n rows, as with unit rows first, settles it
            line = linalg.nullspace(proj[:n], ncols=n)
            line = line and linalg.nullspace(proj, ncols=n)
            if line:
                raise NotPointedError(line[0])
            proj = _normalize_rows(proj + list(zip(*_values(_walls(h.dim, s), basis))))
        found = _dd(proj, n)
    except NotPointedError as e:
        raise NotPointedError(ambient([e.vector])[0]) from None
    result = sorted(set(ambient(found)))
    if s > 1:
        result = _unfold(h, s, result)
    bad = _violators(h, result)
    if bad:
        raise ConsistencyError(f"extremal ray {bad[0]} violates its own system")
    return result


def _zero_masks(rows, vecs):
    """Where the slacks of integer vectors at rows are zero, both ways: for
    each vector v the bitmask of the rows r with r . v = 0, read off its
    packed slack vector a byte of every field at a time, as in ``_dd``, and
    for each row r the bitmask of those vectors, its transpose."""
    m, k = len(rows), len(vecs)
    if not (m and k):
        return [0] * k, [0] * m
    packed, width, bias = _evaluate(rows, vecs)
    nbytes, size = width // 8, width * m // 8
    by_vec = []
    for p in packed:
        raw = ((p + bias) ^ bias).to_bytes(size, "little")
        z = -1
        for o in range(nbytes):
            z &= _mask(raw[o::nbytes], _ZERO)
        by_vec.append(z)
    # one m-digit block per vector, the last vector's first: digit m - 1 - r
    # of each block is bit r of its mask
    digits = "".join(format(z, f"0{m}b") for z in reversed(by_vec))
    return by_vec, [int(digits[m - 1 - r::m], 2) for r in range(m)]


def _alone(cols, tight, full, own):
    """The candidate test: is ``own`` all that is left of the vector bitmask
    ``full`` after the AND of cols[p], the vectors tight at row p, over the
    rows p in ``tight``? own is the bit of the candidate itself among the
    vectors, or 0 if it is none of them."""
    for p in tight:
        if full == own:
            break
        full &= cols[p]
    return full == own


def certified_rays(h, cands):
    """The extremal rays of the cone of h, picked from candidates that must
    generate it; primitive integer vectors of length h.dim, in the order
    given, repeats taken once and zero vectors skipped (the origin lies on
    every face, so it would hide every ray from step 4). A candidate of
    another length raises ValueError before anything else. Nothing is
    trusted about where the candidates came from:

    1. every candidate satisfies h;
    2. the facets of cone(cands) inside the equality subspace of h are the
       extremal rays of {a : a . c >= 0 for every candidate c, e . a = 0
       for every equality e of h}, a small double description;
       NotPointedError there means the candidates do not span that
       subspace. So the cone of h must span it, as every regular face
       does: a cone of lower dimension is refused even for a correct
       candidate set, since telling the two apart needs the cone's
       implicit equalities, an LP;
    3. the candidates on each facet a are exactly those tight at some
       inequality row of h, one set probe per facet. That row, zero on a
       spanning set of the facet and > 0 at the other candidates,
       restricts to a positive multiple of a on the subspace, so every
       point of h is in cone(cands), and the two cones are equal;
    4. the facets are then an H-rep of the cone inside its span, so a
       candidate c is extremal iff no other candidate is on every facet
       through c (``_alone``, the adjacency test of ``_dd``, on the
       facet-candidate incidence): the facets through an extremal ray cut
       out its line, and a point that is not extremal is inside a face of
       dimension 2 or more, whose extremal rays are candidates on every
       facet through it.

    A failure of 1, 2 or 3 raises ConsistencyError.
    """
    cands = [tuple(c) for c in cands]
    for c in cands:
        if len(c) != h.dim:
            raise ValueError(f"candidate {c} has length {len(c)}, expected {h.dim}")
    cands = list(dict.fromkeys(c for c in cands if any(c)))
    bad = _violators(h, cands)
    if bad:
        raise ConsistencyError(f"candidate {bad[0]} is outside the cone")
    try:
        normals = extremal_rays(HRep(h.dim, cands, h.equalities))
    except NotPointedError:
        raise ConsistencyError(
            "the candidates do not span the equality subspace of the cone"
        ) from None
    on_facet, facets_at = _zero_masks(cands, normals)
    rows = set(_zero_masks(h.inequalities, cands)[1])
    for a, f in zip(normals, on_facet):
        if f not in rows:
            raise ConsistencyError(
                f"the candidates miss part of the cone: their facet {a} is "
                "the face of no inequality"
            )
    full = (1 << len(cands)) - 1
    return [
        c for i, c in enumerate(cands)
        if _alone(on_facet, _bits(facets_at[i]), full, 1 << i)
    ]


def is_extremal(h, r):
    """Is r on an extremal ray: tight constraints cut out a line."""
    x = _vector(h, r)
    vals = _values(h.inequalities, [x])[0]
    if min(vals, default=0) < 0 or _evaluate(h.equalities, [x])[0][0]:
        raise ValueError(f"{r} does not satisfy the system")
    if not any(x):
        return False
    tight = h.equalities + [row for row, v in zip(h.inequalities, vals) if v == 0]
    return len(linalg.nullspace(tight, ncols=h.dim)) == 1
