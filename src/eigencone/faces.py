"""Regular faces of the tensor cone and their defining inequalities.

A regular facet is the data of a maximal standard parabolic P and a tuple
w of minimal representatives whose deformed product is exactly the point
class. The inequality attached to (w, P) and a simple index k outside
Delta(P) reads, on the weight side,

    sum_j (w_j^-1 lambda_j)(x_k) <= 0,

and the face is where it vanishes. The enumeration reads
``schubert.class_table``; the inequalities, integer row blocks per (w, k).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .rootdata import ParabolicSpec, build_root_system, one_root_system
from .weyl import covers, parse_word, require_minimal_rep
from . import cone, schubert

__all__ = [
    "FaceSpec",
    "enumerate_regular_facets",
    "eval_inequality",
    "inequality_row",
    "tens_membership",
    "typeI_pairs",
    "face_to_json",
    "face_from_json",
]


@dataclass(frozen=True)
class FaceSpec:
    s: int
    P: ParabolicSpec
    words: tuple  # s WeylElems in W^P

    def __post_init__(self):
        if len(self.words) != self.s:
            raise ValueError(f"expected {self.s} words, got {len(self.words)}")

    def validate(self):
        """Check the defining condition: deformed product is the point class."""
        movable, c = schubert.levi_movable(list(self.words), self.P)
        if not (movable and c == 1):
            raise ValueError(
                f"tuple ({', '.join(w.word_str() for w in self.words)}) has "
                f"deformed coefficient {'0' if not movable else c}, expected 1"
            )
        return self

    @property
    def root_system(self):
        return self.P.root_system

    def __repr__(self):
        words = ", ".join(w.word_str() for w in self.words)
        return f"FaceSpec(P-{sorted(self.P.complement)}, [{words}])"


def face_to_json(face):
    return {
        "type": face.root_system.cartan_label,
        "s": face.s,
        "parabolic": sorted(face.P.complement),
        "words": [w.word_str() for w in face.words],
    }


def face_from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    rs = build_root_system(data["type"])
    P = ParabolicSpec.dropping(rs, data["parabolic"])
    words = tuple(parse_word(rs, w) for w in data["words"])
    for w in words:
        require_minimal_rep(w, P)
    return FaceSpec(data["s"], P, words)


def _weights(x):
    """Accept a RayTuple-like object or a plain sequence of Weights."""
    return tuple(getattr(x, "weights", x))


def _root_system(lams):
    """The root system of a nonempty weight tuple; ValueError if the weights
    come from two root systems."""
    for w in lams:
        one_root_system(w, lams[0])
    return lams[0].root_system


@lru_cache(maxsize=None)
def _int_block(w, k):
    """-(w^-1 omega_i)(x_k) d for i = 1..rank, d = ``x_den``: the slice of
    the inequality row for x_k that multiplies w's factor, as integer
    numerators over d. (w^-1 omega_i)(x_k) = <omega_i, w x_k> for x_k the
    coweight whose simple-coroot coordinates are row k of ``x_rows`` over d,
    so the slice is -w(d x_k): s_i takes <alpha_i, y> alpha_i^vee off y."""
    rs = w.root_system
    y = list(rs.x_rows[k - 1])
    for i in reversed(w.word()):
        y[i - 1] -= sum(row[i - 1] * c for row, c in zip(rs.cartan_matrix, y))
    return tuple(-c for c in y)


@lru_cache(maxsize=None)
def _facets_cached(rs, s):
    """(all facets, orbit representatives) of the s-fold cone, from one scan.

    The codimension and gap sums and the coefficient are symmetric in the s
    factors, so only the first tuple of each S_s orbit in the scan's order
    is tested. The full list is the orbits of the representatives that pass,
    sorted back into that order (see ``enumerate_regular_facets``).
    """
    plain, reps = [], []
    for k in range(1, rs.rank + 1):
        P = ParabolicSpec.maximal(rs, k)
        table = schubert.class_table(P)
        entries = tuple(table.values())
        e = entries[0]  # the identity, the only element of length 0
        by_codim, by_key = {}, {}
        for x in entries:
            by_codim.setdefault(x.codim, []).append(x)
            by_key.setdefault((x.codim, x.gaps[k]), []).append(x)
        seen, found = set(), []
        for parts in itertools.product(sorted(by_codim), repeat=s - 1):
            rest = P.dim_flag - sum(parts)
            if rest not in by_codim:
                continue
            for head in itertools.product(*(by_codim[c] for c in parts)):
                # the last factor must close both the codimension and the gap
                need = e.gaps[k] - sum(x.gaps[k] for x in head)
                product = None  # formed for the first last factor tested
                for last in by_key.get((rest, need), ()):
                    tup = tuple(x.w for x in head) + (last.w,)
                    key = tuple(sorted(w.rho for w in tup))
                    if key in seen:
                        continue
                    seen.add(key)
                    if product is None:
                        product = schubert.head_product(head, P)
                    if schubert.duality_coeff(product, last, P) == 1:
                        found.append(tup)
        pos = {w: i for i, w in enumerate(table)}
        orbits = {t for rep in found for t in itertools.permutations(rep)}
        plain.extend(FaceSpec(s, P, t) for t in sorted(orbits, key=lambda t: (
            [table[w].codim for w in t[:-1]], [pos[w] for w in t]
        )))
        reps.extend(FaceSpec(s, P, t) for t in found)
    return tuple(plain), tuple(reps)


def enumerate_regular_facets(s, rs, quotient_symmetry=False):
    """All regular facet data (P maximal, w tuple), deterministic order.

    The order is P_1, P_2, ..., then the codimensions of the first s - 1
    words, then the words' positions in ``minimal_reps``. With
    ``quotient_symmetry`` only the first tuple of each orbit under permuting
    the s factors, in that order, is kept. Only those representatives are
    tested: the full list is the expansion of their orbits, sorted back into
    the same order.
    """
    if s < 3:
        raise ValueError(f"regular facets need s >= 3 factors, got s = {s}")
    return list(_facets_cached(rs, s)[bool(quotient_symmetry)])


def _row_value(face, lams, k):
    """x_den times (inequality row for x_k) . (lambda_1 .. lambda_s): >= 0 on
    the cone, 0 on the face, an integer for integral weights."""
    return sum(
        sum(map(mul, _int_block(w, k), lam.coords))
        for w, lam in zip(face.words, lams)
    )


def eval_inequality(face, x, k):
    """sum_j (w_j^-1 lambda_j)(x_k), exact; <= 0 on the cone, 0 on the face."""
    if k in face.P.delta_P:
        raise ValueError(f"index {k} lies inside Delta(P)")
    return Fraction(-_row_value(face, _weights(x), k), face.root_system.x_den)


def _int_row(face, k):
    """``x_den`` times ``inequality_row(face, k)``: the words' integer
    blocks, concatenated."""
    return tuple(b for w in face.words for b in _int_block(w, k))


def inequality_row(face, k):
    """The inequality as a flat rational row over stacked fundamental
    coordinates (lambda_1 .. lambda_s), oriented so that row . x >= 0 holds
    on the cone: ``_int_row(face, k)`` over ``x_den``."""
    den = face.root_system.x_den
    return tuple(Fraction(b, den) for b in _int_row(face, k))


@lru_cache(maxsize=None)
def _cone_hrep(rs, s):
    """The H-rep of the s-fold tensor cone: the dominance rows, then the
    ``_int_row`` of every regular facet inequality. The facets are closed
    under permuting the s factors, so the rows are invariant under
    permuting the s blocks of coordinates."""
    n = s * rs.rank
    ineqs = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for f in enumerate_regular_facets(s, rs):
        ineqs.extend(_int_row(f, k) for k in f.P.complement)
    return cone.HRep(n, ineqs)


def tens_membership(x):
    """Is the weight tuple in the saturated tensor cone: dominant and on the
    correct side of every regular facet inequality, read off one packed
    evaluation of the cone's H-rep."""
    lams = _weights(x)
    s = len(lams)
    if s < 3:  # checked first: s = 0 leaves no root system to read
        raise ValueError(f"regular facets need s >= 3 factors, got s = {s}")
    rs = _root_system(lams)
    return cone.contains(_cone_hrep(rs, s), [c for lam in lams for c in lam.coords])


def typeI_pairs(face):
    """All (j, v, ell) with v -> w_j a simple cover through alpha_ell,
    v in W^P; 1-based j."""
    out = []
    for j, w in enumerate(face.words, start=1):
        for c in covers(w, face.P):
            if c.simple:
                ell = c.beta.index(1) + 1
                out.append((j, c.lower, ell))
    return out
