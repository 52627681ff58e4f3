"""Regular faces of the tensor cone and their defining inequalities.

A regular facet is the data of a maximal standard parabolic P and a tuple
w of minimal representatives whose deformed product is exactly the point
class. The inequality attached to (w, P) and a simple index k outside
Delta(P) reads, on the weight side,

    sum_j (w_j^-1 lambda_j)(x_k) <= 0,

and the face is where it vanishes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

from .rootdata import ParabolicSpec, build_root_system, eval_x
from .weyl import covers, minimal_reps, parse_word, require_minimal_rep
from . import schubert

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


@lru_cache(maxsize=None)
def _facets_cached(rs, s, quotient):
    out = []
    for k in range(1, rs.rank + 1):
        P = ParabolicSpec.maximal(rs, k)
        reps = minimal_reps(P)
        by_codim = {}
        for w in reps:
            by_codim.setdefault(schubert.codim(w, P), []).append(w)
        dim = P.dim_flag
        seen = set()
        codims = sorted(by_codim)
        for parts in itertools.product(codims, repeat=s - 1):
            rest = dim - sum(parts)
            if rest not in by_codim:
                continue
            pools = [by_codim[c] for c in parts] + [by_codim[rest]]
            for tup in itertools.product(*pools):
                if quotient:
                    key = tuple(sorted(w.matrix for w in tup))
                    if key in seen:
                        continue
                    seen.add(key)
                movable, c = schubert.levi_movable(list(tup), P)
                if movable and c == 1:
                    out.append(FaceSpec(s, P, tup))
    return tuple(out)


def enumerate_regular_facets(s, rs, quotient_symmetry=False):
    """All regular facet data (P maximal, w tuple), deterministic order.

    With ``quotient_symmetry`` only the lexicographically least
    representative of each orbit under permuting the s factors is kept.
    """
    if s < 3:
        raise ValueError(f"regular facets need s >= 3 factors, got s = {s}")
    return list(_facets_cached(rs, s, bool(quotient_symmetry)))


def eval_inequality(face, x, k):
    """sum_j (w_j^-1 lambda_j)(x_k), exact; <= 0 on the cone, 0 on the face."""
    if k in face.P.delta_P:
        raise ValueError(f"index {k} lies inside Delta(P)")
    lams = _weights(x)
    total = 0
    for w, lam in zip(face.words, lams):
        total += eval_x(w.inverse().act(lam), k)
    return total


def inequality_row(face, k):
    """The inequality as a flat rational row over stacked fundamental
    coordinates (lambda_1 .. lambda_s), oriented so that row . x >= 0 holds
    on the cone."""
    rs = face.root_system
    row = []
    for w in face.words:
        winv = w.inverse()
        for i in range(1, rs.rank + 1):
            row.append(-eval_x(winv.act(rs.omega(i)), k))
    return tuple(row)


def tens_membership(x):
    """Is the weight tuple in the saturated tensor cone: dominant and on the
    correct side of every regular facet inequality."""
    lams = _weights(x)
    rs = lams[0].root_system
    if not all(l.is_dominant() for l in lams):
        return False
    for face in enumerate_regular_facets(len(lams), rs):
        for k in face.P.complement:
            if eval_inequality(face, lams, k) > 0:
                return False
    return True


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
