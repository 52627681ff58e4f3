"""Weyl group arithmetic.

Elements are encoded by their action on the weight lattice: the canonical
form of ``w`` is the integer matrix whose column j holds the
fundamental-weight coordinates of w(omega_j). This encoding is faithful,
hashable, and makes compose/act plain matrix operations.

Everything else comes from one integer walk: the negative coordinates of
w(rho) are the left descents of w, so ``RootSystem.dominant_walk`` from
w(rho) back to rho reads off a reduced word. The length is the length of
that word, the inverse is the reversed word, and the action on roots
applies simple reflections along the word. Since rho is regular, w(rho)
also determines w: ``WeylGroup.by_rho`` finds an element's position from it.

Orientation conventions, fixed once:

* words compose so that the leftmost letter acts last: "s4 s3 s1 s2" is the
  map s_4 o s_3 o s_1 o s_2;
* Bruhat covers use left multiplication: ``v -> w`` through root beta means
  w = s_beta v with l(w) = l(v) + 1. Every cover, and the Chevalley rule's
  x -> x s_beta = s_{x(beta)} x, is read from one table: ``cover_row``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import mul

from .rootdata import Weight, pair

__all__ = [
    "WeylElem",
    "CoverDatum",
    "WeylGroup",
    "identity",
    "simple_reflection",
    "reflection",
    "parse_word",
    "require_minimal_rep",
    "minimal_reps",
    "covers",
    "cover_test",
    "inversion_set",
]


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _matvec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def _reflect_along(rs, letters, coords):
    """Fundamental coordinates of s_{letters[-1]} o .. o s_{letters[0]}
    applied to a weight: the letters act in the order listed."""
    a = rs.cartan_matrix
    c = list(coords)
    for i in letters:
        ci = c[i - 1]
        if ci:
            for r in range(rs.rank):
                c[r] -= ci * a[r][i - 1]
    return c


def _word_matrix(rs, word):
    """Matrix of s_{word[0]} o .. o s_{word[-1]}: each omega_j is reflected
    by the letters from right to left."""
    n = rs.rank
    letters = word[::-1]
    cols = [
        _reflect_along(rs, letters, [int(r == j) for r in range(n)])
        for j in range(n)
    ]
    return tuple(tuple(col[r] for col in cols) for r in range(n))


class WeylElem:
    """A Weyl group element, canonically encoded by its weight-lattice matrix."""

    __slots__ = ("root_system", "matrix", "_word")

    def __init__(self, root_system, matrix, word=None):
        """``word``, if given, must be a reduced word of the matrix."""
        self.root_system = root_system
        self.matrix = tuple(tuple(row) for row in matrix)
        self._word = word

    def __eq__(self, other):
        return (
            isinstance(other, WeylElem)
            and self.root_system is other.root_system
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def __lt__(self, other):
        return (self.length, self.matrix) < (other.length, other.matrix)

    # -- actions -------------------------------------------------------

    def act(self, lam):
        """w(lam) for a Weight in fundamental coordinates."""
        assert lam.root_system is self.root_system
        return Weight(self.root_system, _matvec(self.matrix, lam.coords))

    def act_root(self, beta):
        """w(beta) for a root in the simple-root basis."""
        rs = self.root_system
        beta = tuple(beta)
        for i in reversed(self._reduced_word()):
            beta = rs.reflect_root(i, beta)
        return beta

    def compose(self, other):
        """w o other (other acts first)."""
        assert self.root_system is other.root_system
        return WeylElem(self.root_system, _matmul(self.matrix, other.matrix))

    def inverse(self):
        word = self._reduced_word()[::-1]
        return WeylElem(self.root_system, _word_matrix(self.root_system, word), word)

    @property
    def length(self):
        return len(self._reduced_word())

    def is_minimal_rep(self, P):
        """w in W^P: w(alpha_i) positive for every alpha_i in Delta(P).

        <w^-1 rho, alpha_i^vee> = <rho, w(alpha_i)^vee>, so that holds iff
        the i-th fundamental coordinate of w^-1(rho) is positive; w^-1 is
        the reduced word read backwards, so its letters act first to last.
        """
        rs = self.root_system
        inv_rho = _reflect_along(rs, self._reduced_word(), rs.rho.coords)
        return all(inv_rho[i - 1] > 0 for i in P.delta_P)

    def rho_image(self):
        """w(rho) in fundamental coordinates: the row sums of the matrix.
        rho is regular, so this determines w."""
        return tuple(sum(row) for row in self.matrix)

    def _reduced_word(self):
        """The word given at construction, else the rho walk's word."""
        if self._word is None:
            rs = self.root_system
            end, word = rs.dominant_walk(self.rho_image())
            assert end == rs.rho.coords, (self.matrix, end)
            self._word = word
        return self._word

    def word(self):
        """A reduced word, as a list of 1-based simple indices."""
        return list(self._reduced_word())

    def word_str(self):
        w = self.word()
        return " ".join(f"s{i}" for i in w) if w else "e"

    def __repr__(self):
        return f"WeylElem({self.word_str()})"


class CoverDatum:
    """A Bruhat cover lower -> upper through ``beta``: upper = s_beta lower."""

    __slots__ = ("lower", "upper", "beta", "simple")

    def __init__(self, lower, upper, beta):
        self.lower = lower
        self.upper = upper
        self.beta = tuple(beta)
        self.simple = sum(self.beta) == 1
        assert self.upper.length == self.lower.length + 1

    def __repr__(self):
        tag = "simple" if self.simple else "nonsimple"
        return (
            f"CoverDatum({self.lower.word_str()} -> {self.upper.word_str()}"
            f" via {self.beta}, {tag})"
        )


def identity(rs):
    return WeylElem(rs, _word_matrix(rs, ()), ())


def simple_reflection(rs, i):
    """s_i acting on fundamental coordinates (1-based i)."""
    return WeylElem(rs, _word_matrix(rs, (i,)), (i,))


def reflection(rs, beta):
    """s_beta for any root beta (simple-root basis), as a matrix."""
    # s_beta(omega_j) = omega_j - <omega_j, beta^vee> beta, and
    # <omega_j, beta^vee> is the j-th coroot coordinate
    co = rs.coroot(beta)
    bw = rs.root_to_weight(beta).coords
    n = rs.rank
    mat = [[int(r == j) - bw[r] * co[j] for j in range(n)] for r in range(n)]
    return WeylElem(rs, mat)


_WORD_RE = re.compile(r"s_?(\d+)")


def parse_word(rs, text):
    """Parse a Weyl word like "s4 s3 s1 s2" (also "e" or "1" for identity)."""
    text = text.strip()
    if text in ("e", "1", ""):
        return identity(rs)
    tokens = _WORD_RE.findall(text)
    if not tokens or "".join(f"s{t}" for t in tokens) != text.replace(" ", "").replace("_", ""):
        raise ValueError(f"cannot parse Weyl word {text!r}")
    letters = [int(t) for t in tokens]
    for i in letters:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple index {i} out of range in {text!r}")
    # a typed word need not be reduced, so the element finds its own
    return WeylElem(rs, _word_matrix(rs, letters))


class WeylGroup:
    """Full enumeration of W, ordered by (length, canonical form)."""

    def __init__(self, rs):
        self.root_system = rs
        gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
        e = identity(rs)
        seen = {e.matrix: e}
        frontier = [e]
        while frontier:
            nxt = []
            for w in frontier:
                for s in gens:
                    ws = w.compose(s)
                    if ws.matrix not in seen:
                        seen[ws.matrix] = ws
                        nxt.append(ws)
            frontier = nxt
        self.elements = sorted(seen.values(), key=lambda w: (w.length, w.matrix))
        # w(rho) -> position in ``elements``
        self.by_rho = {w.rho_image(): i for i, w in enumerate(self.elements)}
        self.longest = self.elements[-1]
        self._rows = {}  # id -> cover_row
        # (gamma, gamma^vee, gamma as a weight) per positive root
        self._roots = [
            (g, rs.coroot(g), rs.root_to_weight(g).coords)
            for g in rs.positive_roots
        ]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def id_of(self, w):
        return self.by_rho[w.rho_image()]

    def cover_row(self, xid):
        """The Bruhat covers of element ``xid`` as (lower, upper): pairs
        (gamma, id of s_gamma x) over the positive roots gamma, in order, with
        l(s_gamma x) = l(x) - 1, resp. l(x) + 1. Filled on first use from
        s_gamma x(rho) = x(rho) - <x(rho), gamma^vee> gamma."""
        got = self._rows.get(xid)
        if got is None:
            x = self.elements[xid]
            x_rho, lx = x.rho_image(), x.length
            lower, upper = [], []
            for gamma, co, gw in self._roots:
                h = sum(map(mul, co, x_rho))
                yid = self.by_rho[tuple(r - h * g for r, g in zip(x_rho, gw))]
                ly = self.elements[yid].length
                if ly == lx - 1:
                    lower.append((gamma, yid))
                elif ly == lx + 1:
                    upper.append((gamma, yid))
            got = self._rows[xid] = (lower, upper)
        return got


@lru_cache(maxsize=None)
def weyl_group(rs):
    return WeylGroup(rs)


def require_minimal_rep(w, P):
    """Raise ValueError unless w lies in W^P."""
    if not w.is_minimal_rep(P):
        raise ValueError(f"{w.word_str()} is not in W^P")


@lru_cache(maxsize=None)
def minimal_reps(P):
    """W^P as a tuple, ordered by (length, canonical form); one scan of W
    per parabolic."""
    W = weyl_group(P.root_system)
    reps = tuple(w for w in W if w.is_minimal_rep(P))
    assert len(reps) * (len(W) // len(reps)) == len(W)
    return reps


def covers(w, P):
    """All Bruhat covers v -> w with v in W^P (w = s_beta v, codimension one)."""
    require_minimal_rep(w, P)
    W = weyl_group(P.root_system)
    out = [
        CoverDatum(W.elements[vid], w, beta)
        for beta, vid in W.cover_row(W.id_of(w))[0]
        if W.elements[vid].is_minimal_rep(P)
    ]
    return sorted(out, key=lambda c: (c.lower.matrix, c.beta))


def cover_test(u, ell, P):
    """Does u -> s_ell u stay a cover inside W^P: is s_ell u among the
    upper entries of u's cover row, and in W^P?"""
    rs = P.root_system
    require_minimal_rep(u, P)
    W = weyl_group(rs)
    su = dict(W.cover_row(W.id_of(u))[1]).get(rs.simple_roots[ell - 1])
    return su is not None and W.elements[su].is_minimal_rep(P)


def inversion_set(v):
    """Positive roots sent negative by v^-1: those beta with
    <v(rho), beta^vee> < 0; size l(v)."""
    rs = v.root_system
    v_rho = v.act(rs.rho)
    out = {beta for beta in rs.positive_roots if pair(v_rho, beta) < 0}
    assert len(out) == v.length
    return out

