"""Weyl group arithmetic.

``WeylGroup`` is the one place that makes elements. It builds W once, by a
breadth-first walk over w(rho) with left multiplication. The negative
coordinates of w(rho) are the left descents of w, so the walk steps from w to
s_i w only where coordinate i of w(rho) is positive: there the length goes
up. It keeps s_i w only where i is the first negative coordinate of
s_i w(rho), so each element arises once, and its word (i,) + word(w) is the
reduced word that ``RootSystem.dominant_walk`` reads off its image of rho.
Each element also carries its integer matrix, whose column j holds the
fundamental-weight coordinates of w(omega_j): ``act`` is a matrix-vector
product, and W is ordered by (length, matrix).

Since rho is regular, w(rho) determines w: ``WeylGroup.by_rho`` finds an
element's position from it. Every other constructor -- ``identity``,
``simple_reflection``, ``reflection``, ``parse_word``, ``WeylElem.inverse``
and ``WeylElem.compose`` -- computes an image of rho and looks it up.

W^P is the orbit of lambda_P = sum of omega_k over k outside Delta(P), whose
stabilizer is W_P: ``minimal_reps`` walks it from lambda_P, carrying w(rho)
to find each element, and W^P is computed nowhere else.

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

from .cone import ConsistencyError
from .rootdata import Weight, one_root_system, pair

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
    "simple_cover",
    "cover_test",
    "inversion_set",
]


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


def _element(rs, rho_image):
    """The element of W whose image of rho is ``rho_image``."""
    W = weyl_group(rs)
    return W.elements[W.by_rho[tuple(rho_image)]]


class WeylElem:
    """A Weyl group element: its weight-lattice matrix, its image of rho and
    a reduced word. Only ``WeylGroup`` makes them."""

    __slots__ = ("root_system", "matrix", "rho", "_word")

    def __init__(self, root_system, matrix, rho, word):
        self.root_system = root_system
        self.matrix = matrix
        self.rho = rho
        self._word = word

    def __eq__(self, other):
        return (
            isinstance(other, WeylElem)
            and self.root_system is other.root_system
            and self.rho == other.rho
        )

    def __hash__(self):
        return hash(self.rho)

    # -- actions -------------------------------------------------------

    def act(self, lam):
        """w(lam) for a Weight in fundamental coordinates."""
        rs = one_root_system(self, lam)
        return Weight(rs, _matvec(self.matrix, lam.coords))

    def act_root(self, beta):
        """w(beta) for a root in the simple-root basis."""
        rs = self.root_system
        beta = tuple(beta)
        for i in reversed(self._word):
            beta = rs.reflect_root(i, beta)
        return beta

    def compose(self, other):
        """w o other (other acts first)."""
        rs = one_root_system(self, other)
        return _element(rs, _matvec(self.matrix, other.rho))

    def inverse(self):
        rs = self.root_system
        return _element(rs, _reflect_along(rs, self._word, rs.rho.coords))

    @property
    def length(self):
        return len(self._word)

    def is_minimal_rep(self, P):
        """w in W^P: w(alpha_i) positive for every alpha_i in Delta(P)."""
        return weyl_group(self.root_system).by_rho[self.rho] in _rep_ids(P)

    def word(self):
        """A reduced word, as a list of 1-based simple indices."""
        return list(self._word)

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
        if upper.length != lower.length + 1:
            raise ValueError(
                f"{upper.word_str()} is not a cover of {lower.word_str()}: "
                f"lengths {upper.length} and {lower.length}"
            )

    def __repr__(self):
        tag = "simple" if self.simple else "nonsimple"
        return (
            f"CoverDatum({self.lower.word_str()} -> {self.upper.word_str()}"
            f" via {self.beta}, {tag})"
        )


def identity(rs):
    return weyl_group(rs).elements[0]


def simple_reflection(rs, i):
    """s_i (1-based i)."""
    return _element(rs, _reflect_along(rs, (i,), rs.rho.coords))


def reflection(rs, beta):
    """s_beta for any root beta (simple-root basis)."""
    # s_beta(rho) = rho - <rho, beta^vee> beta, and <rho, beta^vee> is the
    # sum of the coroot coordinates
    h = sum(rs.coroot(beta))
    bw = rs.root_to_weight(beta).coords
    return _element(rs, (r - h * b for r, b in zip(rs.rho.coords, bw)))


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
    # a typed word need not be reduced: look up where it sends rho
    return _element(rs, _reflect_along(rs, letters[::-1], rs.rho.coords))


class WeylGroup:
    """Full enumeration of W, ordered by (length, matrix)."""

    def __init__(self, rs):
        """Walk W layer by layer from the identity: s_i w, for w in a layer,
        joins the next one where coordinate i of w(rho) is positive and is
        the first negative coordinate of s_i w(rho). Its matrix is w's with
        row r less a[r][i] times row i, and each layer is sorted by matrix."""
        self.root_system = rs
        a = rs.cartan_matrix
        n = rs.rank
        one = tuple(tuple(int(r == j) for j in range(n)) for r in range(n))
        layer = [(one, tuple(rs.rho.coords), ())]
        self.elements = []
        while layer:
            layer.sort()  # by matrix: no two elements share one
            self.elements += [WeylElem(rs, m, c, word) for m, c, word in layer]
            nxt = []
            for m, c, word in layer:
                for i, ci in enumerate(c):
                    if ci < 0:
                        continue
                    v = tuple(x - ci * ar[i] for x, ar in zip(c, a))
                    if any(x < 0 for x in v[:i]):
                        continue
                    mi = m[i]
                    m2 = tuple(
                        tuple(x - ar[i] * y for x, y in zip(row, mi)) if ar[i] else row
                        for row, ar in zip(m, a)
                    )
                    nxt.append((m2, v, (i + 1,) + word))
            layer = nxt
        # w(rho) -> position in ``elements``
        self.by_rho = {w.rho: i for i, w in enumerate(self.elements)}
        self.longest = self.elements[-1]
        self._rows = {}  # id -> cover_row
        self._chev = {}  # each Chevalley vector of an upper cover, once
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
        return self.by_rho[w.rho]

    def cover_row(self, xid):
        """The Bruhat covers of element ``xid`` as (lower, upper): lower holds
        pairs (gamma, id of s_gamma x) over the positive roots gamma, in
        order, with l(s_gamma x) = l(x) - 1; upper holds pairs (id of
        s_gamma x, Chevalley vector) with l(s_gamma x) = l(x) + 1, where
        entry k of the vector is <x omega_k, gamma^vee>. Filled on first use
        from s_gamma x(rho) = x(rho) - <x(rho), gamma^vee> gamma."""
        got = self._rows.get(xid)
        if got is None:
            x = self.elements[xid]
            x_rho, lx, cols = x.rho, x.length, tuple(zip(*x.matrix))
            lower, upper = [], []
            for gamma, co, gw in self._roots:
                h = sum(map(mul, co, x_rho))
                yid = self.by_rho[tuple(r - h * g for r, g in zip(x_rho, gw))]
                ly = self.elements[yid].length
                if ly == lx - 1:
                    lower.append((gamma, yid))
                elif ly == lx + 1:
                    # column k of x's matrix holds x omega_k; equal vectors
                    # are stored once
                    chev = tuple(sum(map(mul, co, col)) for col in cols)
                    upper.append((yid, self._chev.setdefault(chev, chev)))
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
def _rep_ids(P):
    """The ids of W^P, by a walk over the orbit of lambda_P from lambda_P.

    For w in W^P, s_i w is longer and again in W^P exactly where coordinate
    i of w(lambda_P) is positive. Each layer maps w(lambda_P) to w(rho),
    which finds the element, and s_i moves both images."""
    rs = P.root_system
    W = weyl_group(rs)
    lam = tuple(int(k not in P.delta_P) for k in range(1, rs.rank + 1))
    layer = {lam: tuple(rs.rho.coords)}
    ids = set()
    while layer:
        ids.update(W.by_rho[rho] for rho in layer.values())
        nxt = {}
        for mu, rho in layer.items():
            for i, c in enumerate(mu):
                if c > 0:
                    mu2 = tuple(_reflect_along(rs, (i + 1,), mu))
                    if mu2 not in nxt:
                        nxt[mu2] = tuple(_reflect_along(rs, (i + 1,), rho))
        layer = nxt
    return frozenset(ids)


@lru_cache(maxsize=None)
def minimal_reps(P):
    """W^P as a tuple, ordered by (length, matrix) as W is."""
    W = weyl_group(P.root_system)
    return tuple(W.elements[i] for i in sorted(_rep_ids(P)))


def covers(w, P):
    """All Bruhat covers v -> w with v in W^P (w = s_beta v, codimension one)."""
    require_minimal_rep(w, P)
    W = weyl_group(P.root_system)
    reps = _rep_ids(P)
    out = [
        CoverDatum(W.elements[vid], w, beta)
        for beta, vid in W.cover_row(W.id_of(w))[0]
        if vid in reps
    ]
    return sorted(out, key=lambda c: W.id_of(c.lower))


def simple_cover(u, ell):
    """s_ell u if it covers u, else None: s_ell u(rho) = u(rho) - c alpha_ell
    with c coordinate ell of u(rho), and it is longer iff c is positive."""
    if u.rho[ell - 1] <= 0:
        return None
    return _element(u.root_system, _reflect_along(u.root_system, (ell,), u.rho))


def cover_test(u, ell, P):
    """Does u -> s_ell u stay a cover inside W^P: is s_ell u longer than u,
    and in W^P?"""
    require_minimal_rep(u, P)
    su = simple_cover(u, ell)
    return su is not None and su.is_minimal_rep(P)


def inversion_set(v):
    """Positive roots sent negative by v^-1: those beta with
    <v(rho), beta^vee> < 0; size l(v)."""
    rs = v.root_system
    v_rho = v.act(rs.rho)
    out = {beta for beta in rs.positive_roots if pair(v_rho, beta) < 0}
    if len(out) != v.length:
        raise ConsistencyError(
            f"{v.word_str()} has length {v.length} but {len(out)} inversions"
        )
    return out

