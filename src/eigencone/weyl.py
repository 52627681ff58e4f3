"""Weyl group arithmetic.

``WeylGroup`` is the one place that makes elements. It builds W once as the
orbit of rho (``RootSystem.orbit``), which yields each element once with the
reduced word ``RootSystem.dominant_walk`` reads off its image of rho. An
element is that image and that word; ``act`` reflects along the word.

The walk carries lambda_B = sum_j B^(n - j) omega_j, B = 2c + 1 for c the
largest coefficient of a positive coroot. Write M_w[r][j] for
<w omega_j, alpha_r^vee>: it is coefficient j of the coroot of w^-1 alpha_r,
so |M_w[r][j]| <= c, and coordinate r of w(lambda_B) holds the row
(M_w[r][j])_j in balanced base B. Ordering each length layer by
w(lambda_B) therefore orders W by (length, M_w read row by row). The same
packing gives each Chevalley vector (<x omega_k, gamma^vee>)_k of an upper
cover as the base-B digits of <x lambda_B, gamma^vee> (``cover_row``).

Since rho is regular, w(rho) determines w: ``WeylGroup.by_rho`` finds an
element's position from it. Every other constructor -- ``identity``,
``simple_reflection``, ``reflection``, ``parse_word``, ``WeylElem.inverse``
and ``WeylElem.compose`` -- computes an image of rho and looks it up.

W^P is computed in one place, ``minimal_reps``: the orbit of lambda_P = sum
of omega_k over k outside Delta(P), whose stabilizer is W_P.

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


def _element(rs, rho_image):
    """The element of W whose image of rho is ``rho_image``."""
    W = weyl_group(rs)
    return W.elements[W.by_rho[tuple(rho_image)]]


class WeylElem:
    """A Weyl group element: its image of rho and a reduced word. Only
    ``WeylGroup`` makes them."""

    __slots__ = ("root_system", "rho", "_word")

    def __init__(self, root_system, rho, word):
        self.root_system = root_system
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
        return Weight(rs, tuple(rs.reflect_along(reversed(self._word), lam.coords)))

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
        return _element(rs, rs.reflect_along(reversed(self._word), other.rho))

    def inverse(self):
        rs = self.root_system
        return _element(rs, rs.reflect_along(self._word, rs.rho.coords))

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
    rs.simple_index(i)
    return _element(rs, rs.reflect_along((i,), rs.rho.coords))


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
        rs.simple_index(i)
    # a typed word need not be reduced: look up where it sends rho
    return _element(rs, rs.reflect_along(letters[::-1], rs.rho.coords))


class WeylGroup:
    """Full enumeration of W: the orbit of rho carrying lambda_B, ordered by
    (length, w(lambda_B)), which is the order by (length, M_w read row by
    row) since w(lambda_B) holds the rows of M_w in balanced base B."""

    def __init__(self, rs):
        self.root_system = rs
        n = rs.rank
        # B = 2c + 1, and lambda_B = (B^(n - j))_j: the digit values
        self._base = 2 * rs.coroot_max + 1
        self._powers = [self._base ** (n - j) for j in range(1, n + 1)]
        self.elements = []
        self._lam_B = []  # id -> w(lambda_B)
        for layer in rs.orbit(rs.rho.coords, self._powers):
            # by w(lambda_B), which no two elements share
            layer.sort(key=lambda entry: entry[0][n:])
            for v, word in layer:
                self.elements.append(WeylElem(rs, v[:n], word))
                self._lam_B.append(v[n:])
        # w(rho) -> position in ``elements``
        self.by_rho = {w.rho: i for i, w in enumerate(self.elements)}
        self.longest = self.elements[-1]
        self._rows = {}  # id -> cover_row
        self._chev = {}  # <x lambda_B, gamma^vee> -> its Chevalley vector
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
        from s_gamma x(rho) = x(rho) - <x(rho), gamma^vee> gamma. For an
        upper cover x^-1 gamma > 0, and entry k is coefficient k of its
        coroot, in 0..c: the vector is the base-B digits of
        <x lambda_B, gamma^vee>, most significant first."""
        got = self._rows.get(xid)
        if got is None:
            x = self.elements[xid]
            x_rho, lx, x_lam = x.rho, x.length, self._lam_B[xid]
            lower, upper = [], []
            for gamma, co, gw in self._roots:
                h = sum(map(mul, co, x_rho))
                yid = self.by_rho[tuple(r - h * g for r, g in zip(x_rho, gw))]
                ly = self.elements[yid].length
                if ly == lx - 1:
                    lower.append((gamma, yid))
                elif ly == lx + 1:
                    # equal vectors are stored once, by their packed value
                    packed = sum(map(mul, co, x_lam))
                    chev = self._chev.get(packed)
                    if chev is None:
                        chev = tuple(packed // p % self._base for p in self._powers)
                        self._chev[packed] = chev
                    upper.append((yid, chev))
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
    """The ids of W^P: the walk from lambda_P, whose stabilizer is W_P,
    visits each w in W^P once, and the carried w(rho) finds it."""
    rs = P.root_system
    by_rho = weyl_group(rs).by_rho
    lam = [int(k not in P.delta_P) for k in range(1, rs.rank + 1)]
    return frozenset(
        by_rho[v[rs.rank:]] for layer in rs.orbit(lam, rs.rho.coords) for v, _ in layer
    )


@lru_cache(maxsize=None)
def minimal_reps(P):
    """W^P as a tuple, ordered by (length, w(lambda_B)) as W is, which is the
    order by (length, M_w read row by row)."""
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
    if u.rho[u.root_system.simple_index(ell)] <= 0:
        return None
    return _element(u.root_system, u.root_system.reflect_along((ell,), u.rho))


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

