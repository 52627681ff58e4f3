"""Weyl group arithmetic.

Elements are encoded by their action on the weight lattice: the canonical
form of ``w`` is the integer matrix whose column j holds the
fundamental-weight coordinates of w(omega_j). This encoding is faithful,
hashable, and makes compose/act/inverse plain matrix operations; reduced
words are kept only for parsing and display.

Orientation conventions, fixed once:

* words compose so that the leftmost letter acts last: "s4 s3 s1 s2" is the
  map s_4 o s_3 o s_1 o s_2;
* Bruhat covers use left multiplication: ``v -> w`` through root beta means
  w = s_beta v with l(w) = l(v) + 1.
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import linalg
from .rootdata import Weight

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
    "delta_sets",
]


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _matvec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


class WeylElem:
    """A Weyl group element, canonically encoded by its weight-lattice matrix."""

    __slots__ = ("root_system", "matrix", "_length", "_root_matrix", "_word")

    def __init__(self, root_system, matrix, word=None):
        self.root_system = root_system
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self._length = None
        self._root_matrix = None
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

    @property
    def root_matrix(self):
        """Action on the simple-root basis (integer matrix)."""
        if self._root_matrix is None:
            rs = self.root_system
            a = rs.cartan_matrix
            prod = _matmul(self.matrix, a)
            inv = rs._cartan_inv
            n = rs.rank
            rm = tuple(
                tuple(
                    int(sum(inv[i][k] * prod[k][j] for k in range(n)))
                    for j in range(n)
                )
                for i in range(n)
            )
            self._root_matrix = rm
        return self._root_matrix

    def act_root(self, beta):
        """w(beta) for a root in the simple-root basis."""
        return _matvec(self.root_matrix, beta)

    def compose(self, other):
        """w o other (other acts first)."""
        assert self.root_system is other.root_system
        return WeylElem(self.root_system, _matmul(self.matrix, other.matrix))

    def inverse(self):
        inv = linalg.inverse(self.matrix)
        return WeylElem(
            self.root_system, [[int(x) for x in row] for row in inv]
        )

    @property
    def length(self):
        if self._length is None:
            # l(w) = l(w^-1) = #{beta in R^+ : w(beta) in R^-}
            self._length = sum(
                1
                for beta in self.root_system.positive_roots
                if any(x < 0 for x in self.act_root(beta))
            )
        return self._length

    def is_identity(self):
        n = self.root_system.rank
        return self.matrix == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        )

    def is_minimal_rep(self, P):
        """w in W^P: w(alpha) positive for every alpha in Delta(P)."""
        alphas = self.root_system.simple_roots
        for i in P.delta_P:
            if any(x < 0 for x in self.act_root(alphas[i - 1])):
                return False
        return True

    def word(self):
        """A reduced word, as a list of 1-based simple indices."""
        if self._word is not None:
            return list(self._word)
        # peel simple reflections off the left: pick i with w^-1(alpha_i) < 0
        rs = self.root_system
        out = []
        w = self
        winv = self.inverse()
        while True:
            found = None
            for i, alpha in enumerate(rs.simple_roots, start=1):
                if any(x < 0 for x in winv.act_root(alpha)):
                    found = i
                    break
            if found is None:
                break
            out.append(found)
            s = simple_reflection(rs, found)
            w = s.compose(w)
            winv = winv.compose(s)
        self._word = tuple(out)
        return out

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
    n = rs.rank
    return WeylElem(rs, [[int(i == j) for j in range(n)] for i in range(n)], word=())


def simple_reflection(rs, i):
    """s_i acting on fundamental coordinates (1-based i)."""
    n = rs.rank
    mat = [[int(r == c) for c in range(n)] for r in range(n)]
    for r in range(n):
        mat[r][i - 1] -= rs.cartan_matrix[r][i - 1]
    return WeylElem(rs, mat, word=(i,))


def reflection(rs, beta):
    """s_beta for any root beta (simple-root basis)."""
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
    w = identity(rs)
    for t in tokens:
        i = int(t)
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple index {i} out of range in {text!r}")
        w = w.compose(simple_reflection(rs, i))
    return w


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
        self.index = {w.matrix: i for i, w in enumerate(self.elements)}
        self.longest = self.elements[-1]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def id_of(self, w):
        return self.index[w.matrix]


@lru_cache(maxsize=None)
def weyl_group(rs):
    return WeylGroup(rs)


def require_minimal_rep(w, P):
    """Raise ValueError unless w lies in W^P."""
    if not w.is_minimal_rep(P):
        raise ValueError(f"{w.word_str()} is not in W^P")


def minimal_reps(P):
    """W^P, ordered by (length, canonical form)."""
    W = weyl_group(P.root_system)
    reps = [w for w in W if w.is_minimal_rep(P)]
    assert len(reps) * (len(W) // len(reps)) == len(W)
    return reps


def longest_minimal_rep(P):
    return minimal_reps(P)[-1]


def covers(w, P):
    """All Bruhat covers v -> w with v in W^P (w = s_beta v, codimension one)."""
    require_minimal_rep(w, P)
    rs = P.root_system
    out = []
    for beta in rs.positive_roots:
        v = reflection(rs, beta).compose(w)
        if v.length == w.length - 1 and v.is_minimal_rep(P):
            out.append(CoverDatum(v, w, beta))
    out.sort(key=lambda c: (c.lower.matrix, c.beta))
    return out


def cover_test(u, ell, P):
    """Does u -> s_ell u stay a cover inside W^P?

    True iff u^-1(alpha_ell) is positive and not a Levi root. The equivalent
    length criterion (s_ell u in W^P with length l(u)+1) is computed too and
    asserted to agree.
    """
    rs = P.root_system
    require_minimal_rep(u, P)
    img = u.inverse().act_root(rs.simple_roots[ell - 1])
    root_crit = all(x >= 0 for x in img) and any(
        img[k - 1] != 0 for k in P.complement
    )
    su = simple_reflection(rs, ell).compose(u)
    len_crit = su.length == u.length + 1 and su.is_minimal_rep(P)
    assert root_crit == len_crit, (u.word_str(), ell, sorted(P.delta_P))
    return root_crit


def inversion_set(v):
    """Positive roots sent negative by v^-1; size l(v)."""
    vinv = v.inverse()
    out = {
        beta
        for beta in v.root_system.positive_roots
        if any(x < 0 for x in vinv.act_root(beta))
    }
    assert len(out) == v.length
    return out


def delta_sets(w, P):
    """(Delta_w, Delta'_w): simple roots whose w-preimage is a Levi-positive
    or negative root, resp. a negative root."""
    require_minimal_rep(w, P)
    winv = w.inverse()
    big, small = set(), set()
    levi = set(P.levi_positive_roots)
    for i, alpha in enumerate(P.root_system.simple_roots, start=1):
        img = winv.act_root(alpha)
        if any(x < 0 for x in img):
            big.add(i)
            small.add(i)
        elif tuple(img) in levi:
            big.add(i)
    return big, small
