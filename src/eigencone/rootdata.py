"""Finite root systems with exact rational arithmetic.

A :class:`RootSystem` packages the combinatorial data of one finite Cartan
type (products of simple types included): Cartan matrix, positive roots,
fundamental weights, and the half squared root lengths d_i of the invariant
form, normalized so that long roots in each simple factor have squared
length 2.

Conventions:

* simple-root indices are 1-based (Bourbaki numbering) in the public API,
  stored 0-based in vectors;
* roots are integer vectors in the simple-root basis;
* weights are canonically stored in the fundamental-weight basis, so the
  i-th coordinate of a weight ``lam`` is ``<lam, alpha_i^vee>``;
* the Dynkin structure is read off one table, with no walk of the diagram:
  each positive root with its coroot in the simple-coroot basis, from one
  closure of the pairs (alpha_i, alpha_i^vee) under simple reflections. The
  highest root through node i is long, so it gives d_i; the highest Levi
  roots give the components of Delta(P); and rank, root count and short
  simple roots give each component's Cartan label;
* the inverse Cartan matrix (row k is x_k) is held as integer rows over one
  denominator;
* integral coordinates stay ``int``; a ``Fraction`` appears only where a
  division makes one (d_i, simple-root coordinates and x_k values of
  a weight); integral values such as chi_w(x_k) are found in integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from . import linalg

__all__ = [
    "RootSystem",
    "Weight",
    "ParabolicSpec",
    "build_root_system",
    "pair",
    "eval_x",
]


class CartanLabelError(ValueError):
    """Raised for an unrecognized or unsupported Cartan label."""


def _chain_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def _simple_cartan_matrix(family, n):
    """Cartan matrix a[i][j] = <alpha_j, alpha_i^vee> (0-based), Bourbaki."""
    if family == "A":
        edges = _chain_edges(n)
    elif family in ("B", "C"):
        if n < 2:
            raise CartanLabelError(f"{family}{n}: rank must be >= 2")
        edges = _chain_edges(n)
    elif family == "D":
        if n < 3:
            raise CartanLabelError(f"D{n}: rank must be >= 3")
        edges = _chain_edges(n - 1) + [(n - 2, n)]
    elif family == "E":
        if n not in (6, 7, 8):
            raise CartanLabelError(f"E{n}: rank must be 6, 7 or 8")
        edges = [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, n)]
    elif family == "F":
        if n != 4:
            raise CartanLabelError(f"F{n}: only F4 exists")
        edges = _chain_edges(4)
    elif family == "G":
        if n != 2:
            raise CartanLabelError(f"G{n}: only G2 exists")
        edges = [(1, 2)]
    else:
        raise CartanLabelError(f"unknown family {family!r}")

    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    # double/triple bonds with Bourbaki arrow conventions
    if family == "B":
        a[n - 1][n - 2] = -2  # alpha_n short
    elif family == "C":
        a[n - 2][n - 1] = -2  # alpha_n long
    elif family == "F":
        a[2][1] = -2  # alpha_3, alpha_4 short
    elif family == "G":
        a[0][1] = -3  # alpha_1 short
    return a


def _coroot_table(cartan, simples):
    """{beta: beta^vee} over the positive roots, in simple root and coroot
    coordinates: the closure of the pairs (alpha_i, alpha_i^vee) under
    s_i beta = beta - <beta, alpha_i^vee> alpha_i and
    s_i beta^vee = beta^vee - <alpha_i, beta^vee> alpha_i^vee."""
    table = {e: e for e in simples}
    frontier = list(table.items())
    while frontier:
        nxt = []
        for beta, co in frontier:
            for i, (row, col) in enumerate(zip(cartan, zip(*cartan))):
                refl = list(beta)
                refl[i] -= sum(map(mul, row, beta))
                refl = tuple(refl)
                if min(refl) >= 0 and refl not in table:
                    refl_co = list(co)
                    refl_co[i] -= sum(map(mul, col, co))
                    table[refl] = tuple(refl_co)
                    nxt.append((refl, table[refl]))
        frontier = nxt
    return table


def _highest(roots, i):
    """The root of greatest height in ``roots`` (sorted by height) with a
    positive alpha_i-coefficient (0-based i): the highest root of node i's
    component, which is long and has full support on it."""
    return next(b for b in reversed(roots) if b[i])


def _type_label(rs):
    """Cartan label of a connected root system, read off its rank n, its
    number N of positive roots and its short simple roots (d_i != 1). It
    names the isomorphism type; only B2 and C2, one type, are told apart by
    position: alpha_2 is short in B2."""
    n, N = rs.rank, len(rs.positive_roots)
    short = [i for i, d in enumerate(rs.d) if d != 1]
    if not short:
        if 2 * N == n * (n + 1):
            return f"A{n}"
        return f"D{n}" if N == n * (n - 1) else f"E{n}"
    if N != n * n:
        return "G2" if n == 2 else "F4"
    if n == 2:
        return "B2" if short == [1] else "C2"
    return f"B{n}" if len(short) == 1 else f"C{n}"


class RootSystem:
    """Immutable root datum for one finite Cartan type (possibly a product)."""

    def __init__(self, cartan, label=None):
        self.rank = len(cartan)
        self.cartan_matrix = tuple(tuple(int(x) for x in row) for row in cartan)
        a, n = self.cartan_matrix, self.rank
        # s_i negates coordinate i of a weight and moves only the neighbours
        # j of node i, by a[j][i]; so from a point whose first negative
        # coordinate is f (n: none), s_i can leave i first negative only for
        # i < f or a neighbour i > f of f, which must be checked (``orbit``)
        self._nbrs = [[(j, row[i]) for j, row in enumerate(a) if j != i and row[i]]
                      for i in range(n)]
        self._steps = [[(i, i > f) for i in range(n) if i < f or a[f][i]]
                       for f in range(n + 1)]
        # simple_roots[i - 1] is alpha_i as a vector in the simple-root basis
        self.simple_roots = tuple(
            tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)
        )
        table = _coroot_table(self.cartan_matrix, self.simple_roots)
        self.positive_roots = tuple(sorted(table, key=lambda b: (sum(b), b)))
        # a long theta has theta^vee = theta = sum_i theta_i d_i alpha_i^vee
        highest = [_highest(self.positive_roots, i) for i in range(self.rank)]
        self.d = tuple(Fraction(table[t][i], t[i]) for i, t in enumerate(highest))
        # the largest coefficient of a positive coroot
        self.coroot_max = max(max(co) for co in table.values())
        self._coroots = dict(table)
        for beta, co in table.items():
            self._coroots[tuple(-m for m in beta)] = tuple(-c for c in co)
        # x_k is row k - 1 of the inverse Cartan matrix, integers over x_den
        self.x_den, x_rows = linalg.inverse(self.cartan_matrix)
        self.x_rows = tuple(map(tuple, x_rows))
        # a connected block built without a label is named by its type
        self.cartan_label = _type_label(self) if label is None else label

    # -- basic vectors -------------------------------------------------

    def weight(self, coords):
        return Weight(self, tuple(coords))

    def zero_weight(self):
        return self.weight([0] * self.rank)

    def simple_index(self, i):
        """0-based position of a 1-based simple index; ValueError outside 1..rank."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range 1..{self.rank}")
        return i - 1

    def omega(self, i):
        """Fundamental weight omega_i (1-based)."""
        i = self.simple_index(i)
        return self.weight([int(j == i) for j in range(self.rank)])

    @property
    def rho(self):
        return self.weight([1] * self.rank)

    # -- root utilities (roots are tuples in the simple-root basis) ----

    def coroot(self, beta):
        """Integer coordinates c of beta^vee = sum_i c_i alpha_i^vee."""
        co = self._coroots.get(tuple(beta))
        if co is None:
            raise ValueError(f"{tuple(beta)} is not a root of {self.cartan_label}")
        return co

    def root_pairing(self, beta, i):
        """<beta, alpha_i^vee> for a root-basis vector beta (1-based i)."""
        return sum(map(mul, self.cartan_matrix[self.simple_index(i)], beta))

    def reflect_root(self, i, beta):
        """s_i(beta) in the simple-root basis (1-based i)."""
        c = self.root_pairing(beta, i)
        out = list(beta)
        out[i - 1] -= c
        return tuple(out)

    def dominant_walk(self, coords):
        """(dominant W-translate, word) of a weight in fundamental coordinates.

        The walk applies s_i at the first negative coordinate until none is
        left; ``word`` lists the 1-based indices in the order applied. For
        coords = w(rho) the negative coordinates are the left descents of w,
        so the walk ends at rho and ``word`` is a reduced word of w.
        """
        c = list(coords)
        word = []
        while True:
            i = next((i for i, x in enumerate(c, 1) if x < 0), None)
            if i is None:
                return tuple(c), tuple(word)
            c = self.reflect_along((i,), c)
            word.append(i)

    def reflect_along(self, letters, coords):
        """Fundamental coordinates of s_{letters[-1]} o .. o s_{letters[0]}
        applied to a weight, as a list: the 1-based letters act in the order
        listed, so w acts along reversed(w.word()) and w^-1 along w.word()."""
        c = list(coords)
        for i in letters:
            ci = c[i - 1]
            if ci:
                c[i - 1] = -ci
                for j, aji in self._nbrs[i - 1]:
                    c[j] -= ci * aji
        return c

    def orbit(self, top, carry):
        """Layers of the W-orbit of a dominant weight ``top``: layer k lists
        (w(top) + w(carry), word) over the w of length k minimal in w W_top,
        ``word`` reduced. ``carry`` is the coordinates of any number of
        weights, one after another (() for none), and the point holds w of
        each in the same places after w(top). It is ``dominant_walk`` run
        backwards: from a point it steps by s_i where coordinate i is
        positive, keeping the new point only where i is its first negative
        coordinate, so each point arises once and no visited set is kept. A
        caller may reorder a layer before asking for the next."""
        n, nbrs, steps = self.rank, self._nbrs, self._steps
        blocks = range(n, n + len(carry), n)  # the carried blocks
        layer = [(tuple(top) + tuple(carry), ())]
        while layer:
            yield layer
            nxt = []
            for v, word in layer:
                # a point's first negative coordinate is its word's first letter
                f = word[0] - 1 if word else n
                for i, check in steps[f]:
                    vi = v[i]
                    if vi <= 0:
                        continue
                    new = list(v)
                    new[i] = -vi
                    for j, aji in nbrs[i]:
                        new[j] -= vi * aji
                    if check and min(new[f:i]) < 0:
                        continue
                    for o in blocks:
                        x = v[o + i]
                        new[o + i] = -x
                        for j, aji in nbrs[i]:
                            new[o + j] -= x * aji
                    nxt.append((tuple(new), (i + 1,) + word))
            layer = nxt

    def root_to_weight(self, beta):
        """A root (simple-root basis) as a Weight."""
        coords = [
            sum(self.cartan_matrix[i][j] * m for j, m in enumerate(beta))
            for i in range(self.rank)
        ]
        return self.weight(coords)

    def __repr__(self):
        return f"RootSystem({self.cartan_label})"


def one_root_system(a, b):
    """The root system of a and b (weights or Weyl elements); ValueError if
    they belong to two."""
    if a.root_system is not b.root_system:
        raise ValueError(
            f"{a.root_system.cartan_label} and {b.root_system.cartan_label} "
            "are different root systems"
        )
    return a.root_system


@dataclass(frozen=True)
class Weight:
    """Exact weight (int or Fraction coordinates), in the fundamental-weight basis."""

    root_system: RootSystem
    coords: tuple

    def __add__(self, other):
        return Weight(
            one_root_system(self, other),
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other):
        return Weight(
            one_root_system(self, other),
            tuple(a - b for a, b in zip(self.coords, other.coords)),
        )

    def __neg__(self):
        return Weight(self.root_system, tuple(-a for a in self.coords))

    def __rmul__(self, scalar):
        return Weight(self.root_system, tuple(scalar * a for a in self.coords))

    def scale(self, scalar):
        return scalar * self

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def to_root_basis(self):
        """Coordinates in the simple-root basis (tuple of Fraction)."""
        return tuple(
            eval_x(self, k) for k in range(1, self.root_system.rank + 1)
        )

    def height(self):
        """Sum of simple-root coordinates (the usual height for weights)."""
        return sum(self.to_root_basis())

    def __repr__(self):
        return f"Weight({self.coords})"


_LABEL_RE = re.compile(r"^([A-G])([0-9]+)$")


@lru_cache(maxsize=None)
def build_root_system(label):
    """Construct the root system for a Cartan label like "D4" or "A1xA1xA1".

    Products of simple types are separated by "x". Each factor must be a
    valid finite type of rank <= 8.
    """
    parts = label.replace(" ", "").split("x")
    blocks = []
    for part in parts:
        m = _LABEL_RE.match(part)
        if not m:
            raise CartanLabelError(f"cannot parse Cartan label token {part!r}")
        family, n = m.group(1), int(m.group(2))
        if not 1 <= n <= 8:
            raise CartanLabelError(f"{part}: rank must be between 1 and 8")
        blocks.append(_simple_cartan_matrix(family, n))
    total = sum(len(b) for b in blocks)
    cartan = [[0] * total for _ in range(total)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                cartan[off + i][off + j] = b[i][j]
        off += k
    return RootSystem(cartan, "x".join(parts))


def pair(lam, beta):
    """<lam, beta^vee> = 2 (lam, beta) / (beta, beta), exact.

    ``beta`` is a root in the simple-root basis; rejects non-roots.
    """
    co = lam.root_system.coroot(beta)
    return sum(c * x for c, x in zip(co, lam.coords))


def eval_x(lam, k):
    """lam(x_k): the alpha_k-coefficient of lam in the simple-root basis."""
    rs = lam.root_system
    return Fraction(sum(map(mul, rs.x_rows[k - 1], lam.coords)), rs.x_den)


class ParabolicSpec:
    """A standard parabolic, specified by its subset Delta(P) of simple roots.

    Indices in ``delta_P`` are 1-based. Derived data: the positive roots of
    the Levi, rho^L, and the decomposition of the Levi semisimple part into
    connected Dynkin components. The complement, the Levi roots, dim G/P and
    rho^L are computed once per instance.
    """

    def __init__(self, root_system, delta_P):
        self.root_system = root_system
        self.delta_P = frozenset(int(i) for i in delta_P)
        for i in self.delta_P:
            root_system.simple_index(i)

    @classmethod
    def dropping(cls, root_system, nodes):
        """The standard parabolic whose Delta(P) omits exactly ``nodes``."""
        nodes = set(nodes)
        for k in nodes:
            root_system.simple_index(k)
        return cls(root_system, set(range(1, root_system.rank + 1)) - nodes)

    @classmethod
    def maximal(cls, root_system, k):
        """The standard maximal parabolic P_k with Delta(P) = Delta - {alpha_k}."""
        return cls.dropping(root_system, {k})

    @classmethod
    def borel(cls, root_system):
        return cls(root_system, set())

    @cached_property
    def complement(self):
        """Simple indices outside Delta(P), sorted."""
        return tuple(
            k for k in range(1, self.root_system.rank + 1) if k not in self.delta_P
        )

    @cached_property
    def levi_positive_roots(self):
        """Positive roots supported on Delta(P)."""
        return tuple(
            b
            for b in self.root_system.positive_roots
            if all(b[i - 1] == 0 for i in self.complement)
        )

    @cached_property
    def dim_flag(self):
        """dim G/P = number of positive roots outside the Levi."""
        return len(self.root_system.positive_roots) - len(self.levi_positive_roots)

    def levi_components(self):
        """Connected components of Delta(P), each a sorted tuple of 1-based
        nodes, in order of their least node: the supports of the highest Levi
        roots through the nodes of Delta(P)."""
        roots = self.levi_positive_roots
        return sorted({
            tuple(j + 1 for j, m in enumerate(_highest(roots, i - 1)) if m)
            for i in self.delta_P
        })

    def levi_factor(self, component):
        """(root system, nodes) of one Levi component.

        The factor keeps the parent's positional numbering: its Cartan block
        is the parent's rows and columns at ``nodes``, and its node t is the
        parent's node ``nodes[t]``. Its label (``_type_label``) names only the
        isomorphism type: F4's component {2, 3, 4} is C3 numbered in reverse.
        """
        nodes = tuple(component)
        a = self.root_system.cartan_matrix
        return RootSystem([[a[i - 1][j - 1] for j in nodes] for i in nodes]), nodes

    def __repr__(self):
        return (
            f"ParabolicSpec({self.root_system.cartan_label}, "
            f"delta_P={sorted(self.delta_P)})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicSpec)
            and self.root_system is other.root_system
            and self.delta_P == other.delta_P
        )

    def __hash__(self):
        return hash((id(self.root_system), self.delta_P))
