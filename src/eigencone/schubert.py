"""Schubert calculus on G/P, ordinary and deformed.

Products are computed once in H*(G/B) and restricted to G/P afterwards.
Internally classes are graded by length (sigma_u has degree l(u)); the
public API uses the codimension indexing, where the class attached to an
element w of W^P has codimension dim G/P - l(w). The two are glued by the
dual index w |-> w_0 w w_{0,P}.

The multiplication engine is the Chevalley rule for degree-one classes plus
the fact that H*(G/B;Q) is generated in degree two: every basis class is a
rational combination of (degree-one class) * (shorter class), solved exactly
degree by degree. The unit is returned without being stored; every other
product, degree one included, recurses through its class's expression.
All of it runs in integers. The Chevalley rule reads its covers from the
Weyl group's cover table, which multiplies on the left: the cover
x -> x s_beta is s_gamma x with gamma = x(beta), and its coefficient
<omega_k, beta^vee> is <x omega_k, gamma^vee>, stored with the cover. Each
degree is solved by fraction-free row reduction, and each class keeps
integer numerators over one denominator, which a product divides out
exactly once.

``class_table(P)`` is the one table of the classes of H*(G/P): codimension,
product-table id and integer degree-gap terms, read by every caller.

A point coefficient needs no product with the last factor: by Poincare
duality it is one coefficient of the product of the others
(``duality_coeff``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import linalg
from .cone import ConsistencyError
from .rootdata import ParabolicSpec
from .weyl import minimal_reps, require_minimal_rep, weyl_group

__all__ = [
    "SchubertClass",
    "ProductTable",
    "product_table",
    "class_table",
    "cup",
    "head_product",
    "duality_coeff",
    "multi_coeff",
    "chi",
    "levi_movable",
    "CodimensionError",
    "ProductTableError",
]


class CodimensionError(ValueError):
    """Codimensions do not add up to the expected total."""


@dataclass
class SchubertClass:
    """Integer combination of basis classes of H*(G/P), one codimension."""

    parabolic: ParabolicSpec
    coeffs: dict  # WeylElem (in W^P) -> int
    grade: int  # codimension

    def __post_init__(self):
        if any(c == 0 for c in self.coeffs.values()):
            raise ValueError("a Schubert class stores no zero coefficient")

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, SchubertClass)
            and self.parabolic == other.parabolic
            and self.coeffs == other.coeffs
        )


class ProductTableError(ConsistencyError):
    """The product engine broke one of its own exactness invariants."""


class ProductTable:
    """Memoized H*(G/B) structure constants for one root system.

    Internal basis vectors are dicts {element_id: integer}; ids index the
    canonical enumeration of W.
    """

    def __init__(self, rs):
        self.root_system = rs
        self.W = weyl_group(rs)
        self._products = {}  # (id_u, id_v) sorted -> dict id -> int
        # id_u -> (denominator, list of (numerator, k, id_shorter))
        self._expressions = {}
        self._by_length = {}
        for i, w in enumerate(self.W.elements):
            self._by_length.setdefault(w.length, []).append(i)

    # -- internal multiplication --------------------------------------

    def _mult_degree_one(self, k, vec):
        """Multiply a basis combination by the degree-one class of s_k.

        Chevalley's rule sums over the upper covers s_gamma x of x; the
        coefficient <omega_k, (x^-1 gamma)^vee> equals <x omega_k, gamma^vee>,
        entry k of the cover's Chevalley vector.
        """
        cover_row = self.W.cover_row
        k -= 1
        out = {}
        for xid, c in vec.items():
            for yid, chev in cover_row(xid)[1]:
                coeff = chev[k]
                if coeff:
                    out[yid] = out.get(yid, 0) + c * coeff
        return {w: c for w, c in out.items() if c}

    def _expression(self, uid):
        """sigma_u as (1/D) sum of c * sigma_{s_k} * sigma_{shorter}, exact."""
        got = self._expressions.get(uid)
        if got is None:
            self._solve_degree(self.W.elements[uid].length)
            got = self._expressions[uid]
        return got

    def _solve_degree(self, d):
        rs = self.root_system
        basis = self._by_length[d]
        pos = {w: i for i, w in enumerate(basis)}
        cols = []  # one column per candidate product, as dense vectors
        tags = []
        for xid in self._by_length[d - 1]:
            for k in range(1, rs.rank + 1):
                prod = self._mult_degree_one(k, {xid: 1})
                col = [0] * len(basis)
                for w, c in prod.items():
                    col[pos[w]] = c
                cols.append(col)
                tags.append((k, xid))
        # solve M x = e_u for all u at once: fraction-free rref of [M | I]
        nb, nc = len(basis), len(cols)
        aug = [
            [col[i] for col in cols] + [int(i == t) for t in range(nb)]
            for i in range(nb)
        ]
        rows, pivots = linalg.rref_int(aug)
        if any(p >= nc for p in pivots):
            raise ProductTableError(
                f"degree-two generation failed in degree {d} of "
                f"{rs.cartan_label}"
            )
        for t, uid in enumerate(basis):
            denom, terms = linalg.rref_solution(rows, pivots, nc + t)
            self._expressions[uid] = (
                denom, [(num,) + tags[pc] for pc, num in terms]
            )

    def product_ids(self, uid, vid):
        """sigma_u * sigma_v as a dict {id: int}; the unit (id 0) is not stored."""
        if self.W.elements[uid].length > self.W.elements[vid].length:
            uid, vid = vid, uid
        if uid == 0:
            return {vid: 1}
        key = (uid, vid)
        got = self._products.get(key)
        if got is not None:
            return got
        denom, expr = self._expression(uid)
        by_k = {}  # k -> the terms' combination of sigma_x, multiplied once
        for num, k, xid in expr:
            by_k.setdefault(k, {})[xid] = num
        acc = {}
        for k, terms in by_k.items():
            step = self._mult_degree_one(k, self.product_vec(terms, {vid: 1}))
            for w, c in step.items():
                acc[w] = acc.get(w, 0) + c
        result = {}
        for w, c in acc.items():
            q, r = divmod(c, denom)
            if r:
                raise ProductTableError(f"non-integral structure constant {c}/{denom}")
            if q:
                result[w] = q
        self._products[key] = result
        return result

    def product_vec(self, vec_a, vec_b):
        out = {}
        for uid, a in vec_a.items():
            for vid, b in vec_b.items():
                for w, c in self.product_ids(uid, vid).items():
                    out[w] = out.get(w, 0) + a * b * c
        return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def product_table(rs):
    return ProductTable(rs)


def _rho_walk(w):
    """(w^-1 rho, rho - w^-1 rho) in fundamental, resp. simple-root
    coordinates: along w's word, s_i takes <lam, alpha_i^vee> alpha_i off lam."""
    rs = w.root_system
    lam = list(rs.rho.coords)
    drop = [0] * rs.rank
    for i in w.word():
        drop[i - 1] += lam[i - 1]
        lam = rs.reflect_along((i,), lam)
    return lam, drop


@lru_cache(maxsize=None)
def _levi_rho(P):
    """w_{0,P}(rho) in fundamental coordinates: w_0 = w_0^P w_{0,P} and
    w_0 rho = -rho, so it is -(w_0^P)^-1 rho."""
    return tuple(-c for c in _rho_walk(minimal_reps(P)[-1])[0])


def _dual_id(w, P, table):
    """Internal index of the pullback to G/B of the class of w in W^P: the
    element w_0 w w_{0,P}, found by its image of rho: w_{0,P}(rho) moved by
    w, then by w_0, each along its reversed word."""
    W = table.W
    letters = (W.longest.word() + w.word())[::-1]
    return W.by_rho[tuple(P.root_system.reflect_along(letters, _levi_rho(P)))]


def codim(w, P):
    """Codimension of the cell of w in G/P."""
    return P.dim_flag - w.length


# w in W^P, its codimension, class id and gap terms {k: chi_w(x_k)}
ClassEntry = namedtuple("ClassEntry", "w codim pid gaps")


class _Classes(dict):
    def __missing__(self, w):
        raise ValueError(f"{w.word_str()} is not in W^P")


@lru_cache(maxsize=None)
def class_table(P):
    """{w: ClassEntry} for w in W^P in ``minimal_reps`` order, the identity
    (the point class) first; a word outside W^P raises ValueError.

    rho - x^-1 rho sums the positive roots that x makes negative, for the
    longest w_0^P in W^P those outside the Levi; so the alpha_k-coefficient
    chi_w(x_k) of chi_w = (2 rho - 2 rho^L) - (rho - w^-1 rho) is an integer.
    """
    table = product_table(P.root_system)
    reps = minimal_reps(P)
    top = _rho_walk(reps[-1])[1]
    out = _Classes()
    for w in reps:
        drop = _rho_walk(w)[1]
        gaps = {k: top[k - 1] - drop[k - 1] for k in P.complement}
        out[w] = ClassEntry(w, codim(w, P), _dual_id(w, P, table), gaps)
    return out


def cup(u, v, P):
    """Ordinary cup product of the classes of u and v in H*(G/P)."""
    classes = class_table(P)
    a, b = classes[u], classes[v]
    vec = product_table(P.root_system).product_ids(a.pid, b.pid)
    # a product never leaves the span of the pulled-back classes of W^P
    back = {x.pid: w for w, x in classes.items()}
    coeffs = {back[xid]: c for xid, c in vec.items()}
    return SchubertClass(P, coeffs, a.codim + b.codim)


def head_product(entries, P):
    """(total codimension, product in H*(G/B) as {id: int}) of the classes of
    some class-table entries of P; no entries give the unit, whose id is 0."""
    table = product_table(P.root_system)
    vec = {entries[0].pid: 1} if entries else {0: 1}
    for x in entries[1:]:
        vec = table.product_vec(vec, {x.pid: 1})
    return sum(x.codim for x in entries), vec


def duality_coeff(head, last, P):
    """The integer c with (``head_product``) * (class of ``last``) = c [point].

    By Poincare duality on G/P, c is the coefficient in the head product of
    the class dual to ``last``, whose pullback id is the id of last.w itself.
    Codimensions must sum exactly to dim G/P; a mismatch is an error, not 0.
    """
    total = head[0] + last.codim
    if total != P.dim_flag:
        raise CodimensionError(
            f"codimensions sum to {total}, expected {P.dim_flag}"
        )
    return head[1].get(weyl_group(P.root_system).id_of(last.w), 0)


def multi_coeff(words, P):
    """The integer c with product of the classes of w_i equal to c [point].

    Requires codimensions summing exactly to dim G/P; a mismatch is an
    error, not zero.
    """
    classes = class_table(P)
    entries = [classes[w] for w in words]
    if not entries:
        raise CodimensionError("no classes to multiply")
    return duality_coeff(head_product(entries[:-1], P), entries[-1], P)


def chi(w, P):
    """The weight rho - 2 rho^L + w^-1 rho = w_{0,P} rho + w^-1 rho."""
    require_minimal_rep(w, P)
    return P.root_system.weight(map(add, _levi_rho(P), w.inverse().rho))


def degree_gaps(words, P):
    """The integers (sum_j chi_{w_j} - chi_e)(x_k) for k outside Delta(P);
    a tuple is Levi-movable only where they all vanish."""
    classes = class_table(P)
    entries = [classes[w] for w in words]
    e = next(iter(classes.values()))
    return {k: sum(x.gaps[k] for x in entries) - g for k, g in e.gaps.items()}


def levi_movable(words, P):
    """(flag, c): c is the ordinary intersection number; the flag says
    whether it survives in the deformed product (c nonzero and all degree
    gaps vanish)."""
    c = multi_coeff(words, P)
    return c != 0 and not any(degree_gaps(words, P).values()), c
