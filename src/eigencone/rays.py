"""Ray production and classification for faces of the tensor cone.

Two mechanisms produce rays on a face F(w, P):

* basic divisor classes: one ray D(j, v) per simple cover v -> w_j inside
  W^P, with coordinates given by ordinary intersection numbers;
* induction from the Levi: the linear map sending a degree-0 tuple of Levi
  weights mu to (w_1 mu_1, .., w_s mu_s) minus its basic-class corrections.

Both run on integers: the face's inequality rows are ``faces._int_row``, and
the induction carries each entry as integer numerators over one positive
denominator, divided once at the end. By the main theorem every extremal
ray of a face comes from one of the two, so ``classify_face`` hands both to
``cone.certified_rays``, which certifies that they generate the face and
keeps the extremal ones: the complete inventory, with no double description
of the face. ``invariant_dim`` is the independent representation-theoretic
oracle (tensor invariant dimensions from Freudenthal's multiplicity formula,
Brauer-Klimyk folding and one Racah-Speiser coefficient, all in integers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from . import cone, faces, linalg, schubert
from .linalg import clear_denominators
from .rootdata import Weight
from .weyl import covers, cover_test, simple_cover

__all__ = [
    "RayTuple",
    "FaceReport",
    "basic_divisor_class",
    "classify_nonsimple",
    "shift_to_degree0",
    "induction_image",
    "induct",
    "levi_cone_rays",
    "decompose_on_face",
    "classify_face",
    "invariant_dim",
    "OracleLimitError",
]


class OracleLimitError(RuntimeError):
    """The tensor-invariant oracle was asked for more than its bounds allow."""


@dataclass(frozen=True)
class RayTuple:
    """An s-tuple of weights spanning a ray (or point) of the tensor cone."""

    weights: tuple  # of Weight
    tag: str = "user"  # basic | induced | dd | user

    @property
    def root_system(self):
        return self.weights[0].root_system

    @property
    def s(self):
        return len(self.weights)

    def to_vector(self):
        """Stacked fundamental coordinates, lambda_1 then lambda_2 etc."""
        out = []
        for w in self.weights:
            out.extend(w.coords)
        return tuple(out)

    @classmethod
    def from_vector(cls, rs, s, vec, tag="user"):
        r = rs.rank
        if len(vec) != s * r:
            raise ValueError(
                f"a vector of {len(vec)} coordinates is not {s} weights of "
                f"rank {r}"
            )
        ws = tuple(
            Weight(rs, tuple(vec[j * r : (j + 1) * r])) for j in range(s)
        )
        return cls(ws, tag)

    def primitive(self):
        """Jointly clear denominators and divide by the content."""
        vec = clear_denominators(self.to_vector())
        return RayTuple.from_vector(self.root_system, self.s, vec, self.tag)

    def is_zero(self):
        return all(w.is_zero() for w in self.weights)

    def __add__(self, other):
        return RayTuple(
            tuple(a + b for a, b in zip(self.weights, other.weights)), self.tag
        )

    def __sub__(self, other):
        return RayTuple(
            tuple(a - b for a, b in zip(self.weights, other.weights)), self.tag
        )

    def scale(self, c):
        return RayTuple(tuple(w.scale(c) for w in self.weights), self.tag)

    def to_json(self):
        """The coordinates as they are; a caller whose ray may not be
        primitive reduces it first."""
        return {
            "weights": [list(w.coords) for w in self.weights],
            "tag": self.tag,
        }

    def __repr__(self):
        return f"RayTuple({[tuple(w.coords) for w in self.weights]}, {self.tag})"


@dataclass
class FaceReport:
    """The inventory of ``classify_face``: every ray in it is a primitive
    integer vector, and total = q + len(type2_rays)."""

    face: object
    q: int
    basic_rays: list
    type2_rays: list
    levi_rays: list  # (levi RayTuple, induced image RayTuple)
    zero_count: int
    exotic: list
    total: int


def _find_cover(face, j, v):
    """The CoverDatum v -> w_j; ValueError if there is none."""
    for c in covers(face.words[j - 1], face.P):
        if c.lower == v:
            return c
    raise ValueError(
        f"{v.word_str()} is not a codimension-one sub-cell of "
        f"{face.words[j - 1].word_str()} in W^P"
    )


def _divisor_formula(face, j, v):
    """Intersection-number coordinates of the divisor attached to replacing
    w_j by its codimension-one sub-cell v: coordinate ell of entry k is the
    point coefficient of the tuple with u_k moved up to s_ell u_k, read off
    the product of the other entries."""
    rs = face.root_system
    classes = schubert.class_table(face.P)
    us = list(face.words)
    us[j - 1] = v
    entries = [classes[u] for u in us]
    lams = []
    for kpos, u in enumerate(us):
        coords = [0] * rs.rank
        head = None
        for ell in range(1, rs.rank + 1):
            if cover_test(u, ell, face.P):
                if head is None:
                    head = schubert.head_product(
                        entries[:kpos] + entries[kpos + 1:], face.P)
                up = classes[simple_cover(u, ell)]
                coords[ell - 1] = schubert.duality_coeff(head, up, face.P)
        lams.append(rs.weight(coords))
    return RayTuple(tuple(lams), "basic")


def basic_divisor_class(face, j, v):
    """The ray D(j, v) attached to a simple cover v -> w_j of the face."""
    c = _find_cover(face, j, v)
    if not c.simple:
        raise ValueError(
            f"cover through non-simple root {c.beta}; no divisor class"
        )
    return _divisor_formula(face, j, v)


def classify_nonsimple(face, j, v):
    """Run the divisor formulas on a NON-simple cover; the result is a
    consistency check and should always be the zero tuple."""
    c = _find_cover(face, j, v)
    if c.simple:
        raise ValueError("simple cover: use basic_divisor_class")
    return _divisor_formula(face, j, v)


@lru_cache(maxsize=None)
def _face_basic_rays(face):
    return tuple(
        (j, v, ell, basic_divisor_class(face, j, v))
        for (j, v, ell) in faces.typeI_pairs(face)
    )


@lru_cache(maxsize=None)
def _levi_cartan(P):
    """(nodes j of Delta(P), the Cartan matrix cut to the columns j, which
    hold the alpha_j, and ``linalg.inverse`` of its rows j)."""
    nodes = sorted(P.delta_P)
    cols = [[row[j - 1] for j in nodes] for row in P.root_system.cartan_matrix]
    return nodes, cols, linalg.inverse([cols[i - 1] for i in nodes])


def _levi_lift(x, P):
    """(D, rows): row j holds D times the coordinates of ``shift_to_degree0``
    of entry j, D the ``_levi_cartan`` denominator; integers for an integral
    x."""
    nodes, cols, (den, inv) = _levi_cartan(P)
    rows = []
    for mu in x.weights:
        restricted = [mu.coords[j - 1] for j in nodes]
        b = [sum(map(mul, row, restricted)) for row in inv]
        rows.append([sum(map(mul, c, b)) for c in cols])
    return den, rows


def _numerators(x):
    """(D, rows): D the lcm of the coordinate denominators of x, row j the
    integer coordinates of D times entry j."""
    den = math.lcm(*(c.denominator for w in x.weights for c in w.coords))
    return den, [
        [c.numerator * (den // c.denominator) for c in w.coords]
        for w in x.weights
    ]


def _over(rs, den, rows, tag):
    """The RayTuple with entries row / den: one division at the end."""
    if den != 1:
        rows = [[Fraction(c, den) for c in row] for row in rows]
    return RayTuple(tuple(rs.weight(row) for row in rows), tag)


def _induced_rows(face, rows):
    """The induction formula on integer rows: each row moved by w_j, along
    its reversed word, minus the basic classes D(j, v, ell) times coordinate
    ell of the moved row j. It is linear, so numerators over D map to
    numerators over D."""
    moved = [
        face.root_system.reflect_along(w.word()[::-1], row)
        for w, row in zip(face.words, rows)
    ]
    out = [list(row) for row in moved]
    for j, _, ell, delta in _face_basic_rays(face):
        coeff = moved[j - 1][ell - 1]
        if coeff:
            for row, lam in zip(out, delta.weights):
                for i, c in enumerate(lam.coords):
                    row[i] -= coeff * c
    return out


def shift_to_degree0(x, P):
    """Lift each entry's Levi restriction to the degree-0 weight with the
    same coordinates on Delta(P). Every x_k with k outside Delta(P) vanishes
    exactly on the span of the alpha_j in Delta(P), so the lift is
    sum_j b_j alpha_j, b the inverse Cartan block on Delta(P) applied to
    the entry's coordinates there."""
    den, rows = _levi_lift(x, P)
    return _over(P.root_system, den, rows, x.tag)


def induction_image(face, x):
    """The raw induction formula: (w_j mu_j)_j minus basic-class corrections
    weighted by the simple-coroot evaluations at the cover pairs."""
    den, rows = _numerators(x)
    return _over(face.root_system, den, _induced_rows(face, rows), "induced")


def induct(face, x):
    """Induction of a degree-0 Levi weight tuple; rejects non-degree-0 input
    and input whose image is not dominant. The denominator is positive, so
    both tests read the numerators; the messages print the quotients."""
    rs = face.root_system
    den, rows = _numerators(x)
    for j, row in enumerate(rows, start=1):
        for k in face.P.complement:
            val = sum(map(mul, rs.x_rows[k - 1], row))
            if val:
                raise ValueError(
                    f"entry {j} is not degree-0: x_{k} evaluation is "
                    f"{Fraction(val, den * rs.x_den)}"
                )
    out = _induced_rows(face, rows)
    for j, row in enumerate(out, start=1):
        if min(row) < 0:
            raise ValueError(
                f"induced entry {j} is not dominant: "
                + " ".join(str(Fraction(c, den)) for c in row)
            )
    return _over(rs, den, out, "induced")


def gamma_hrep(rs, s):
    """Full H-representation of the tensor cone: dominance plus every
    regular facet inequality, assembled once by ``faces._cone_hrep``."""
    return faces._cone_hrep(rs, s)


@lru_cache(maxsize=None)
def levi_cone_rays(P, s):
    """Extremal rays of the product of the Levi factors' tensor cones,
    embedded in G's fundamental-weight coordinates (supported on Delta(P));
    a tuple, as the cached value is shared."""
    rs = P.root_system
    out = []
    for comp in P.levi_components():
        sub, nodes = P.levi_factor(comp)
        # coordinate t * sub.rank + pos of a factor ray goes to node
        # nodes[pos] of entry t
        at = [t * rs.rank + node - 1 for t in range(s) for node in nodes]
        for ray in cone.extremal_rays(gamma_hrep(sub, s)):
            vec = [0] * (s * rs.rank)
            for i, c in zip(at, ray):
                vec[i] = c
            out.append(RayTuple.from_vector(rs, s, vec))
    return tuple(out)


def _pair_evals(face, x):
    """<x_j, alpha_ell^vee> at each cover pair: coordinate ell of x_j."""
    return [
        x.weights[j - 1].coords[ell - 1] for j, _, ell, _ in _face_basic_rays(face)
    ]


def decompose_on_face(face, x):
    """Split a face member into basic-class coefficients plus a residual
    vanishing at every cover pair (the type II part)."""
    if not cone.contains(_face_hrep(face), x.to_vector()):
        raise ValueError("tuple does not lie on the face")
    basics = _face_basic_rays(face)
    coeffs = _pair_evals(face, x)
    residual = x
    for a, (_, _, _, delta) in zip(coeffs, basics):
        if a:
            residual = residual - delta.scale(a)
    if any(e != 0 for e in _pair_evals(face, residual)):
        raise cone.ConsistencyError("residual fails to vanish at the cover pairs")
    if not residual.is_zero():
        if not faces.tens_membership(residual.weights):
            raise cone.ConsistencyError("residual left the cone; decomposition bug")
    return coeffs, RayTuple(residual.weights, x.tag)


def _face_hrep(face):
    """The cone's H-rep with the face's integer rows as equalities; it
    shares the cone's normalized inequality block and its packed columns."""
    full = gamma_hrep(face.root_system, face.s)
    return cone.HRep(
        full.dim,
        full.inequalities,
        [faces._int_row(face, k) for k in face.P.complement],
    )


def face_extremal_rays(face):
    """All extremal rays of the face, via the polyhedral engine."""
    return [
        RayTuple.from_vector(face.root_system, face.s, r, "dd")
        for r in cone.extremal_rays(_face_hrep(face))
    ]


def classify_face(face):
    """Full inventory of a face: basic rays, extremal rays, Levi-ray
    inductions with zero and exotic counts, and the consistency identities
    tying them together. By the main theorem every extremal ray of the face
    is a basic ray or a nonzero induced image, so those are the candidates
    of ``cone.certified_rays``, which certifies that they generate the face
    and keeps the extremal ones; no double description runs on the face.
    Rays compare as primitive integer vectors: the Levi rays are, and each
    basic ray and nonzero induced image is reduced once."""
    P = face.P
    basic_rays = [d.primitive() for (_, _, _, d) in _face_basic_rays(face)]
    q = len(basic_rays)
    pairs = []
    for mu in levi_cone_rays(P, face.s):
        # the lift's integer numerators: induct is linear and its checks
        # hold or fail alike under a positive scale, so the image spans
        # the induced ray
        rows = _levi_lift(mu, P)[1]
        image = induct(face, RayTuple(tuple(map(face.root_system.weight, rows))))
        pairs.append((mu, image if image.is_zero() else image.primitive()))
    zero_count = sum(image.is_zero() for _, image in pairs)
    expected = q - (face.s - 1) * len(P.complement)
    if zero_count != expected:
        raise cone.ConsistencyError(
            f"{zero_count} Levi rays induce to zero, expected "
            f"q - (s - 1)|complement| = {expected}"
        )
    basic = [r.to_vector() for r in basic_rays]
    images = [image.to_vector() for _, image in pairs if not image.is_zero()]
    ray_set = set(cone.certified_rays(_face_hrep(face), basic + images))
    type2 = [
        RayTuple.from_vector(face.root_system, face.s, r, "dd")
        for r in sorted(ray_set.difference(basic))
    ]
    for r in type2:
        if any(_pair_evals(face, r)):
            raise cone.ConsistencyError(
                f"type II ray {r} does not vanish at the cover pairs"
            )
    for r, vec in zip(basic_rays, basic):
        if vec not in ray_set:
            raise cone.ConsistencyError(
                f"basic ray {r} is not an extremal ray of the face"
            )
    return FaceReport(
        face=face,
        q=q,
        basic_rays=basic_rays,
        type2_rays=type2,
        levi_rays=pairs,
        zero_count=zero_count,
        exotic=[
            image for _, image in pairs
            if not image.is_zero() and image.to_vector() not in ray_set
        ],
        total=len(ray_set),
    )


# -- tensor-invariant oracle ------------------------------------------
#
# The loops use integers only. Dominant weight multiplicities come from
# Freudenthal's formula with the invariant form scaled to integers. The
# invariant dimension of V_1 x .. x V_s is the multiplicity of V_nu,
# nu = -w0 lambda_s, in V_1 x .. x V_{s-1}: the factors but two fold by
# Brauer-Klimyk, and that one coefficient is the Racah-Speiser sum over W
#     mult(V_nu, V_mu x V_lam) = sum_w det(w) m_lam(w(nu + rho) - mu - rho).
# Every weight in the loops is one packed int (``_packing``), so a chain
# step, a diagram lookup and a Racah-Speiser shift are one int sum or
# difference and one dict probe. Each oracle table is computed once per
# process and kept in an ``lru_cache``: the packing and the positive roots
# of each root system in the forms the oracle reads, the signed W-orbits
# of the fundamental weights over each support, and the weight diagram
# {packed weight: multiplicity} of each highest weight, the one Freudenthal
# builds. Callers read them and never change them.

# the inputs' coordinate sum that every root system's packing holds
_COORD_SUM = 1 << 12


class _Packing:
    """Weights of one root system packed into one int: coordinate i is a
    signed field of ``width`` bits at bit ``width * i``, so the sum or
    difference of two packed weights is the packed sum or difference as
    long as every coordinate stays inside a field.

    The bound: for inputs whose coordinates sum to T over all factors, every
    coordinate the oracle forms is at most c (T + 2 rank) + 3 in absolute
    value, c the largest coefficient of a positive coroot. The weights it
    forms are W-translates of dominant weights, partial sums of such
    translates and Racah-Speiser shifts x - (mu + rho), x in the orbit of
    nu + rho; in each case the coordinates are bounded by
    <Lambda + 2 rho, theta^vee> <= c (T + 2 rank), Lambda the sum of the
    inputs and theta^vee the highest coroot of a component. A chain step
    adds one root more, whose coordinates <beta, alpha_i^vee> lie in -3..3.
    The width is the smallest whose fields hold that bound at
    T = ``_COORD_SUM`` with a sign; ``limit`` is the largest T it holds,
    and ``invariant_dim`` raises ``OracleLimitError`` above it."""

    def __init__(self, rs):
        n, c = rs.rank, rs.coroot_max
        self.width = (c * (_COORD_SUM + 2 * n) + 3).bit_length() + 1
        self.half = 1 << (self.width - 1)
        self.limit = (self.half - 4) // c - 2 * n
        self.mask = (1 << self.width) - 1
        self.shifts = [self.width * i for i in range(n)]
        self.powers = [1 << s for s in self.shifts]
        self.rho = sum(self.powers)
        # the sign bit of every field: adding it turns each field into
        # its coordinate plus half, which has that bit set iff the
        # coordinate is >= 0
        self.high = self.half * self.rho

    def pack(self, coords):
        return sum(map(mul, coords, self.powers))

    def unpack(self, packed):
        q = packed + self.high
        return tuple((q >> s & self.mask) - self.half for s in self.shifts)


@lru_cache(maxsize=None)
def _packing(rs):
    return _Packing(rs)


def _scaled_form(rs):
    """Integers D_i = L d_i, L the lcm of the denominators of the d_i, so that
    L (lam, beta) = sum_i lam_i D_i beta_i for lam in fundamental and beta in
    simple-root coordinates."""
    scale = math.lcm(*(d.denominator for d in rs.d))
    return tuple(int(scale * d) for d in rs.d)


@lru_cache(maxsize=None)
def _root_table(rs):
    """(beta, beta as a packed weight, D_i beta_i, L (beta, beta)) for each
    positive root beta, with D and L from ``_scaled_form``:
    L (x, beta) = x . (D_i beta_i) for x in fundamental coordinates."""
    form, pack = _scaled_form(rs), _packing(rs).pack
    out = []
    for beta in rs.positive_roots:
        bw = rs.root_to_weight(beta).coords
        fb = tuple(map(mul, form, beta))
        out.append((beta, pack(bw), fb, sum(map(mul, bw, fb))))
    return tuple(out)


def _dominant_weights(rs, lam_coords):
    """(depth, ks, mu) for each dominant mu <= lam, ks = lam - mu in the root
    basis and depth = sum(ks), sorted. Every such mu is reached from lam by
    subtracting positive roots through dominant weights (Stembridge, "The
    partial order of dominant weights", 1998), so one search on packed
    weights finds them."""
    pk, roots = _packing(rs), _root_table(rs)
    high = pk.high
    top = pk.pack(lam_coords)
    found = {top: (0,) * rs.rank}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            ks = found[mu]
            for beta, bp, _, _ in roots:
                new = mu - bp
                if (new + high) & high == high and new not in found:
                    found[new] = tuple(map(add, ks, beta))
                    nxt.append(new)
        frontier = nxt
    return sorted((sum(ks), ks, pk.unpack(mu)) for mu, ks in found.items())


@lru_cache(maxsize=None)
def _weight_mults(rs, lam_coords):
    """The weight diagram {packed weight: multiplicity} of the irreducible
    with highest weight lam. The dominant multiplicities come from
    Freudenthal's formula
    m(mu) (lam + mu + 2 rho, lam - mu)
        = 2 sum_{beta > 0} sum_{t >= 1} m(mu + t beta) (mu + t beta, beta),
    and once m(mu) is known every weight of mu's W-orbit gets it. Each chain
    term is looked up in the diagram of the weights found so far, and the
    chain stops at the first miss: root strings of the weights of an
    irreducible module are unbroken."""
    form, roots, pack = _scaled_form(rs), _root_table(rs), _packing(rs).pack
    top = tuple(c + 2 for c in lam_coords)  # lam + 2 rho
    diagram = {}
    get = diagram.get
    for depth, ks, mu in _dominant_weights(rs, lam_coords):
        m = 1
        if depth:
            # L ((lam + rho)^2 - (mu + rho)^2)
            denom = sum(k * (h + c) * d for k, h, c, d in zip(ks, top, mu, form))
            acc = 0
            packed = pack(mu)
            for _, bp, fb, step in roots:
                cand = packed + bp
                mt = get(cand)
                if not mt:
                    continue
                # L (mu + t beta, beta) = base + t step
                base = sum(map(mul, mu, fb))
                t = 1
                while mt:
                    acc += mt * (base + t * step)
                    cand += bp
                    mt = get(cand)
                    t += 1
            m, r = divmod(2 * acc, denom)
            if r:
                raise cone.ConsistencyError(
                    f"non-integral multiplicity {2 * acc}/{denom} of {mu} in "
                    f"V{lam_coords}"
                )
        diagram.update(dict.fromkeys(_signed_orbit(rs, mu)[0], m))
    return diagram


@lru_cache(maxsize=None)
def _support_orbits(rs, support):
    """(columns, signs) for a support J, a sorted tuple of 0-based nodes:
    over the minimal coset representatives w of W / W_{Delta - J}, in the
    order ``RootSystem.orbit`` walks them from lambda_J = sum_{j in J}
    omega_j carrying every omega_j, column k holds the packed w(omega_J[k])
    and ``signs`` the (-1)^l(w). Every dominant weight with support J has
    the stabilizer W_{Delta - J}, so the one walk serves them all."""
    n, powers = rs.rank, _packing(rs).powers
    top = [int(i in support) for i in range(n)]
    carry = [int(i == j) for j in support for i in range(n)]
    points, signs = [], []
    for length, layer in enumerate(rs.orbit(top, carry)):
        points += [v for v, _ in layer]
        signs += [(-1) ** length] * len(layer)
    cols = [
        [sum(map(mul, v[o : o + n], powers)) for v in points]
        for o in range(n, n + n * len(support), n)
    ]
    return cols, signs


@lru_cache(maxsize=None)
def _signed_orbit(rs, coords):
    """(keys, signs): the packed W-orbit of a dominant weight mu, read off
    ``_support_orbits`` as sum_j mu_j w(omega_j), and (-1)^l(w) for w the
    minimal coset representative that ``RootSystem.orbit`` walks to it;
    for a regular weight the sign is det(w)."""
    support = tuple(j for j, c in enumerate(coords) if c)
    cols, signs = _support_orbits(rs, support)
    keys = [0] * len(signs)
    for j, col in zip(support, cols):
        c = coords[j]
        keys = list(map(add, keys, col if c == 1 else map(c.__mul__, col)))
    return keys, signs


def _tensor_decompose(rs, acc, lam_coords):
    """Decompose (sum of irreducibles in acc) tensor V_lam by Brauer-Klimyk:
    summing the weight diagram of V_lam with shifted dominance reflections.
    acc and the result map packed highest weights to multiplicities."""
    pk = _packing(rs)
    rho = pk.rho
    diagram = _weight_mults(rs, lam_coords)
    out = {}
    for nu, mult in acc.items():
        base = nu + rho
        for mu, m in diagram.items():
            dom, word = rs.dominant_walk(pk.unpack(base + mu))
            # the shifted weight is singular (fixed by some reflection) iff
            # its dominant translate is, and the stabilizer of a dominant
            # weight is generated by the s_i it fixes, i.e. its zero
            # coordinates; singular terms contribute nothing
            if 0 not in dom:
                key = pk.pack(dom) - rho
                out[key] = out.get(key, 0) + (-1) ** len(word) * mult * m
    return {k: v for k, v in out.items() if v}


def _coefficient(rs, acc, lam_coords, nu):
    """Multiplicity of V_nu in (sum of irreducibles in acc) tensor V_lam, by
    the Racah-Speiser sum over the signed orbit of nu + rho."""
    get = _weight_mults(rs, lam_coords).get
    orbit = list(zip(*_signed_orbit(rs, tuple(c + 1 for c in nu))))
    rho = _packing(rs).rho
    total = 0
    for mu, mult in acc.items():
        shift = mu + rho
        for x, sign in orbit:
            m = get(x - shift)
            if m:
                total += sign * mult * m
    return total


def invariant_dim(x, max_height=20):
    """dim of the invariant subspace of V_{lambda_1} x .. x V_{lambda_s}.

    Raises ``OracleLimitError`` when a weight's height exceeds
    ``max_height`` or, for three or more weights, the coordinates of all
    weights sum beyond the bound of the root system's packing
    (``_Packing``), before any table is built. One or two weights are
    answered by comparing them, with nothing packed."""
    ws = faces._weights(x)
    if not ws:
        raise ValueError("the oracle needs at least one weight")
    rs = faces._root_system(ws)
    for w in ws:
        if not (w.is_dominant() and w.is_integral()):
            text = ", ".join(map(str, w.coords))
            raise ValueError(f"({text}) is not dominant integral")
        if w.height() > max_height:
            raise OracleLimitError(
                f"weight height {w.height()} exceeds the bound {max_height}"
            )
    coords = sorted((tuple(int(c) for c in w.coords) for w in ws), key=sum)
    total = sum(map(sum, coords))
    # the invariants pair V_last with its dual V_nu inside the other
    # factors; nu = -w0 lam is the dominant translate of -lam
    nu = rs.dominant_walk(tuple(-c for c in coords.pop()))[0]
    if len(coords) < 2:
        # s <= 2: the other factors are V_0 or one irreducible, and nothing
        # is packed
        return int(nu == (coords[0] if coords else (0,) * rs.rank))
    pk = _packing(rs)
    if total > pk.limit:
        raise OracleLimitError(
            f"coordinate sum {total} exceeds the bound {pk.limit} of "
            f"{rs.cartan_label}"
        )
    # the cheapest factor enters only through its weight diagram
    acc = {pk.pack(coords[1]): 1}
    for lam in coords[2:]:
        acc = _tensor_decompose(rs, acc, lam)
    return _coefficient(rs, acc, coords[0], nu)
