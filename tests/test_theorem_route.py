"""The main theorem's route to the extremal rays of the tensor cone: a
reference for the double description of the whole cone.

Every extremal ray of the cone lies on a regular facet F, where it is a
basic divisor ray of F or a nonzero induction of a ray of F's Levi cone.
So the candidates of the facet orbit representatives, closed under the s!
factor permutations, hold every extremal ray. A candidate c is extremal iff
no other candidate is tight at every row where c is: a point that is not
extremal is a positive sum of the extremal rays of its face, each tight
wherever the point is, and the rows tight at an extremal ray cut out its
line. That is ``cone._alone``, the adjacency test of the double
description, on the candidate-row incidence. Candidates are primitive and
each is taken once, since a second or non-primitive copy of a ray would hide
it from that test. No double description of the whole cone runs and
``cone._unfold`` is not used; only the Levi cones run one.

The face route (``face_route_rays``) reads the same rays off the certified
reports of ``classify_face`` through public calls only: the rays of a face
of the cone are rays of the cone, so the union of the reports' basic and
type II rays, closed under the factor permutations, is the answer with no
extremality test. It is the route ``cone-rays`` can switch to.
"""

import itertools

import pytest

from eigencone import cone, rays
from eigencone.faces import enumerate_regular_facets
from eigencone.rootdata import build_root_system


def _closed(vectors, n, s):
    """The vectors and their images under the s! permutations of their s
    blocks of n coordinates, each once, lex sorted."""
    return sorted({
        tuple(x for j in perm for x in c[j * n:(j + 1) * n])
        for c in vectors
        for perm in itertools.permutations(range(s))
    })


def theorem_rays(rs, s=3):
    """The extremal rays of the s-factor cone of rs, primitive and lex
    sorted, from the candidates of the main theorem."""
    cands = set()
    for face in enumerate_regular_facets(s, rs, quotient_symmetry=True):
        for *_, ray in rays._face_basic_rays(face):
            cands.add(ray.primitive().to_vector())
        for mu in rays.levi_cone_rays(face.P, s):
            rows = rays._levi_lift(mu, face.P)[1]
            image = rays.induct(face, rays.RayTuple(tuple(map(rs.weight, rows))))
            if not image.is_zero():
                cands.add(image.primitive().to_vector())
    pool = _closed(cands, rs.rank, s)
    on_rows, tight_at = cone._zero_masks(rays.gamma_hrep(rs, s).inequalities, pool)
    full = (1 << len(pool)) - 1
    return [
        c for i, c in enumerate(pool)
        if cone._alone(tight_at, cone._bits(on_rows[i]), full, 1 << i)
    ]


TYPES = ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "B4", "C4"]


@pytest.mark.parametrize("label", TYPES)
def test_theorem_route_matches_the_double_description(label):
    rs = build_root_system(label)
    assert theorem_rays(rs) == cone.extremal_rays(rays.gamma_hrep(rs, 3))


def face_route_rays(rs, s=3):
    """The extremal rays of the s-factor cone of rs from the certified face
    reports: the basic and type II rays of ``classify_face`` on every facet
    orbit representative, closed under the s! factor permutations. A face of
    the cone has no extremal ray that the cone lacks, and every extremal ray
    lies on a regular facet, so no extremality test runs."""
    found = []
    for face in enumerate_regular_facets(s, rs, quotient_symmetry=True):
        report = rays.classify_face(face)
        found += [r.to_vector() for r in report.basic_rays + report.type2_rays]
    return _closed(found, rs.rank, s)


@pytest.mark.parametrize("label,s", [
    *((label, 3) for label in TYPES), ("A2", 4), ("B2", 4), ("G2", 4), ("A3", 4),
])
def test_face_route_matches_the_double_description(label, s):
    rs = build_root_system(label)
    assert face_route_rays(rs, s) == cone.extremal_rays(rays.gamma_hrep(rs, s))
