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
"""

import itertools

import pytest

from eigencone import cone, rays
from eigencone.faces import enumerate_regular_facets
from eigencone.rootdata import build_root_system


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
    n = rs.rank
    pool = sorted({
        tuple(x for j in perm for x in c[j * n:(j + 1) * n])
        for c in cands
        for perm in itertools.permutations(range(s))
    })
    on_rows, tight_at = cone._zero_masks(rays.gamma_hrep(rs, s).inequalities, pool)
    full = (1 << len(pool)) - 1
    return [
        c for i, c in enumerate(pool)
        if cone._alone(tight_at, cone._bits(on_rows[i]), full, 1 << i)
    ]


@pytest.mark.parametrize(
    "label", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "B4", "C4"]
)
def test_theorem_route_matches_the_double_description(label):
    rs = build_root_system(label)
    assert theorem_rays(rs) == cone.extremal_rays(rays.gamma_hrep(rs, 3))
