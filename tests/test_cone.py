import random
from fractions import Fraction
from operator import mul

import pytest

from eigencone import cone
from test_dd import _blocks, _brute_force_rays, _plain


def test_orthant():
    h = cone.HRep(3, inequalities=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    rays = cone.extremal_rays(h)
    assert rays == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_redundant_inequality_dropped():
    h = cone.HRep(
        2, inequalities=[(1, 0), (0, 1), (1, 1), (2, 0)]
    )
    assert cone.extremal_rays(h) == [(0, 1), (1, 0)]
    # (2,0) normalizes to (1,0) and is deduped on construction
    assert (1, 0) in h.inequalities and (2, 0) not in h.inequalities


def test_triangle_cone_over_simplex():
    # cone over the triangle x >= -1, y >= -1, x + y <= 1 at height 1
    h = cone.HRep(
        3,
        inequalities=[(1, 0, 1), (0, 1, 1), (-1, -1, 1)],
    )
    rays = cone.extremal_rays(h)
    assert set(rays) == {(-1, -1, 1), (-1, 2, 1), (2, -1, 1)}


def test_equalities_cut_dimension():
    h = cone.HRep(
        3,
        inequalities=[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        equalities=[(1, 1, -1)],
    )
    rays = cone.extremal_rays(h)
    assert set(rays) == {(1, 0, 1), (0, 1, 1)}


def test_restrict_to_face():
    # a face keeps every row of the cone and adds its own as an equality,
    # as rays.face_extremal_rays builds it
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    f = cone.HRep(3, inequalities=rows, equalities=[rows[0]])
    assert f.equalities == [(1, 0, 0)]
    assert cone.extremal_rays(f) == [(0, 0, 1), (0, 1, 0)]


def test_contains():
    h = cone.HRep(2, inequalities=[(1, -1), (0, 1)])
    assert cone.contains(h, (2, 1))
    assert cone.contains(h, (1, 1))
    assert not cone.contains(h, (0, 1))
    assert cone.contains(h, (Fraction(1, 2), Fraction(1, 3)))


def test_is_extremal():
    h = cone.HRep(3, inequalities=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert cone.is_extremal(h, (1, 0, 0))
    assert cone.is_extremal(h, (3, 0, 0))
    assert not cone.is_extremal(h, (1, 1, 0))
    assert not cone.is_extremal(h, (0, 0, 0))
    with pytest.raises(ValueError):
        cone.is_extremal(h, (-1, 0, 0))


def test_not_pointed():
    h = cone.HRep(2, inequalities=[(1, 0)])
    with pytest.raises(cone.NotPointedError) as err:
        cone.extremal_rays(h)
    assert err.value.vector == (0, 1)


def test_not_pointed_inside_equality_subspace():
    # x + y + z = 0 and x >= 0 leave the line through (0, 1, -1)
    h = cone.HRep(3, inequalities=[(1, 0, 0)], equalities=[(1, 1, 1)])
    with pytest.raises(cone.NotPointedError) as err:
        cone.extremal_rays(h)
    v = err.value.vector
    assert len(v) == 3 and any(v)
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in h.equalities)
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in h.inequalities)


def test_not_pointed_whole_space():
    h = cone.HRep(2)
    with pytest.raises(cone.NotPointedError):
        cone.extremal_rays(h)


def test_halfplane_pair_is_line():
    h = cone.HRep(2, inequalities=[(1, 0), (-1, 0)])
    with pytest.raises(cone.NotPointedError):
        cone.extremal_rays(h)


def test_zero_dimensional_solution_set():
    h = cone.HRep(2, equalities=[(1, 0), (0, 1)])
    assert cone.extremal_rays(h) == []


def test_random_membership_of_combinations():
    rng = random.Random(3)
    rows = [
        (1, 2, 0, -1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (0, 0, 1, 1),
        (2, -1, 0, 0),
        (0, 1, 0, 2),
    ]
    h = cone.HRep(4, inequalities=rows)
    rays = cone.extremal_rays(h)
    assert rays
    for _ in range(30):
        combo = [0, 0, 0, 0]
        for r in rays:
            c = rng.randrange(0, 4)
            combo = [a + c * b for a, b in zip(combo, r)]
        assert cone.contains(h, combo)
        assert cone.is_extremal(h, rays[rng.randrange(len(rays))])


def test_regeneration_round_trip():
    # rays -> dual description -> rays reproduces the input cone
    rows = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1)]
    h = cone.HRep(3, inequalities=rows)
    rays = cone.extremal_rays(h)
    # the dual cone of the dual cone: treat rays as inequality normals
    dual = cone.HRep(3, inequalities=rays)
    dual_rays = cone.extremal_rays(dual)
    back = cone.extremal_rays(cone.HRep(3, inequalities=dual_rays))
    assert back == rays


def test_row_length_mismatch_is_value_error():
    with pytest.raises(ValueError, match="length 2, expected 3"):
        cone.HRep(3, inequalities=[(1, 0, 0), (0, 1)])
    with pytest.raises(ValueError):
        cone.HRep(2, equalities=[(1, 1, 1)])


@pytest.mark.parametrize("x", [(1, 0), (1, 1, 1, -5), ()])
def test_vector_length_mismatch_is_value_error(x):
    # a short or long vector must not be answered from a truncated product:
    # (1, 0) would read as the extremal ray (1, 0, 0), (1, 1, 1, -5) as the
    # member (1, 1, 1)
    h = cone.HRep(3, inequalities=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    msg = f"length {len(x)}, expected 3"
    with pytest.raises(ValueError, match=msg):
        cone.contains(h, x)
    with pytest.raises(ValueError, match=msg):
        cone.is_extremal(h, x)


def test_packs_are_kept_per_field_width():
    # an H-rep keeps its packed columns per field width; a vector that
    # needs wider fields than the last one gets its own packs and is
    # evaluated exactly, and a narrow vector after it still reads narrow ones
    rows = [(1, 0, 0), (0, 1, 0), (1, -1, 1), (3, -2, -5)]
    h = cone.HRep(3, inequalities=rows)
    assert cone.contains(h, (1, 1, 0))
    for top in (2**12, 2**20, 2**40, 2**70, 2):
        member, outside = (top, top - 1, 0), (top - 1, top, 0)
        assert cone.contains(h, member)
        assert not cone.contains(h, outside)
        got = cone._values(h.inequalities, [member, outside])
        want = [[sum(map(mul, row, x)) for row in rows] for x in (member, outside)]
        assert [list(v) for v in got] == want
    assert sorted(h.inequalities._packs) == [16, 32, 64, 128]


def test_replaced_rows_do_not_reuse_packs():
    h = cone.HRep(2, inequalities=[(1, 0), (0, 1)])
    assert cone.contains(h, (1, 1))
    h.inequalities = [(-1, 0)]
    assert not cone.contains(h, (1, 1))
    assert cone.contains(h, (-1, 5))
    h.inequalities = cone.HRep(2, inequalities=[(1, 1)]).inequalities
    assert cone.contains(h, (-1, 5)) and not cone.contains(h, (-5, 1))
    h.equalities = [(1, -1)]
    assert not cone.contains(h, (-1, 5)) and cone.contains(h, (1, 1))
    assert cone.extremal_rays(h) == [(1, 1)]


def test_hrep_shares_a_block_of_another_hrep():
    full = cone.HRep(3, inequalities=[(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    face = cone.HRep(3, full.inequalities, [(0, 0, 1)])
    assert face.inequalities is full.inequalities
    assert face.inequalities == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert cone.extremal_rays(face) == [(0, 1, 0), (1, 0, 0)]


UNITS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize("ineqs,eqs,member,what", [
    # each invariant under swapping blocks 1 and 2 of 3, not 2 and 3
    ([(1, 0, 0), (0, 1, 0), (1, 1, -1)], [], (1, 1, 1), "inequalities are"),
    (UNITS, [(1, -1, 0)], (1, 1, 1), "equality subspace is"),
    (UNITS, [(1, 0, 0), (0, 1, 0)], (0, 0, 1), "equality subspace is"),
])
def test_rows_must_be_invariant_under_the_block_swaps(ineqs, eqs, member, what):
    # one swap that moves the ``what`` of h is enough to refuse the route,
    # so the plain engine runs; brute force on the equalities as two
    # inequalities each
    h = cone.HRep(3, ineqs, eqs)
    assert _blocks(h) == 1
    assert cone.contains(h, member)
    both = ineqs + eqs + [tuple(-x for x in e) for e in eqs]
    assert cone.extremal_rays(h) == _brute_force_rays(both, 3)


def test_an_equality_subspace_is_invariant_whatever_its_rows():
    # x1 = x2 = x3 is invariant under every swap, though its rows are not
    h = cone.HRep(3, UNITS, [(1, -1, 0), (0, 1, -1)])
    assert _blocks(h) == 3
    assert cone.extremal_rays(h) == [(1, 1, 1)]


def test_block_route_on_the_orthant(monkeypatch):
    # D = {x1 >= x2} meets the quadrant in the rays (1, 0), off the wall,
    # and (1, 1), on it: no row of the quadrant is tight at (1, 1), so (1, 0)
    # is tight wherever it is, and only (1, 0) and its image are kept
    quadrant = cone.HRep(2, [(1, 0), (0, 1)])
    assert _blocks(quadrant) == 2
    assert cone.extremal_rays(quadrant) == [(0, 1), (1, 0)]
    # the orthant of Q^4 cut by an equality that only the swap of its two
    # blocks of two keeps
    h = cone.HRep(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                  [(1, -1, 1, -1)])
    assert _blocks(h) == 2
    want = [(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)]
    assert cone.extremal_rays(h) == want
    _plain(monkeypatch)
    assert cone.extremal_rays(h) == want


def test_the_largest_block_count_is_detected():
    # the orthant of Q^4 is invariant under permuting 4 blocks of one
    # coordinate and 2 blocks of two; the route takes 4
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    h = cone.HRep(4, rows)
    assert _blocks(h) == 4
    assert cone.extremal_rays(h) == _brute_force_rays(rows, 4)
    # a row that only the 2-block swap keeps, with its image
    rows += [(1, -1, 1, 0), (1, 0, 1, -1)]
    h = cone.HRep(4, rows)
    assert _blocks(h) == 2
    assert cone.extremal_rays(h) == _brute_force_rays(rows, 4)


def test_block_route_finds_the_line_of_a_cone_that_is_not_pointed(monkeypatch):
    # {x1 + x2 >= 0} is a half-plane, but its part x1 >= x2 is pointed
    h = cone.HRep(2, [(1, 1)])
    assert _blocks(h) == 2
    with pytest.raises(cone.NotPointedError) as route:
        cone.extremal_rays(h)
    _plain(monkeypatch)
    with pytest.raises(cone.NotPointedError) as plain:
        cone.extremal_rays(h)
    assert route.value.vector == plain.value.vector == (-1, 1)


# the cone over the square with corners (+-1, +-1) at height 1
SQUARE = [(-1, 0, 1), (1, 0, 1), (0, -1, 1), (0, 1, 1)]
CORNERS = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]


def test_certified_rays_keep_the_extremal_candidates():
    h = cone.HRep(3, SQUARE)
    # the apex direction, an edge midpoint and a repeat are not kept
    cands = [(0, 0, 1), CORNERS[2], (1, 0, 1), *CORNERS, CORNERS[0]]
    assert cone.certified_rays(h, cands) == [CORNERS[2], CORNERS[0], *CORNERS[1::2]]
    assert sorted(cone.certified_rays(h, CORNERS)) == cone.extremal_rays(h)


def test_certified_rays_of_a_face():
    # the facet x = z of the square cone spans the plane x = z
    h = cone.HRep(3, SQUARE, [(1, 0, -1)])
    assert cone.certified_rays(h, [(1, 0, 1), (1, 1, 1), (1, -1, 1)]) == [
        (1, 1, 1), (1, -1, 1),
    ]


def test_certified_rays_reject_a_candidate_outside_the_cone():
    h = cone.HRep(3, SQUARE)
    with pytest.raises(cone.ConsistencyError, match=r"candidate \(2, 0, 1\) is outside"):
        cone.certified_rays(h, CORNERS + [(2, 0, 1)])
    face = cone.HRep(3, SQUARE, [(1, 0, -1)])
    with pytest.raises(cone.ConsistencyError, match="outside"):
        cone.certified_rays(face, CORNERS[:2] + [(-1, 1, 1)])


def test_certified_rays_reject_candidates_that_do_not_span():
    h = cone.HRep(3, SQUARE)
    with pytest.raises(cone.ConsistencyError, match="do not span"):
        cone.certified_rays(h, CORNERS[:2])
    with pytest.raises(cone.ConsistencyError, match="do not span"):
        cone.certified_rays(h, [])


def test_certified_rays_need_a_cone_that_spans_its_equality_subspace():
    # x + y = 2z meets the square cone in the one ray (1, 1, 1), a line
    # inside a plane: the certificate refuses the correct candidate, since
    # telling it from a short candidate set needs the implicit equalities
    h = cone.HRep(3, SQUARE, [(1, 1, -2)])
    assert cone.extremal_rays(h) == [(1, 1, 1)]
    with pytest.raises(cone.ConsistencyError, match="do not span the equality subspace"):
        cone.certified_rays(h, [(1, 1, 1)])


def test_certified_rays_reject_candidates_that_miss_part_of_the_cone():
    # three corners span the space, but their cone misses the fourth corner:
    # its facet through the diagonal is no row of h
    h = cone.HRep(3, SQUARE)
    with pytest.raises(cone.ConsistencyError, match="miss part of the cone"):
        cone.certified_rays(h, CORNERS[:3] + [(0, 0, 1)])
    # with no inequality at all, a half-line misses the other half
    with pytest.raises(cone.ConsistencyError, match="miss part of the cone"):
        cone.certified_rays(cone.HRep(1), [(1,)])


def test_certified_rays_want_primitive_candidates():
    # a corner given twice, once doubled: neither copy is alone on its line
    h = cone.HRep(3, SQUARE)
    got = cone.certified_rays(h, CORNERS + [(2, 2, 2)])
    assert got == CORNERS[1:]


def test_certified_rays_skip_a_zero_candidate():
    # the origin is on every facet: kept, it would leave no ray alone
    h = cone.HRep(3, SQUARE)
    assert cone.certified_rays(h, CORNERS + [(0, 0, 0)]) == CORNERS
    face = cone.HRep(3, SQUARE, [(1, 0, -1)])
    assert cone.certified_rays(face, [(1, 1, 1), (1, -1, 1), (0, 0, 0)]) == [
        (1, 1, 1), (1, -1, 1),
    ]


@pytest.mark.parametrize("bad", [(0, 0), (1, 1, 1, 1)])
def test_certified_rays_reject_a_candidate_of_the_wrong_length(bad):
    h = cone.HRep(3, SQUARE)
    with pytest.raises(ValueError, match=f"has length {len(bad)}, expected 3"):
        cone.certified_rays(h, CORNERS + [bad])


def test_certified_rays_build_their_dual_cone_without_blocks(monkeypatch):
    # the candidates' dual cone has no reason to be block-symmetric, even
    # when the cone itself is
    h = cone.HRep(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    units = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    seen, blocks = [], cone._blocks

    def spy(h, basis):
        seen.append(blocks(h, basis))
        return seen[-1]

    monkeypatch.setattr(cone, "_blocks", spy)
    assert cone.certified_rays(h, [(1, 1, 0, 0)] + units) == units
    assert seen == [1]
    assert cone.extremal_rays(h) == sorted(units)
    assert seen == [1, 4]
