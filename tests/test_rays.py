import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from operator import sub
from pathlib import Path

import pytest

from eigencone import cli, cone, faces, rays, schubert
from eigencone.rays import RayTuple
from eigencone.rootdata import ParabolicSpec, build_root_system, eval_x, pair
from eigencone.weyl import covers, parse_word, weyl_group
from test_dd import _blocks


def _golden(name):
    ref = resources.files("eigencone") / "golden" / name
    return json.loads(ref.read_text())


def _tuple_from_rows(rs, rows, tag="user"):
    return RayTuple(tuple(rs.weight(tuple(r)) for r in rows), tag)


def test_ray_tuple_vector_round_trip(d4):
    x = RayTuple((d4.omega(2), d4.omega(3), d4.rho))
    back = RayTuple.from_vector(d4, 3, x.to_vector())
    assert back.to_vector() == x.to_vector()
    assert x.scale(6).primitive().to_vector() == x.to_vector()
    # to_json writes the coordinates as they are
    assert x.scale(6).to_json() == {
        "weights": [[0, 6, 0, 0], [0, 0, 6, 0], [6, 6, 6, 6]],
        "tag": "user",
    }
    assert x.scale(6).primitive().to_json() == {
        "weights": [[0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]],
        "tag": "user",
    }


def test_ray_tuple_from_vector_rejects_wrong_length(d4):
    with pytest.raises(ValueError, match="not 3 weights of rank 4"):
        RayTuple.from_vector(d4, 3, (1,) * 11)


def test_basic_divisor_fixture(d4, main_face):
    s3v = parse_word(d4, "s1 s2 s4 s3 s1 s2")
    delta = rays.basic_divisor_class(main_face, 2, s3v)
    expected = (d4.omega(2), d4.omega(3), d4.omega(3))
    assert all(a.coords == b.coords for a, b in zip(delta.weights, expected))


def test_basic_divisor_rejections(d4, main_face, uvw):
    u, v, _ = uvw
    with pytest.raises(ValueError):
        rays.basic_divisor_class(main_face, 2, u)
    for c in covers(v, main_face.P):
        if not c.simple:
            with pytest.raises(ValueError):
                rays.basic_divisor_class(main_face, 2, c.lower)
            break


def test_basic_rays_match_expected_set(d4, main_face):
    golden = _golden("subbie.json")
    expected = {
        _tuple_from_rows(d4, rows).to_vector() for rows in golden["type1"]
    }
    got = {
        delta.primitive().to_vector()
        for (_, _, _, delta) in rays._face_basic_rays(main_face)
    }
    assert got == expected


def test_classify_nonsimple_vanishes(d4, p2):
    face = faces.FaceSpec(
        3,
        p2,
        (
            parse_word(d4, "s2 s1 s3 s2 s4 s2 s1 s3 s2"),
            parse_word(d4, "s1 s2 s3 s4 s2"),
            parse_word(d4, "s2 s3 s4 s2"),
        ),
    ).validate()
    ran = 0
    for j, w in enumerate(face.words, start=1):
        for c in covers(w, face.P):
            if c.simple:
                continue
            out = rays.classify_nonsimple(face, j, c.lower)
            assert out.is_zero()
            ran += 1
    assert ran > 0


def test_classify_nonsimple_rejects_simple(d4, main_face):
    s3v = parse_word(d4, "s1 s2 s4 s3 s1 s2")
    with pytest.raises(ValueError):
        rays.classify_nonsimple(main_face, 2, s3v)


def test_shift_to_degree0(d4, p2):
    om = d4.omega
    zero = d4.zero_weight()
    x = RayTuple((om(4), om(4), zero))
    shifted = rays.shift_to_degree0(x, p2)
    expected = om(4) - om(2).scale(Fraction(1, 2))
    assert shifted.weights[0].coords == expected.coords
    assert shifted.weights[2].is_zero()
    for mu in shifted.weights:
        assert eval_x(mu, 2) == 0


def test_shift_to_degree0_non_maximal(d4):
    # three dropped nodes: the shift solves a 3 x 3 block, and only the
    # coordinates of the dropped nodes may move
    P = ParabolicSpec(d4, (2,))
    x = _tuple_from_rows(d4, [(1, 1, 0, 0), (0, 2, 1, 3), (2, -1, 1, 0)])
    shifted = rays.shift_to_degree0(x, P)
    for mu, nu in zip(x.weights, shifted.weights):
        for k in P.complement:
            assert eval_x(nu, k) == 0
        assert nu.coords[1] == mu.coords[1]


def _fraction_solve(mat, rhs):
    """x with mat x = rhs, by Gauss-Jordan over Fraction (mat regular)."""
    n = len(mat)
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [row[n] for row in rows]


def _x_k_shift(mu, P):
    """mu - sum_k c_k omega_k over k outside Delta(P), with c chosen so that
    every such x_k vanishes on the result; x_k is row k of a Fraction
    inverse of the Cartan matrix."""
    a = P.root_system.cartan_matrix
    n = len(a)
    cols = [_fraction_solve(a, [int(r == i) for r in range(n)]) for i in range(n)]
    ks = P.complement
    block = [[cols[k - 1][kp - 1] for k in ks] for kp in ks]
    rhs = [sum(cols[i][kp - 1] * c for i, c in enumerate(mu.coords)) for kp in ks]
    out = list(mu.coords)
    for k, c in zip(ks, _fraction_solve(block, rhs)):
        out[k - 1] -= c
    return tuple(out)


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "G2", "D4"])
def test_shift_to_degree0_against_x_k_formula(label):
    # the Levi lift against the x_k shift formula, on every standard
    # parabolic, the Borel and G itself included
    rs = build_root_system(label)
    n = rs.rank
    rng = random.Random(label)
    checked = 0
    for size in range(n + 1):
        for delta in itertools.combinations(range(1, n + 1), size):
            P = ParabolicSpec(rs, delta)
            rows = [[rng.randint(-3, 5) for _ in range(n)] for _ in range(2)]
            rows.append([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(n)])
            x = _tuple_from_rows(rs, rows)
            got = rays.shift_to_degree0(x, P)
            for mu, nu in zip(x.weights, got.weights):
                assert nu.coords == _x_k_shift(mu, P), (P, mu)
                checked += 1
    assert checked == 3 * 2**n


def test_induction_formula_coefficients(d4, main_face, uvw):
    u = uvw[0]
    moved = u.act(d4.omega(2))
    from eigencone.rootdata import pair

    for ell in (1, 3, 4):
        alpha = tuple(int(i == ell - 1) for i in range(4))
        assert pair(moved, alpha) == -1


def test_raw_induction_single_slot(d4, main_face):
    golden = _golden("apples.json")
    om2 = d4.omega(2)
    zero = d4.zero_weight()
    out = rays.induction_image(main_face, RayTuple((om2, zero, zero)))
    assert [
        [int(c) for c in w.coords] for w in out.weights
    ] == golden["induced"]


def test_induct_rejects_wrong_degree(d4, main_face):
    om2 = d4.omega(2)
    zero = d4.zero_weight()
    with pytest.raises(ValueError):
        rays.induct(main_face, RayTuple((om2, zero, zero)))


def test_levi_cone_ray_counts(d4, p2, p4):
    assert len(rays.levi_cone_rays(p2, 3)) == 9
    assert len(rays.levi_cone_rays(p4, 3)) == 18
    single = ParabolicSpec(d4, {1})
    assert len(rays.levi_cone_rays(single, 3)) == 3


def test_induction_table(d4, p2, main_face):
    golden = _golden("subbie.json")
    table = {}
    for mu in rays.levi_cone_rays(p2, 3):
        image = rays.induct(main_face, rays.shift_to_degree0(mu, p2))
        key = mu.primitive().to_vector()
        table[key] = None if image.is_zero() else image.primitive().to_vector()
    assert len(table) == 9
    for row, image in golden["induction_table"]:
        key = _tuple_from_rows(d4, row).to_vector()
        want = None if image is None else _tuple_from_rows(d4, image).to_vector()
        assert table[key] == want


def test_decompose_basic_ray(d4, main_face):
    s3v = parse_word(d4, "s1 s2 s4 s3 s1 s2")
    delta = rays.basic_divisor_class(main_face, 2, s3v)
    coeffs, residual = rays.decompose_on_face(main_face, delta)
    assert residual.is_zero()
    assert sorted(coeffs) == [0, 0, 0, 0, 0, 0, 1]


def test_decompose_type2_ray(d4, main_face):
    golden = _golden("subbie.json")
    x = _tuple_from_rows(d4, golden["type2"][0])
    coeffs, residual = rays.decompose_on_face(main_face, x)
    assert all(c == 0 for c in coeffs)
    assert residual.to_vector() == x.to_vector()


def test_decompose_additivity(d4, main_face):
    golden = _golden("subbie.json")
    s3v = parse_word(d4, "s1 s2 s4 s3 s1 s2")
    delta = rays.basic_divisor_class(main_face, 2, s3v)
    t2 = _tuple_from_rows(d4, golden["type2"][0])
    total = delta.scale(2) + t2
    coeffs, residual = rays.decompose_on_face(main_face, total)
    assert sorted(coeffs) == [0, 0, 0, 0, 0, 0, 2]
    assert residual.to_vector() == t2.to_vector()


def test_decompose_rejects_off_face(d4, main_face):
    with pytest.raises(ValueError):
        rays.decompose_on_face(
            main_face, RayTuple((d4.rho, d4.rho, d4.rho))
        )


def test_decompose_rejects_face_hyperplane_point_outside_the_cone(d4, main_face):
    # dominant and zero on the face's row, but outside the cone: bad input,
    # not a broken decomposition
    x = _tuple_from_rows(d4, [[3, 3, 0, 3], [2, 1, 0, 2], [0, 0, 0, 0]])
    assert all(w.is_dominant() for w in x.weights)
    assert faces._row_value(main_face, x.weights, 2) == 0
    assert not faces.tens_membership(x.weights)
    with pytest.raises(ValueError, match="does not lie on the face"):
        rays.decompose_on_face(main_face, x)


# each patch breaks one identity of the decomposition: every pair
# evaluation reads 1, also on the residual, or the residual leaves the cone
@pytest.mark.parametrize("module,name,fake,message", [
    (rays, "_pair_evals", lambda face, y: [1], "fails to vanish"),
    (faces, "tens_membership", lambda weights: False, "left the cone"),
], ids=["pair-evaluations", "membership"])
def test_decompose_broken_identity(main_face, monkeypatch, module, name,
                                   fake, message):
    golden = _golden("subbie.json")
    x = _tuple_from_rows(main_face.root_system, golden["type2"][0])
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(cone.ConsistencyError, match=message):
        rays.decompose_on_face(main_face, x)


def _is_primitive(ray):
    vec = ray.to_vector()
    return all(isinstance(c, int) for c in vec) and math.gcd(*vec) == 1


@pytest.mark.parametrize("label", ["A2", "G2", "B3", "C3", "D4"])
def test_face_report_rays_are_primitive(label):
    # every basic ray is an extremal ray of its face, so the face's rays
    # are the q basic rays and the type II rays
    rs = build_root_system(label)
    for face in faces.enumerate_regular_facets(3, rs, quotient_symmetry=True):
        rep = rays.classify_face(face)
        assert rep.total == rep.q + len(rep.type2_rays), face
        levi = [mu for mu, _ in rep.levi_rays]
        images = [img for _, img in rep.levi_rays if not img.is_zero()]
        for ray in rep.basic_rays + rep.type2_rays + rep.exotic + levi + images:
            assert _is_primitive(ray), (face, ray)


def _dd_face_rays(face):
    """The reference inventory: the face's extremal rays by a double
    description of its H-rep, as classify_face found them before it took
    them from the theorem's certified candidates."""
    return set(cone.extremal_rays(rays._face_hrep(face)))


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "A4", "D4"])
def test_face_rays_match_the_double_description(label):
    rs = build_root_system(label)
    for face in faces.enumerate_regular_facets(3, rs, quotient_symmetry=True):
        rep = rays.classify_face(face)
        got = {r.to_vector() for r in rep.basic_rays + rep.type2_rays}
        assert got == _dd_face_rays(face), face


def test_detected_factor_symmetry_of_every_d4_hrep(d4, monkeypatch):
    # The cone's rows are invariant under permuting the s factors, and so
    # are those of each Levi factor's cone, so their double descriptions
    # take the block route; a face's equalities are the rows of one tuple,
    # which a permutation of the factors moves, so a face H-rep shows no
    # symmetry, and neither does the dual cone of certified_rays.
    for s in (3, 4):
        assert _blocks(rays.gamma_hrep(d4, s)) == s
    reps = faces.enumerate_regular_facets(3, d4, quotient_symmetry=True)
    assert {_blocks(rays._face_hrep(face)) for face in reps} == {1}
    seen, blocks = [], cone._blocks

    def spy(h, basis):
        seen.append((h.dim, bool(h.equalities), blocks(h, basis)))
        return seen[-1][2]

    monkeypatch.setattr(cone, "_blocks", spy)
    for face in reps:
        rays.levi_cone_rays.__wrapped__(face.P, 3)
        rays.classify_face(face)
    levi = {(dim, found) for dim, eqs, found in seen if dim < 12}
    assert levi == {(3, 3), (9, 3)}  # the A1 and A3 factors
    duals = [found for dim, eqs, found in seen if dim == 12]
    assert set(duals) == {1} and len(duals) == len(reps)


def test_classify_face_runs_no_double_description_on_the_face(
    d4, p4, main_face, monkeypatch
):
    def refuse(face):
        raise AssertionError("classify_face called face_extremal_rays")

    full = rays.gamma_hrep(d4, 3).inequalities
    extremal_rays = cone.extremal_rays

    def guarded(h):
        if h.inequalities is full:
            raise AssertionError("a double description ran on the cone's rows")
        return extremal_rays(h)

    monkeypatch.setattr(rays, "face_extremal_rays", refuse)
    monkeypatch.setattr(cone, "extremal_rays", guarded)
    all_faces = [main_face] + [
        faces.FaceSpec(3, p4, tuple(parse_word(d4, w) for w in row["words"]))
        for row in _golden("p4_table.json")["rows"]
    ]
    for face in all_faces:
        rep = rays.classify_face(face)
        assert rep.total == rep.q + len(rep.type2_rays)


def test_classify_main_face(d4, main_face):
    golden = _golden("subbie.json")
    report = rays.classify_face(main_face)
    assert report.q == 7
    assert report.zero_count == 5
    assert report.total == 11
    assert not report.exotic
    got_t2 = {r.primitive().to_vector() for r in report.type2_rays}
    want_t2 = {
        _tuple_from_rows(d4, rows).to_vector() for rows in golden["type2"]
    }
    assert got_t2 == want_t2


def test_classify_p4_table(d4, p4):
    golden = _golden("p4_table.json")
    for row in golden["rows"]:
        words = tuple(parse_word(d4, w) for w in row["words"])
        face = faces.FaceSpec(3, p4, words).validate()
        report = rays.classify_face(face)
        assert report.q == row["q"]
        assert report.zero_count == row["c"]
        assert len(report.exotic) == row["exotic"]
        assert report.total == row["total"]
        if "exotic_ray" in row:
            want = _tuple_from_rows(d4, row["exotic_ray"]).to_vector()
            assert [r.to_vector() for r in report.exotic] == [want]
            parts = [
                _tuple_from_rows(d4, p) for p in row["exotic_sum_of"]
            ]
            total = parts[0] + parts[1]
            assert total.to_vector() == want


# Regression gate on the whole face layer: sha256 over the regular-facet
# orbit representatives of the lines json.dumps(_report_payload(report),
# sort_keys=True) + "\n", the CLI's face-rays JSON. (count, digest), recorded
# from the product table whose Chevalley covers were x -> x s_beta.
REPORT_DIGESTS = {
    "A2": (4, "e1930cd2e6326bbacdd7a4068b625f8eb0861accdc3c00037643c998a1fc838a"),
    "B3": (18, "bbedfe5c7c86d6bafd00350de0ecfefe6a6df542f7a01c3364faedb0254b4857"),
    "C3": (18, "7e2e4275bec52e67163c5686ffccfb1ddcf63ffdde58c7e7fadb9d9c6fcb6924"),
    "D4": (57, "10d5854a4401173098b2152e7cfd94bcf88c7f61570e96647e2f19dc09894752"),
}


@pytest.mark.parametrize("label", sorted(REPORT_DIGESTS))
def test_face_report_gate(label):
    rs = build_root_system(label)
    facets = faces.enumerate_regular_facets(3, rs, quotient_symmetry=True)
    digest = hashlib.sha256()
    for face in facets:
        payload = cli._report_payload(rays.classify_face(face))
        digest.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
    assert (len(facets), digest.hexdigest()) == REPORT_DIGESTS[label]


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "D4", "G2"])
def test_integer_rows_match_rational_rows(label):
    # the H-reps take their rows from faces._int_row; normalizing the
    # rational rows of inequality_row must give the same rows, in order
    rs = build_root_system(label)
    n = 3 * rs.rank
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for f in faces.enumerate_regular_facets(3, rs):
        rows += [faces.inequality_row(f, k) for k in f.P.complement]
    assert rays.gamma_hrep(rs, 3).inequalities == cone.HRep(n, rows).inequalities
    if label != "D4":
        return
    for face in faces.enumerate_regular_facets(3, rs, quotient_symmetry=True):
        eqs = [faces.inequality_row(face, k) for k in face.P.complement]
        want = cone.HRep(n, rows, eqs)
        got = rays._face_hrep(face)
        assert (got.inequalities, got.equalities) == (
            want.inequalities, want.equalities
        ), face


@pytest.mark.parametrize("label", ["B3", "C3", "D4"])
def test_face_hrep_shares_rows_and_matches_a_fresh_hrep(label):
    # a face H-rep shares the full cone's normalized rows and their packed
    # columns, which earlier faces have already packed; it must give the
    # rays of an H-rep built from copies of the same rows
    rs = build_root_system(label)
    full = rays.gamma_hrep(rs, 3)
    for face in faces.enumerate_regular_facets(3, rs, quotient_symmetry=True):
        h = rays._face_hrep(face)
        assert h.inequalities is full.inequalities
        fresh = cone.HRep(
            h.dim, [list(r) for r in h.inequalities], [list(r) for r in h.equalities]
        )
        assert fresh.inequalities is not full.inequalities
        assert cone.extremal_rays(h) == cone.extremal_rays(fresh), face


def test_chi_tuple_induces_zero(d4, main_face):
    chis = RayTuple(
        tuple(schubert.chi(w, main_face.P) for w in main_face.words)
    )
    shifted = rays.shift_to_degree0(chis, main_face.P)
    assert rays.induct(main_face, shifted).is_zero()


# -- reference induction on Fraction weights ---------------------------


@functools.lru_cache(maxsize=None)
def _basic_classes(face):
    return [
        (j, ell, rays.basic_divisor_class(face, j, v))
        for j, v, ell in faces.typeI_pairs(face)
    ]


def _reference_image(face, x):
    """The raw induction formula on Fraction weights: w_j acting by its
    matrix, then each basic class subtracted as a scaled RayTuple."""
    moved = [w.act(mu) for w, mu in zip(face.words, x.weights)]
    result = RayTuple(tuple(moved), "induced")
    for j, ell, delta in _basic_classes(face):
        coeff = moved[j - 1].coords[ell - 1]
        if coeff:
            result = result - delta.scale(coeff)
    return RayTuple(result.weights, "induced")


def _reference_induct(face, x):
    """``_reference_image`` behind the degree-0 test by ``eval_x`` and the
    dominance test on the image's Fraction coordinates."""
    for j, mu in enumerate(x.weights, start=1):
        for k in face.P.complement:
            val = eval_x(mu, k)
            if val != 0:
                raise ValueError(
                    f"entry {j} is not degree-0: x_{k} evaluation is {val}"
                )
    out = _reference_image(face, x)
    for j, w in enumerate(out.weights, start=1):
        if not w.is_dominant():
            raise ValueError(
                f"induced entry {j} is not dominant: "
                + " ".join(map(str, w.coords))
            )
    return out


def _outcome(fn, face, x):
    """The value of fn(face, x), or the text of its ValueError."""
    try:
        return fn(face, x)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "D4"])
def test_integer_induction_against_fraction_reference(label):
    rs = build_root_system(label)
    reps = faces.enumerate_regular_facets(3, rs, quotient_symmetry=True)
    failures = set()
    for face in reps:
        for mu, image in rays.classify_face(face).levi_rays:
            shifted = rays.shift_to_degree0(mu, face.P)
            want = _reference_induct(face, shifted)
            # the report keeps the primitive image: same ray, same zero test
            assert image.is_zero() == want.is_zero(), (face, mu)
            assert image.primitive().to_vector() == want.primitive().to_vector()
            # the public routes, on the lift and on inputs that may fail:
            # the Levi ray unlifted, the lift rotated and the lift negated
            rotated = RayTuple(shifted.weights[1:] + shifted.weights[:1])
            for x in (shifted, mu, rotated, shifted.scale(-1)):
                got = _outcome(rays.induct, face, x)
                ref = _outcome(_reference_induct, face, x)
                if isinstance(ref, str):
                    assert got == ref, (face, x)
                    failures.add(ref.split()[0])
                    # the raw formula still applies where induct rejects
                    got = rays.induction_image(face, x)
                    assert got.weights == _reference_image(face, x).weights
                else:
                    assert got.weights == ref.weights, (face, x)
    # both rejections were met
    assert failures == {"entry", "induced"}


# -- reference induction on the eigencone side -------------------------


def _kappa(lam):
    """Killing-form isomorphism weight -> coweight, in the basis {x_i} dual
    to the simple roots: alpha_i(kappa(lam)) = (lam, alpha_i) = lam_i d_i."""
    return tuple(c * d for c, d in zip(lam.coords, lam.root_system.d))


def _induct_coweights(face, hs):
    """The induction formula transported through kappa: move kappa^-1(h_j)
    by w_j, then subtract kappa of each basic class D(j, v, ell) times
    <w_j mu_j, alpha_ell^vee> = 2 alpha_ell(h) / (alpha_ell, alpha_ell)."""
    rs = face.root_system
    moved = [
        _kappa(w.act(rs.weight([c / d for c, d in zip(h, rs.d)])))
        for w, h in zip(face.words, hs)
    ]
    out = list(moved)
    for j, v, ell in faces.typeI_pairs(face):
        delta = rays.basic_divisor_class(face, j, v)
        coeff = 2 * moved[j - 1][ell - 1] / (2 * rs.d[ell - 1])
        out = [
            tuple(a - coeff * b for a, b in zip(h, _kappa(lam)))
            for h, lam in zip(out, delta.weights)
        ]
    return out


def _check_coweight_route(face):
    """Compare both routes on every Levi ray of the face; the ray count."""
    levi = rays.levi_cone_rays(face.P, face.s)
    for mu in levi:
        shifted = rays.shift_to_degree0(mu, face.P)
        want = [_kappa(w) for w in rays.induct(face, shifted).weights]
        got = _induct_coweights(face, [_kappa(w) for w in shifted.weights])
        assert got == want, (face, mu)
    return len(levi)


def test_induct_coweights_route(d4, p4, main_face):
    # every Levi ray of the main P2 face and of the seven P4 faces
    p4_faces = [
        faces.FaceSpec(3, p4, tuple(parse_word(d4, w) for w in row["words"]))
        for row in _golden("p4_table.json")["rows"]
    ]
    assert sum(map(_check_coweight_route, [main_face] + p4_faces)) == 9 + 7 * 18
    # kappa is the identity on D4; on B3, C3 and G2 it scales the short
    # coordinates, so check every regular facet orbit representative there
    for label in ("B3", "C3", "G2"):
        rs = build_root_system(label)
        for face in faces.enumerate_regular_facets(3, rs, quotient_symmetry=True):
            _check_coweight_route(face)


def test_invariant_dim_a1_clebsch_gordan():
    a1 = build_root_system("A1")
    rng = random.Random(5)
    for _ in range(20):
        a, b, c = (rng.randrange(0, 9) for _ in range(3))
        trip = tuple(a1.weight((m,)) for m in (a, b, c))
        expect = int(abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0)
        assert rays.invariant_dim(trip) == expect


def test_invariant_dim_d4_fixtures(d4):
    om = d4.omega
    assert rays.invariant_dim((om(2), om(3), om(3))) == 1
    assert rays.invariant_dim((om(2), om(4), om(4))) == 1
    zero = d4.zero_weight()
    assert rays.invariant_dim((zero, zero, zero)) == 1
    assert rays.invariant_dim((om(2), zero, zero)) == 0
    # adjoint cubed: dim of the invariant subspace of the adjoint rep of
    # so(8) tensored with itself three times
    assert rays.invariant_dim((om(2), om(2), om(2))) == 1


def test_invariant_dim_rejects(d4):
    om = d4.omega
    with pytest.raises(ValueError):
        rays.invariant_dim((om(1) - om(2).scale(2), om(1), om(1)))
    with pytest.raises(rays.OracleLimitError):
        rays.invariant_dim((d4.rho.scale(10), d4.rho, d4.rho))
    assert rays.invariant_dim(
        (om(1).scale(2), om(1), om(1)), max_height=60
    ) >= 0


def test_invariant_dim_rejects_untyped_input(d4):
    with pytest.raises(ValueError, match="at least one weight"):
        rays.invariant_dim(())
    a2, b2 = build_root_system("A2"), build_root_system("B2")
    mixed = (a2.weight((1, 0)), b2.weight((1, 0)), a2.weight((1, 0)))
    with pytest.raises(ValueError, match="B2 and A2"):
        rays.invariant_dim(mixed)
    with pytest.raises(ValueError, match="D4 and A2"):
        rays.invariant_dim((a2.weight((0, 0)), d4.zero_weight()))
    # the cone test reads one root system for the whole tuple too
    mixed = (a2.weight((1, 1)), d4.weight((1, 0, 0, 0)), a2.weight((1, 1)))
    with pytest.raises(ValueError, match="D4 and A2"):
        faces.tens_membership(mixed)


def test_invariant_dim_one_and_two_factors(d4):
    om = d4.omega
    zero = d4.zero_weight()
    # s = 1: only the trivial module has invariants, self-dual or not
    assert rays.invariant_dim((zero,)) == 1
    for i in range(1, 5):
        assert rays.invariant_dim((om(i),)) == 0
    assert rays.invariant_dim((d4.rho,)) == 0
    # s = 2: V_a x V_b has an invariant iff b = -w0 a (w0 = -1 on D4)
    assert rays.invariant_dim((om(3), om(3))) == 1
    assert rays.invariant_dim((om(3), om(4))) == 0
    a2 = build_root_system("A2")
    assert rays.invariant_dim((a2.omega(1),)) == 0
    assert rays.invariant_dim((a2.omega(1), a2.omega(2))) == 1
    assert rays.invariant_dim((a2.omega(1), a2.omega(1))) == 0
    assert rays.invariant_dim((a2.rho, a2.rho)) == 1


def test_invariant_dim_four_factors():
    a1 = build_root_system("A1")
    # V_1^(x4) has two invariants, V_2^(x4) three
    assert rays.invariant_dim(tuple(a1.weight((1,)) for _ in range(4))) == 2
    assert rays.invariant_dim(tuple(a1.weight((2,)) for _ in range(4))) == 3
    a2 = build_root_system("A2")
    w1, w2 = a2.omega(1), a2.omega(2)
    # End(V x V) for V = C^3: V x V = S^2 V + L^2 V
    assert rays.invariant_dim((w1, w1, w2, w2)) == 2
    assert rays.invariant_dim((w1, w1, w1, w2)) == 0


def test_invariant_dim_builds_no_weyl_group():
    # the oracle walks W-orbits of weights (RootSystem.orbit) and never the
    # group: in a fresh process, where no other caller has built W, the
    # weyl_group cache stays empty through three- and four-factor calls
    script = (
        "from eigencone import rays, weyl\n"
        "from eigencone.rootdata import build_root_system\n"
        "rs = build_root_system('D5')\n"
        "before = weyl.weyl_group.cache_info().currsize\n"
        "w1, w2 = rs.omega(1), rs.omega(2)\n"
        "got = [rays.invariant_dim((w1, w1, w2)), rays.invariant_dim((w1,) * 4)]\n"
        "print(before, got, weyl.weyl_group.cache_info().currsize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["0", "[1,", "3]", "0"]


# -- reference oracle: Fraction Freudenthal and full Brauer-Klimyk ----


def _invariant_form(lam, mu):
    """(lam, mu) under the normalized invariant form: (lam, alpha_i) is
    lam_i d_i, paired with the simple-root coordinates of mu."""
    rs = lam.root_system
    return sum(c * d * m for c, d, m in zip(lam.coords, rs.d, mu.to_root_basis()))


def _reference_dominants(rs, lam_coords):
    """(depth, ks, mu) for each dominant mu <= lam, sorted, by scanning the
    whole root-basis box 0 <= ks <= lam for dominant lam - ks."""
    lam = rs.weight(lam_coords)
    n = rs.rank
    dominants = []
    for ks in itertools.product(
        *(range(int(b) + 1) for b in lam.to_root_basis())
    ):
        coords = list(lam.coords)
        for i, k in enumerate(ks):
            for r in range(n):
                coords[r] -= k * rs.cartan_matrix[r][i]
        if all(c >= 0 for c in coords):
            dominants.append((sum(ks), ks, tuple(coords)))
    return sorted(dominants)


def _reference_weight_mults(rs, lam_coords):
    """Dominant multiplicities by Freudenthal's formula over Fraction, with
    the chain stop tested in the root basis."""
    lam = rs.weight(lam_coords)
    lam_rc = lam.to_root_basis()
    mults = {}
    rho = rs.rho
    top = _invariant_form(lam + rho, lam + rho)
    for depth, _, mu in _reference_dominants(rs, lam_coords):
        if depth == 0:
            mults[mu] = 1
            continue
        shifted = rs.weight(mu) + rho
        denom = top - _invariant_form(shifted, shifted)
        acc = Fraction(0)
        for beta in rs.positive_roots:
            bw = rs.root_to_weight(beta)
            t = 1
            while True:
                cand = rs.weight(
                    tuple(a + t * b for a, b in zip(mu, bw.coords))
                )
                if any(a < b for a, b in zip(lam_rc, cand.to_root_basis())):
                    break
                m = mults.get(rs.dominant_walk(cand.coords)[0], 0)
                acc += m * _invariant_form(cand, bw)
                t += 1
        val = 2 * acc / denom
        assert val.denominator == 1
        mults[mu] = int(val)
    return mults


def _reference_orbit(rs, coords):
    seen = {tuple(coords)}
    frontier = [tuple(coords)]
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rs.rank):
                new = tuple(
                    x - c[i] * rs.cartan_matrix[r][i] for r, x in enumerate(c)
                )
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return seen


def _reference_fold(rs, ws):
    """V_{ws[0]} x V_{ws[1]} x .. as {highest weight: multiplicity}, by
    Brauer-Klimyk over the full weight diagrams, from the trivial module."""
    acc = {(0,) * rs.rank: 1}
    for w in ws:
        lam = tuple(int(c) for c in w.coords)
        diagram = {
            mu: m
            for dom, m in _reference_weight_mults(rs, lam).items()
            for mu in _reference_orbit(rs, dom)
        }
        out = {}
        for nu, mult in acc.items():
            for mu, m in diagram.items():
                dom, word = rs.dominant_walk(
                    tuple(a + b + 1 for a, b in zip(nu, mu))
                )
                if 0 not in dom:
                    key = tuple(c - 1 for c in dom)
                    out[key] = out.get(key, 0) + (-1) ** len(word) * mult * m
        acc = {k: v for k, v in out.items() if v}
    return acc


ORACLE_TYPES = ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4")


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_invariant_dim_matches_reference(label):
    # the last factor is either random or the dual of a random summand of
    # the others, so that both zero and nonzero answers occur on every type
    rs = build_root_system(label)
    w0 = weyl_group(rs).longest
    rng = random.Random(2018)
    top = 2 if rs.rank < 3 else 1
    positive = 0
    for s in (1, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4):
        ws = tuple(
            rs.weight([rng.randint(0, top) for _ in range(rs.rank)])
            for _ in range(s - 1)
        )
        if rng.random() < 0.5:
            last = rs.weight([rng.randint(0, top) for _ in range(rs.rank)])
        else:
            summand = rng.choice(sorted(_reference_fold(rs, ws)))
            last = -w0.act(rs.weight(summand))
        ws += (last,)
        want = _reference_fold(rs, ws).get((0,) * rs.rank, 0)
        assert rays.invariant_dim(ws, max_height=100) == want, ws
        positive += want > 0
    assert positive >= 3


def _reference_diagram(rs, lam):
    """{weight: multiplicity} of V_lam: the reference dominant table spread
    over the reference orbits."""
    return {
        x: m
        for mu, m in _reference_weight_mults(rs, lam).items()
        for x in _reference_orbit(rs, mu)
    }


def _dominant_part(diagram):
    return {mu: m for mu, m in diagram.items() if min(mu) >= 0}


def _decoded(rs, diagram):
    """A diagram keyed by packed weights, keyed by coordinate tuples."""
    unpack = rays._packing(rs).unpack
    return {unpack(x): m for x, m in diagram.items()}


def _decoded_orbit(rs, coords):
    """The read-off signed orbit of a dominant weight as {coords: sign}."""
    keys, signs = rays._signed_orbit(rs, coords)
    assert len(keys) == len(signs)
    return dict(zip(map(rays._packing(rs).unpack, keys), signs))


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_weight_mults_match_reference_and_weyl_dimension(label):
    rs = build_root_system(label)
    rng = random.Random(7)
    lams = [tuple(rng.randint(0, 2) for _ in range(rs.rank)) for _ in range(4)]
    lams += [(0,) * rs.rank, (1,) * rs.rank]
    for lam in lams:
        diagram = _decoded(rs, rays._weight_mults(rs, lam))
        mults = _dominant_part(diagram)
        assert mults == _reference_weight_mults(rs, lam)
        assert diagram == _reference_diagram(rs, lam)
        weight = rs.weight(lam)
        dim = 1
        for beta in rs.positive_roots:
            dim *= Fraction(pair(weight + rs.rho, beta), pair(rs.rho, beta))
        assert sum(
            m * len(_reference_orbit(rs, mu)) for mu, m in mults.items()
        ) == dim
        assert sum(diagram.values()) == dim


@pytest.mark.parametrize("label", ORACLE_TYPES + ("A1xA1",))
def test_saturated_dominants_match_box_scan(label):
    rs = build_root_system(label)
    rng = random.Random(11)
    lams = [tuple(rng.randint(0, 3) for _ in range(rs.rank)) for _ in range(6)]
    lams += [(0,) * rs.rank, (2,) * rs.rank]
    lams += [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    for lam in lams:
        assert rays._dominant_weights(rs, lam) == _reference_dominants(rs, lam)


@pytest.mark.parametrize("label", ORACLE_TYPES + ("A1xA1",))
def test_diagram_matches_reference_orbits(label):
    rs = build_root_system(label)
    rng = random.Random(13)
    lams = [tuple(rng.randint(0, 2) for _ in range(rs.rank)) for _ in range(3)]
    lams += [(0,) * rs.rank, (1,) * rs.rank]
    for lam in lams:
        diagram = _decoded(rs, rays._weight_mults(rs, lam))
        assert diagram == _reference_diagram(rs, lam)
        assert _dominant_part(diagram) == _reference_weight_mults(rs, lam)


def _racah_speiser(rs, diagram, mu, nu):
    """mult(V_nu, V_mu x V_lam), diagram the weight diagram of V_lam, by the
    Racah-Speiser sum over the elements of W:
    sum_w det(w) m_lam(w(nu + rho) - mu - rho)."""
    top = rs.weight(tuple(c + 1 for c in nu))
    total = 0
    for w in weyl_group(rs).elements:
        x = w.act(top).coords
        m = diagram.get(tuple(a - b - 1 for a, b in zip(x, mu)), 0)
        total += (-1) ** w.length * m
    return total


def _racah_speiser_product(rs, lams):
    """V_{lams[0]} x V_{lams[1]} x .. as {highest weight: multiplicity}; each
    new factor's summands are the dominant kappa + weight of its diagram."""
    acc = {lams[0]: 1}
    for lam in lams[1:]:
        diagram = _reference_diagram(rs, lam)
        out = {}
        for kappa, mult in acc.items():
            tops = {tuple(map(sum, zip(kappa, x))) for x in diagram}
            for top in tops:
                if min(top) >= 0:
                    c = _racah_speiser(rs, diagram, kappa, top)
                    if c:
                        out[top] = out.get(top, 0) + mult * c
        acc = out
    return acc


@pytest.mark.parametrize("label", ORACLE_TYPES + ("A1xA2",))
def test_invariant_dim_matches_racah_speiser_over_w(label):
    # V_1 x .. x V_s has as many invariants as V_1 x .. x V_{s-1} has copies
    # of V_nu, nu = -w0 lam_s, read off Racah-Speiser sums over all of W;
    # the last factor is the dual of a random summand half of the time
    rs = build_root_system(label)
    w0 = weyl_group(rs).longest
    rng = random.Random(21)
    top = 2 if rs.rank < 3 else 1
    cases, wants = [], []
    for s in (3, 3, 3, 3, 4, 4, 4, 4):
        lams = [
            tuple(rng.randint(0, top) for _ in range(rs.rank))
            for _ in range(s - 1)
        ]
        product = _racah_speiser_product(rs, lams)
        if rng.random() < 0.5:
            last = tuple(rng.randint(0, top) for _ in range(rs.rank))
        else:
            last = (-w0.act(rs.weight(rng.choice(sorted(product))))).coords
        nu = (-w0.act(rs.weight(last))).coords
        cases.append(tuple(rs.weight(lam) for lam in lams + [last]))
        wants.append(product.get(tuple(nu), 0))
    assert any(wants) and not all(wants)
    # cold, from emptied oracle tables, then warm, reading the kept ones
    rays._weight_mults.cache_clear()
    rays._signed_orbit.cache_clear()
    rays._support_orbits.cache_clear()
    for _ in range(2):
        assert [rays.invariant_dim(ws, max_height=100) for ws in cases] == wants


def test_invariant_dim_large_d4():
    d4 = build_root_system("D4")
    lam = d4.weight((4, 4, 4, 4))
    assert rays.invariant_dim((lam, lam, lam), max_height=200) == 24925


def test_signed_orbit_signs_are_determinants():
    # on a regular weight the BFS layer is l(w), so the sign is det(w)
    for label in ORACLE_TYPES:
        rs = build_root_system(label)
        W = weyl_group(rs)
        orbit = _decoded_orbit(rs, (1,) * rs.rank)
        assert len(orbit) == len(W.elements)
        for w in W.elements:
            assert orbit[w.act(rs.rho).coords] == (-1) ** w.length


@pytest.mark.parametrize("label", ORACLE_TYPES + ("A1xA2",))
def test_read_off_orbits_match_per_weight_walks(label):
    # one walk per support J carries every omega_j, j in J; the orbit of a
    # dominant weight with support J, coefficients 1 to 3, is read off it
    rs = build_root_system(label)
    for size in range(rs.rank + 1):
        for support in itertools.combinations(range(rs.rank), size):
            for first in (1, 2, 3):
                coords = [0] * rs.rank
                for t, j in enumerate(support):
                    coords[j] = (first + t - 1) % 3 + 1
                coords = tuple(coords)
                want = {
                    x: (-1) ** len(word)
                    for layer in rs.orbit(coords, ())
                    for x, word in layer
                }
                keys = rays._signed_orbit(rs, coords)[0]
                assert len(set(keys)) == len(keys)
                assert _decoded_orbit(rs, coords) == want, coords


_LIMIT_SCRIPT = """
from eigencone import rays
from eigencone.rootdata import build_root_system

def answers(label, tops):
    # V_a x V_a* x V_r has one invariant when r = 0, T = 2 sum(a) + r: every
    # limit here is even, so r is 0 at the limit and 1 above it
    rs = build_root_system(label)
    limit = rays._packing(rs).limit
    out = []
    for total in (limit, limit + 1):
        a = [0] * rs.rank
        for i in tops:
            a[i] += total // (2 * len(tops))
        a[tops[0]] += total // 2 - sum(a)
        a = rs.weight(a)
        dual = rs.weight(rs.dominant_walk((-a).coords)[0])
        r = rs.weight([total - 2 * sum(a.coords)] + [0] * (rs.rank - 1))
        try:
            out.append(rays.invariant_dim((a, dual, r), max_height=10**6))
        except rays.OracleLimitError:
            out.append("limit")
    return out

def small(label):
    # one or two weights pack nothing: above the limit they are answered
    rs = build_root_system(label)
    a = [0] * rs.rank
    a[0] = rays._packing(rs).limit // 2 + 1
    a = rs.weight(a)
    dual = rs.weight(rs.dominant_walk((-a).coords)[0])
    other = a + rs.omega(rs.rank)
    return [rays.invariant_dim(ws, max_height=10**6)
            for ws in ((a, dual), (a, other), (a + a,))]

print(answers("A1", [0]), answers("D4", [0, 1, 2, 3]), answers("G2", [0, 1]),
      answers("A1xA2", [0, 2]), small("D4"), small("G2"))
"""


def test_invariant_dim_limit_is_the_packing_bound():
    # at the bound of the root system's packing the oracle answers; one
    # above it raises OracleLimitError, also under python -O; one or two
    # weights above it are still answered
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    want = ["[1,", "'limit']"] * 4 + ["[1,", "0,", "0]"] * 2
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _LIMIT_SCRIPT],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.split() == want


def test_packing_holds_the_stated_bound():
    # c (T + 2 rank) + 3 bounds every coordinate the oracle forms: it fits
    # a signed field at T = limit and not at T = limit + 1, and the width
    # holds T = 2^12 on every type
    for label in ORACLE_TYPES + ("A1xA2", "F4", "E8"):
        rs = build_root_system(label)
        pk = rays._packing(rs)

        def bound(total):
            return rs.coroot_max * (total + 2 * rs.rank) + 3

        assert pk.limit >= rays._COORD_SUM
        assert pk.half == 1 << (pk.width - 1)
        assert bound(pk.limit) < pk.half <= bound(pk.limit + 1)
        for sign in (1, -1):
            x = tuple(sign * (-1) ** i * bound(pk.limit) for i in range(rs.rank))
            assert pk.unpack(pk.pack(x)) == x


_ORACLE_TABLES = (
    rays._packing, rays._root_table, rays._weight_mults,
    rays._support_orbits, rays._signed_orbit,
)


@pytest.mark.parametrize(
    "label, cases",
    [
        ("D4", [[(0, 3, 0, 0), (0, 3, 0, 0), (1, 3, 1, 1), (0, 10, 0, 0)],
                [(0, 1, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 19, 0, 0)]]),
        ("G2", [[(1, 3), (1, 3), (0, 4), (0, 4)],
                [(1, 0), (1, 0), (1, 0), (0, 13)]]),
    ],
)
def test_packed_coordinates_match_tuple_arithmetic(label, cases, monkeypatch):
    # with _COORD_SUM = 8 the fields are only just wide enough for the
    # bound c (T + 2 rank) + 3 at T = limit (7 bits, half 64, bound 63), and
    # four weights sum to that limit. Every weight an s = 4 call forms (the
    # dominant search and Freudenthal chain steps, the diagram keys, the
    # fold's terms and its result, the Racah-Speiser shifts) decodes within
    # the bound and to its value in tuple arithmetic, so a carry from one
    # field into the next would show; the largest coordinate formed uses
    # the top magnitude bit of its field
    rs = build_root_system(label)
    want_answers = [
        rays.invariant_dim(map(rs.weight, ws), max_height=100) for ws in cases
    ]
    roots = [
        (rs.root_to_weight(beta).coords, bp)
        for beta, bp, _, _ in rays._root_table(rs)
    ]
    try:
        with monkeypatch.context() as mp:
            mp.setattr(rays, "_COORD_SUM", 8)
            for table in _ORACLE_TABLES:
                table.cache_clear()
            pk = rays._packing(rs)
            assert pk.width == 7
            roots = [(bw, pk.pack(bw)) for bw, _ in roots]
            peak = 0
            for lams, want in zip(cases, want_answers):
                total = sum(map(sum, lams))
                assert total == pk.limit
                bound = rs.coroot_max * (total + 2 * rs.rank) + 3
                assert bound < pk.half

                def check(packed, coords):
                    nonlocal peak
                    got = pk.unpack(packed)
                    assert got == tuple(coords)
                    assert max(map(abs, got)) <= bound
                    peak = max(peak, *map(abs, got))

                # the order invariant_dim folds them in
                coords = sorted(lams, key=sum)
                nu = rs.dominant_walk(tuple(-c for c in coords.pop()))[0]
                for lam in (coords[0], coords[2]):
                    diagram = rays._weight_mults(rs, lam)
                    doms = [mu for _, _, mu in rays._dominant_weights(rs, lam)]
                    orbits = {
                        x for mu in doms for layer in rs.orbit(mu, ())
                        for x, _ in layer
                    }
                    assert set(_decoded(rs, diagram)) == orbits
                    for x in orbits:
                        check(pk.pack(x), x)
                    for mu in doms:
                        packed = pk.pack(mu)
                        for bw, bp in roots:
                            check(packed - bp, map(sub, mu, bw))
                            t = 1
                            while True:
                                check(packed + t * bp,
                                      [a + t * b for a, b in zip(mu, bw)])
                                if packed + t * bp not in diagram:
                                    break
                                t += 1
                acc = {pk.pack(coords[1]): 1}
                diagram = rays._weight_mults(rs, coords[2])
                for kappa in acc:
                    for mu in diagram:
                        check(kappa + pk.rho + mu,
                              [a + 1 + b for a, b in
                               zip(pk.unpack(kappa), pk.unpack(mu))])
                acc = rays._tensor_decompose(rs, acc, coords[2])
                assert _decoded(rs, acc) == _tuple_fold(
                    rs, {coords[1]: 1}, _decoded(rs, diagram)
                )
                keys = rays._signed_orbit(rs, tuple(c + 1 for c in nu))[0]
                for kappa in acc:
                    check(kappa, pk.unpack(kappa))
                    for x in keys:
                        check(x - (kappa + pk.rho),
                              [a - b - 1 for a, b in
                               zip(pk.unpack(x), pk.unpack(kappa))])
                assert rays._coefficient(rs, acc, coords[0], nu) == want
                assert rays.invariant_dim(map(rs.weight, lams), max_height=100) == want
            assert peak >= pk.half // 2
    finally:
        for table in _ORACLE_TABLES:
            table.cache_clear()
    assert any(want_answers)


def _tuple_fold(rs, acc, diagram):
    """Brauer-Klimyk on coordinate tuples: (sum of irreducibles in acc)
    tensor the module with weight diagram ``diagram``."""
    out = {}
    for kappa, mult in acc.items():
        for mu, m in diagram.items():
            x = [a + b + 1 for a, b in zip(kappa, mu)]
            dom, word = rs.dominant_walk(x)
            if 0 not in dom:
                key = tuple(c - 1 for c in dom)
                out[key] = out.get(key, 0) + (-1) ** len(word) * mult * m
    return {k: v for k, v in out.items() if v}


def test_weight_mults_integrality_is_checked(monkeypatch):
    # B2 with the two root lengths swapped in the form: the zero weight of
    # the 5-dimensional module comes out as 10/7. The root table holds the
    # form too, so it is built afresh under the swap and dropped after it
    b2 = build_root_system("B2")
    assert rays._scaled_form(b2) == (2, 1)
    tables = (rays._root_table, rays._weight_mults)
    try:
        with monkeypatch.context() as mp:
            mp.setattr(rays, "_scaled_form", lambda rs: (1, 2))
            for table in tables:
                table.cache_clear()
            with pytest.raises(ArithmeticError, match="non-integral multiplicity 10/7"):
                rays._weight_mults(b2, (1, 0))
    finally:
        for table in tables:
            table.cache_clear()


@pytest.mark.parametrize(
    "label", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4"]
)
def test_dd_rays_have_oracle_witnesses(label):
    # every extremal ray of the s = 3 cone is a saturated tensor-cone
    # element: some small multiple carries a nonzero invariant
    rs = build_root_system(label)
    ray_list = cone.extremal_rays(rays.gamma_hrep(rs, 3))
    for vec in ray_list:
        x = RayTuple.from_vector(rs, 3, vec)
        assert any(
            rays.invariant_dim(x.scale(n), max_height=200) > 0
            for n in range(1, 5)
        ), vec


def test_face_extremal_rays_membership(d4, main_face):
    got = rays.face_extremal_rays(main_face)
    assert len(got) == 11
    h = rays.gamma_hrep(d4, 3)
    from eigencone import cone

    for r in got:
        assert cone.contains(h, r.to_vector())
        # extreme rays of a face cut by valid inequalities stay extreme
        assert cone.is_extremal(h, r.to_vector())
        assert faces.tens_membership(r.weights)
