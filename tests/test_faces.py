import json

import pytest

from eigencone import faces
from eigencone.rootdata import ParabolicSpec, build_root_system
from eigencone.weyl import parse_word


def test_a1_facets():
    a1 = build_root_system("A1")
    got = faces.enumerate_regular_facets(3, a1)
    assert len(got) == 3
    for f in got:
        lengths = sorted(w.length for w in f.words)
        assert lengths == [0, 1, 1]


def test_d4_facet_counts(d4):
    all_facets = faces.enumerate_regular_facets(3, d4)
    by_k = {}
    for f in all_facets:
        (k,) = f.P.complement
        by_k[k] = by_k.get(k, 0) + 1
    assert by_k == {1: 36, 2: 186, 3: 36, 4: 36}
    quotiented = faces.enumerate_regular_facets(3, d4, quotient_symmetry=True)
    assert len(quotiented) == 57


def test_d4_p4_quotiented_words(d4):
    quotiented = faces.enumerate_regular_facets(3, d4, quotient_symmetry=True)
    p4_faces = [f for f in quotiented if f.P.complement == (4,)]
    assert len(p4_faces) == 7


def test_main_facet_present(d4, main_face, uvw):
    all_facets = faces.enumerate_regular_facets(3, d4)
    target = set(uvw)
    assert any(set(f.words) == target for f in all_facets)


def test_validate(main_face, d4, p2, uvw):
    assert main_face.validate() is main_face
    u, v, _ = uvw
    bad = faces.FaceSpec(3, p2, (u, v, v))
    with pytest.raises(ValueError):
        bad.validate()


def test_eval_inequality_values(d4, main_face):
    om = d4.omega
    assert faces.eval_inequality(main_face, (om(2), om(3), om(3)), 2) == 0
    assert faces.eval_inequality(main_face, (om(2), om(4), om(4)), 2) == 0
    assert faces.eval_inequality(main_face, (om(2), om(2), om(2)), 2) == -1
    assert faces.eval_inequality(main_face, (d4.rho, d4.rho, d4.rho), 2) == -5
    with pytest.raises(ValueError):
        faces.eval_inequality(main_face, (om(2), om(2), om(2)), 1)


def test_eval_inequality_a1():
    a1 = build_root_system("A1")
    facets = faces.enumerate_regular_facets(3, a1)
    om = a1.omega(1)
    # (om, om, 2om) sits on the facet whose length-0 slot is the third
    for f in facets:
        val = faces.eval_inequality(f, (om, om, om.scale(2)), 1)
        assert val <= 0
        if [w.length for w in f.words] == [1, 1, 0]:
            assert val == 0


def test_inequality_row_matches_eval(d4, main_face):
    row = faces.inequality_row(main_face, 2)
    assert len(row) == 12
    lams = (d4.rho, d4.omega(2), d4.omega(3))
    flat = [c for lam in lams for c in lam.coords]
    dotted = sum(r * x for r, x in zip(row, flat))
    assert dotted == -faces.eval_inequality(main_face, lams, 2)


def test_tens_membership(d4):
    om = d4.omega
    zero = d4.zero_weight()
    assert faces.tens_membership((om(2), om(2), om(2)))
    assert faces.tens_membership((zero, zero, zero))
    assert not faces.tens_membership((om(2), zero, zero))
    neg = zero - om(1)
    assert not faces.tens_membership((neg, om(1), om(1)))


def test_typeI_pairs_main(d4, main_face, uvw):
    pairs = faces.typeI_pairs(main_face)
    assert len(pairs) == 7
    _, v, _ = uvw
    s3v = parse_word(d4, "s1 s2 s4 s3 s1 s2")
    assert (2, s3v, 3) in pairs
    for j, low, ell in pairs:
        assert 1 <= j <= 3 and 1 <= ell <= 4
        assert low.length == main_face.words[j - 1].length - 1
        assert low.is_minimal_rep(main_face.P)


def test_typeI_pairs_a1():
    a1 = build_root_system("A1")
    f = faces.enumerate_regular_facets(3, a1)[0]
    assert len(faces.typeI_pairs(f)) == 2


def test_json_round_trip(main_face):
    blob = faces.face_to_json(main_face)
    assert blob["type"] == "D4" and blob["parabolic"] == [2]
    back = faces.face_from_json(json.dumps(blob))
    assert back == main_face


def test_face_from_json_rejects_bad_word(d4):
    blob = {
        "type": "D4",
        "s": 3,
        "parabolic": [2],
        "words": ["s1 s2", "s2 s1", "s2"],
    }
    with pytest.raises(ValueError):
        faces.face_from_json(blob)


def test_fewer_than_three_factors_is_value_error():
    a1 = build_root_system("A1")
    with pytest.raises(ValueError, match="s >= 3"):
        faces.enumerate_regular_facets(2, a1)


def test_face_from_json_rejects_out_of_range_node():
    blob = {"type": "D4", "s": 3, "parabolic": [9], "words": ["e", "e", "e"]}
    with pytest.raises(ValueError, match="out of range"):
        faces.face_from_json(blob)


def test_face_from_json_rejects_wrong_word_count(main_face):
    blob = faces.face_to_json(main_face)
    blob["words"] = blob["words"][:2]
    with pytest.raises(ValueError, match="expected 3 words, got 2"):
        faces.face_from_json(blob)
