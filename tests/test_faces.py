import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from eigencone import faces, schubert
from eigencone.rootdata import ParabolicSpec, build_root_system, eval_x
from eigencone.weyl import identity, minimal_reps, parse_word


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


def _reference_membership(lams):
    """The per-facet loop: dominant, and every facet inequality holds at the
    tuple."""
    if not all(lam.is_dominant() for lam in lams):
        return False
    return all(
        faces.eval_inequality(face, lams, k) <= 0
        for face in faces.enumerate_regular_facets(len(lams), lams[0].root_system)
        for k in face.P.complement
    )


@pytest.mark.parametrize("s", [3, 4])
@pytest.mark.parametrize("label", ["A2", "B3", "C3", "G2", "D4", "B4", "A1xA2"])
def test_packed_membership_matches_facet_loop(label, s):
    # integral, half-integral and non-dominant tuples, in turn
    rs = build_root_system(label)
    rng = random.Random(2021)
    draws = (
        lambda: rng.randint(0, 3),
        lambda: Fraction(rng.randint(0, 7), 2),
        lambda: rng.randint(-1, 3),
    )
    answers = []
    for trial in range(45):
        draw = draws[trial % 3]
        lams = tuple(
            rs.weight([draw() for _ in range(rs.rank)]) for _ in range(s)
        )
        want = _reference_membership(lams)
        assert faces.tens_membership(lams) == want, lams
        answers.append(want)
    assert any(answers) and not all(answers)


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


# Regression gate on the regular-facet lists and their order: sha256 of the
# lines "{complement}: w1 ; w2 ; w3", the format the benchmark digests use,
# recorded from the enumeration that called levi_movable on every
# codimension-compatible tuple. (count, digest) for plain, then quotiented.
FACET_DIGESTS = {
    "A2": ((12, "afec1fd123828423605d0045b289762cee1f43937a64ae850dc2560729e80fcf"),
           (4, "0aff4ce7210a1d1f4e8a5062eccf250135f5449e36411ea0353c0870f3814056")),
    "B2": ((18, "f42cb4c0e6e04c216a5beb7a68d89dfbcb66f97e46c79ffabdd9d4983da568a2"),
           (4, "dfe265e988466469b74cdc3db20f4cf7dd34161902f74c129a6edeb8251e456b")),
    "G2": ((30, "05040294848b30514fca2efd47c8bd196c3f4b048ff0eaac06c48f3957f1ef4b"),
           (6, "db0548867663a73202058576ae02f4f16cf0cc926a8079eb30e735aa9d1a2bc8")),
    "A3": ((41, "d3ee32166f3231cd50a2797ded78d85dc05407703013cba9b7f50b457a0d3cf6"),
           (12, "74adc8ab69173781b50c846ffa07f256a8982112ec06f1aa83aa54c78a02890c")),
    "B3": ((93, "0d802ce8eff854bb6679f1a6ed56dafd7631b010c05b8bd5ef919a36341b8297"),
           (18, "a0d863659b856cf03846b4d773a80ccf083acdd23e69d56c81bc2c8fff579393")),
    "C3": ((93, "0d802ce8eff854bb6679f1a6ed56dafd7631b010c05b8bd5ef919a36341b8297"),
           (18, "a0d863659b856cf03846b4d773a80ccf083acdd23e69d56c81bc2c8fff579393")),
    "A4": ((142, "4de2f2216b47a34c9be0839432d850b3d36733e9632c7d93a6f63216b4b4afb7"),
           (36, "6c98e3be410c8d007c13925ab12f87fcceda39a81809fec68e5fdade42f6377d")),
    "D4": ((294, "89213291fcd0bc12326e33045eed7935f59f34a1987d4ac25a76438fb5340490"),
           (57, "f79f69144b344e6b2d65263923f8cce72d3f03cdf54ae776b7a22bfad2175d70")),
    # recorded from the enumeration whose product table solved each degree
    # by Fraction row reduction
    "B4": ((474, "42a65aeaa5994c76abb776d62bfb3ff9c6db7cba7b38576042602fd673c75753"),
           (84, "abf3b4575566156fc115e6df05faa6a68027f8b1fd9f6ba3dad3521c4a119360")),
    "C4": ((474, "42a65aeaa5994c76abb776d62bfb3ff9c6db7cba7b38576042602fd673c75753"),
           (84, "abf3b4575566156fc115e6df05faa6a68027f8b1fd9f6ba3dad3521c4a119360")),
    "D5": ((1967, "de5878cf7cbd14f91f67f62f789f8d7864a12827649e8d132aa8075769300ab7"),
           (353, "fb478b4a3e2cfa7dcf331e6f6d285c909eb697e7a8a7efea58339325bbe777c7")),
    # recorded from the enumeration that formed a head product for every
    # member of every orbit in its plain scan
    "A5": ((521, "b6b5c225bb914f2de001ed719ebc5591854dc91b7d5bb1f74c01fd28dfff36cb"),
           (111, "60f5df5ee40e680f680268acc7fa5e2f6324c4573afaf8b8a4de02a93f88b452")),
    "F4": ((1290, "1a22dde6574b736b7321582186977bbea8287df5a663b6b7ba76aeb3909bd79c"),
           (220, "a5ac6a661c97f245334db2dad77d4e66633fba20e26f7ffde59c12a829e3ab33")),
}


def _facet_lines(facet_list):
    return [
        f"{list(f.P.complement)}: {' ; '.join(w.word_str() for w in f.words)}"
        for f in facet_list
    ]


@pytest.mark.parametrize("label", sorted(FACET_DIGESTS))
def test_facet_order_gate(label):
    rs = build_root_system(label)
    for quotient, want in zip((False, True), FACET_DIGESTS[label]):
        got = faces.enumerate_regular_facets(3, rs, quotient_symmetry=quotient)
        text = "\n".join(_facet_lines(got)).encode()
        assert (len(got), hashlib.sha256(text).hexdigest()) == want, quotient


def _brute_force_facets(rs, s, quotient):
    """Every codimension-compatible tuple, in the enumeration's nested order
    (codimensions of the first s - 1 factors, then positions in W^P), kept
    when the public levi_movable says (True, 1)."""
    out = []
    for k in range(1, rs.rank + 1):
        P = ParabolicSpec.maximal(rs, k)
        reps = minimal_reps(P)
        pos = {w: i for i, w in enumerate(reps)}
        tuples = [
            t for t in itertools.product(reps, repeat=s)
            if sum(schubert.codim(w, P) for w in t) == P.dim_flag
        ]
        tuples.sort(key=lambda t: (
            [schubert.codim(w, P) for w in t[:-1]], [pos[w] for w in t]
        ))
        seen = set()
        for t in tuples:
            if quotient:
                key = tuple(sorted(w.rho for w in t))
                if key in seen:
                    continue
                seen.add(key)
            if schubert.levi_movable(list(t), P) == (True, 1):
                out.append(faces.FaceSpec(s, P, t))
    return out


# (plain, quotiented) counts at s = 4 and 5: the only gate on the order for
# s >= 4
LARGER_S_COUNTS = {
    "A2": {4: (20, 4), 5: (30, 4)},
    "B2": {4: (32, 4), 5: (50, 4)},
    "G2": {4: (56, 6), 5: (90, 6)},
    "A3": {4: (92, 12), 5: (175, 12)},
}


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_facets_match_brute_force(label):
    rs = build_root_system(label)
    counts = LARGER_S_COUNTS.get(label, {})
    for s in (3, *counts):
        got = [faces.enumerate_regular_facets(s, rs, quotient_symmetry=q)
               for q in (False, True)]
        for quotient, facet_list in zip((False, True), got):
            want = _brute_force_facets(rs, s, quotient)
            assert _facet_lines(facet_list) == _facet_lines(want), (s, quotient)
        if s in counts:
            assert tuple(map(len, got)) == counts[s]


def test_large_s_scans_one_tuple_per_orbit():
    """The scan tests one sorted tuple per S_s orbit and expands only the
    distinct arrangements, so A1 at s = 12 (12! orderings of one orbit of
    twelve facets) takes milliseconds."""
    rs = build_root_system("A1")
    start = time.process_time()
    plain = faces.enumerate_regular_facets(12, rs)
    reps = faces.enumerate_regular_facets(12, rs, quotient_symmetry=True)
    assert time.process_time() - start < 1
    assert _facet_lines(reps) == ["[1]: " + "s1 ; " * 11 + "e"]
    # e, the one factor of positive codimension, moves forward from the end
    assert _facet_lines(plain) == [
        "[1]: " + " ; ".join("e" if j == i else "s1" for j in range(12))
        for i in reversed(range(12))
    ]


@pytest.mark.parametrize("label", ["B3", "D4", "B4"])
def test_plain_facets_take_only_the_quotient_products(label):
    """Only orbit representatives are tested, so the full list costs no
    Schubert product beyond those of the quotiented one."""
    rs = build_root_system(label)
    counts = []
    for quotient in (False, True):
        schubert.product_table.cache_clear()
        faces._facets_cached.cache_clear()
        faces.enumerate_regular_facets(3, rs, quotient_symmetry=quotient)
        counts.append(len(schubert.product_table(rs)._products))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "G2", "D4"])
def test_row_blocks_against_independent_routes(label):
    """eval_inequality and inequality_row read cached integer row blocks, and
    the class table holds integer gap terms; compare the blocks with w^-1
    acting on the weights, and the gaps with chi and degree_gaps."""
    rs = build_root_system(label)
    rng = random.Random(20180309)
    chosen = rng.sample(faces.enumerate_regular_facets(3, rs), 6)
    # any words in W^P give an inequality, so a non-maximal P needs no facet
    P = ParabolicSpec.dropping(rs, {1, rs.rank})
    reps = minimal_reps(P)
    chosen.append(faces.FaceSpec(3, P, tuple(rng.choice(reps) for _ in range(3))))
    e = identity(rs)
    for face in chosen:
        for k in face.P.complement:
            for _ in range(3):
                lams = tuple(
                    rs.weight([rng.randint(0, 4) for _ in range(rs.rank)])
                    for _ in range(3)
                )
                want = sum(
                    eval_x(w.inverse().act(lam), k)
                    for w, lam in zip(face.words, lams)
                )
                assert faces.eval_inequality(face, lams, k) == want
                row = faces.inequality_row(face, k)
                flat = [c for lam in lams for c in lam.coords]
                assert sum(r * x for r, x in zip(row, flat)) == -want
            table = schubert.class_table(face.P)
            assert all(type(x.gaps[k]) is int for x in table.values())
            for w in set(face.words) | {e}:
                assert table[w].gaps[k] == eval_x(schubert.chi(w, face.P), k)
            gap = sum(table[w].gaps[k] for w in face.words) - table[e].gaps[k]
            chis = rs.zero_weight()
            for w in face.words:
                chis = chis + schubert.chi(w, face.P)
            assert gap == eval_x(chis - schubert.chi(e, face.P), k)
            assert gap == schubert.degree_gaps(list(face.words), face.P)[k]
            if face.P.delta_P != P.delta_P:
                assert gap == 0  # a regular facet is Levi-movable
