import itertools

import pytest

from eigencone import weyl as wl
from eigencone.rootdata import ParabolicSpec, build_root_system, pair


# Matrix references that do not go through ``WeylGroup.by_rho``: the library
# makes every element by looking up its image of rho and keeps no matrix, so
# these multiply the weight-lattice matrices themselves. test_schubert.py and
# test_rootdata.py import them too.

def matmul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
        for row in a
    )


def unit_matrix(n):
    return tuple(tuple(int(r == j) for j in range(n)) for r in range(n))


def reflection_matrix(rs, beta):
    """s_beta(omega_j) = omega_j - <omega_j, beta^vee> beta, and
    <omega_j, beta^vee> is the j-th coroot coordinate."""
    co = rs.coroot(beta)
    bw = rs.root_to_weight(beta).coords
    n = rs.rank
    return tuple(
        tuple(int(r == j) - bw[r] * co[j] for j in range(n)) for r in range(n)
    )


def word_matrix(w):
    """w's matrix on the fundamental weights (column j holds w(omega_j)):
    the product of the simple reflection matrices along its word."""
    rs = w.root_system
    m = unit_matrix(rs.rank)
    for i in w.word():
        m = matmul(m, reflection_matrix(rs, rs.simple_roots[i - 1]))
    return m


def matrix_length(rs, m):
    """l(w) from w's matrix: the positive roots beta with
    <w(rho), beta^vee> < 0, where w(rho) is the row sums."""
    w_rho = rs.weight([sum(row) for row in m])
    return sum(1 for b in rs.positive_roots if pair(w_rho, b) < 0)


def matrix_closure(rs):
    """(length, matrix) over W, sorted: the closure of the identity under
    right multiplication by the simple reflection matrices, breadth first,
    so that an element's length is its distance from the identity."""
    gens = [reflection_matrix(rs, b) for b in rs.simple_roots]
    e = unit_matrix(rs.rank)
    dist = {e: 0}
    frontier = [e]
    while frontier:
        nxt = []
        for m in frontier:
            for s in gens:
                ms = matmul(m, s)
                if ms not in dist:
                    dist[ms] = dist[m] + 1
                    nxt.append(ms)
        frontier = nxt
    return sorted((d, m) for m, d in dist.items())


@pytest.mark.parametrize(
    "label",
    [
        "A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "F4", "A1xA1xA1",
        "B4", "C4", "D5", "B2xG2",
    ],
)
def test_weyl_group_against_matrix_closure(label):
    # the w(rho) walk against the matrix closure it replaced: the same
    # elements in the same (length, matrix) order, the same index by w(rho),
    # and the words the rho walk reads off; in B2xG2 the base of the
    # lambda_B order comes from the G2 factor
    rs = build_root_system(label)
    W = wl.weyl_group(rs)
    ref = matrix_closure(rs)
    assert [(w.length, word_matrix(w)) for w in W] == ref
    assert W.by_rho == {
        tuple(sum(row) for row in m): i for i, (_, m) in enumerate(ref)
    }
    for w in W:
        end, word = rs.dominant_walk(w.rho)
        assert end == rs.rho.coords and tuple(w.word()) == word


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_lookups_against_matrices(label):
    # compose, simple_reflection and reflection are lookups by the image of
    # rho; their matrices must be the products and the coroot formula
    rs = build_root_system(label)
    W = wl.weyl_group(rs)
    for beta in rs.positive_roots:
        assert word_matrix(wl.reflection(rs, beta)) == reflection_matrix(rs, beta)
    for i, alpha in enumerate(rs.simple_roots, 1):
        assert word_matrix(wl.simple_reflection(rs, i)) == reflection_matrix(rs, alpha)
    mats = {w: word_matrix(w) for w in W}
    for u in W:
        for v in W:
            assert word_matrix(u.compose(v)) == matmul(mats[u], mats[v])


@pytest.mark.parametrize("i", [0, 4, -1])
def test_out_of_range_simple_index_is_value_error(i):
    # a 1-based simple index outside 1..rank must not wrap through negative
    # indexing (0 -> s3, omega_0 = 0) or escape as a bare IndexError
    a3 = build_root_system("A3")
    e = wl.identity(a3)
    P = ParabolicSpec.maximal(a3, 2)
    calls = [
        lambda: wl.simple_reflection(a3, i),
        lambda: a3.omega(i),
        lambda: a3.reflect_root(i, (1, 0, 0)),
        lambda: a3.root_pairing((1, 0, 0), i),
        lambda: wl.simple_cover(e, i),
        lambda: wl.cover_test(e, i, P),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"simple index {i} out of range"):
            call()


def test_unreduced_words_resolve_to_group_elements():
    a2 = build_root_system("A2")
    W = wl.weyl_group(a2)
    assert wl.parse_word(a2, "s1 s1") is wl.identity(a2)
    assert wl.parse_word(a2, "s1 s2 s1") is wl.parse_word(a2, "s2 s1 s2")
    assert wl.parse_word(a2, "s2 s1 s2") is W.longest


def test_simple_reflection_fixes_other_fundamentals(d4):
    for i in range(1, 5):
        s = wl.simple_reflection(d4, i)
        for j in range(1, 5):
            if i != j:
                assert s.act(d4.omega(j)).coords == d4.omega(j).coords


def test_moved_omega2_values(d4, uvw):
    u, v, w = uvw
    om2 = d4.omega(2)
    assert tuple(map(int, u.act(om2).coords)) == (-1, 2, -1, -1)
    assert tuple(map(int, v.act(om2).coords)) == (-1, 0, -1, 1)
    assert tuple(map(int, w.act(om2).coords)) == (-1, 0, 1, -1)


def test_compose_inverse_length(d4, uvw):
    u, v, w = uvw
    assert u.length == 4 and v.length == 7 and w.length == 7
    assert u.compose(u.inverse()) == wl.identity(d4)
    assert u.inverse().inverse() == u
    assert (u.compose(v)).length <= u.length + v.length


@pytest.mark.parametrize("label,size", [("A1", 2), ("A2", 6), ("B2", 8), ("A3", 24), ("D4", 192), ("G2", 12)])
def test_weyl_group_sizes(label, size):
    assert len(wl.weyl_group(build_root_system(label))) == size


def test_enumeration_order_is_graded(d4):
    W = wl.weyl_group(d4)
    lengths = [w.length for w in W.elements]
    assert lengths == sorted(lengths)
    assert W.longest.length == 12


def test_minimal_reps_counts(d4, p2):
    a1 = build_root_system("A1")
    borel = ParabolicSpec.borel(a1)
    assert [w.word_str() for w in wl.minimal_reps(borel)] == ["e", "s1"]
    reps = wl.minimal_reps(p2)
    assert len(reps) == 24
    for k in (1, 3, 4):
        assert len(wl.minimal_reps(ParabolicSpec.maximal(d4, k))) == 8


def test_uvw_are_minimal_reps(p2, uvw):
    for x in uvw:
        assert x.is_minimal_rep(p2)


def test_covers_of_v(d4, p2, uvw):
    _, v, _ = uvw
    s3v = matmul(reflection_matrix(d4, (0, 0, 1, 0)), word_matrix(v))
    cv = wl.covers(v, p2)
    hit = [c for c in cv if word_matrix(c.lower) == s3v]
    assert len(hit) == 1
    assert hit[0].simple and hit[0].beta == (0, 0, 1, 0)
    for c in cv:
        assert c.upper == v
        assert c.lower.length == v.length - 1
        lower = word_matrix(c.lower)
        assert matmul(reflection_matrix(d4, c.beta), lower) == word_matrix(v)


def test_covers_a1():
    a1 = build_root_system("A1")
    borel = ParabolicSpec.borel(a1)
    s = wl.simple_reflection(a1, 1)
    cv = wl.covers(s, borel)
    assert len(cv) == 1
    assert cv[0].lower == wl.identity(a1) and cv[0].simple


def test_total_simple_cover_count(p2, uvw):
    q = sum(1 for x in uvw for c in wl.covers(x, p2) if c.simple)
    assert q == 7


def test_covers_rejects_non_rep(d4, p2):
    s2 = wl.simple_reflection(d4, 2)
    w = s2.compose(wl.simple_reflection(d4, 1))  # s2 s1 is not in W^P2
    if not w.is_minimal_rep(p2):
        with pytest.raises(ValueError):
            wl.covers(w, p2)


def test_cover_test_examples(d4, p2, uvw):
    u, _, _ = uvw
    assert wl.cover_test(u, 2, p2) is True
    assert wl.cover_test(u, 1, p2) is False
    a1 = build_root_system("A1")
    assert wl.cover_test(wl.identity(a1), 1, ParabolicSpec.borel(a1)) is True


def _root_criterion(u, ell, P):
    """u -> s_ell u is a cover inside W^P iff u^-1(alpha_ell) is a positive
    root outside the Levi."""
    img = u.inverse().act_root(P.root_system.simple_roots[ell - 1])
    return all(x >= 0 for x in img) and any(img[k - 1] for k in P.complement)


# every maximal parabolic of A2, G2, B3, C3 and D4, and one of A3
COVER_CASES = [("A3", 1)] + [
    (label, k)
    for label, rank in (("A2", 2), ("G2", 2), ("B3", 3), ("C3", 3), ("D4", 4))
    for k in range(1, rank + 1)
]


@pytest.mark.parametrize("label,k", COVER_CASES)
def test_cover_test_criteria_agree_exhaustively(label, k):
    # cover_test reads the length criterion off the cover table; the root
    # criterion is the independent route
    rs = build_root_system(label)
    P = ParabolicSpec.maximal(rs, k)
    for u in wl.minimal_reps(P):
        for ell in range(1, rs.rank + 1):
            assert wl.cover_test(u, ell, P) == _root_criterion(u, ell, P), (
                u.word_str(), ell)


def test_inversion_sets(d4, uvw):
    _, v, _ = uvw
    e = wl.identity(d4)
    assert wl.inversion_set(e) == set()
    assert wl.inversion_set(wl.simple_reflection(d4, 3)) == {(0, 0, 1, 0)}
    assert len(wl.inversion_set(v)) == 7


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_length_equals_inversion_count_exhaustively(label):
    for w in wl.weyl_group(build_root_system(label)):
        assert len(wl.inversion_set(w)) == w.length


def test_lemma_super_identity(d4):
    # for every simple cover v -> w inside W^P: s_beta Phi_v union {beta}
    # equals Phi_w
    for k in (2, 4):
        P = ParabolicSpec.maximal(d4, k)
        for w in wl.minimal_reps(P):
            for c in wl.covers(w, P):
                if not c.simple:
                    continue
                s = wl.reflection(d4, c.beta)
                moved = {
                    tuple(s.act_root(b)) for b in wl.inversion_set(c.lower)
                }
                phi_w = wl.inversion_set(w)
                assert moved <= phi_w
                assert phi_w - moved == {c.beta}


def test_simple_cover_bijection(d4, p2):
    # simple covers of w correspond to simple roots with negative preimage
    for w in wl.minimal_reps(p2):
        simple_covers = [c for c in wl.covers(w, p2) if c.simple]
        winv = w.inverse()
        descents = [
            i
            for i in range(1, 5)
            if any(
                x < 0
                for x in winv.act_root(tuple(int(t == i - 1) for t in range(4)))
            )
        ]
        assert sorted(c.beta.index(1) + 1 for c in simple_covers) == descents


def test_word_parsing(d4):
    v = wl.parse_word(d4, "s3 s1 s2 s4 s3 s1 s2")
    assert wl.parse_word(d4, v.word_str()) == v
    assert wl.parse_word(d4, "e") == wl.identity(d4)
    assert wl.parse_word(d4, "1") == wl.identity(d4)
    assert wl.parse_word(d4, "s2s4") == wl.parse_word(d4, "s2 s4")
    with pytest.raises(ValueError):
        wl.parse_word(d4, "t1 t2")
    with pytest.raises(ValueError):
        wl.parse_word(d4, "s5")


def test_word_composition_order(d4):
    # leftmost letter acts last: "s4 s3 s1 s2" means s4(s3(s1(s2(.))))
    u = wl.parse_word(d4, "s4 s3 s1 s2")
    step = d4.omega(2)
    for i in (2, 1, 3, 4):
        step = wl.simple_reflection(d4, i).act(step)
    assert u.act(d4.omega(2)).coords == step.coords


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "G2", "D4", "F4", "A1xA1xA1"])
def test_weyl_layer_against_independent_routes(label):
    # the w(rho) walk gives words and lengths, inverses are looked up by
    # w^-1(rho), and weight and root actions follow the word; check each
    # against a route that does none of these
    rs = build_root_system(label)
    for w in wl.weyl_group(rs):
        m = word_matrix(w)
        assert w.length == matrix_length(rs, m)
        assert tuple(sum(row) for row in m) == w.rho
        cols = [w.act(rs.omega(j)).coords for j in range(1, rs.rank + 1)]
        assert tuple(zip(*cols)) == m
        assert matmul(m, word_matrix(w.inverse())) == unit_matrix(rs.rank)
        for b in rs.positive_roots:
            assert rs.root_to_weight(w.act_root(b)) == w.act(rs.root_to_weight(b))


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "G2", "D4", "F4"])
def test_minimal_rep_against_root_action(label):
    # minimal_reps walks the orbit of lambda_P; scan W instead and keep w
    # where w(alpha_i) is a positive root for every i in Delta(P), on every
    # standard parabolic
    rs = build_root_system(label)
    W = wl.weyl_group(rs)
    nodes = range(1, rs.rank + 1)
    positive = [
        {i for i in nodes
         if all(x >= 0 for x in w.act_root(rs.simple_roots[i - 1]))}
        for w in W
    ]
    for size in range(rs.rank + 1):
        for delta in itertools.combinations(nodes, size):
            P = ParabolicSpec(rs, delta)
            want = tuple(w for w, pos in zip(W, positive) if P.delta_P <= pos)
            assert wl.minimal_reps(P) == want
            assert len(W) % len(want) == 0
            for w, pos in zip(W, positive):
                assert w.is_minimal_rep(P) == (P.delta_P <= pos)
