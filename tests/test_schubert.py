import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from eigencone import cone
from eigencone import schubert as sc
from eigencone.faces import enumerate_regular_facets
from eigencone.rootdata import ParabolicSpec, build_root_system
from eigencone.weyl import identity, minimal_reps, parse_word, weyl_group
from test_rootdata import _rho_l
from test_weyl import matmul, matrix_length, reflection_matrix, word_matrix


def test_codim(d4, p2, uvw):
    u, v, w = uvw
    assert sc.codim(u, p2) == 5
    assert sc.codim(v, p2) == 2
    assert sc.codim(w, p2) == 2
    assert sc.codim(identity(d4), p2) == 9


def test_main_triple_intersection(p2, uvw):
    u, v, w = uvw
    assert sc.multi_coeff([u, v, w], p2) == 1


def test_vanishing_balanced_triple(d4, p2):
    triple = [
        parse_word(d4, "s1 s2 s3 s2 s1 s4 s2"),
        parse_word(d4, "s2 s1 s3 s2 s4 s2 s1 s3 s2"),
        parse_word(d4, "s1 s2"),
    ]
    assert sum(sc.codim(x, p2) for x in triple) == p2.dim_flag
    assert sc.multi_coeff(triple, p2) == 0


def test_cover_triple_intersection(d4, p2, uvw):
    u, v, w = uvw
    s3v = parse_word(d4, "s1 s2 s4 s3 s1 s2")
    assert sc.multi_coeff([parse_word(d4, "s2").compose(u), s3v, w], p2) == 1


def test_codim_mismatch_raises(p2, uvw):
    u, v, w = uvw
    with pytest.raises(sc.CodimensionError):
        sc.multi_coeff([u, v], p2)
    classes = sc.class_table(p2)
    head = sc.head_product([classes[u], classes[v]], p2)
    with pytest.raises(sc.CodimensionError, match="sum to 12, expected 9"):
        sc.duality_coeff(head, classes[u], p2)


def test_divisor_formula_codim_mismatch_raises(main_face):
    # with w_1 left in place, every hatted tuple falls one codimension short
    from eigencone import rays
    with pytest.raises(sc.CodimensionError):
        rays._divisor_formula(main_face, 1, main_face.words[0])


def _coefficient_by_products(entries, P):
    """Reference: multiply every class in H*(G/B), then read the coefficient
    of the point class, the pullback of the identity's class."""
    table = sc.product_table(P.root_system)
    vec = {entries[0].pid: 1}
    for x in entries[1:]:
        vec = table.product_vec(vec, {x.pid: 1})
    point = next(iter(sc.class_table(P).values())).pid
    assert set(vec) <= {point}
    return vec.get(point, 0)


def _admissible_tuples(P, s):
    """Every s-tuple of class-table entries whose codimensions sum to dim G/P
    and whose degree gap vanishes: the tuples the enumeration tests."""
    entries = list(sc.class_table(P).values())
    e = entries[0]
    for tup in itertools.product(entries, repeat=s):
        if sum(x.codim for x in tup) != P.dim_flag:
            continue
        if all(sum(x.gaps[k] for x in tup) == g for k, g in e.gaps.items()):
            yield tup


# the coefficients met, capped at 2: together they cover 0, 1 and >= 2
@pytest.mark.parametrize("label,s,values", [
    ("A2", 3, {1}), ("B3", 3, {0, 1, 2}), ("C3", 3, {0, 1, 2}),
    ("G2", 3, {1, 2}), ("D4", 3, {0, 1, 2}), ("A2", 4, {1}), ("B3", 4, {0, 1, 2}),
])
def test_duality_coeff_against_full_products(label, s, values):
    # the duality route reads one coefficient off the product of all but
    # the last factor; the reference multiplies all s classes
    rs = build_root_system(label)
    seen = set()
    for k in range(1, rs.rank + 1):
        P = ParabolicSpec.maximal(rs, k)
        pids = {x.pid for x in sc.class_table(P).values()}
        for tup in _admissible_tuples(P, s):
            head = sc.head_product(tup[:-1], P)
            assert set(head[1]) <= pids  # pulled back from G/P
            got = sc.duality_coeff(head, tup[-1], P)
            assert got == _coefficient_by_products(tup, P)
            seen.add(min(got, 2))
    assert seen == values


def test_words_outside_w_p_rejected(d4, p2, uvw):
    u, v, w = uvw
    bad = parse_word(d4, "s2 s1")  # s2 s1 sends alpha_1 to a negative root
    for call in (sc.multi_coeff, sc.levi_movable, sc.degree_gaps):
        with pytest.raises(ValueError, match="s2 s1 is not in W\\^P"):
            call([u, bad, w], p2)


def test_non_rep_rejected(d4, p2):
    bad = parse_word(d4, "s2 s1")
    if not bad.is_minimal_rep(p2):
        with pytest.raises(ValueError):
            sc.cup(bad, identity(d4), p2)


def test_fundamental_class_is_unit(d4, p2, uvw):
    # codimension indexing: the longest minimal rep carries codim 0 and is
    # the unit, while the identity is the point class
    u = uvw[0]
    top = max(minimal_reps(p2), key=lambda w: w.length)
    assert sc.codim(top, p2) == 0
    res = sc.cup(top, u, p2)
    assert res.coeffs == {u: 1} and res.grade == sc.codim(u, p2)


def test_a1_point_squared_is_zero():
    a1 = build_root_system("A1")
    borel = ParabolicSpec.borel(a1)
    e = identity(a1)  # the point class, codim 1
    assert sc.cup(e, e, borel).is_zero()
    s = parse_word(a1, "s1")
    assert sc.multi_coeff([s, e], borel) == 1


def test_grassmannian_gr24_pieri():
    # G/P1 for A3 is Gr(1,4) = P^3; G/P2 is Gr(2,4)
    a3 = build_root_system("A3")
    P = ParabolicSpec.maximal(a3, 2)
    reps = minimal_reps(P)
    assert len(reps) == 6
    # the codimension-1 class squared splits into the two codim-2 classes
    h = [w for w in reps if sc.codim(w, P) == 1]
    assert len(h) == 1
    sq = sc.cup(h[0], h[0], P)
    assert sorted(sq.coeffs.values()) == [1, 1]
    # degree of Gr(2,4): h^4 = 2 [point]
    assert sc.multi_coeff([h[0]] * 4, P) == 2


def test_p3_degree():
    a3 = build_root_system("A3")
    P = ParabolicSpec.maximal(a3, 1)
    h = [w for w in minimal_reps(P) if sc.codim(w, P) == 1][0]
    assert sc.multi_coeff([h, h, h], P) == 1


@pytest.mark.parametrize("label,k", [("D4", 2), ("A3", 2)])
def test_poincare_duality(label, k):
    rs = build_root_system(label)
    P = ParabolicSpec.maximal(rs, k)
    reps = minimal_reps(P)
    n = P.dim_flag
    for u in reps:
        matches = [
            v
            for v in reps
            if sc.codim(u, P) + sc.codim(v, P) == n
            and sc.multi_coeff([u, v], P) != 0
        ]
        assert len(matches) == 1
        assert sc.multi_coeff([u, matches[0]], P) == 1


@pytest.mark.parametrize("k", [2, 4])
def test_positivity_exhaustive(d4, k):
    P = ParabolicSpec.maximal(d4, k)
    for u, v in itertools.combinations_with_replacement(minimal_reps(P), 2):
        res = sc.cup(u, v, P)
        assert all(c > 0 for c in res.coeffs.values())


def test_positivity_sampled_borel(d4):
    rng = random.Random(7)
    borel = ParabolicSpec.borel(d4)
    W = list(weyl_group(d4))
    for _ in range(40):
        u, v = rng.choice(W), rng.choice(W)
        res = sc.cup(u, v, borel)
        assert all(c > 0 for c in res.coeffs.values())


def test_commutativity_and_associativity(d4, p2):
    rng = random.Random(11)
    reps = minimal_reps(p2)
    for _ in range(15):
        u, v, w = rng.choice(reps), rng.choice(reps), rng.choice(reps)
        assert sc.cup(u, v, p2) == sc.cup(v, u, p2)
        table = sc.product_table(d4)
        a = table.product_vec(
            table.product_ids(
                sc._dual_id(u, p2, table), sc._dual_id(v, p2, table)
            ),
            {sc._dual_id(w, p2, table): 1},
        )
        b = table.product_vec(
            {sc._dual_id(u, p2, table): 1},
            table.product_ids(
                sc._dual_id(v, p2, table), sc._dual_id(w, p2, table)
            ),
        )
        assert a == b


def _chi_formula(w, P):
    """rho - 2 rho^L + w^-1 rho, with rho^L summed from the Levi's roots."""
    rs = P.root_system
    return tuple(
        r - 2 * c + x
        for r, c, x in zip(rs.rho.coords, _rho_l(P), w.inverse().act(rs.rho).coords)
    )


def test_chi_identity_element(d4, p2):
    e = identity(d4)
    got = sc.chi(e, p2)
    assert got.coords == _chi_formula(e, p2)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_chi_matches_the_rho_l_formula(label):
    rs = build_root_system(label)
    parabolics = [ParabolicSpec.maximal(rs, k) for k in range(1, rs.rank + 1)]
    parabolics += [ParabolicSpec.borel(rs), ParabolicSpec(rs, {1})]
    for P in parabolics:
        for w in minimal_reps(P):
            assert sc.chi(w, P).coords == _chi_formula(w, P)


def test_degree_gaps_main_triple(p2, uvw):
    gaps = sc.degree_gaps(list(uvw), p2)
    assert set(gaps) == {2}
    assert all(g == 0 for g in gaps.values())


def test_levi_movable_main_triple(p2, uvw):
    assert sc.levi_movable(list(uvw), p2) == (True, 1)


def test_levi_movable_nonzero_but_deformed_to_zero(d4, p2):
    # a triple with intersection number 2 whose degree gap is negative:
    # the product survives classically but not in the deformed ring
    triple = [
        parse_word(d4, "s1 s3 s2 s4 s2 s1 s3 s2"),
        parse_word(d4, "s1 s2 s3 s4 s2"),
        parse_word(d4, "s1 s2 s3 s4 s2"),
    ]
    flag, c = sc.levi_movable(triple, p2)
    assert c == 2 and not flag


@pytest.mark.parametrize("k", [2, 4])
def test_degree_gaps_nonpositive_when_nonzero(d4, k):
    P = ParabolicSpec.maximal(d4, k)
    reps = minimal_reps(P)
    by_codim = {}
    for w in reps:
        by_codim.setdefault(sc.codim(w, P), []).append(w)
    n = P.dim_flag
    for c1 in sorted(by_codim):
        for c2 in sorted(by_codim):
            c3 = n - c1 - c2
            if c3 < c2 or c3 not in by_codim:
                continue
            for triple in itertools.product(
                by_codim[c1], by_codim[c2], by_codim[c3]
            ):
                if sc.multi_coeff(list(triple), P) == 0:
                    continue
                gaps = sc.degree_gaps(list(triple), P)
                # with codimension-indexed reps the gap has a uniform sign:
                # the classical nonnegativity, flipped by dualization
                assert all(g <= 0 for g in gaps.values())


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_longest_levi_element(label):
    # w_{0,P} is the only element of W_P of length |R^+_L|, and W_P fixes
    # every omega_k with k outside Delta(P)
    rs = build_root_system(label)
    W = weyl_group(rs)
    for size in range(rs.rank + 1):
        for delta in itertools.combinations(range(1, rs.rank + 1), size):
            P = ParabolicSpec(rs, delta)
            w0p = W.elements[W.by_rho[sc._levi_rho(P)]]
            assert w0p.length == len(P.levi_positive_roots)
            # the matrix route: w_0 = w_0^P w_{0,P}
            assert matmul(word_matrix(minimal_reps(P)[-1]), word_matrix(w0p)) == (
                word_matrix(W.longest)
            )
            for k in P.complement:
                assert w0p.act(rs.omega(k)) == rs.omega(k)


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "G2", "D4"])
def test_dual_id_against_matrix_products(label):
    # _dual_id reads w_0 w w_{0,P} off its image of rho; compose the
    # matrices instead, and check that the map is an involution
    rs = build_root_system(label)
    table = sc.product_table(rs)
    W = table.W
    for k in range(1, rs.rank + 1):
        P = ParabolicSpec.maximal(rs, k)
        w0p = W.elements[W.by_rho[sc._levi_rho(P)]]
        w0 = word_matrix(W.longest)
        assert matmul(word_matrix(minimal_reps(P)[-1]), word_matrix(w0p)) == w0
        for w in minimal_reps(P):
            xid = sc._dual_id(w, P, table)
            want = matmul(matmul(w0, word_matrix(w)), word_matrix(w0p))
            assert word_matrix(W.elements[xid]) == want
            assert sc._dual_id(W.elements[xid], P, table) == W.id_of(w)


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "G2", "D4"])
def test_chevalley_data_against_reflection_route(label):
    # the cover table reads s_gamma x off x(rho); compose the reflection
    # matrix instead and keep every root whose length step is one
    rs = build_root_system(label)
    table = sc.ProductTable(rs)
    W = table.W
    mats = [word_matrix(w) for w in W.elements]
    for xid, x in enumerate(W.elements):
        lower, upper = [], []
        for gamma in rs.positive_roots:
            y = matmul(reflection_matrix(rs, gamma), mats[xid])
            ly = matrix_length(rs, y)
            if ly == x.length - 1:
                lower.append((gamma, y))
            elif ly == x.length + 1:
                upper.append((gamma, y))
        got_lower, got_upper = W.cover_row(xid)
        assert [(g, mats[y]) for g, y in got_lower] == lower
        # Chevalley: sigma_{s_k} sigma_x has coefficient <omega_k, beta^vee>
        # at x s_beta = s_gamma x, where beta = x^-1 gamma; each upper entry
        # carries these coefficients over k
        xinv = x.inverse()
        upper = [(y, tuple(rs.coroot(xinv.act_root(g)))) for g, y in upper]
        assert [(mats[y], chev) for y, chev in got_upper] == upper
        ids = {m: i for i, m in enumerate(mats)}
        for k in range(1, rs.rank + 1):
            want = {ids[y]: chev[k - 1] for y, chev in upper if chev[k - 1]}
            assert table._mult_degree_one(k, {xid: 1}) == want


@pytest.mark.parametrize("label", ["B2", "G2", "A3", "B3"])
def test_expressions_reproduce_basis_classes(label):
    # sum of num * sigma_{s_k} * sigma_x over the stored terms is D sigma_u
    table = sc.ProductTable(build_root_system(label))
    for uid, u in enumerate(table.W.elements):
        if u.length < 2:
            continue
        denom, terms = table._expression(uid)
        total = {}
        for num, k, xid in terms:
            for w, c in table._mult_degree_one(k, {xid: 1}).items():
                total[w] = total.get(w, 0) + num * c
        assert {w: c for w, c in total.items() if c} == {uid: denom}


@pytest.mark.parametrize("label", ["B3", "D4", "G2"])
def test_degree_one_products_match_the_chevalley_rule(label):
    # _mult_degree_one is the Chevalley rule itself, the reference for the
    # degree-one products that go through their classes' expressions
    table = sc.ProductTable(build_root_system(label))
    for uid in table._by_length[1]:
        (k,) = table.W.elements[uid].word()
        for vid in range(len(table.W.elements)):
            assert table.product_ids(uid, vid) == table._mult_degree_one(k, {vid: 1})
            assert table.product_ids(vid, uid) == table.product_ids(uid, vid)


def test_unit_products_are_not_stored(d4):
    table = sc.product_table(d4)
    enumerate_regular_facets(3, d4)
    enumerate_regular_facets(3, d4, quotient_symmetry=True)
    assert table._products
    assert all(0 not in key for key in table._products)
    assert table.product_ids(0, 5) == {5: 1} and table.product_ids(5, 0) == {5: 1}
    assert all(0 not in key for key in table._products)


def _nonzero_pair(table):
    """Two classes of degree 2 whose product is nonzero."""
    for uid in table._by_length[2]:
        for vid in table._by_length[2]:
            if table.product_ids(uid, vid):
                return uid, vid
    raise AssertionError("no nonzero product of two degree-2 classes")


def _break_generation(monkeypatch):
    monkeypatch.setattr(sc.ProductTable, "_mult_degree_one", lambda self, k, vec: {})


def _break_exactness(monkeypatch):
    # a denominator 7 times too large leaves c / 7 for every coefficient c
    solution = sc.linalg.rref_solution

    def scaled(*args):
        denom, terms = solution(*args)
        return 7 * denom, terms

    monkeypatch.setattr(sc.linalg, "rref_solution", scaled)


@pytest.mark.parametrize("breaker, message", [
    (_break_generation, "degree-two generation failed"),
    (_break_exactness, "non-integral structure constant"),
])
def test_engine_invariants_raise_typed_errors(monkeypatch, breaker, message):
    rs = build_root_system("A3")
    uid, vid = _nonzero_pair(sc.ProductTable(rs))
    breaker(monkeypatch)
    with pytest.raises(sc.ProductTableError, match=message):
        sc.ProductTable(rs).product_ids(uid, vid)
    # the one broken-identity error that the CLI maps to exit 3
    with pytest.raises(cone.ConsistencyError, match=message):
        sc.ProductTable(rs).product_ids(uid, vid)


SRC = Path(__file__).resolve().parents[1] / "src"

# checks that were bare asserts, which python -O skips: two public
# constructors fed a zero coefficient and a non-cover, and an inversion set
# whose size is not the element's length (an element that claims length 1
# but fixes rho). (expression, error class, start of the message)
TYPED_ERRORS = {
    "zero-coefficient": (
        "schubert.SchubertClass(P, {e: 0}, P.dim_flag)",
        "ValueError", "a Schubert class stores no zero coefficient",
    ),
    "non-cover": (
        "weyl.CoverDatum(e, e, (1, 0))",
        "ValueError", "e is not a cover of e",
    ),
    "inversion-count": (
        "weyl.inversion_set(types.SimpleNamespace("
        "root_system=rs, act=e.act, length=1, word_str=lambda: 'fake'))",
        "ConsistencyError", "fake has length 1 but 0 inversions",
    ),
}
TYPED_ERROR_SCOPE = (
    "import types\n"
    "from eigencone import schubert, weyl\n"
    "from eigencone.cone import ConsistencyError\n"
    "from eigencone.rootdata import ParabolicSpec, build_root_system\n"
    "rs = build_root_system('A2')\n"
    "P = ParabolicSpec.maximal(rs, 1)\n"
    "e = weyl.identity(rs)\n"
)


@pytest.mark.parametrize("case", sorted(TYPED_ERRORS))
def test_bare_assert_checks_raise_typed_errors(case):
    expr, error, message = TYPED_ERRORS[case]
    scope = {}
    exec(TYPED_ERROR_SCOPE, scope)
    with pytest.raises(eval(error, scope), match=message):
        eval(expr, scope)


def test_bare_assert_checks_raise_typed_errors_under_optimize():
    script = TYPED_ERROR_SCOPE + (
        f"for expr, error, message in {sorted(TYPED_ERRORS.values())!r}:\n"
        "    try:\n"
        "        eval(expr)\n"
        "    except (ValueError, ConsistencyError) as exc:\n"
        "        if type(exc).__name__ == error and str(exc).startswith(message):\n"
        "            continue\n"
        "        raise\n"
        "    raise SystemExit(f'no {error}: {expr}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
