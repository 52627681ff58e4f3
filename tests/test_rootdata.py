import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eigencone import rays, schubert
from eigencone import rootdata as rd
from eigencone.weyl import identity, minimal_reps, reflection, weyl_group
from test_weyl import word_matrix

SRC = Path(__file__).resolve().parents[1] / "src"


def _alpha(rs, i):
    """The simple root alpha_i as a weight."""
    return rs.root_to_weight(rs.simple_roots[i - 1])


def _form(lam, mu):
    """(lam, mu) under the normalized invariant form, from the simple-root
    coordinates of both: sum_ij lam_i mu_j d_i a_ij, where d_i a_ij is
    symmetric."""
    rs = lam.root_system
    a, b = lam.to_root_basis(), mu.to_root_basis()
    return sum(
        a[i] * b[j] * rs.d[i] * rs.cartan_matrix[i][j]
        for i in range(rs.rank)
        for j in range(rs.rank)
    )


@pytest.mark.parametrize(
    "label,count",
    [
        ("A1", 1),
        ("A2", 3),
        ("A3", 6),
        ("B2", 4),
        ("B3", 9),
        ("C3", 9),
        ("D4", 12),
        ("G2", 6),
        ("F4", 24),
        ("E6", 36),
        ("A1xA1xA1", 3),
        ("A1xA3", 7),
    ],
)
def test_positive_root_counts(label, count):
    assert len(rd.build_root_system(label).positive_roots) == count


def test_d4_cartan_row_at_branch_node(d4):
    assert d4.cartan_matrix[1] == (-1, 2, -1, -1)


def test_a1_basics():
    a1 = rd.build_root_system("A1")
    assert a1.rho.coords == (Fraction(1),)
    assert a1.omega(1).to_root_basis() == (Fraction(1, 2),)


def test_unknown_label_rejected():
    with pytest.raises(ValueError, match="Z9"):
        rd.build_root_system("Z9")
    with pytest.raises(ValueError, match="E9"):
        rd.build_root_system("E9")


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2", "F4"])
def test_omega_alpha_duality(label):
    rs = rd.build_root_system(label)
    for i in range(1, rs.rank + 1):
        for j in range(1, rs.rank + 1):
            alpha = tuple(int(t == j - 1) for t in range(rs.rank))
            assert rd.pair(rs.omega(i), alpha) == int(i == j)


def test_pair_cartan_entry(d4):
    alpha1 = (1, 0, 0, 0)
    assert rd.pair(_alpha(d4, 2), alpha1) == -1


def test_pair_rejects_nonroot(d4):
    with pytest.raises(ValueError):
        rd.pair(d4.rho, (1, 0, 0, 1))


def test_rho_highest_root_pairing(d4):
    # simply laced: <rho, beta^vee> is the root height; check against a
    # direct height computation for every positive root
    for beta in d4.positive_roots:
        assert rd.pair(d4.rho, beta) == sum(beta)
    theta = max(d4.positive_roots, key=sum)
    assert rd.pair(d4.rho, theta) == 5


def test_eval_x_examples(d4):
    a1 = rd.build_root_system("A1")
    assert rd.eval_x(a1.omega(1), 1) == Fraction(1, 2)
    a2 = rd.build_root_system("A2")
    assert rd.eval_x(a2.rho, 1) == 1
    w = d4.weight((-1, 2, -1, -1))
    assert rd.eval_x(w, 2) == 1  # this weight is alpha_2 itself
    assert w.coords == _alpha(d4, 2).coords


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4", "G2"])
def test_reflection_closure(label):
    rs = rd.build_root_system(label)
    for beta in rs.positive_roots:
        for i in range(1, rs.rank + 1):
            # coroot raises ValueError for a vector that is not a root
            assert rs.coroot(rs.reflect_root(i, beta))


@pytest.mark.parametrize("label", ["A1", "B2", "D4", "G2", "A1xA1"])
def test_rho_is_sum_of_fundamental_weights(label):
    rs = rd.build_root_system(label)
    total = rs.zero_weight()
    for i in range(1, rs.rank + 1):
        total = total + rs.omega(i)
    assert total.coords == rs.rho.coords


@pytest.mark.parametrize("label", ["A3", "B2", "D4", "G2"])
def test_form_ties_eval_x(label):
    # (omega_k, mu) = eval_x(mu, k) (alpha_k, alpha_k)/2 on a generating set
    rs = rd.build_root_system(label)
    gens = [rs.omega(i) for i in range(1, rs.rank + 1)] + [rs.rho]
    for k in range(1, rs.rank + 1):
        alpha_k = _alpha(rs, k)
        for mu in gens:
            lhs = _form(rs.omega(k), mu)
            assert lhs == rd.eval_x(mu, k) * _form(alpha_k, alpha_k) / 2


def test_form_positive_on_roots(d4):
    for beta in d4.positive_roots:
        bw = d4.root_to_weight(beta)
        assert _form(bw, bw) > 0


def _rho_l(P):
    """rho^L, half the sum of the Levi's positive roots, summed here from
    ``P.levi_positive_roots`` as Fraction coordinates."""
    rs = P.root_system
    total = rs.zero_weight()
    for b in P.levi_positive_roots:
        total = total + rs.root_to_weight(b)
    return tuple(Fraction(c, 2) for c in total.coords)


def test_rho_l_cases(d4):
    # schubert._levi_rho(P) is w_{0,P} rho = rho - 2 rho^L
    def check(P, rho_l):
        assert _rho_l(P) == rho_l
        want = tuple(r - 2 * c for r, c in zip(d4.rho.coords, rho_l))
        assert schubert._levi_rho(P) == want

    check(rd.ParabolicSpec.borel(d4), (0, 0, 0, 0))
    full = rd.ParabolicSpec(d4, {1, 2, 3, 4})
    check(full, d4.rho.coords)
    assert schubert._levi_rho(full) == tuple(-c for c in d4.rho.coords)
    p134 = rd.ParabolicSpec(d4, {1, 3, 4})
    expected = tuple(
        Fraction(1, 2) * x
        for x in (
            a + b + c
            for a, b, c in zip(
                _alpha(d4, 1).coords, _alpha(d4, 3).coords, _alpha(d4, 4).coords
            )
        )
    )
    check(p134, expected)


def _levi_labels(P):
    """Cartan labels of the Levi components, through levi_factor."""
    return [P.levi_factor(c)[0].cartan_label for c in P.levi_components()]


def test_parabolic_levi_structure(d4):
    p134 = rd.ParabolicSpec(d4, {1, 3, 4})
    assert _levi_labels(p134) == ["A1", "A1", "A1"]
    assert len(p134.levi_positive_roots) == 3
    p4 = rd.ParabolicSpec.maximal(d4, 4)
    assert _levi_labels(p4) == ["A3"]
    assert p4.dim_flag == 6
    p2 = rd.ParabolicSpec.maximal(d4, 2)
    assert p2.dim_flag == 9
    for beta in p2.levi_positive_roots:
        assert beta[1] == 0


def test_parabolic_rejects_bad_index(d4):
    with pytest.raises(ValueError):
        rd.ParabolicSpec(d4, {5})


def test_classifier_on_levis():
    b3 = rd.build_root_system("B3")
    p = rd.ParabolicSpec(b3, {2, 3})
    assert _levi_labels(p) == ["B2"]
    c3 = rd.build_root_system("C3")
    p = rd.ParabolicSpec(c3, {2, 3})
    assert _levi_labels(p) == ["C2"]
    d4 = rd.build_root_system("D4")
    p = rd.ParabolicSpec(d4, {1, 2, 3})
    assert _levi_labels(p) == ["A3"]


def _symmetrizer(cartan):
    """Reference d: half squared lengths by a walk of the Dynkin diagram,
    d_j / d_i = a_ij / a_ji, long roots of each component at 1."""
    n = len(cartan)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        comp = [start]
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    comp.append(j)
                    stack.append(j)
        top = max(d[i] for i in comp)
        for i in comp:
            d[i] /= top
    return tuple(d)


def _components_bfs(P):
    """Reference components of Delta(P): a search of the Dynkin diagram from
    the least unvisited node."""
    cartan = P.root_system.cartan_matrix
    comps = []
    unvisited = set(P.delta_P)
    while unvisited:
        start = min(unvisited)
        comp = {start}
        stack = [start]
        unvisited.remove(start)
        while stack:
            i = stack.pop()
            for j in list(unvisited):
                if cartan[i - 1][j - 1] != 0:
                    comp.add(j)
                    unvisited.remove(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps


ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "A1xA1xA1", "B2xG2", "A2xD4", "C3xA1"]
)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_d_and_levi_components_match_diagram_walks(label):
    # every Delta(P), all 2^8 of each rank-8 type included
    rs = rd.build_root_system(label)
    assert rs.d == _symmetrizer(rs.cartan_matrix)
    assert all(type(x) is Fraction for x in rs.d)
    for r in range(rs.rank + 1):
        for delta in itertools.combinations(range(1, rs.rank + 1), r):
            P = rd.ParabolicSpec(rs, delta)
            assert P.levi_components() == _components_bfs(P)


# Levi types of P_1, .., P_n, each in order of its components' least node;
# F4's P_1 is C3 numbered in reverse (alpha_2 long, alpha_3 and alpha_4 short)
MAXIMAL_LEVI_TYPES = {
    "B4": [["B3"], ["A1", "B2"], ["A2", "A1"], ["A3"]],
    "C4": [["C3"], ["A1", "C2"], ["A2", "A1"], ["A3"]],
    "D5": [["D4"], ["A1", "A3"], ["A2", "A1", "A1"], ["A4"], ["A4"]],
    "D6": [["D5"], ["A1", "D4"], ["A2", "A3"], ["A3", "A1", "A1"], ["A5"], ["A5"]],
    "G2": [["A1"], ["A1"]],
    "F4": [["C3"], ["A1", "A2"], ["A2", "A1"], ["B3"]],
    "E6": [["D5"], ["A5"], ["A1", "A4"], ["A2", "A1", "A2"], ["A4", "A1"], ["D5"]],
    "E7": [
        ["D6"], ["A6"], ["A1", "A5"], ["A2", "A1", "A3"], ["A4", "A2"],
        ["D5", "A1"], ["E6"],
    ],
    "E8": [
        ["D7"], ["A7"], ["A1", "A6"], ["A2", "A1", "A4"], ["A4", "A3"],
        ["D5", "A2"], ["E6", "A1"], ["E7"],
    ],
}


@pytest.mark.parametrize("label", sorted(MAXIMAL_LEVI_TYPES))
def test_levi_types_of_maximal_parabolics(label):
    rs = rd.build_root_system(label)
    got = [
        _levi_labels(rd.ParabolicSpec.maximal(rs, k)) for k in range(1, rs.rank + 1)
    ]
    assert got == MAXIMAL_LEVI_TYPES[label]


@pytest.mark.parametrize("label", [t for t in ALL_TYPES if t != "D3" and "x" not in t])
def test_levi_type_of_the_whole_diagram(label):
    # the Levi of Delta(P) = Delta is G itself
    rs = rd.build_root_system(label)
    full = rd.ParabolicSpec(rs, range(1, rs.rank + 1))
    assert _levi_labels(full) == [label]


def test_parsed_label_is_kept():
    # D3 is A3 as a Levi type, but a parsed label stays as written
    d3 = rd.build_root_system("D3")
    assert d3.cartan_label == "D3"
    assert _levi_labels(rd.ParabolicSpec(d3, {1, 2, 3})) == ["A3"]


def test_unlabelled_root_system_is_named_when_built():
    # F4's block at {2, 3, 4} is C3 numbered in reverse; built without a
    # label, the root system already carries the one levi_factor gives it
    f4 = rd.build_root_system("F4")
    a = f4.cartan_matrix
    rs = rd.RootSystem([[a[i][j] for j in (1, 2, 3)] for i in (1, 2, 3)])
    P = rd.ParabolicSpec(f4, {2, 3, 4})
    assert rs.cartan_label == P.levi_factor((2, 3, 4))[0].cartan_label == "C3"


COROOT_TABLE_SIZES = {
    "A2": 3, "B2": 4, "B3": 9, "C3": 9, "C4": 16, "G2": 6, "F4": 24,
    "D4": 12, "E6": 36, "A1xA1": 2,
}


@pytest.mark.parametrize("label", list(COROOT_TABLE_SIZES))
def test_coroot_table_against_invariant_form(label):
    # the stored integer coroot against 2 (lam, beta) / (beta, beta) from the
    # invariant form, for every root of both signs
    rs = rd.build_root_system(label)
    assert len(rs.positive_roots) == COROOT_TABLE_SIZES[label]
    roots = list(rs.positive_roots) + [
        tuple(-m for m in b) for b in rs.positive_roots
    ]
    e = identity(rs)
    for beta in roots:
        bw = rs.root_to_weight(beta)
        norm = _form(bw, bw)
        for i in range(1, rs.rank + 1):
            om = rs.omega(i)
            assert rd.pair(om, beta) == 2 * _form(om, bw) / norm
            assert rd.pair(om, beta) == rs.coroot(beta)[i - 1]
        assert rd.pair(bw, beta) == 2
        s = reflection(rs, beta)
        assert s.compose(s) == e
        assert s.act(bw).coords == (-bw).coords
        assert s.act_root(beta) == tuple(-m for m in beta)


def test_coroot_rejects_nonroot(d4):
    with pytest.raises(ValueError, match="not a root"):
        d4.coroot((1, 0, 0, 1))


@pytest.mark.parametrize("label", ["A2", "B3", "G2", "D4"])
def test_integral_values_are_int(label):
    # integral data stays int; Fraction appears only where a division makes
    # one, and never float
    def exact(values):
        return all(type(c) in (int, Fraction) for c in values)

    rs = rd.build_root_system(label)
    n = rs.rank
    for i in range(1, n + 1):
        assert all(type(c) is int for c in rs.omega(i).coords)
    for w in weyl_group(rs):
        for i in range(1, n + 1):
            assert all(type(c) is int for c in w.act(rs.omega(i)).coords)
    for beta in rs.positive_roots:
        s = reflection(rs, beta)
        assert all(type(x) is int for x in s.rho)
        assert all(type(x) is int for row in word_matrix(s) for x in row)
        assert type(rd.pair(rs.rho, beta)) is int
    vec = tuple(range(3 * n))
    back = rays.RayTuple.from_vector(rs, 3, vec)
    assert all(type(c) is int for c in back.to_vector())
    for k in range(1, n + 1):
        P = rd.ParabolicSpec.maximal(rs, k)
        x = rays.RayTuple((rs.omega(k), rs.rho, rs.zero_weight()))
        for w in rays.shift_to_degree0(x, P).weights:
            assert exact(w.coords)
        for w in minimal_reps(P):
            assert all(type(c) is int for c in schubert.chi(w, P).coords)


# weights and Weyl elements of two root systems, combined; under -O the
# bare asserts these replaced vanished, and A2 (1,1) + D4 (1,0,0,0) gave
# A2 (2,1)
MIXED = {
    "Weight.__add__": "a.weight((1, 1)) + d.weight((1, 0, 0, 0))",
    "Weight.__sub__": "d.weight((1, 0, 0, 0)) - a.weight((1, 1))",
    "WeylElem.act": "weyl_group(d).longest.act(a.weight((1, 1)))",
    "WeylElem.compose": "weyl_group(a).longest.compose(weyl_group(d).longest)",
}


@pytest.mark.parametrize("op", sorted(MIXED))
def test_mixed_root_systems_are_value_errors(op):
    scope = {
        "a": rd.build_root_system("A2"),
        "d": rd.build_root_system("D4"),
        "weyl_group": weyl_group,
    }
    with pytest.raises(ValueError, match="A2 and D4|D4 and A2"):
        eval(MIXED[op], scope)


def test_mixed_root_systems_are_value_errors_under_optimize():
    script = (
        "from eigencone.rootdata import build_root_system\n"
        "from eigencone.weyl import weyl_group\n"
        "a, d = build_root_system('A2'), build_root_system('D4')\n"
        f"for expr in {sorted(MIXED.values())!r}:\n"
        "    try:\n"
        "        eval(expr)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'no ValueError: {expr}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
