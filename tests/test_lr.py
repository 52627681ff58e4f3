"""An independent type-A route to the regular facets: Littlewood-Richardson.

Every maximal parabolic P_k of A_n gives the Grassmannian Gr(k, n + 1),
which is cominuscule, so the deformed product equals the cup product
(Belkale-Kumar 2006), and the regular facets of the s = 3 cone are the
triples of Schubert classes with intersection number 1 (Belkale 2001;
Knutson-Tao-Woodward 2004). Here that number is the Littlewood-Richardson
coefficient c_{lambda mu}^{nu^vee}, counted with LR tableaux; nothing of the
Schubert product table is used. The map from W^P to partitions reads the
k-subset w({1..k}) off w(omega_k).
"""

import itertools

import pytest

from eigencone.faces import enumerate_regular_facets
from eigencone.rootdata import ParabolicSpec, build_root_system
from eigencone.weyl import minimal_reps


def subset_of(w, k):
    """w({1..k}) as a sorted tuple in 1..n+1: w(omega_k) is e_w(1) + .. +
    e_w(k) modulo the trace, and epsilon coordinate j of a weight with
    fundamental coordinates c is c_j + .. + c_n, up to a constant."""
    c = w.act(w.root_system.omega(k)).coords
    eps = [sum(c[j:]) for j in range(len(c) + 1)]
    top = max(eps)
    return tuple(j + 1 for j, e in enumerate(eps) if e == top)


def partition(subset, k, m):
    """The codimension partition of the Schubert class of a k-subset of
    1..k+m in the k x m box: lambda_i = m + i - s_i."""
    return tuple(m + i - s for i, s in enumerate(subset, 1))


def complement(lam, k, m):
    """The partition whose Schubert class is dual to lam in the k x m box."""
    return tuple(m - lam[k - 1 - i] for i in range(k))


def lr_coefficient(lam, mu, nu):
    """c_{lam mu}^nu: the number of LR tableaux of shape nu / lam and content
    mu, filled in reading order (rows top to bottom, each right to left),
    each entry at most the one to its right, above the one below the cell
    above, and the reading word a lattice word."""
    lam = [p for p in lam if p]
    mu = [p for p in mu if p]
    nu = [p for p in nu if p]
    lam += [0] * (len(nu) - len(lam))
    if len(lam) > len(nu) or any(a > b for a, b in zip(lam, nu)):
        return 0
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    cells = [(r, c) for r in range(len(nu)) for c in range(nu[r] - 1, lam[r] - 1, -1)]
    filled = {}
    count = [0] * (len(mu) + 1)

    def fill(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        hi = filled.get((r, c + 1), len(mu))
        lo = filled.get((r - 1, c), 0) + 1
        total = 0
        for v in range(lo, hi + 1):
            if count[v] == mu[v - 1] or (v > 1 and count[v] == count[v - 1]):
                continue
            count[v] += 1
            filled[r, c] = v
            total += fill(i + 1)
            count[v] -= 1
        filled.pop((r, c), None)
        return total

    return fill(0)


def lr_facets(n):
    """{(k, three k-subsets)} of the regular facets of the s = 3 cone of A_n,
    from the Littlewood-Richardson rule alone."""
    out = set()
    for k in range(1, n + 1):
        m = n + 1 - k
        by_size = {}
        for subset in itertools.combinations(range(1, n + 2), k):
            lam = partition(subset, k, m)
            by_size.setdefault(sum(lam), []).append((subset, lam))
        classes = [x for size in sorted(by_size) for x in by_size[size]]
        for (a, lam), (b, mu) in itertools.product(classes, repeat=2):
            for c, nu in by_size.get(k * m - sum(lam) - sum(mu), ()):
                if lr_coefficient(lam, mu, complement(nu, k, m)) == 1:
                    out.add((k, (a, b, c)))
    return out


def engine_facets(n):
    """The same set read off ``enumerate_regular_facets(3, A_n)``."""
    rs = build_root_system(f"A{n}")
    return [
        (face.P.complement[0], tuple(subset_of(w, face.P.complement[0]) for w in face.words))
        for face in enumerate_regular_facets(3, rs)
    ]


@pytest.mark.parametrize("lam, mu, nu, want", [
    ((2, 1), (2, 1), (3, 2, 1), 2),
    ((3, 2, 1), (2, 1), (4, 3, 2), 2),
    ((1,), (1,), (2,), 1),
    ((1,), (1,), (1, 1), 1),
    ((2,), (2,), (2, 2), 1),
    ((2, 1), (1,), (2, 1, 1), 1),
    ((2, 1), (2, 1), (4, 2), 1),
    ((2,), (1,), (1, 1, 1), 0),
])
def test_lr_coefficients(lam, mu, nu, want):
    assert lr_coefficient(lam, mu, nu) == want
    assert lr_coefficient(mu, lam, nu) == want


def test_subsets_of_w_p_are_the_k_subsets():
    # the map W^P -> k-subsets is a bijection that sends length to size
    rs = build_root_system("A4")
    for k in range(1, 5):
        reps = minimal_reps(ParabolicSpec.maximal(rs, k))
        subsets = [subset_of(w, k) for w in reps]
        assert sorted(subsets) == list(itertools.combinations(range(1, 6), k))
        for w, subset in zip(reps, subsets):
            assert w.length == sum(s - i for i, s in enumerate(subset, 1))


@pytest.mark.parametrize("n, count", [(1, 3), (2, 12), (3, 41), (4, 142), (5, 521), (6, 2042)])
def test_type_a_facets_match_the_littlewood_richardson_rule(n, count):
    got = engine_facets(n)
    assert len(got) == len(set(got)) == count
    assert set(got) == lr_facets(n)
