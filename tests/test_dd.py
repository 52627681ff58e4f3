"""Regression gate and brute-force cross-check for the double description.

The digests below were recorded from the original engine (full scan of
every ray in play per adjacency test); any rewrite of ``cone._dd`` must
reproduce the same sorted ray lists, whatever the row order.
"""

import hashlib
import itertools
import random

import pytest

from eigencone import cone, linalg, rays
from eigencone.linalg import clear_denominators
from eigencone.rootdata import build_root_system

# type -> (ray count, sha256 of rays_to_text(sorted rays)) for s = 3
GATE = {
    "A2": (
        8,
        "2303b650cb0fb5f4003a9c18fb55c9936d0d1fc5f38e7a444feee06480bef83e",
    ),
    "B2": (
        12,
        "89123a9715795cc035d44d03049b69575047d17bd02df9308d89dfd09aee605b",
    ),
    "G2": (
        24,
        "453472f20a7ecd0c2e5ce8e2c952813a025e58ab5ccf3277338ac2fbb68fe415",
    ),
    "A3": (
        18,
        "838453bdac542c8fb4fda1658b81b81cc3dbab8ecb9df58e2bec8166612120f6",
    ),
    "B3": (
        51,
        "74edc3fb2e689809ee6869d136f2ab9f6bf062995b1a65b82d9e9c6de636f9be",
    ),
    "C3": (
        51,
        "0bd687aa0864c89fc5dab9d0c38f796cc287921aaa4717c55c418da19be963d8",
    ),
}


def _digest(ray_list):
    return hashlib.sha256(cone.rays_to_text(ray_list).encode()).hexdigest()


@pytest.mark.parametrize("typ", sorted(GATE))
def test_gamma_cone_rays_match_recorded(typ):
    count, digest = GATE[typ]
    h = rays.gamma_hrep(build_root_system(typ), 3)
    got = cone.extremal_rays(h)
    assert len(got) == count
    assert _digest(got) == digest
    rows = list(h.inequalities)
    random.Random(0).shuffle(rows)
    shuffled = cone.HRep(h.dim, rows, list(h.equalities))
    assert cone.extremal_rays(shuffled) == got


def _brute_force_rays(rows, n):
    """Primitive generators of every 1-dim solution space of n-1 rows that
    satisfy the whole system."""
    out = set()
    for subset in itertools.combinations(rows, n - 1):
        null = linalg.nullspace([list(r) for r in subset], ncols=n)
        if len(null) != 1:
            continue
        v = clear_denominators(null[0])
        for cand in (v, tuple(-x for x in v)):
            if all(sum(a * b for a, b in zip(r, cand)) >= 0 for r in rows):
                out.add(cand)
    return sorted(out)


def _random_pointed_rows(rng, n):
    while True:
        rows = [
            tuple(rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(n))
            for _ in range(rng.randint(n, 9))
        ]
        if linalg.rank([list(r) for r in rows]) == n:
            return rows


@pytest.mark.parametrize("seed", range(60))
def test_extremal_rays_match_brute_force(seed):
    rng = random.Random(seed)
    n = 3 + seed % 3
    rows = _random_pointed_rows(rng, n)
    expected = _brute_force_rays(rows, n)
    assert cone.extremal_rays(cone.HRep(n, rows)) == expected
    rng.shuffle(rows)
    assert cone.extremal_rays(cone.HRep(n, rows)) == expected
