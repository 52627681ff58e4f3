"""The benchmark's workloads: fixed exact-arithmetic problems and their checks.

Each workload drives the public library API the way the matching CLI
subcommand does, times every query it makes, and checks every output
exactly against ``expected.json`` (digests recorded from the seed code),
the golden tables shipped with the package, or the invariant oracle.
"""

import hashlib
import json
import random
import time
from importlib import resources

from eigencone import cone, faces, rays
from eigencone.rootdata import ParabolicSpec
from eigencone.weyl import parse_word

S = 3  # factors in every tensor product here, as in the paper


def digest(lines):
    """sha256 of an output rendered one item per line."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _golden(name):
    return json.loads(resources.files("eigencone").joinpath(f"golden/{name}.json").read_text())


def _coords(ray_tuple):
    return [[int(c) for c in w.coords] for w in ray_tuple.primitive().weights]


class Context:
    """What one repetition of a workload reads and records."""

    def __init__(self, root_systems, expected, seed):
        self.rs = root_systems
        self.expected = expected
        self.seed = seed
        self.query_s = []
        self.attempted = 0
        self.failures = []

    def timed(self, fn, *args):
        """Run one query, a top-level library call, and record its CPU time."""
        start = time.process_time()
        out = fn(*args)
        self.query_s.append(time.process_time() - start)
        return out

    def check(self, label, got, want):
        self.attempted += 1
        if got != want:
            self.failures.append(f"{label}: got {got!r}, expected {want!r}")


def _cone_rays(rs):
    """`cone-rays`: H-rep of the full cone, double description, ray tuples."""
    out = cone.extremal_rays(rays.gamma_hrep(rs, S))
    return [rays.RayTuple.from_vector(rs, S, r, "dd").to_json()["weights"] for r in out]


def _check_cone(ctx, label):
    got = ctx.timed(_cone_rays, ctx.rs[label])
    want = ctx.expected[f"{label}_cone"]
    ctx.check(f"{label} ray count", len(got), want["rays"])
    ctx.check(f"{label} ray digest", digest(json.dumps(r) for r in got), want["digest"])


def d4_cone(ctx):
    _check_cone(ctx, "D4")


def a2_cone(ctx):
    _check_cone(ctx, "A2")


def _facet_lines(facet_list):
    return (f"{list(f.P.complement)}: {' ; '.join(w.word_str() for w in f.words)}"
            for f in facet_list)


def _facets_cold_then_warm(rs):
    """`facets` then `facets --quotient-symmetry` in one process: the second
    call scans tuples against a product table the first one filled."""
    return (faces.enumerate_regular_facets(S, rs),
            faces.enumerate_regular_facets(S, rs, quotient_symmetry=True))


def bc4_facets(ctx):
    for label in ("B4", "C4"):
        plain, quotient = ctx.timed(_facets_cold_then_warm, ctx.rs[label])
        want = ctx.expected[f"{label}_facets"]
        ctx.check(f"{label} facet count", len(plain), want["facets"])
        ctx.check(f"{label} facet digest", digest(_facet_lines(plain)), want["digest"])
        ctx.check(f"{label} quotient facet count", len(quotient), want["quotient_facets"])
        ctx.check(f"{label} quotient facet digest", digest(_facet_lines(quotient)),
                  want["quotient_digest"])


def _face_report(P, words_text):
    """`face-rays`: validate the facet datum, then classify the face."""
    rs = P.root_system
    face = faces.FaceSpec(S, P, tuple(parse_word(rs, w) for w in words_text)).validate()
    return rays.classify_face(face)


def _ray_set_digest(ray_tuples):
    return digest(sorted(json.dumps(_coords(r)) for r in ray_tuples))


def d4_faces(ctx):
    rs = ctx.rs["D4"]
    main = _golden("subbie")
    table = _golden("p4_table")
    want = ctx.expected["D4_faces"]
    # The full cone's H-rep is shared by every face; build it before the
    # per-face queries so that their latencies compare like with like.
    rays.gamma_hrep(rs, S)
    P2 = ParabolicSpec.maximal(rs, main["parabolic"][0])
    rep = ctx.timed(_face_report, P2, main["words"])
    ctx.check("main face [q, c, total]", [rep.q, rep.zero_count, rep.total],
              [main["q"], main["c"], main["total"]])
    ctx.check("main face type I rays", sorted(_coords(r) for r in rep.basic_rays),
              sorted(main["type1"]))
    ctx.check("main face type II rays", sorted(_coords(r) for r in rep.type2_rays),
              sorted(main["type2"]))
    P4 = ParabolicSpec.maximal(rs, table["parabolic"][0])
    for row, digests in zip(table["rows"], want["p4_rays"]):
        rep = ctx.timed(_face_report, P4, row["words"])
        label = "(" + ", ".join(row["words"]) + ")"
        ctx.check(f"{label} [q, c, exotic, total]",
                  [rep.q, rep.zero_count, len(rep.exotic), rep.total],
                  [row["q"], row["c"], row["exotic"], row["total"]])
        ctx.check(f"{label} type I/II ray digests",
                  [_ray_set_digest(rep.basic_rays), _ray_set_digest(rep.type2_rays)], digests)
        if "exotic_ray" in row:
            ctx.check(f"{label} exotic ray", [_coords(r) for r in rep.exotic], [row["exotic_ray"]])


# The membership pool is fixed and the seed only shuffles the order in which
# it is queried. Each query's work does not depend on its position: the
# oracle's weight-multiplicity caches are filled once per distinct weight
# whichever query asks first, and ``tens_membership`` stops at the first
# violated facet, which depends on the triple, not on the order. So every
# seed does the same total work with the same recorded answers, and the
# spread of ``solve_s`` across seeds measures the machine, not the draw.
# (Images of the pool under the D4 diagram automorphisms would keep the
# answers too, but they move where a non-member first fails: its
# ``tens_membership`` cost changes up to sixfold with the image.)
MEMBERSHIP_POOL_SEED = 20180309
MEMBERSHIP_POOL_SIZE = 12
ORACLE_MAX_N = 3
ORACLE_MAX_HEIGHT = 200


def membership_pool():
    rng = random.Random(MEMBERSHIP_POOL_SEED)
    return [[[rng.randint(0, 2) for _ in range(4)] for _ in range(S)]
            for _ in range(MEMBERSHIP_POOL_SIZE)]


def membership_order(seed):
    """Pool indices in the order that ``seed`` asks them."""
    order = list(range(MEMBERSHIP_POOL_SIZE))
    random.Random(seed).shuffle(order)
    return order


def _membership_query(rs, rows):
    """`membership --oracle-max-n 3`, with the oracle also asked to confirm
    that a non-member has no invariants: (member, witness n or dim at n=1)."""
    x = rays.RayTuple(tuple(rs.weight(r) for r in rows))
    if not faces.tens_membership(x.weights):
        return False, rays.invariant_dim(x, max_height=ORACLE_MAX_HEIGHT)
    for n in range(1, ORACLE_MAX_N + 1):
        if rays.invariant_dim(x.scale(n), max_height=ORACLE_MAX_HEIGHT) > 0:
            return True, n
    return True, None


def d4_membership(ctx):
    rs = ctx.rs["D4"]
    want = ctx.expected["D4_membership"]
    # The facet data is read by every query; compute it before the first.
    faces.enumerate_regular_facets(S, rs)
    pool = membership_pool()
    for i in membership_order(ctx.seed):
        rows = pool[i]
        member, n = ctx.timed(_membership_query, rs, rows)
        ctx.check(f"query {i} {rows} [member, oracle]", [member, n], want[i])
        if member:
            ctx.check(f"query {i} certified by the oracle", n is not None, True)
        else:
            ctx.check(f"query {i} non-member has no invariants", n, 0)


# name -> (root systems built during set-up, solve function)
WORKLOADS = {
    "d4_cone": (("D4",), d4_cone),
    "bc4_facets": (("B4", "C4"), bc4_facets),
    "d4_faces": (("D4",), d4_faces),
    "d4_membership": (("D4",), d4_membership),
    "a2_cone": (("A2",), a2_cone),
}
