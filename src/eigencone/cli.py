"""Command-line front end.

Subcommands: facets, face-rays, divisor, induct, membership, cone-rays,
reproduce. Exit codes: 0 success, 2 argument/parse error, 3 mathematical
precondition failure, 4 golden-value mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

from . import cone, faces, rays, schubert
from .rootdata import CartanLabelError, ParabolicSpec, build_root_system
from .weyl import parse_word, simple_reflection

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_GOLDEN = 4


class ParseFailure(Exception):
    pass


def _count(text):
    """A non-negative integer option value; anything else is a parse error."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return n


def _parser():
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    p = argparse.ArgumentParser(
        prog="eigencone",
        description="Extremal rays of saturated tensor cones, exactly.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # s is an option only where no input fixes it; elsewhere it is the
    # number of --words or of --input rows
    def subcommand(name, help, s=False, face=False):
        sp = sub.add_parser(name, parents=[fmt], help=help)
        sp.add_argument("--type", required=True, dest="cartan")
        if s:
            sp.add_argument("--s", type=int, default=3)
        if face:
            sp.add_argument(
                "--parabolic",
                required=True,
                help="dropped simple indices, e.g. '2' or '1,2'",
            )
            sp.add_argument(
                "--words", required=True, help="semicolon-separated Weyl words"
            )
        return sp

    sp = subcommand("facets", "enumerate regular facet data", s=True)
    sp.add_argument("--quotient-symmetry", action="store_true")

    subcommand("face-rays", "full ray inventory of one face", face=True)

    sp = subcommand("divisor", "basic divisor class of a cover pair", face=True)
    sp.add_argument("--pair", required=True, help="j:word for the sub-cell")

    sp = subcommand("induct", "induction of a Levi weight tuple", face=True)
    sp.add_argument("--input", required=True, help="JSON list of weight rows")
    sp.add_argument(
        "--raw",
        action="store_true",
        help="apply the raw formula without the degree-0 shift",
    )

    sp = subcommand("membership", "saturated tensor cone membership")
    sp.add_argument("--input", required=True, help="JSON list of weight rows")
    sp.add_argument(
        "--oracle-max-n",
        type=_count,
        default=0,
        metavar="N",
        help="also certify membership with the invariant oracle up to N",
    )

    subcommand("cone-rays", "all extremal rays of the cone", s=True)

    sp = sub.add_parser("reproduce", help="check a stored table")
    sp.add_argument(
        "target", choices=("ex1", "subbie", "apples", "p4-table")
    )
    return p


def _root_system(label):
    try:
        return build_root_system(label)
    except CartanLabelError as e:
        raise ParseFailure(str(e))


def _parabolic(rs, text):
    try:
        dropped = {int(t) for t in text.split(",")}
    except ValueError:
        raise ParseFailure(f"cannot parse parabolic spec {text!r}")
    try:
        return ParabolicSpec.dropping(rs, dropped)
    except ValueError as e:
        raise ParseFailure(str(e))


def _words(rs, text):
    try:
        return tuple(parse_word(rs, t.strip()) for t in text.split(";"))
    except ValueError as e:
        raise ParseFailure(str(e))


def _face(args):
    rs = _root_system(args.cartan)
    P = _parabolic(rs, args.parabolic)
    words = _words(rs, args.words)
    return faces.FaceSpec(len(words), P, words)


def _weight_tuple(rs, text):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseFailure(f"bad JSON input: {e}")
    if not isinstance(rows, list) or any(
        not isinstance(r, list) or len(r) != rs.rank for r in rows
    ):
        raise ParseFailure(f"expected a list of rows of {rs.rank} coordinates")
    return rays.RayTuple(
        tuple(rs.weight([_coordinate(c) for c in r]) for r in rows)
    )


def _coordinate(value):
    """A JSON integer (not a bool), or a string such as "1/2"."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseFailure(
        f"bad coordinate {value!r}: use an integer or a string like \"1/2\""
    )


def _ray_text(rt):
    return " ; ".join(
        " ".join(str(c) for c in w.coords) for w in rt.weights
    )


def _emit(args, payload, text_lines):
    if args.fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def _report_payload(rep):
    return {
        "face": faces.face_to_json(rep.face),
        "q": rep.q,
        "c": rep.zero_count,
        "total": rep.total,
        "type1": [r.to_json() for r in rep.basic_rays],
        "type2": [r.to_json() for r in rep.type2_rays],
        "exotic": [r.to_json() for r in rep.exotic],
        "induction": [
            [mu.to_json(), None if img.is_zero() else img.to_json()]
            for mu, img in rep.levi_rays
        ],
    }


def _report_lines(rep):
    lines = [
        f"face: {'; '.join(w.word_str() for w in rep.face.words)}  "
        f"(dropped nodes {list(rep.face.P.complement)})",
        f"q = {rep.q}   c = {rep.zero_count}   "
        f"exotic = {len(rep.exotic)}   total rays = {rep.total}",
        "type I rays:",
    ]
    lines += [f"  {_ray_text(r)}" for r in rep.basic_rays]
    lines.append("type II rays:")
    lines += [f"  {_ray_text(r)}" for r in rep.type2_rays]
    if rep.exotic:
        lines.append("exotic induced rays:")
        lines += [f"  {_ray_text(r)}" for r in rep.exotic]
    lines.append("induction of Levi rays:")
    for mu, img in rep.levi_rays:
        rhs = "0" if img.is_zero() else _ray_text(img)
        lines.append(f"  {_ray_text(mu)}  ->  {rhs}")
    return lines


def _cmd_facets(args):
    rs = _root_system(args.cartan)
    out = faces.enumerate_regular_facets(
        args.s, rs, quotient_symmetry=args.quotient_symmetry
    )
    payload = [faces.face_to_json(f) for f in out]
    lines = [
        f"P-{list(f.P.complement)}: " + " ; ".join(w.word_str() for w in f.words)
        for f in out
    ]
    lines.append(f"# {len(out)} facet data")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_face_rays(args):
    face = _face(args).validate()
    rep = rays.classify_face(face)
    _emit(args, _report_payload(rep), _report_lines(rep))
    return EXIT_OK


def _cmd_divisor(args):
    face = _face(args).validate()
    if ":" not in args.pair:
        raise ParseFailure("--pair must look like j:word")
    jtxt, word = args.pair.split(":", 1)
    try:
        j = int(jtxt)
    except ValueError:
        raise ParseFailure(f"bad pair index {jtxt!r}")
    if not 1 <= j <= face.s:
        raise ParseFailure(f"pair index {j} out of range")
    try:
        v = parse_word(face.root_system, word)
    except ValueError as e:
        raise ParseFailure(str(e))
    ray = rays.basic_divisor_class(face, j, v)
    # the JSON holds the primitive ray, the text the class as computed
    _emit(args, ray.primitive().to_json(), [_ray_text(ray)])
    return EXIT_OK


def _cmd_induct(args):
    face = _face(args).validate()
    x = _weight_tuple(face.root_system, args.input)
    if len(x.weights) != face.s:
        # induction pairs the rows with the words one to one
        raise ParseFailure(
            f"expected {face.s} rows of {face.root_system.rank} coordinates"
        )
    if args.raw:
        out = rays.induction_image(face, x)
    else:
        out = rays.induct(face, rays.shift_to_degree0(x, face.P))
    _emit(args, out.primitive().to_json(), [_ray_text(out)])
    return EXIT_OK


def _cmd_membership(args):
    rs = _root_system(args.cartan)
    x = _weight_tuple(rs, args.input)
    member = faces.tens_membership(x.weights)
    payload = {"member": member}
    lines = [f"member: {member}"]
    if member and args.oracle_max_n > 0:
        found = None
        for n in range(1, args.oracle_max_n + 1):
            y = x.scale(n)
            # the oracle takes integral weights only: skip n when n x is not
            integral = all(w.is_integral() for w in y.weights)
            if integral and rays.invariant_dim(y, max_height=200) > 0:
                found = n
                break
        payload["invariant_witness_n"] = found
        lines.append(f"invariant witness at N = {found}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_cone_rays(args):
    rs = _root_system(args.cartan)
    h = rays.gamma_hrep(rs, args.s)
    out = cone.extremal_rays(h)
    tuples = [rays.RayTuple.from_vector(rs, args.s, r, "dd") for r in out]
    payload = [t.to_json() for t in tuples]
    lines = [_ray_text(t) for t in tuples] + [f"# {len(out)} rays"]
    _emit(args, payload, lines)
    return EXIT_OK


# -- reproduce ---------------------------------------------------------


def _golden(name):
    ref = resources.files("eigencone").joinpath(f"golden/{name}.json")
    return json.loads(ref.read_text())


def _coords(rt):
    return [list(w.coords) for w in rt.weights]


class _Checks:
    def __init__(self):
        self.failures = []
        self.lines = []

    def check(self, label, got, want):
        ok = got == want
        self.lines.append(f"{'ok  ' if ok else 'FAIL'} {label}: {got}")
        if not ok:
            self.failures.append(f"{label}: got {got!r}, expected {want!r}")

    def finish(self):
        for line in self.lines:
            print(line)
        if self.failures:
            print("mismatches:")
            for f in self.failures:
                print(f"  - {f}")
            return EXIT_GOLDEN
        return EXIT_OK


def _reproduce_ex1():
    g = _golden("ex1")
    face = faces.face_from_json(g)
    rs = face.root_system
    ck = _Checks()
    movable, c = schubert.levi_movable(list(face.words), face.P)
    ck.check("deformed product coefficient", [movable, c], [True, g["deformed_coefficient"]])
    u, v, w = face.words
    s2u = simple_reflection(rs, 2).compose(u)
    s3v = simple_reflection(rs, 3).compose(v)
    ck.check(
        "ordinary triple (s2u, s3v, w)",
        schubert.multi_coeff([s2u, s3v, w], face.P),
        g["ordinary_triple_s2u_s3v_w"],
    )
    movable2, c2 = schubert.levi_movable([s2u, s3v, w], face.P)
    deformed2 = c2 if movable2 else 0
    ck.check(
        "deformed triple (s2u, s3v, w)", deformed2, g["deformed_triple_s2u_s3v_w"]
    )
    j, word = g["divisor_pair"]
    ray = rays.basic_divisor_class(face, j, parse_word(rs, word))
    ck.check("divisor class", _coords(ray.primitive()), g["divisor"])
    return ck.finish()


def _reproduce_subbie():
    g = _golden("subbie")
    face = faces.face_from_json(g).validate()
    rep = rays.classify_face(face)
    ck = _Checks()
    ck.check("q", rep.q, g["q"])
    ck.check("c", rep.zero_count, g["c"])
    ck.check("total rays", rep.total, g["total"])
    ck.check("countem identity", rep.zero_count,
             rep.q - (face.s - 1) * len(face.P.complement))
    got1 = sorted(_coords(r) for r in rep.basic_rays)
    ck.check("type I rays", got1, sorted(g["type1"]))
    got2 = sorted(_coords(r) for r in rep.type2_rays)
    ck.check("type II rays", got2, sorted(g["type2"]))
    table = {
        tuple(map(tuple, mu)): img for mu, img in
        (( _coords(m), None if i.is_zero() else _coords(i)) for m, i in rep.levi_rays)
    }
    for mu, img in g["induction_table"]:
        key = tuple(map(tuple, mu))
        ck.check(f"induction of {mu}", table.get(key, "missing"), img)
    return ck.finish()


def _reproduce_apples():
    g = _golden("apples")
    face = faces.face_from_json(g)
    rs = face.root_system
    ck = _Checks()
    om2 = rs.omega(2)
    for j, w in enumerate(face.words):
        ck.check(
            f"w_{j + 1} . omega_2",
            list(w.act(om2).coords),
            g["moved_omega2"][j],
        )
    zero = rs.zero_weight()
    induced = None
    for j in range(face.s):
        entries = [zero] * face.s
        entries[j] = om2
        out = rays.induction_image(face, rays.RayTuple(tuple(entries)))
        ck.check(
            f"single-entry induction, slot {j + 1}",
            [list(w.coords) for w in out.weights],
            g["induced"],
        )
        induced = out
    ck.check(
        "inequality value at x_2",
        int(faces.eval_inequality(face, induced, 2)),
        g["inequality_value_at_x2"],
    )
    ck.check(
        "membership", faces.tens_membership(induced.weights), g["member"]
    )
    return ck.finish()


def _reproduce_p4():
    g = _golden("p4_table")
    rs = build_root_system(g["type"])
    P = ParabolicSpec.dropping(rs, g["parabolic"])
    ck = _Checks()
    ck.check(
        "Levi ray count", len(rays.levi_cone_rays(P, g["s"])), g["levi_ray_count"]
    )
    for row in g["rows"]:
        words = tuple(parse_word(rs, t) for t in row["words"])
        face = faces.FaceSpec(g["s"], P, words).validate()
        rep = rays.classify_face(face)
        label = "(" + ", ".join(row["words"]) + ")"
        ck.check(
            f"{label} [q, c, exotic, total]",
            [rep.q, rep.zero_count, len(rep.exotic), rep.total],
            [row["q"], row["c"], row["exotic"], row["total"]],
        )
        if "exotic_ray" in row:
            ck.check(
                f"{label} exotic ray",
                sorted(_coords(r) for r in rep.exotic),
                sorted([row["exotic_ray"]]),
            )
            parts = [
                rays.RayTuple(tuple(rs.weight(r) for r in part))
                for part in row["exotic_sum_of"]
            ]
            total = parts[0] + parts[1]
            ck.check(
                f"{label} exotic decomposition adds up",
                _coords(total.primitive()),
                row["exotic_ray"],
            )
            # classify_face checks that these are the face's extremal rays
            ray_set = {r.to_vector() for r in rep.basic_rays + rep.type2_rays}
            ck.check(
                f"{label} decomposition parts extremal",
                all(p.primitive().to_vector() in ray_set for p in parts),
                True,
            )
    return ck.finish()


def _cmd_reproduce(args):
    target = {
        "ex1": _reproduce_ex1,
        "subbie": _reproduce_subbie,
        "apples": _reproduce_apples,
        "p4-table": _reproduce_p4,
    }[args.target]
    return target()


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_PARSE
    handlers = {
        "facets": _cmd_facets,
        "face-rays": _cmd_face_rays,
        "divisor": _cmd_divisor,
        "induct": _cmd_induct,
        "membership": _cmd_membership,
        "cone-rays": _cmd_cone_rays,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except ParseFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, rays.OracleLimitError, cone.ConsistencyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
