import json
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest

from eigencone import cli, rays
from eigencone.rootdata import build_root_system

SRC = Path(__file__).resolve().parents[1] / "src"

MAIN_WORDS = "s4 s3 s1 s2; s3 s1 s2 s4 s3 s1 s2; s1 s2 s4 s2 s3 s1 s2"
FACE_ARGS = ["--type", "D4", "--parabolic", "2", "--words", MAIN_WORDS]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_facets_a1(capsys):
    code, out = run(capsys, "facets", "--type", "A1")
    assert code == 0
    assert out.count("\n") >= 3


def test_facets_json(capsys):
    code, out = run(capsys, "facets", "--type", "A1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 3
    assert all(d["type"] == "A1" for d in data)


@pytest.mark.parametrize("command", ["facets", "cone-rays"])
def test_too_few_factors_is_math_error(capsys, command):
    code, _ = run(capsys, command, "--type", "A1", "--s", "2")
    assert code == 3


def test_too_few_factors_is_math_error_under_optimize():
    # asserts vanish under -O; the typed error must not
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["-O", "-m", "eigencone.cli", "facets", "--type", "A1", "--s", "2"]
    proc = subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr


def test_non_dominant_induction_is_math_error_under_optimize():
    # this degree-0 input induces to a non-dominant tuple; the check that
    # rejects it must survive -O
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [
        "-O", "-m", "eigencone.cli", "induct", "--type", "D4",
        "--parabolic", "2", "--words", MAIN_WORDS,
        "--input", "[[-5,0,3,0],[0,0,0,0],[0,0,0,0]]",
    ]
    proc = subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "not dominant" in proc.stderr


# each patch breaks one invariant of the Schubert product engine
ENGINE_BREAKERS = {
    "generation": "schubert.ProductTable._mult_degree_one = lambda self, k, vec: {}",
    "exactness": (
        "solution = linalg.rref_solution\n"
        "linalg.rref_solution = lambda *a: (7 * solution(*a)[0], solution(*a)[1])"
    ),
}


@pytest.mark.parametrize("breaker", sorted(ENGINE_BREAKERS))
def test_product_engine_failure_is_math_error_under_optimize(breaker):
    script = (
        "import sys\n"
        "from eigencone import cli, linalg, schubert\n"
        f"{ENGINE_BREAKERS[breaker]}\n"
        "sys.exit(cli.main(['facets', '--type', 'B3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr


# each patch breaks one identity that a face inventory or a ray list must
# satisfy: (patch, argv, start of the error message)
IDENTITY_BREAKERS = {
    "pair-evaluations": (
        "rays._pair_evals = lambda face, x: [1]",
        ["face-rays", "--type", "D4", "--parabolic", "2", "--words", MAIN_WORDS],
        "error: type II ray",
    ),
    "zero-count": (
        "rays.induct = lambda face, x: x.scale(0)",
        ["face-rays", "--type", "D4", "--parabolic", "2", "--words", MAIN_WORDS],
        "error: 9 Levi rays induce to zero",
    ),
    # an induced candidate twice the first basic ray takes that ray's place:
    # it is extremal but not a basic ray, and fails the type II test
    "induction-image": (
        "certified = cone.certified_rays\n"
        "cone.certified_rays = lambda h, cands: certified(\n"
        "    h, cands[1:] + [tuple(2 * x for x in cands[0])])",
        ["face-rays", "--type", "D4", "--parabolic", "2", "--words", MAIN_WORDS],
        "error: type II ray",
    ),
    # the DD hands back the negated rays, which break the inequalities
    "ray-containment": (
        "dd = cone._dd\n"
        "cone._dd = lambda rows, n: [tuple(-x for x in r) for r in dd(rows, n)]",
        ["cone-rays", "--type", "A2"],
        "error: extremal ray",
    ),
    # the candidates carry the first basic ray twice, once doubled, so
    # neither copy passes the extremality test
    "basic-ray": (
        "certified = cone.certified_rays\n"
        "cone.certified_rays = lambda h, cands: certified(\n"
        "    h, cands + [tuple(2 * x for x in cands[0])])",
        ["face-rays", "--type", "D4", "--parabolic", "2", "--words", MAIN_WORDS],
        "error: basic ray",
    ),
    # induct reverses the weights of each image, which leaves the face
    "candidate-off-face": (
        "induct = rays.induct\n"
        "rays.induct = lambda face, x: rays.RayTuple(induct(face, x).weights[::-1])",
        ["face-rays", "--type", "D4", "--parabolic", "2", "--words", MAIN_WORDS],
        "error: candidate",
    ),
    # the last candidate, a type II ray of a face with 20 rays in 11
    # dimensions, is dropped; the others still span the face
    "missing-candidate": (
        "certified = cone.certified_rays\n"
        "cone.certified_rays = lambda h, cands: certified(h, cands[:-1])",
        ["face-rays", "--type", "D4", "--parabolic", "1", "--words",
         "s1 s2 s3 s4 s2 s1; s1 s2 s3 s4 s2 s1; e"],
        "error: the candidates miss part of the cone",
    ),
    # the main face has 11 rays in 11 dimensions: without its last type II
    # ray the candidates span a hyperplane of the face's span
    "candidate-span": (
        "certified = cone.certified_rays\n"
        "cone.certified_rays = lambda h, cands: certified(h, cands[:-1])",
        ["face-rays", "--type", "D4", "--parabolic", "2", "--words", MAIN_WORDS],
        "error: the candidates do not span",
    ),
    # each basis vector of an equality subspace is moved along the first
    # equality, so the rays of the candidates' facet DD leave the subspace
    "equality-containment": (
        "nullspace = cone.linalg.nullspace\n"
        "def bent(mat, ncols):\n"
        "    basis = nullspace(mat, ncols)\n"
        "    return [[x + y for x, y in zip(v, mat[0])] for v in basis] if mat else basis\n"
        "cone.linalg.nullspace = bent",
        ["face-rays", "--type", "D4", "--parabolic", "2", "--words", MAIN_WORDS],
        "error: extremal ray",
    ),
}


@pytest.mark.parametrize("breaker", sorted(IDENTITY_BREAKERS))
def test_broken_identity_is_math_error_under_optimize(breaker):
    # these checks were asserts, which python -O skips silently
    patch, argv, message = IDENTITY_BREAKERS[breaker]
    script = (
        "import sys\n"
        "from eigencone import cli, cone, rays\n"
        f"{patch}\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(message), proc.stderr


def test_bad_type_is_parse_error(capsys):
    code, _ = run(capsys, "facets", "--type", "Q7")
    assert code == 2


def test_bad_word_is_parse_error(capsys):
    code, _ = run(
        capsys,
        "face-rays",
        "--type",
        "D4",
        "--parabolic",
        "2",
        "--words",
        "x9; s2; s2",
    )
    assert code == 2


def test_two_words_is_math_error(capsys):
    # s is the number of words, and s = 2 fails as a typed ValueError
    code = cli.main(
        ["face-rays", "--type", "D4", "--parabolic", "2", "--words", "s2; s2"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: codimensions sum to 16, expected 9\n"


@pytest.mark.parametrize("rows", [
    "[[0,1,0,0],[0,0,0,0]]",
    "[[0,1,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]",
], ids=["two-rows", "four-rows"])
def test_word_count_must_match_input_rows(capsys, rows):
    # induct pairs the rows with the words one to one
    code = cli.main(
        ["induct", "--type", "D4", "--parabolic", "2", "--words", MAIN_WORDS,
         "--input", rows]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: expected 3 rows of 4 coordinates\n"


@pytest.mark.parametrize("text", ["x", "9"])
def test_bad_parabolic_is_parse_error(capsys, text):
    code = cli.main(
        ["face-rays", "--type", "D4", "--parabolic", text, "--words", MAIN_WORDS]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# each subcommand rejects the options it does not read
@pytest.mark.parametrize("argv", [
    ["facets", "--type", "A1", "--oracle-max-n", "3"],
    ["face-rays", *FACE_ARGS, "--oracle-max-n", "3"],
    ["divisor", *FACE_ARGS, "--pair", "2:s1 s2 s4 s3 s1 s2", "--oracle-max-n", "3"],
    ["induct", *FACE_ARGS, "--input", "[[0,1,0,0],[0,0,0,0],[0,0,0,0]]",
     "--oracle-max-n", "3"],
    ["cone-rays", "--type", "A1", "--oracle-max-n", "3"],
    ["reproduce", "ex1", "--format", "json"],
    ["face-rays", *FACE_ARGS, "--s", "3"],
    ["divisor", *FACE_ARGS, "--pair", "2:s1 s2 s4 s3 s1 s2", "--s", "3"],
    ["induct", *FACE_ARGS, "--input", "[[0,1,0,0],[0,0,0,0],[0,0,0,0]]",
     "--s", "3"],
    ["membership", "--type", "A1", "--input", "[[1],[1],[2]]", "--s", "3"],
], ids=[
    "facets-oracle", "face-rays-oracle", "divisor-oracle", "induct-oracle",
    "cone-rays-oracle", "reproduce-format", "face-rays-s", "divisor-s",
    "induct-s", "membership-s",
])
def test_unread_option_is_parse_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: " + argv[-2] in captured.err


def test_membership_reads_s_off_the_rows(capsys):
    code, out = run(
        capsys, "membership", "--type", "A1", "--input", "[[1],[1],[1],[1]]"
    )
    assert code == 0
    assert out == "member: True\n"


def test_face_rays_reads_s_off_the_words(capsys):
    code, out = run(
        capsys, "face-rays", "--type", "A1", "--parabolic", "1",
        "--words", "e; s1; s1; s1",
    )
    assert code == 0
    assert out == (
        "face: e; s1; s1; s1  (dropped nodes [1])\n"
        "q = 3   c = 0   exotic = 0   total rays = 3\n"
        "type I rays:\n"
        "  1 ; 1 ; 0 ; 0\n"
        "  1 ; 0 ; 1 ; 0\n"
        "  1 ; 0 ; 0 ; 1\n"
        "type II rays:\n"
        "induction of Levi rays:\n"
    )


def test_face_rays_text_lists_exotic_rays(capsys):
    code, out = run(
        capsys, "face-rays", "--type", "D4", "--parabolic", "4",
        "--words", "s2 s4; s3 s1 s2 s4; s4 s2 s3 s1 s2 s4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "q = 4   c = 2   exotic = 1   total rays = 19"
    at = lines.index("exotic induced rays:")
    assert lines[at + 1:at + 3] == [
        "  1 0 1 1 ; 0 1 0 1 ; 1 0 1 0",
        "induction of Levi rays:",
    ]


def test_non_face_is_math_error(capsys):
    code, _ = run(
        capsys,
        "face-rays",
        "--type",
        "D4",
        "--parabolic",
        "2",
        "--words",
        "s2; s2; s2",
    )
    assert code == 3


def test_face_rays_json(capsys):
    code, out = run(
        capsys,
        "face-rays",
        "--type",
        "D4",
        "--parabolic",
        "2",
        "--words",
        MAIN_WORDS,
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 7 and data["c"] == 5 and data["total"] == 11
    assert len(data["type1"]) == 7 and len(data["type2"]) == 4


def test_divisor(capsys):
    code, out = run(
        capsys,
        "divisor",
        "--type",
        "D4",
        "--parabolic",
        "2",
        "--words",
        MAIN_WORDS,
        "--pair",
        "2:s1 s2 s4 s3 s1 s2",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["weights"] == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]]


@pytest.mark.parametrize("pair", [
    "2 s1 s2 s4 s3 s1 s2", "two:s1 s2 s4 s3 s1 s2", "0:s1 s2 s4 s3 s1 s2",
    "4:s1 s2 s4 s3 s1 s2", "2:s1 x9",
], ids=["no-colon", "non-integer-index", "index-0", "index-4", "bad-word"])
def test_divisor_bad_pair_text_is_parse_error(capsys, pair):
    code = cli.main(["divisor", *FACE_ARGS, "--pair", pair])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_divisor_bad_pair_is_math_error(capsys):
    code, _ = run(
        capsys,
        "divisor",
        "--type",
        "D4",
        "--parabolic",
        "2",
        "--words",
        MAIN_WORDS,
        "--pair",
        "2:s2",
    )
    assert code == 3


def test_induct_raw(capsys):
    code, out = run(
        capsys,
        "induct",
        "--type",
        "D4",
        "--parabolic",
        "2",
        "--words",
        MAIN_WORDS,
        "--input",
        "[[0,1,0,0],[0,0,0,0],[0,0,0,0]]",
        "--raw",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    # the raw image is (2, 2, 2) times the primitive tuple below
    assert data["weights"] == [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def test_induct_with_shift(capsys):
    code, out = run(
        capsys,
        "induct",
        "--type",
        "D4",
        "--parabolic",
        "2",
        "--words",
        MAIN_WORDS,
        "--input",
        "[[0,0,0,1],[0,0,0,1],[0,0,0,0]]",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["weights"] == [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]


def test_membership(capsys):
    code, out = run(
        capsys,
        "membership",
        "--type",
        "D4",
        "--input",
        "[[0,1,0,0],[0,0,1,0],[0,0,1,0]]",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["member"] is True


def test_membership_outside(capsys):
    code, out = run(
        capsys,
        "membership",
        "--type",
        "D4",
        "--input",
        "[[0,1,0,0],[0,0,0,0],[0,0,0,0]]",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["member"] is False


def test_membership_with_oracle(capsys):
    code, out = run(
        capsys,
        "membership",
        "--type",
        "A1",
        "--input",
        "[[1],[1],[2]]",
        "--format",
        "json",
        "--oracle-max-n",
        "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert data["invariant_witness_n"] == 1


def test_membership_without_factors_is_math_error(capsys):
    # s = 0 leaves no factor to read the root system from
    code = cli.main(["membership", "--type", "A2", "--input", "[]"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: regular facets need s >= 3 factors, got s = 0\n"


@pytest.mark.parametrize("text", ["[[-1,0]]", "[[1,0]]"])
def test_membership_with_one_factor_is_math_error(capsys, text):
    # the factor count is checked before dominance
    code = cli.main(["membership", "--type", "A2", "--input", text])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: regular facets need s >= 3 factors, got s = 1\n"


def test_membership_bad_json_is_parse_error(capsys):
    code, _ = run(capsys, "membership", "--type", "A1", "--input", "[[1],[1]")
    assert code == 2


def test_cone_rays_a1(capsys):
    code, out = run(
        capsys, "cone-rays", "--type", "A1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 3


@pytest.mark.parametrize(
    "text,code",
    [
        ("[1,2,3]", 2),
        ("[[1],[1],[null]]", 2),
        ('[["a"],[1],[1]]', 2),
        ("[[true],[1],[1]]", 2),
        ("[[0.1],[0.1],[0.2]]", 2),
        ('[["1/0"],[1],[1]]', 2),
        ('[["1/2"],[1],[1]]', 0),
        ("[[1],[1],[2]]", 0),
    ],
    ids=[
        "flat-list", "null", "word", "bool", "float", "zero-denominator",
        "fraction-string", "integers",
    ],
)
def test_input_entries_are_validated(capsys, text, code):
    got, _ = run(capsys, "membership", "--type", "A1", "--input", text)
    assert got == code


def test_non_integral_oracle_input_message():
    b2 = build_root_system("B2")
    x = [b2.weight(c) for c in ((Fraction(1, 2), 1), (1, 0), (1, 1))]
    with pytest.raises(ValueError) as info:
        rays.invariant_dim(x)
    assert "(1/2, 1) is not dominant integral" in str(info.value)
    assert "Fraction(" not in str(info.value)


def test_oracle_skips_non_integral_multiples(capsys):
    # n = 1 leaves a half-integral entry; n = 2 certifies the member
    code, out = run(
        capsys, "membership", "--type", "B2", "--input",
        '[["1/2",1],[1,0],[1,1]]', "--oracle-max-n", "2",
    )
    assert code == 0
    assert out == "member: True\ninvariant witness at N = 2\n"


@pytest.mark.parametrize("value", ["-1", "-3", "two"])
def test_oracle_max_n_must_be_a_count(capsys, value):
    # a negative N used to exit 0 without a certificate
    code = cli.main([
        "membership", "--type", "A2", "--input", "[[1,0],[0,1],[0,0]]",
        "--oracle-max-n", value,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--oracle-max-n: expected an integer >= 0" in captured.err


@pytest.mark.parametrize("target", ["ex1", "subbie", "apples", "p4-table"])
def test_reproduce(capsys, target):
    code, out = run(capsys, "reproduce", target)
    assert code == 0
    assert "ok" in out and "FAIL" not in out


def test_reproduce_golden_mismatch_exits_4(capsys, monkeypatch):
    golden = cli._golden

    def altered(name):
        g = golden(name)
        g["q"] += 1
        return g

    monkeypatch.setattr(cli, "_golden", altered)
    code, out = run(capsys, "reproduce", "subbie")
    assert code == 4
    assert "FAIL q: 7\n" in out
    assert out.endswith("mismatches:\n  - q: got 7, expected 8\n")
