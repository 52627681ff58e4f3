"""Every function, class and method in src/eigencone is reachable: some
other part of src/ refers to it by name, or it is a public entry point
listed below with the place that pins it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eigencone"

# entry points that nothing in src/ calls -> where each one is pinned
ENTRY_POINTS = {
    "cone.is_extremal": "README.md",
    "rays.decompose_on_face": "README.md",
    "faces.inequality_row": "README.md",
    "rootdata.ParabolicSpec.borel": "README.md",
    "rays.classify_nonsimple": "tests/test_acceptance.py",
    "schubert.cup": "tests/test_acceptance.py",
    "schubert.chi": "tests/test_acceptance.py",
    "weyl.WeylElem.act_root": "tests/test_acceptance.py",
    "weyl.reflection": "tests/test_acceptance.py",
    "weyl.inversion_set": "tests/test_acceptance.py",
}


def _referenced_names(tree):
    """(name, node) for every Name, Attribute and imported alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def _definitions(tree, prefix=""):
    """(qualified name, node) for every function, class and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        elif not isinstance(node, ast.Lambda):
            yield from _definitions(node, prefix)


def _traced():
    """The (module, function) pairs that perfbench wraps in a traced run."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py has no TRACED")


def test_every_definition_is_reachable():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    refs = [(mod, name, node) for mod, tree in trees.items()
            for name, node in _referenced_names(tree)]
    exempt = set(ENTRY_POINTS) | {f"{mod}.{fn}" for mod, fn in _traced()}
    unreached = []
    for mod, tree in trees.items():
        for qual, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # references inside the definition itself (recursion) do not count
            inside = {id(n) for n in ast.walk(node)}
            if not any(n == name and not (m == mod and id(x) in inside)
                       for m, n, x in refs):
                unreached.append(f"{mod}.{qual}")
    assert sorted(set(unreached) - exempt) == []
    # an exemption must name something that still exists and needs it
    assert sorted(exempt - {f"{m}.{q}" for m, t in trees.items()
                            for q, _ in _definitions(t)}) == []
    assert sorted(set(ENTRY_POINTS) - set(unreached)) == []


def test_entry_points_are_pinned():
    readme = (ROOT / "README.md").read_text()
    acceptance = {
        name for name, _ in
        _referenced_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    }
    for qual, pin in ENTRY_POINTS.items():
        name = qual.rsplit(".", 1)[1]
        if pin == "README.md":
            assert f"{name}`" in readme, qual
        else:
            assert name in acceptance, qual
