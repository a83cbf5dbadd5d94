"""Dead-code guard: every function, class, method and module-level
constant the package defines must be used by the package, the benchmark
or the shared test reference code. A name that only a unit test (or
nobody) reaches is production API without a production caller; move it
into the test or delete it."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphviews"
USERS = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
         + [ROOT / "tests" / name
            for name in ("oracles.py", "conftest.py", "test_acceptance.py")])


def _references(tree: ast.AST) -> tuple[Counter, Counter]:
    """The names a tree reads or imports, and the attributes it reaches."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def _definitions(tree: ast.Module):
    """(name, node, is_method) for module-level functions, classes and
    constants, and for the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m, True) for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node, False) for t in targets
                        if isinstance(t, ast.Name))


def _uses(names: Counter, attributes: Counter, name: str, is_method: bool) -> int:
    # a method is reached only as an attribute; a module-level name is
    # also read bare or imported
    return attributes[name] + (0 if is_method else names[name])


def test_every_definition_has_a_user():
    names, attributes = Counter(), Counter()
    for path in USERS:
        if path != PACKAGE / "__init__.py":
            found = _references(ast.parse(path.read_text(encoding="utf-8")))
            names += found[0]
            attributes += found[1]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node, is_method in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = _uses(*_references(node), name, is_method)
            if _uses(names, attributes, name, is_method) - own <= 0:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "defined but used only by tests or by nobody: " + ", ".join(unused)
