"""Dead-code guard: every function, class, method and module-level
constant the package defines must be used by the package, the benchmark
or the shared test reference code, every defaulted parameter of a
package function must be set by one of their calls, and every class
field must be read by one of them. A name that only a unit test (or
nobody) reaches is production API without a production caller, a
parameter no caller sets is a knob nobody turns, and a field nobody
reads is state nobody uses; move it into the test or delete it."""

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


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_defaulted_parameter_has_a_setter():
    """A defaulted parameter of a package function must be passed, by
    keyword or by position, by some call of that name in the package,
    the benchmark or the shared test reference code: one that no caller
    sets is a knob without a user. A call with ``*args`` or ``**kwargs``
    passes every parameter. A function also referenced as a value (a
    kernel picked at run time, a callback) is exempt, since its calls
    cannot be told from its name."""
    calls, as_values = {}, Counter()
    for path in USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                if name is not None:
                    callees.add(id(node.func))
                    calls.setdefault(name, []).append(node)
        for node in ast.walk(tree):
            if id(node) in callees:
                continue
            if isinstance(node, ast.Name):
                as_values[node.id] += 1
            elif isinstance(node, ast.Attribute):
                as_values[node.attr] += 1
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node, is_method in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or name.startswith("__") and name.endswith("__")
                    or as_values[name]):
                continue
            # a method's first parameter is its instance or class
            bound = is_method and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][bound:]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            passed = set()
            for call in calls.get(name, ()):
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    passed.update(defaulted)
                    break
                passed.update(positional[:len(call.args)])
                passed.update(k.arg for k in call.keywords)
            unset += [f"{path.name}:{node.lineno} {name}({p})"
                      for p in defaulted if p not in passed]
    assert not unset, "defaulted parameters no caller sets: " + ", ".join(unset)


def test_every_dataclass_field_is_read():
    """Every annotated field in a package class body must be read as an
    attribute somewhere in the package, the benchmark or the shared test
    reference code: a field that is only ever written is state nobody
    uses. A keyword argument ``f=<expr>.f`` copies the field into a new
    object's ``f``; it is not a read."""
    read = Counter()
    for path in USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        copies = {id(k.value) for k in ast.walk(tree) if isinstance(k, ast.keyword)
                  and isinstance(k.value, ast.Attribute) and k.value.attr == k.arg}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in copies):
                read[node.attr] += 1
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            unread += [f"{path.name}:{f.lineno} {node.name}.{f.target.id}"
                       for f in node.body
                       if isinstance(f, ast.AnnAssign)
                       and isinstance(f.target, ast.Name)
                       and not read[f.target.id]]
    assert not unread, "fields nothing reads: " + ", ".join(unread)
