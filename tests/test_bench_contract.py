"""The benchmark's hold on the package: every name ``perfbench/*.py``
reaches in ``graphviews`` must exist, and every call it makes into the
package must fit the callee's signature. A refactor that renames or
drops one of them breaks the benchmark, not the package's own tests, so
this guard reads the benchmark's source instead of running it."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from graphviews import pipeline

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(BENCH.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Local name -> object for each ``from graphviews... import`` in a
    file; a name that does not resolve maps to None."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphviews"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    obj = getattr(module, alias.name, None) or importlib.import_module(
                        f"{node.module}.{alias.name}")
                except ImportError:
                    obj = None
                bound[alias.asname or alias.name] = obj
    return bound


def _resolve(node: ast.expr, bound: dict):
    """The object a ``Name.attr.attr`` chain rooted at an imported name
    denotes; AttributeError when a link is missing, None when the chain
    is not rooted at an imported name."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound)
        if owner is None:
            return None
        if not hasattr(owner, node.attr):
            raise AttributeError(f"{ast.unparse(node)}: no attribute {node.attr!r}")
        return getattr(owner, node.attr)
    return None


def _pipeline_calls(tree: ast.Module) -> dict:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "PIPELINE_CALLS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return {}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imported_names_resolve(path):
    bound = _imported(ast.parse(path.read_text(encoding="utf-8")))
    missing = sorted(name for name, obj in bound.items() if obj is None)
    assert not missing, f"{path.name} imports unknown graphviews names {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_attribute_chains_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _imported(tree)
    broken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            try:
                _resolve(node, bound)
            except AttributeError as exc:
                broken.append(str(exc))
    assert not broken, f"{path.name}: {sorted(set(broken))}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_calls_fit_signatures(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _imported(tree)
    misfits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        try:
            callee = _resolve(node.func, bound)
        except AttributeError:
            continue  # reported by test_attribute_chains_resolve
        if callee is None or not callable(callee):
            continue
        try:
            sig = inspect.signature(callee)
        except (TypeError, ValueError):
            continue
        keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        spread = (any(isinstance(a, ast.Starred) for a in node.args)
                  or any(kw.arg is None for kw in node.keywords))
        positional = [None] * sum(not isinstance(a, ast.Starred) for a in node.args)
        try:
            (sig.bind_partial if spread else sig.bind)(*positional, **keywords)
        except TypeError as exc:
            misfits.append(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")
    assert not misfits, f"{path.name}: {misfits}"


def test_traced_names_are_pipeline_attributes():
    calls = _pipeline_calls(ast.parse((BENCH / "spans.py").read_text(encoding="utf-8")))
    assert calls, "spans.PIPELINE_CALLS not found"
    missing = sorted(name for name in calls if not hasattr(pipeline, name))
    assert not missing, f"graphviews.pipeline lacks traced names {missing}"


def _layer_names(tree: ast.Module) -> set:
    """The string keys of ``spans.LAYERS`` and of the dicts it spreads."""
    dicts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    dicts[target.id] = node.value

    def keys(name):
        out = set()
        for key, value in zip(dicts[name].keys, dicts[name].values):
            if key is None and isinstance(value, ast.Name):
                out |= keys(value.id)
            elif isinstance(key, ast.Constant):
                out.add(key.value)
        return out
    return keys("LAYERS") if "LAYERS" in dicts else set()


def test_traced_graph_methods_are_called_by_the_package():
    # a traced name that is no pipeline attribute is a PropertyGraph
    # method the tracer patches; a refactor that stops calling it leaves
    # the benchmark's traced run without its span
    from graphviews.store import PropertyGraph

    names = _layer_names(ast.parse((BENCH / "spans.py").read_text(encoding="utf-8")))
    assert names, "spans.LAYERS not found"
    methods = sorted(name for name in names if not hasattr(pipeline, name))
    assert methods, "every traced name is a pipeline attribute"
    package = Path(pipeline.__file__).resolve().parent
    called = {node.func.attr
              for path in package.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    for name in methods:
        assert callable(getattr(PropertyGraph, name, None)), (
            f"traced name {name!r} is neither a pipeline attribute nor a "
            f"PropertyGraph method")
        assert name in called, f"no graphviews module calls {name!r}"
