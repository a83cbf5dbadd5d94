"""In-memory spans around the public calls into each graphviews layer.

The tracer patches the names ``graphviews.pipeline`` looks up at call
time (and ``PropertyGraph.vertices_of_type``, which the executor and the
materializer call) with wrappers that record a span per call. Nothing
inside ``src/`` changes: the spans sit on the layer boundaries the
pipeline and the benchmark's stream cross. Per-edge calls such as
``out_edges`` are never wrapped.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

from graphviews import pipeline
from graphviews.store import PropertyGraph

# wrapped function of graphviews.pipeline -> its layer
PIPELINE_CALLS = {
    "load_graph": "store",
    "degree_summary": "store",
    "parse_query": "query",
    "mine_constraints": "mining",
    "enumerate_views": "enumeration",
    "rewrite_with_view": "enumeration",
    "estimate_heterogeneous": "costing",
    "eval_cost": "costing",
    "select_views": "views",
    "materialize": "views",
    "execute": "execution",
    "k_hop_neighborhood": "execution",
    "path_lengths": "execution",
    "label_propagation": "execution",
}
LAYERS = {**PIPELINE_CALLS, "vertices_of_type": "store",
          "run_pipeline": "pipeline"}


@dataclass
class Span:
    name: str
    phase: str
    request: str
    start: float
    end: float = 0.0
    parent: int | None = None
    side: str | None = None      # "raw" / "view" for execution calls
    children_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


@dataclass
class Tracer:
    """Collects spans while installed; ``phase`` and ``request`` label
    the spans opened next (spans of one stream answer share a request)."""

    spans: list[Span] = field(default_factory=list)
    phase: str = ""
    request: str = ""
    pairs_tried: int = 0        # (query, view) pairs enumerate_views offered
    _stack: list[int] = field(default_factory=list)
    _raw_graphs: weakref.WeakSet = field(default_factory=weakref.WeakSet)
    _saved: dict = field(default_factory=dict)

    @contextmanager
    def span(self, name: str, side: str | None = None):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, self.phase, self.request, time.perf_counter(),
                    parent=parent, side=side)
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += span.end - span.start

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            side = None
            if PIPELINE_CALLS.get(name) == "execution":
                graph = args[1] if name == "execute" else args[0]
                side = "raw" if graph in self._raw_graphs else "view"
            with self.span(name, side):
                result = fn(*args, **kwargs)
            if name == "load_graph":
                self._raw_graphs.add(result)
            elif name == "enumerate_views":
                self.pairs_tried += len(result)
            return result
        return traced

    def __enter__(self):
        for name in PIPELINE_CALLS:
            self._saved[name] = getattr(pipeline, name)
            setattr(pipeline, name, self._wrap(name, self._saved[name]))
        scan = PropertyGraph.vertices_of_type
        self._saved["vertices_of_type"] = scan
        PropertyGraph.vertices_of_type = self._wrap("vertices_of_type", scan)
        return self

    def __exit__(self, *exc):
        PropertyGraph.vertices_of_type = self._saved.pop("vertices_of_type")
        for name, fn in self._saved.items():
            setattr(pipeline, name, fn)
        self._saved.clear()

    def self_ms(self, names, phases, side=None) -> float:
        """Total self time (ms) of spans with one of ``names`` in one of
        ``phases`` (and on ``side``, if given)."""
        names = (names,) if isinstance(names, str) else tuple(names)
        return 1000.0 * sum(
            s.self_s for s in self.spans
            if s.name in names and s.phase in phases
            and (side is None or s.side == side))

    def dump(self, path) -> None:
        rows = [{"name": s.name, "layer": LAYERS[s.name], "phase": s.phase,
                 "request": s.request, "start": s.start, "end": s.end,
                 "parent": s.parent, "side": s.side,
                 "self_ms": 1000.0 * s.self_s}
                for s in self.spans]
        path.write_text(json.dumps(rows), encoding="utf-8")
