"""End-to-end workload pipeline: mine, enumerate, cost, select,
materialize, rewrite, execute, report.

A workload is a JSON document naming the dataset files, a space budget,
and a list of queries. Each query is either a pattern query (``file``
points at query text) or a graph operation (``op`` plus ``params``):

    {"graph": {"vertices": ..., "edges": ..., "schema": ...},
     "budget": 50000, "alpha": 95, "max_k": 10, "seed": 0,
     "queries": [
        {"name": "q1", "file": "q1.query", "weight": 1.0},
        {"name": "q2", "op": "ancestors",
         "params": {"source": "j0", "hops": 4, "result_type": "Job"}},
        {"name": "q7", "op": "label_propagation", "params": {"passes": 10}}]}

Supported ops: ancestors, descendants (BFS neighborhoods restricted to
``result_type``), path_lengths (minimax over an edge property),
label_propagation and largest_community (report-only: they also run over
the smallest-id selected connector when that view has fewer edges than
the base graph, measured, not asserted equivalent; ops over one graph
with one pass count share one propagation run). Relative paths
resolve against the workload file's directory. Raw op walks keep to the
schema type bands from the source's type to ``result_type`` (T); over
a k-hop connector, the same walk takes the view hops of the plan of
``(x:T)-[*1..hops]->(y:T)``. An op whose source is not a T vertex, or a
path_lengths op over ``path_count`` (a view edge's trail count), runs raw.

Each query runs over the selected view with its cheapest plan, as
selection costed it before anything was materialized.

Everything except wall-clock fields is deterministic for a fixed spec;
reports serialised with ``include_timing=False`` are byte-identical
across runs and thread counts.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from .costing import (
    CostReport,
    SizeEstimate,
    estimate_heterogeneous,
    eval_cost,
    exact_estimate,
)
from .enumeration import (
    CONNECTOR_KINDS,
    RewritePlan,
    ViewInstance,
    enumerate_views,
    rewrite_with_view,
)
from .errors import (
    GraphViewsError,
    InvalidParamsError,
    NameEliminatedButReferencedError,
    RewriteInfeasibleError,
)
from .execution import (
    ExecutionStats,
    execute,
    k_hop_neighborhood,
    label_propagation,
    largest_community,
    path_lengths,
)
from .mining import mine_constraints, schema_index
from .query import (
    NameRef,
    ProjectionItem,
    QueryGraph,
    ResultTable,
    VarLengthPath,
    is_name,
    parse_query,
)
from .store import (
    PATH_COUNT_PROP,
    DegreeSummary,
    GraphSchema,
    degree_summary,
    load_graph,
)
from .views import (
    Candidate,
    ViewCatalog,
    catalog_save,
    connector_content,
    materialize,
    query_picks,
    sampled_degree_summary,
    select_views,
    sparsifier_degree_summary,
    view_degree_summary,
)

# each op's params, in the order they are checked
_OP_PARAMS = {
    "ancestors": ("hops", "result_type", "source"),
    "descendants": ("hops", "result_type", "source"),
    "path_lengths": ("hops", "result_type", "source", "property"),
    "label_propagation": ("passes",),
    "largest_community": ("passes", "count_type"),
}
REPORT_ONLY_OPS = ("label_propagation", "largest_community")


@dataclass
class QuerySpec:
    name: str
    file: str | None = None
    op: str | None = None
    params: dict = field(default_factory=dict)
    weight: float = 1.0

    def __post_init__(self):
        if (self.file is None) == (self.op is None):
            raise InvalidParamsError(
                f"query {self.name!r} must set exactly one of file/op")
        if self.op is not None and self.op not in _OP_PARAMS:
            raise InvalidParamsError(f"unknown op {self.op!r}")
        if self.weight <= 0:
            raise InvalidParamsError("query weights must be positive")


@dataclass
class WorkloadSpec:
    vertex_file: Path
    edge_file: Path
    schema_file: Path
    queries: list[QuerySpec]
    budget: float
    alpha: int = 95
    max_k: int = 10
    seed: int = 0

    def __post_init__(self):
        names = [q.name for q in self.queries]
        if len(set(names)) != len(names):
            raise InvalidParamsError("query names must be unique")
        if self.alpha not in (50, 90, 95, 100):
            raise InvalidParamsError("alpha must be one of 50, 90, 95, 100")
        if type(self.budget) not in (int, float):   # a bool is no number
            raise InvalidParamsError(f"budget must be a number, got {self.budget!r}")
        if type(self.max_k) is not int:
            raise InvalidParamsError(f"max_k must be an integer, got {self.max_k!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "WorkloadSpec":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParamsError(f"cannot read workload: {exc}") from exc
        base = path.parent
        try:
            graph = raw["graph"]
            queries = [
                QuerySpec(
                    name=q["name"],
                    file=str(base / q["file"]) if "file" in q else None,
                    op=q.get("op"),
                    params=q.get("params", {}),
                    weight=q.get("weight", 1.0),
                )
                for q in raw["queries"]
            ]
            return cls(
                vertex_file=base / graph["vertices"],
                edge_file=base / graph["edges"],
                schema_file=base / graph["schema"],
                queries=queries,
                budget=raw["budget"],
                alpha=raw.get("alpha", 95),
                max_k=raw.get("max_k", 10),
                seed=raw.get("seed", 0),
            )
        except (KeyError, TypeError) as exc:
            raise InvalidParamsError(f"malformed workload: {exc}") from exc


class OpRewrite(RewritePlan):
    """How an op query runs over a k-hop connector view: the plan of its
    pattern proxy, whose ``view_hops`` is how far the op walks there."""


@dataclass
class _Prepared:
    spec: QuerySpec
    query: QueryGraph | None   # parsed pattern query
    synth: QueryGraph | None   # enumeration/costing proxy


@contextmanager
def _stage(name: str):
    try:
        yield
    except GraphViewsError as exc:
        exc.stage = name
        raise


# --------------------------------------------------------------------------
# Preparation
# --------------------------------------------------------------------------

_COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
_TEXT = ("a non-empty string", lambda v: isinstance(v, str) and v != "")
# what each op param must be, and the test of it
_PARAM_RULES = {"hops": _COUNT, "passes": _COUNT, "source": _TEXT,
                "property": _TEXT, "count_type": _TEXT,
                "result_type": ("a vertex type name", is_name)}


def _prepare(spec: QuerySpec) -> _Prepared:
    """Parse a pattern query, or check an op's params, so that a bad
    param fails at stage ``parse``, before views are enumerated."""
    if spec.op is None:
        text = Path(spec.file).read_text(encoding="utf-8")
        query = parse_query(text)
        return _Prepared(spec, query, query)
    for name in _OP_PARAMS[spec.op]:
        if name not in spec.params:
            raise InvalidParamsError(f"op {spec.op!r} needs param {name!r}")
        wanted, valid = _PARAM_RULES[name]
        if not valid(spec.params[name]):
            raise InvalidParamsError(
                f"op {spec.op!r}: param {name!r} must be {wanted}, "
                f"got {spec.params[name]!r}")
    if spec.op in REPORT_ONLY_OPS:
        return _Prepared(spec, None, None)
    result_type, hops = spec.params["result_type"], spec.params["hops"]
    # MATCH (x:T)-[p*1..hops]->(y:T) RETURN x, y
    synth = QueryGraph(
        pattern_vertices={"x": result_type, "y": result_type},
        pattern_edges=(),
        var_length_paths=(VarLengthPath("x", "y", 1, hops, name="p"),),
        filters=None,
        projection=(ProjectionItem(NameRef("x"), "x"),
                    ProjectionItem(NameRef("y"), "y")),
    )
    return _Prepared(spec, None, synth)


# --------------------------------------------------------------------------
# Candidates
# --------------------------------------------------------------------------

def _triple_counts(graph) -> Counter:
    """Edges per (src type, dst type, label) triple, in one pass."""
    vtypes = graph._vtypes
    return Counter(zip(map(vtypes.__getitem__, graph._esrc),
                       map(vtypes.__getitem__, graph._edst), graph._elabel))


def _estimate_weight(v: ViewInstance, summary: DegreeSummary,
                     schema: GraphSchema, triples: Counter, alpha: int):
    if v.kind == "KHopConnector":
        return estimate_heterogeneous(summary, v.k, alpha)
    if v.kind in CONNECTOR_KINDS:
        total = sum(estimate_heterogeneous(summary, length, alpha).estimated_edges
                    for length in v.lengths)
        return SizeEstimate(total, "HeterogeneousPercentile", v.hi, alpha)
    # sparsifier selectivity: the loaded graph's edges of the kept triples
    view_schema = v.view_schema(schema)
    kept_types = view_schema.vertex_types
    kept_labels = view_schema.labels()
    count = sum(n for (src, dst, label), n in triples.items()
                if src in kept_types and dst in kept_types
                and label in kept_labels)
    return exact_estimate(count, 1)


def build_candidates(prepared: list[_Prepared], schema: GraphSchema,
                     summary: DegreeSummary, graph, alpha: int,
                     max_k: int) -> list[Candidate]:
    """One candidate per view content, in view id order, with its plans,
    their costs and its value. A plan is costed over the view's expected
    degree summary: a connector's is sampled (one sample per
    :func:`connector_content`), a filter's kept from the base graph. A
    filter that keeps the whole schema is a copy of the base graph and
    is no candidate; connectors that differ only in their edge label are
    merged by :func:`_merge_twins`."""
    by_id: dict[str, Candidate] = {}
    triples = _triple_counts(graph)
    samples: dict[tuple, DegreeSummary | None] = {}
    for pq in prepared:
        if pq.synth is None or not _starts_on_proxy(pq.spec, graph):
            continue
        raw_cost = None   # costed once, at the query's first plan
        constraints = mine_constraints(pq.synth, schema)
        for v in enumerate_views(pq.synth, schema, constraints, max_k=max_k):
            if v.is_identity(schema):
                continue
            if v.view_id not in by_id:
                est = _estimate_weight(v, summary, schema, triples, alpha)
                by_id[v.view_id] = Candidate(
                    view=v, weight=max(est.estimated_edges, 1.0),
                    value=0.0, size_estimate=est)
            cand = by_id[v.view_id]
            plan = _plan_for(pq, v, schema)
            if plan is None:
                continue
            if raw_cost is None:
                raw_cost = eval_cost(pq.synth, summary, alpha)
            if v.kind in CONNECTOR_KINDS:
                content = connector_content(v)
                if content not in samples:
                    samples[content] = sampled_degree_summary(graph, v, summary)
                view_summary = (samples[content]
                                or view_degree_summary(v, summary, cand.weight))
            else:
                view_summary = sparsifier_degree_summary(v, summary, schema)
            rew_cost = eval_cost(plan.rewritten, view_summary, alpha)
            report = CostReport(creation_cost=max(cand.weight, 1.0),
                                eval_cost_raw=raw_cost,
                                eval_cost_rewritten=rew_cost)
            cand.value += pq.spec.weight * report.value
            cand.per_query_plans[pq.spec.name] = plan
            cand.plan_costs[pq.spec.name] = rew_cost
    return _merge_twins([by_id[i] for i in sorted(by_id)])


def _merge_twins(candidates: list[Candidate]) -> list[Candidate]:
    """Among connectors of equal :func:`connector_content`, keep the one
    with the smallest id, and drop each other one (recording it in the
    kept one's ``twins``) when the kept one plans every query it plans.
    A dropped twin's plans name its own edge label, so none carry over."""
    first: dict[tuple, Candidate] = {}
    kept = []
    for cand in candidates:
        if cand.view.kind in CONNECTOR_KINDS:
            twin_of = first.setdefault(connector_content(cand.view), cand)
            if (twin_of is not cand
                    and cand.per_query_plans.keys() <= twin_of.per_query_plans.keys()):
                twin_of.twins.append(cand.view.view_id)
                continue
        kept.append(cand)
    return kept


def _starts_on_proxy(spec: QuerySpec, graph) -> bool:
    """False for an op whose source is not a vertex of its ``result_type``,
    where its pattern proxy starts: no plan of the proxy answers it."""
    if spec.op is None:
        return True
    source = spec.params["source"]
    return (graph.has_vertex(source)
            and graph.vertex_type(source) == spec.params["result_type"])


def _plan_for(pq: _Prepared, v: ViewInstance, schema: GraphSchema):
    """The plan of ``pq`` over ``v``, or None. An op runs over a k-hop
    connector whose k divides its hops, by the plan of its pattern proxy;
    a path_lengths op over ``path_count`` runs raw only, since that name
    holds each connector edge's trail count."""
    spec = pq.spec
    if spec.op is not None and (
            v.kind != "KHopConnector" or spec.params["hops"] % v.k
            or spec.params.get("property") == PATH_COUNT_PROP):
        return None
    try:
        plan = rewrite_with_view(pq.synth, v, schema)
    except (RewriteInfeasibleError, NameEliminatedButReferencedError):
        return None
    return plan if spec.op is None else OpRewrite(plan.rewritten, plan.view_hops)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass
class StatsReport:
    edges_expanded: int
    vertices_touched: int
    wall_ms: float

    @classmethod
    def of(cls, stats: ExecutionStats) -> "StatsReport":
        return cls(stats.edges_expanded, stats.vertices_touched, stats.wall_ms)

    def to_dict(self, include_timing: bool) -> dict:
        out = {"edges_expanded": self.edges_expanded,
               "vertices_touched": self.vertices_touched}
        if include_timing:
            out["wall_ms"] = round(self.wall_ms, 3)
        return out


@dataclass
class QueryReport:
    name: str
    kind: str
    weight: float
    rows: int
    raw: StatsReport
    view_id: str | None = None
    rewritten: StatsReport | None = None
    results_match: bool | None = None
    work_ratio: float | None = None
    speedup: float | None = None

    def to_dict(self, include_timing: bool) -> dict:
        out = {
            "name": self.name, "kind": self.kind, "weight": self.weight,
            "rows": self.rows, "raw": self.raw.to_dict(include_timing),
            "view_id": self.view_id,
            "rewritten": self.rewritten.to_dict(include_timing)
            if self.rewritten else None,
            "results_match": self.results_match,
            "work_ratio": self.work_ratio,
        }
        if include_timing:
            out["speedup"] = round(self.speedup, 3) if self.speedup else None
        return out


@dataclass
class ViewReport:
    view_id: str
    kind: str
    estimated_edges: float
    weight: float
    value: float
    selected: bool
    actual_edges: int | None = None
    twins: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "view_id": self.view_id, "kind": self.kind,
            "estimated_edges": round(self.estimated_edges, 3),
            "weight": round(self.weight, 3),
            "value": round(self.value, 9),
            "selected": self.selected,
            "actual_edges": self.actual_edges,
        }
        if self.twins:   # so a report without twins keeps its bytes
            out["twins"] = self.twins
        return out


@dataclass
class BenchReport:
    config: dict
    views: list[ViewReport]
    queries: list[QueryReport]
    selection: dict

    def to_json(self, include_timing: bool = True) -> str:
        config = dict(self.config)
        if not include_timing:
            # thread count is run metadata, like wall clocks: results do
            # not depend on it
            config.pop("threads", None)
        return json.dumps({
            "config": config,
            "selection": self.selection,
            "views": [v.to_dict() for v in self.views],
            "queries": [q.to_dict(include_timing) for q in self.queries],
        }, indent=2, sort_keys=True)

    def table(self) -> str:
        lines = ["query        kind              view                  "
                 "raw_edges  rew_edges  match  speedup"]
        for q in self.queries:
            rew = q.rewritten.edges_expanded if q.rewritten else ""
            match = {True: "yes", False: "no", None: "-"}[q.results_match]
            speed = f"{q.speedup:.2f}x" if q.speedup else "-"
            lines.append(
                f"{q.name:<12} {q.kind:<17} {q.view_id or '-':<21} "
                f"{q.raw.edges_expanded:>9}  {rew!s:>9}  {match:<5}  {speed}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Execution helpers
# --------------------------------------------------------------------------

def _timed(fn, stats: ExecutionStats):
    started = time.perf_counter()
    result = fn()
    stats.wall_ms += (time.perf_counter() - started) * 1000.0
    return result


def _op_bands(spec: QuerySpec, g) -> tuple:
    """The schema type bands of an op's walk from its source to its
    ``result_type``: a vertex outside them reaches no result in range."""
    params = spec.params
    return schema_index(g.schema).type_bands(
        g.vertex_type(params["source"]), params["result_type"], 1,
        params["hops"], None, spec.op != "ancestors")


def _run_walk_op(spec: QuerySpec, g, hops: int, allowed
                 ) -> tuple[ResultTable, ExecutionStats]:
    """An ancestors, descendants or path_lengths op over ``g``: a walk of
    at most ``hops`` edges from the source, within the type bands
    ``allowed`` when given, keeping the vertices of ``result_type``. A
    source not in ``g`` reaches nothing."""
    stats = ExecutionStats()
    params = spec.params
    source = params["source"]
    if not g.has_vertex(source):
        reached = {}
    elif spec.op == "path_lengths":
        reached = _timed(lambda: path_lengths(
            g, source, hops, params["property"], allowed=allowed,
            stats=stats), stats)
    else:
        direction = "backward" if spec.op == "ancestors" else "forward"
        reached = _timed(lambda: k_hop_neighborhood(
            g, [source], direction, hops, allowed=allowed, stats=stats), stats)
    kept = [v for v in reached if g.vertex_type(v) == params["result_type"]]
    if spec.op == "path_lengths":
        return ResultTable(("vertex", "value"),
                           sorted((v, float(reached[v])) for v in kept)), stats
    return ResultTable(("vertex",), sorted((v,) for v in kept)), stats


def _run_raw(pq: _Prepared, g, propagated: dict | None = None
             ) -> tuple[ResultTable, ExecutionStats]:
    spec = pq.spec
    if spec.op is None:
        return execute(pq.query, g)
    if spec.op in REPORT_ONLY_OPS:
        return _run_community_op(pq, g, spec.params["passes"],
                                 {} if propagated is None else propagated)
    return _run_walk_op(spec, g, spec.params["hops"], _op_bands(spec, g))


def _run_over_view(pq: _Prepared, plan, view_graph) -> tuple[ResultTable, ExecutionStats]:
    if pq.spec.op is None:
        return execute(plan.rewritten, view_graph)
    return _run_walk_op(pq.spec, view_graph, plan.view_hops, None)


def _run_community_op(pq: _Prepared, g, passes: int, propagated: dict
                      ) -> tuple[ResultTable, ExecutionStats]:
    """A ``label_propagation`` or ``largest_community`` op over ``g``,
    propagating labels for ``passes`` passes. ``propagated`` keeps the
    labels and stats of each (graph, passes) run, so ops over one graph
    with one pass count share a run; each op's stats are those of the
    run it used, plus its own time."""
    key = id(g), passes
    if key not in propagated:
        run_stats = ExecutionStats()
        labels = _timed(lambda: label_propagation(g, passes, stats=run_stats),
                        run_stats)
        propagated[key] = labels, run_stats
    labels, run_stats = propagated[key]
    stats = replace(run_stats)

    def run():
        if pq.spec.op == "label_propagation":
            return ResultTable(("vertex", "label"), sorted(labels.items()))
        label, sub = largest_community(g, labels, pq.spec.params["count_type"])
        return ResultTable(("label", "vertices", "edges"),
                           [(label, sub.n, sub.m)])
    return _timed(run, stats), stats


# --------------------------------------------------------------------------
# Pipeline
# --------------------------------------------------------------------------

def run_pipeline(spec: WorkloadSpec, threads: int = 1,
                 catalog_dir: str | Path | None = None,
                 max_view_edges: int | None = None) -> BenchReport:
    """Run the whole workload: returns the bench report; optionally saves
    the materialized views as a catalog."""
    with _stage("load"):
        schema = GraphSchema.load(spec.schema_file)
        graph = load_graph(spec.vertex_file, spec.edge_file, schema)
        summary = degree_summary(graph)
    with _stage("parse"):
        prepared = [_prepare(q) for q in spec.queries]
    with _stage("enumerate"):
        candidates = build_candidates(prepared, schema, summary, graph,
                                      spec.alpha, spec.max_k)
    with _stage("select"):
        chosen = select_views(candidates, spec.budget)
        chosen_ids = {c.view.view_id for c in chosen}
    with _stage("materialize"):
        catalog = ViewCatalog()
        for cand in chosen:
            view = cand.view
            extra = _needed_aggregates(cand, prepared)
            if extra:
                view = replace(view, edge_aggregates=extra)
            catalog.add(view, materialize(graph, view,
                                          max_edges=max_view_edges,
                                          threads=threads))
        if catalog_dir is not None:
            catalog_save(catalog, catalog_dir)

    view_reports = [
        ViewReport(
            view_id=c.view.view_id, kind=c.view.kind,
            estimated_edges=c.size_estimate.estimated_edges,
            weight=c.weight, value=c.value,
            selected=c.view.view_id in chosen_ids,
            actual_edges=catalog.entries[c.view.view_id].graph.m
            if c.view.view_id in chosen_ids else None,
            twins=c.twins,
        )
        for c in candidates
    ]

    query_reports = []
    with _stage("execute"):
        picks = query_picks(chosen)
        host = _report_only_host(chosen, catalog, graph)
        propagated: dict = {}   # one label propagation per (graph, passes)
        for pq in prepared:
            raw_result, raw_stats = _run_raw(pq, graph, propagated)
            report = QueryReport(
                name=pq.spec.name,
                kind="match" if pq.spec.op is None else pq.spec.op,
                weight=pq.spec.weight,
                rows=len(raw_result.rows),
                raw=StatsReport.of(raw_stats),
            )
            cand = picks.get(pq.spec.name)
            rew_stats = None
            if cand is not None:
                entry = catalog.entries[cand.view.view_id]
                rew_result, rew_stats = _run_over_view(
                    pq, cand.per_query_plans[pq.spec.name], entry.graph)
                report.results_match = raw_result.multiset_equal(
                    rew_result, rel_tol=1e-9)
            elif pq.spec.op in REPORT_ONLY_OPS and host is not None:
                # similarity is reported, not asserted: results_match stays None
                cand = host
                entry = catalog.entries[cand.view.view_id]
                passes = max(1, math.ceil(pq.spec.params["passes"] / 2))
                _, rew_stats = _run_community_op(pq, entry.graph, passes,
                                                 propagated)
            if rew_stats is None:
                report.speedup = report.work_ratio = 1.0
            else:
                report.view_id = cand.view.view_id
                report.rewritten = StatsReport.of(rew_stats)
                report.work_ratio = (rew_stats.edges_expanded
                                     / max(raw_stats.edges_expanded, 1))
                report.speedup = (raw_stats.wall_ms
                                  / max(rew_stats.wall_ms, 1e-9))
            query_reports.append(report)

    return BenchReport(
        config={
            "budget": spec.budget, "alpha": spec.alpha, "max_k": spec.max_k,
            "seed": spec.seed, "threads": threads,
            "graph": {"vertices": graph.n, "edges": graph.m},
        },
        views=view_reports,
        queries=query_reports,
        selection={
            "chosen": sorted(chosen_ids),
            "total_estimated_weight": sum(c.weight for c in chosen),
            "total_value": sum(c.value for c in chosen),
            "budget": spec.budget,
        },
    )


def _report_only_host(chosen: list[Candidate], catalog: ViewCatalog, graph):
    """The view a report-only op also runs over: the selected connector
    with the smallest id, when its graph is smaller than the base graph,
    else None (the op runs raw only)."""
    first = min((c for c in chosen if c.view.kind in CONNECTOR_KINDS),
                key=lambda c: c.view.view_id, default=None)
    if first is None or catalog.entries[first.view.view_id].graph.m >= graph.m:
        return None
    return first


def _needed_aggregates(cand: Candidate, prepared) -> tuple:
    """Edge properties the selected view must carry, sorted: those the
    path_lengths ops it plans read, so they can run over it."""
    return tuple(sorted({pq.spec.params["property"] for pq in prepared
                         if pq.spec.op == "path_lengths"
                         and pq.spec.name in cand.per_query_plans}))
