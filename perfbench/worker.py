"""One measured run of one workload, in a process of its own.

Started by ``run.py`` after the inputs are generated; prints one JSON
object (metrics, counters and failures) as its last line. With trace
off it times set-up, ``run_pipeline`` and the query stream; with trace
on it records spans around every layer call instead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from graphviews import pipeline as P
from graphviews.enumeration import CONNECTOR_KINDS
from graphviews.errors import (
    NameEliminatedButReferencedError,
    RewriteInfeasibleError,
)
from graphviews.execution import ExecutionStats
from graphviews.store import GraphSchema

from spans import Tracer
from workloads import WORKLOADS, StreamQuery

# The untraced run is ROUNDS rounds of one run_pipeline, set-ups and a
# slice of the stream, so that every timing is sampled across the whole
# run rather than in one stretch of it: the host's speed drifts over
# tens of seconds.
ROUNDS = 3
SETUP_MIN_S = 3.0      # set-up time per run, at least one set-up a round
STREAM_LEN = 5000      # seeded requests, cycled
PREFIX = 100           # requests whose counters must repeat exactly
MIN_SAMPLES = 110      # per side: > 10 samples beyond p90


# --------------------------------------------------------------------------
# Set-up: CSV on disk -> selected views materialized in memory
# --------------------------------------------------------------------------

@dataclass
class Setup:
    schema: GraphSchema
    graph: object
    candidates: list
    chosen_ids: list[str]
    views: dict           # view id -> (view instance, materialized graph)


def set_up(spec: P.WorkloadSpec) -> Setup:
    """What ``run_pipeline`` does before it executes anything."""
    schema = GraphSchema.load(spec.schema_file)
    graph = P.load_graph(spec.vertex_file, spec.edge_file, schema)
    summary = P.degree_summary(graph)
    prepared = [P._prepare(q) for q in spec.queries]
    candidates = P.build_candidates(prepared, schema, summary, graph,
                                    spec.alpha, spec.max_k)
    chosen = P.select_views(candidates, spec.budget)
    views = {}
    for cand in chosen:
        view = cand.view
        extra = P._needed_aggregates(cand, prepared)
        if extra:
            view = replace(view, edge_aggregates=extra)
        views[view.view_id] = (view, P.materialize(graph, view, threads=1))
    return Setup(schema, graph, candidates,
                 sorted(c.view.view_id for c in chosen), views)


# --------------------------------------------------------------------------
# The stream: one closed-loop client, raw and with views
# --------------------------------------------------------------------------

def _op_query(sq: StreamQuery):
    """A stream op request as the pipeline's prepared op query."""
    return P._Prepared(P.QuerySpec(sq.template, op=sq.op, params=sq.params),
                       None, None)


class Stream:
    """Answers stream requests raw and over the view the pipeline gave
    the request's template. Op requests go through the pipeline's own op
    runners; pattern requests are parsed, rewritten and executed. Each
    answer returns (table, stats)."""

    def __init__(self, setup: Setup, report: P.BenchReport):
        self.setup = setup
        self.assigned = {q.name: q.view_id for q in report.queries
                         if q.results_match is not None}
        self.op_plans = {}
        for cand in setup.candidates:
            for name, plan in cand.per_query_plans.items():
                if isinstance(plan, P.OpRewrite):
                    self.op_plans[(name, cand.view.view_id)] = plan

    def raw(self, sq: StreamQuery):
        if sq.text is None:
            return P._run_raw(_op_query(sq), self.setup.graph)
        return P.execute(P.parse_query(sq.text), self.setup.graph)

    def view(self, sq: StreamQuery):
        view_id = self.assigned.get(sq.template)
        if view_id is None:
            return self.raw(sq)
        view, vg = self.setup.views[view_id]
        if sq.text is None:
            plan = self.op_plans[(sq.template, view_id)]
            return P._run_over_view(_op_query(sq), plan, vg)
        query = P.parse_query(sq.text)
        try:
            plan = P.rewrite_with_view(query, view, self.setup.schema)
        except (RewriteInfeasibleError, NameEliminatedButReferencedError):
            return P.execute(query, self.setup.graph)
        return P.execute(plan.rewritten, vg)


@dataclass
class StreamResult:
    raw_ms: list
    view_ms: list
    counters: dict
    failures: list
    rows: dict


def run_stream(stream: Stream, requests: list[StreamQuery], seconds: float,
               workload: str, tracer: Tracer | None = None, start: int = 0,
               min_samples: int = MIN_SAMPLES) -> StreamResult:
    """Closed loop over ``requests`` from index ``start`` until
    ``seconds`` have passed and both sides have ``min_samples`` answers
    (or, traced, one pass over the first ``PREFIX`` requests)."""
    lat = {"raw": [], "view": []}
    counters = {f"{k}.{side}": 0 for side in ("raw", "view")
                for k in ("edges_expanded", "vertices_touched")}
    rows = {"raw": 0, "view": 0}
    failures = []
    deadline = time.perf_counter() + seconds
    i = start
    while True:
        if tracer is not None:
            if i == PREFIX:
                break
        elif (i - start >= min_samples
              and time.perf_counter() >= deadline):
            break
        sq = requests[i % len(requests)]
        sides = ("raw", "view") if i % 2 == 0 else ("view", "raw")
        tables = {}
        for side in sides:
            if tracer is not None:
                tracer.request = f"{i}:{sq.template}:{side}"
            started = time.perf_counter()
            try:
                tables[side], stats = getattr(stream, side)(sq)
            except Exception as exc:  # any exception is a failed answer
                tables[side], stats = None, ExecutionStats()
                failures.append(_failure(workload, sq, stream, side,
                                         f"{type(exc).__name__}: {exc}"))
            lat[side].append((time.perf_counter() - started) * 1000.0)
            if i < PREFIX:
                counters[f"edges_expanded.{side}"] += stats.edges_expanded
                counters[f"vertices_touched.{side}"] += stats.vertices_touched
                rows[side] += len(tables[side].rows) if tables[side] else 0
        raw, view = tables["raw"], tables["view"]
        if raw is None or view is None:
            for side in ("raw", "view"):
                lat[side][-1] = math.inf
        elif not raw.multiset_equal(view, rel_tol=1e-9):
            lat["view"][-1] = math.inf
            failures.append(_failure(workload, sq, stream, "view",
                                     "answer differs from raw"))
        i += 1
    return StreamResult(lat["raw"], lat["view"], counters, failures, rows)


def _failure(workload, sq: StreamQuery, stream: Stream, side, why) -> dict:
    return {"workload": workload, "query": sq.text or
            f"{sq.op} {json.dumps(sq.params, sort_keys=True)}",
            "template": sq.template,
            "view": stream.assigned.get(sq.template), "side": side,
            "why": why}


# --------------------------------------------------------------------------
# Pipeline runs and their deterministic counters
# --------------------------------------------------------------------------

def timed_pipeline(path: Path) -> tuple[float, P.BenchReport]:
    spec = P.WorkloadSpec.from_file(path)
    gc.collect()
    started = time.perf_counter()
    report = P.run_pipeline(spec, threads=1)
    return time.perf_counter() - started, report


def pipeline_counters(report: P.BenchReport) -> dict:
    """Everything of a report that must repeat exactly across runs."""
    views = [v for v in report.views if v.selected]
    out = {
        "report_sha256": hashlib.sha256(
            report.to_json(include_timing=False).encode()).hexdigest(),
        "selected": sorted(v.view_id for v in views),
        "view_edges": {v.view_id: v.actual_edges for v in views},
        "q_error": {v.view_id: _q_error(v) for v in views},
        "queries": {q.name: {
            "view": q.view_id,
            "raw": [q.raw.edges_expanded, q.raw.vertices_touched],
            "view_side": [q.rewritten.edges_expanded,
                          q.rewritten.vertices_touched]
            if q.rewritten else None} for q in report.queries},
    }
    checked = [q for q in report.queries if q.kind not in P.REPORT_ONLY_OPS]
    for side in ("raw", "view"):
        stats = [q.raw if side == "raw" else q.rewritten for q in checked]
        stats = [s for s in stats if s is not None]
        out[f"edges_expanded.{side}"] = sum(s.edges_expanded for s in stats)
        out[f"vertices_touched.{side}"] = sum(s.vertices_touched for s in stats)
    return out


def _q_error(v) -> float:
    est = max(v.estimated_edges, 1.0)
    act = max(v.actual_edges or 0, 1)
    return round(max(est / act, act / est), 6)


def pipeline_failures(report: P.BenchReport, workload: str) -> list:
    return [{"workload": workload, "query": q.name, "template": q.name,
             "view": q.view_id, "side": "pipeline",
             "why": "results_match is False"}
            for q in report.queries if q.results_match is False]


# --------------------------------------------------------------------------
# The two kinds of run
# --------------------------------------------------------------------------

def nearest_rank(values: list, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def untraced(cfg: dict) -> dict:
    path = Path(cfg["workload_file"])
    workload = WORKLOADS[cfg["workload"]].sized(cfg["tiny"])
    spec = P.WorkloadSpec.from_file(path)
    requests = workload.stream(cfg["seed"], STREAM_LEN)
    failures, attempted = [], 0
    pipeline_s, setup_s, digests = [], [], set()
    raw_ms, view_ms = [], []
    prefix = dict.fromkeys(("edges_expanded.raw", "edges_expanded.view",
                            "vertices_touched.raw",
                            "vertices_touched.view"), 0)
    for _ in range(ROUNDS):
        # run_pipeline runs with no set-up alive, as a user's would
        seconds, report = timed_pipeline(path)
        pipeline_s.append(seconds)
        counters = pipeline_counters(report)
        digests.add(counters["report_sha256"])
        attempted += len(report.queries)
        failures += pipeline_failures(report, workload.name)
        round_setup_s, setup = [], None
        while not round_setup_s or sum(round_setup_s) < SETUP_MIN_S / ROUNDS:
            setup = None      # free the previous set-up before timing the next
            gc.collect()
            started = time.perf_counter()
            setup = set_up(spec)
            round_setup_s.append(time.perf_counter() - started)
        setup_s += round_setup_s
        _check_selection(setup, counters)
        gc.collect()
        result = run_stream(Stream(setup, report), requests,
                            cfg["seconds"] / ROUNDS, workload.name,
                            start=len(raw_ms),
                            min_samples=-(-MIN_SAMPLES // ROUNDS))
        graph = {"n": setup.graph.n, "m": setup.graph.m}
        setup = None
        raw_ms += result.raw_ms
        view_ms += result.view_ms
        failures += result.failures
        for key, value in result.counters.items():
            prefix[key] += value
    attempted += len(raw_ms) + len(view_ms)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "pipeline_s": (statistics.median(pipeline_s), "s"),
        "query_raw_ms.p50": (nearest_rank(raw_ms, 50), "ms"),
        "query_raw_ms.p90": (nearest_rank(raw_ms, 90), "ms"),
        "query_view_ms.p50": (nearest_rank(view_ms, 50), "ms"),
        "query_view_ms.p90": (nearest_rank(view_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "view_edges": (sum(counters["view_edges"].values()), "edges"),
        "ops_ok": (1.0 - len(failures) / attempted, "share"),
    }
    return {
        "metrics": metrics, "attempted": attempted, "failures": failures,
        "deterministic": {"pipeline": counters,
                          "pipeline_reps_identical": len(digests) == 1,
                          "stream_prefix": prefix},
        "samples": {"raw": len(raw_ms), "view": len(view_ms)},
        "setup_s": setup_s, "pipeline_s": pipeline_s,
        "graph": graph,
    }


def _check_selection(setup: Setup, counters: dict):
    if setup.chosen_ids != counters["selected"]:
        raise SystemExit(
            f"set-up selected {setup.chosen_ids} but run_pipeline selected "
            f"{counters['selected']}")


def traced(cfg: dict) -> dict:
    path = Path(cfg["workload_file"])
    workload = WORKLOADS[cfg["workload"]].sized(cfg["tiny"])
    failures = []
    untraced_s, report = timed_pipeline(path)
    attempted = len(report.queries)
    failures += pipeline_failures(report, workload.name)
    plain_digest = pipeline_counters(report)["report_sha256"]
    spec = P.WorkloadSpec.from_file(path)
    tracer = Tracer()
    gc.collect()
    started = time.perf_counter()
    with tracer:
        tracer.phase = "setup"
        setup = set_up(spec)
        pairs_tried = tracer.pairs_tried
        tracer.phase = "pipeline"
        spec = P.WorkloadSpec.from_file(path)
        pipe_started = time.perf_counter()
        with tracer.span("run_pipeline"):
            report = P.run_pipeline(spec, threads=1)
        traced_s = time.perf_counter() - pipe_started
        tracer.phase = "stream"
        stream = Stream(setup, report)
        result = run_stream(stream, workload.stream(cfg["seed"], STREAM_LEN),
                            0.0, workload.name, tracer)
    wall_ms = (time.perf_counter() - started) * 1000.0
    attempted += len(report.queries) + len(result.raw_ms) + len(result.view_ms)
    failures += pipeline_failures(report, workload.name) + result.failures
    counters = pipeline_counters(report)
    _check_selection(setup, counters)
    tracer.dump(Path(cfg["trace_file"]))
    metrics = layer_metrics(tracer, setup, report, result, counters,
                            pairs_tried, untraced_s, traced_s)
    metrics["generate.ms"] = (cfg["generate_ms"], "ms")
    self_sum = sum(s.self_s for s in tracer.spans) * 1000.0
    return {
        "metrics": metrics, "attempted": attempted, "failures": failures,
        "deterministic": {"pipeline": counters,
                          "pipeline_reps_identical":
                          plain_digest == counters["report_sha256"],
                          "stream_prefix": result.counters},
        "trace": {"spans": len(tracer.spans), "self_ms_sum": self_sum,
                  "wall_ms": wall_ms,
                  "layers": sorted({s.name for s in tracer.spans})},
        "graph": {"n": setup.graph.n, "m": setup.graph.m},
    }


def layer_metrics(tr: Tracer, setup: Setup, report, result: StreamResult,
                  counters: dict, pairs_tried: int, untraced_s: float,
                  traced_s: float) -> dict:
    setup_phase = ("setup",)
    answers = len(result.raw_ms) + len(result.view_ms)
    view_answers = len(result.view_ms)
    load_ms = tr.self_ms("load_graph", setup_phase)
    connectors = [v for v in report.views
                  if v.selected and v.kind in CONNECTOR_KINDS]
    plans = sum(len(c.per_query_plans) for c in setup.candidates)
    chosen = report.selection["chosen"]
    used = {q.view_id for q in report.queries if q.view_id is not None}
    work = {}
    for side in ("raw", "view"):
        for key in ("edges_expanded", "vertices_touched"):
            name = f"{key}.{side}"
            work[name] = counters[name] + result.counters[name]
    checked = [q for q in report.queries if q.kind not in P.REPORT_ONLY_OPS]
    rows = {"raw": sum(q.rows for q in checked) + result.rows["raw"],
            "view": sum(q.rows for q in checked if q.rewritten)
            + result.rows["view"]}
    exec_phases = ("pipeline", "stream")
    run_span = next(s for s in tr.spans if s.name == "run_pipeline")
    m = {
        "store.load_ms": (load_ms, "ms"),
        "store.load_edges_per_s": (setup.graph.m / (load_ms / 1000.0),
                                   "edges/s"),
        "store.degree_summary_ms": (tr.self_ms("degree_summary", setup_phase),
                                    "ms"),
        "store.type_scan_ms": (tr.self_ms("vertices_of_type", ("stream",))
                               / answers, "ms"),
        "query.parse_ms": (tr.self_ms("parse_query", ("stream",)) / answers,
                           "ms"),
        "mining.ms": (tr.self_ms("mine_constraints", setup_phase), "ms"),
        "enumeration.enumerate_ms": (tr.self_ms("enumerate_views",
                                                setup_phase), "ms"),
        "enumeration.candidates": (len(setup.candidates), "count"),
        "enumeration.rewrite_ms": (tr.self_ms("rewrite_with_view",
                                              ("stream",)) / view_answers,
                                   "ms"),
        "enumeration.plan_rate": (plans / max(pairs_tried, 1), "ratio"),
        "costing.ms": (tr.self_ms(("estimate_heterogeneous", "eval_cost"),
                                  setup_phase), "ms"),
        "costing.q_error.max": (max((_q_error(v) for v in connectors),
                                    default=1.0), "ratio"),
        "views.select_ms": (tr.self_ms("select_views", setup_phase), "ms"),
        "views.materialize_ms": (tr.self_ms("materialize", setup_phase),
                                 "ms"),
        "views.used_ratio": (len(used) / max(len(chosen), 1), "ratio"),
        "execution.label_propagation_ms": (
            tr.self_ms("label_propagation", ("pipeline",)), "ms"),
        "pipeline.self_ms": (run_span.self_s * 1000.0, "ms"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s,
                               "%"),
    }
    for side in ("raw", "view"):
        m[f"execution.{side}_ms"] = (
            tr.self_ms(("execute", "k_hop_neighborhood", "path_lengths"),
                       exec_phases, side), "ms")
        for key in ("edges_expanded", "vertices_touched"):
            m[f"execution.{key}.{side}"] = (work[f"{key}.{side}"], "count")
        m[f"execution.expanded_per_row.{side}"] = (
            work[f"edges_expanded.{side}"] / max(rows[side], 1), "edges/row")
    return m


def main() -> int:
    cfg = json.loads(sys.argv[1])
    out = traced(cfg) if cfg["trace"] else untraced(cfg)
    out["metrics"] = {k: {"value": v, "unit": u}
                      for k, (v, u) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
