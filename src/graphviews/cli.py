"""Command-line interface.

Subcommands: generate, load-check, mine, enumerate, estimate, select,
materialize, run, bench. Exit codes: 0 success, 2 validation error,
3 budget or cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .costing import (
    estimate_er,
    estimate_heterogeneous,
    exact_path_count,
)
from .enumeration import VIEW_KINDS, enumerate_views, rewrite_with_view
from .errors import (
    BudgetExceededError,
    GraphViewsError,
    InvalidParamsError,
    ValidationError,
)
from .execution import ExecutionStats, execute
from .generate import generate_lineage, generate_power_law, generate_road_like
from .mining import mine_constraints, mine_query_facts, mine_schema_facts, sort_facts
from .pipeline import WorkloadSpec, build_candidates, run_pipeline
from .query import parse_query
from .store import GraphSchema, PropertyGraph, degree_summary, load_graph
from .views import ViewCatalog, catalog_load, catalog_save, materialize, select_views


def _load(args) -> PropertyGraph:
    schema = GraphSchema.load(args.schema)
    return load_graph(args.vertices, args.edges, schema)


def cmd_generate(args) -> int:
    if args.kind == "lineage":
        ds = generate_lineage(
            args.out, args.seed, jobs=args.jobs, files=args.files,
            tasks=args.tasks, machines=args.machines,
            readers_per_file=args.readers,
            consumers_per_producer=args.consumers, stem=args.stem)
    elif args.kind == "power_law":
        ds = generate_power_law(args.out, args.seed, n=args.n, stem=args.stem)
    elif args.kind == "road_like":
        ds = generate_road_like(args.out, args.seed, rows=args.rows,
                                cols=args.cols, stem=args.stem)
    else:
        raise InvalidParamsError(f"unknown dataset kind {args.kind!r}")
    print(f"wrote {ds.vertices} vertices, {ds.edges} edges")
    print(f"  {ds.vertex_file}\n  {ds.edge_file}\n  {ds.schema_file}")
    return 0


def cmd_load_check(args) -> int:
    g = _load(args)
    print(f"ok: {g.n} vertices, {g.m} edges")
    for vtype, count in sorted(g.type_counts().items()):
        print(f"  {vtype}: {count}")
    return 0


def cmd_mine(args) -> int:
    schema = GraphSchema.load(args.schema)
    facts = set(mine_schema_facts(schema))
    if args.query:
        q = parse_query(Path(args.query).read_text(encoding="utf-8"))
        facts |= mine_query_facts(q)
    for fact in sort_facts(facts):
        print(fact.render())
    return 0


def cmd_enumerate(args) -> int:
    schema = GraphSchema.load(args.schema)
    q = parse_query(Path(args.query).read_text(encoding="utf-8"))
    constraints = mine_constraints(q, schema)
    views = enumerate_views(q, schema, constraints, max_k=args.max_k)
    by_kind: dict[str, list] = {}
    for v in views:
        by_kind.setdefault(v.kind, []).append(v)
    for kind in VIEW_KINDS:
        if kind not in by_kind:
            continue
        header = kind[0].lower() + kind[1:]
        print(f"{header}:")
        for v in by_kind[kind]:
            print(v.unification())
    return 0


def cmd_estimate(args) -> int:
    schema = GraphSchema.load(args.schema)
    full = load_graph(args.vertices, args.edges, schema)
    rows = list(full.edges())
    sizes = []
    size = 1000
    while size < len(rows):
        sizes.append(size)
        size *= 10
    sizes.append(len(rows))
    k = args.k
    print(f"{'edges':>10} {'est a=50':>14} {'est a=95':>14} {'est a=100':>14} "
          f"{'erdos-renyi':>14} {'exact':>12}")
    for prefix in sizes:
        g = PropertyGraph.build(
            schema, list(full.vertices()),
            [(e, s, d, l, p) for e, s, d, l, p in rows[:prefix]])
        d = degree_summary(g)
        ests = [estimate_heterogeneous(d, k, alpha).estimated_edges
                for alpha in (50, 95, 100)]
        try:
            er = estimate_er(g.n, g.m, k).estimated_edges
            er_text = f"{er:>14.1f}"
        except ValidationError:
            er_text = f"{'-':>14}"
        try:
            exact = exact_path_count(g, k, step_budget=args.exact_budget)
            exact_text = f"{exact:>12}"
        except BudgetExceededError:
            exact_text = f"{'-':>12}"
        print(f"{g.m:>10} {ests[0]:>14.1f} {ests[1]:>14.1f} {ests[2]:>14.1f} "
              f"{er_text} {exact_text}")
    return 0


def _workload(args) -> WorkloadSpec:
    spec = WorkloadSpec.from_file(args.workload)
    if args.budget is not None:
        spec.budget = args.budget
    if args.alpha is not None:
        spec.alpha = args.alpha
    if args.max_k is not None:
        spec.max_k = args.max_k
    if getattr(args, "seed", None) is not None:
        spec.seed = args.seed
    return spec


def _candidates_for(spec: WorkloadSpec):
    from .pipeline import _prepare

    schema = GraphSchema.load(spec.schema_file)
    graph = load_graph(spec.vertex_file, spec.edge_file, schema)
    summary = degree_summary(graph)
    prepared = [_prepare(q) for q in spec.queries]
    return graph, schema, build_candidates(
        prepared, schema, summary, graph, spec.alpha, spec.max_k)


def cmd_select(args) -> int:
    spec = _workload(args)
    _, _, candidates = _candidates_for(spec)
    chosen = select_views(candidates, spec.budget)
    chosen_ids = {c.view.view_id for c in chosen}
    print(f"{'view':<28} {'kind':<24} {'weight':>12} {'value':>12}  chosen")
    for c in candidates:
        mark = "*" if c.view.view_id in chosen_ids else ""
        print(f"{c.view.view_id:<28} {c.view.kind:<24} "
              f"{c.weight:>12.1f} {c.value:>12.6f}  {mark}")
        if c.twins:
            print(f"  same content as: {', '.join(c.twins)}")
    total = sum(c.weight for c in chosen)
    print(f"selected {len(chosen)} views, total weight {total:.1f} "
          f"<= budget {spec.budget}")
    return 0


def cmd_materialize(args) -> int:
    spec = _workload(args)
    graph, _, candidates = _candidates_for(spec)
    matching = [c for c in candidates if c.view.view_id == args.view_id]
    kept = next((c.view.view_id for c in candidates
                 if args.view_id in c.twins), None)
    if kept is not None:
        raise ValidationError(
            f"view {args.view_id!r} has the same content as {kept!r}; "
            f"materialize {kept!r} instead")
    if not matching:
        known = ", ".join(c.view.view_id for c in candidates)
        raise ValidationError(
            f"view {args.view_id!r} is not a candidate (known: {known})")
    view = matching[0].view
    view_graph = materialize(graph, view, max_edges=args.max_view_edges,
                             threads=args.threads)
    catalog_dir = Path(args.catalog)
    if (catalog_dir / "manifest.json").exists():
        catalog = catalog_load(catalog_dir)
    else:
        catalog = ViewCatalog()
    catalog.add(view, view_graph)
    catalog_save(catalog, catalog_dir)
    print(f"materialized {view.view_id}: {view_graph.n} vertices, "
          f"{view_graph.m} edges -> {catalog_dir}")
    return 0


def cmd_run(args) -> int:
    schema = GraphSchema.load(args.schema)
    q = parse_query(Path(args.query).read_text(encoding="utf-8"))
    if args.view:
        if args.catalog is None:
            raise InvalidParamsError("--view needs --catalog")
        catalog = catalog_load(args.catalog)
        entry = catalog.get(args.view)
        plan = rewrite_with_view(q, entry.view, schema)
        table, stats = execute(plan.rewritten, entry.graph, ExecutionStats())
    else:
        g = load_graph(args.vertices, args.edges, schema)
        table, stats = execute(q, g, ExecutionStats())
    sys.stdout.write(table.to_csv())
    print(f"edges_expanded={stats.edges_expanded} "
          f"vertices_touched={stats.vertices_touched} ms={stats.wall_ms:.3f}")
    return 0


def cmd_bench(args) -> int:
    spec = _workload(args)
    report = run_pipeline(spec, threads=args.threads,
                          catalog_dir=args.catalog,
                          max_view_edges=args.max_view_edges)
    if args.out:
        Path(args.out).write_text(
            report.to_json(include_timing=not args.no_timing),
            encoding="utf-8")
        print(f"report written to {args.out}")
    print(report.table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphviews",
        description="Materialized graph views: mine constraints, enumerate "
                    "and select views, rewrite and execute queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_args(p):
        p.add_argument("--vertices", required=True)
        p.add_argument("--edges", required=True)
        p.add_argument("--schema", required=True)

    def workload_args(p):
        p.add_argument("--workload", required=True)
        p.add_argument("--budget", type=float, default=None)
        p.add_argument("--alpha", type=int, choices=[50, 90, 95, 100],
                       default=None)
        p.add_argument("--max-k", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("kind", choices=["lineage", "power_law", "road_like"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stem", default=None)
    p.add_argument("--jobs", type=int, default=100)
    p.add_argument("--files", type=int, default=200)
    p.add_argument("--tasks", type=int, default=0)
    p.add_argument("--machines", type=int, default=0)
    p.add_argument("--readers", type=int, default=2)
    p.add_argument("--consumers", type=int, default=2)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--rows", type=int, default=30)
    p.add_argument("--cols", type=int, default=30)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("load-check", help="validate a dataset")
    graph_args(p)
    p.set_defaults(func=cmd_load_check)

    p = sub.add_parser("mine", help="dump mined facts")
    p.add_argument("--schema", required=True)
    p.add_argument("--query", default=None)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("enumerate", help="enumerate candidate views")
    p.add_argument("--schema", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--max-k", type=int, default=10)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("estimate", help="view size estimates over prefixes")
    graph_args(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--exact-budget", type=int, default=10 ** 7)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select", help="pick views under a budget")
    workload_args(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("materialize", help="materialize one candidate view")
    workload_args(p)
    p.add_argument("--view-id", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--max-view-edges", type=int, default=None)
    p.set_defaults(func=cmd_materialize)

    p = sub.add_parser("run", help="execute a query, raw or over a view")
    graph_args(p)
    p.add_argument("--query", required=True)
    p.add_argument("--view", default=None)
    p.add_argument("--catalog", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run a whole workload and report")
    workload_args(p)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--catalog", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--no-timing", action="store_true")
    p.add_argument("--max-view-edges", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "stem", None) is None and args.command == "generate":
        args.stem = args.kind
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except GraphViewsError as exc:
        stage = getattr(exc, "stage", None)
        prefix = f"error in stage {stage!r}: " if stage else "error: "
        print(prefix + str(exc), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
