"""Materialized graph views for property-graph workloads.

Mines structural constraints from a graph schema and a query workload,
enumerates candidate views (path-contracting connectors and
filter/aggregate sparsifiers), selects views under a space budget via
0-1 knapsack, materializes them, and rewrites queries to run over the
views with identical results.
"""

from .costing import (
    CostReport,
    SizeEstimate,
    estimate_er,
    estimate_heterogeneous,
    estimate_homogeneous,
    eval_cost,
    exact_path_count,
)
from .enumeration import (
    Predicate,
    RewritePlan,
    VIEW_KINDS,
    ViewInstance,
    enumerate_views,
    rewrite_with_view,
)
from .execution import (
    ExecutionStats,
    execute,
    k_hop_neighborhood,
    label_propagation,
    largest_community,
    path_lengths,
)
from .mining import (
    SchemaPath,
    mine_constraints,
    mine_query_facts,
    mine_schema_facts,
    schema_k_hop_paths,
)
from .pipeline import BenchReport, WorkloadSpec, run_pipeline
from .query import QueryGraph, ResultTable, parse_query, render_query
from .store import (
    DegreeSummary,
    GraphSchema,
    PropertyGraph,
    degree_summary,
    load_graph,
)
from .views import (
    Candidate,
    ViewCatalog,
    catalog_load,
    catalog_save,
    materialize,
    materialize_sparsifier,
    materialize_spanner,
    select_views,
)

__version__ = "0.1.0"
