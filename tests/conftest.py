import copy
import random

import pytest

from graphviews.generate import generate_road_like
from graphviews.store import GraphSchema, PropertyGraph, load_graph


LINEAGE_SCHEMA = GraphSchema.of(
    ["Job", "File"],
    [("Job", "File", "WRITES_TO"), ("File", "Job", "IS_READ_BY")],
)

PROVENANCE_SCHEMA = GraphSchema.of(
    ["Job", "File", "Task", "Machine"],
    [
        ("Job", "File", "WRITES_TO"),
        ("File", "Job", "IS_READ_BY"),
        ("Job", "Task", "SPAWNS"),
        ("Task", "Machine", "RUNS_ON"),
    ],
)

BLAST_RADIUS_QUERY = (
    "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), (q_f1)-[r*0..8]->(q_f2:File), "
    "(q_f2)-[:IS_READ_BY]->(q_j2:Job) "
    "RETURN q_j1.id, avg(q_j2.cpu_hours)"
)


@pytest.fixture
def lineage_schema():
    return LINEAGE_SCHEMA


@pytest.fixture
def provenance_schema():
    return PROVENANCE_SCHEMA


@pytest.fixture
def toy_lineage():
    """j1 -WRITES_TO-> f1 -IS_READ_BY-> j2; n=3, m=2."""
    return PropertyGraph.build(
        LINEAGE_SCHEMA,
        vertices=[
            ("j1", "Job", {"cpu_hours": 5}),
            ("j2", "Job", {"cpu_hours": 10}),
            ("f1", "File", {}),
        ],
        edges=[
            ("e1", "j1", "f1", "WRITES_TO", {}),
            ("e2", "f1", "j2", "IS_READ_BY", {}),
        ],
    )


def random_lineage_dag(seed: int, jobs: int = 20, files: int = 30,
                       max_readers: int = 2,
                       schema: GraphSchema = LINEAGE_SCHEMA) -> PropertyGraph:
    """Random acyclic lineage graph: files are written by one job and read
    only by strictly later jobs, so every walk is a simple path. Roughly a
    quarter of reads are duplicated to exercise multi-edge handling."""
    rng = random.Random(seed)
    vertices = []
    edges = []
    for j in range(jobs):
        vertices.append((f"j{j}", "Job", {"cpu_hours": rng.randint(1, 50)}))
    owners = {}
    for f in range(files):
        owner = rng.randrange(max(1, jobs - 1)) if jobs > 1 else 0
        owners[f] = owner
        vertices.append((f"f{f}", "File", {}))
    eid = 0
    ts = 0
    for f in range(files):
        ts += 1
        edges.append((f"e{eid}", f"j{owners[f]}", f"f{f}", "WRITES_TO",
                      {"timestamp": ts}))
        eid += 1
    for f in range(files):
        later = list(range(owners[f] + 1, jobs))
        if not later:
            continue
        for reader in rng.sample(later, min(len(later), rng.randint(0, max_readers))):
            repeats = 2 if rng.random() < 0.25 else 1
            for _ in range(repeats):
                ts += 1
                edges.append((f"e{eid}", f"f{f}", f"j{reader}", "IS_READ_BY",
                              {"timestamp": ts}))
                eid += 1
    return PropertyGraph.build(schema, vertices, edges)


def weighted_lineage_dag(seed: int, **kwargs) -> PropertyGraph:
    """``random_lineage_dag`` with ``path_count`` 2 or 3 on about a third
    of the edges, as a graph of contracted edges would carry."""
    rng = random.Random(seed)
    g = random_lineage_dag(seed, **kwargs)
    edges = []
    for eid, src, dst, label, props in g.edges():
        if rng.random() < 0.35:
            props = {**props, "path_count": rng.randint(2, 3)}
        edges.append((eid, src, dst, label, props))
    return PropertyGraph.build(g.schema, list(g.vertices()), edges)


def as_cyclic(g: PropertyGraph) -> PropertyGraph:
    """The same graph flagged as cyclic, so every traversal over it takes
    the edge-distinct trail search instead of the frontier sweep."""
    h = copy.copy(g)
    h._acyclic = False
    return h


def cluttered_lineage_dag(seed: int) -> PropertyGraph:
    """A ``random_lineage_dag`` over the provenance schema whose jobs each
    spawn one to four tasks, each task running on one of five machines:
    clutter no File or Job can be reached from."""
    rng = random.Random(seed)
    g = random_lineage_dag(seed, jobs=12, files=18, schema=PROVENANCE_SCHEMA)
    vertices, edges = list(g.vertices()), list(g.edges())
    machines = [f"m{i}" for i in range(5)]
    vertices += [(m, "Machine", {}) for m in machines]
    for job in g.vertices_of_type("Job"):
        for _ in range(rng.randint(1, 4)):
            task = f"t{len(vertices)}"
            vertices.append((task, "Task", {}))
            edges.append((f"x{len(edges)}", job, task, "SPAWNS", {}))
            edges.append((f"x{len(edges)}", task, rng.choice(machines),
                          "RUNS_ON", {}))
    return PropertyGraph.build(PROVENANCE_SCHEMA, vertices, edges)


def road_5x5(tmp_path) -> PropertyGraph:
    """The seed-1 5x5 road grid, written to ``tmp_path`` and loaded."""
    ds = generate_road_like(tmp_path, seed=1, rows=5, cols=5)
    return load_graph(ds.vertex_file, ds.edge_file, ds.schema)
