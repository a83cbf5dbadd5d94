"""Seeded synthetic dataset generators.

Three families cover the benchmark shapes: ``lineage`` builds acyclic
job/file provenance graphs (optionally with task and machine clutter
types), ``power_law`` builds preferential-attachment graphs with
heavy-tailed degrees, and ``road_like`` builds near-regular grids. All
output is byte-identical for a fixed seed: ids are sequential, rows are
written in generation order, and every random draw goes through one
seeded generator.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidParamsError
from .store import GraphSchema

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

POWER_LAW_SCHEMA = GraphSchema.of(["Node"], [("Node", "Node", "LINK")])
ROAD_SCHEMA = GraphSchema.of(["Junction"], [("Junction", "Junction", "ROAD")])


@dataclass
class Dataset:
    vertex_file: Path
    edge_file: Path
    schema_file: Path
    schema: GraphSchema
    vertices: int
    edges: int


def _write(out_dir: Path, stem: str, schema: GraphSchema,
           vertices, edges) -> Dataset:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vf = out_dir / f"{stem}_vertices.csv"
    ef = out_dir / f"{stem}_edges.csv"
    sf = out_dir / f"{stem}_schema.json"
    n = m = 0
    with open(vf, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "type", "props"])
        for vid, vtype, props in vertices:
            writer.writerow([vid, vtype,
                             json.dumps(props, sort_keys=True) if props else ""])
            n += 1
    with open(ef, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "src", "dst", "label", "props"])
        for eid, src, dst, label, props in edges:
            writer.writerow([eid, src, dst, label,
                             json.dumps(props, sort_keys=True) if props else ""])
            m += 1
    sf.write_text(schema.to_json(), encoding="utf-8")
    return Dataset(vf, ef, sf, schema, n, m)


def generate_lineage(out_dir, seed: int, jobs: int, files: int,
                     tasks: int = 0, machines: int = 0,
                     readers_per_file: int = 2,
                     consumers_per_producer: int = 2,
                     reader_window: int = 200,
                     stem: str = "lineage") -> Dataset:
    """Acyclic provenance graph. Jobs are ordered; each file is written by
    one job and read only by strictly later jobs drawn from the producer's
    small consumer pool, so read fan-in clusters onto few job pairs (the
    structure that makes path contraction pay off). With tasks > 0 the
    4-type schema is used and each job spawns tasks that run on machines.
    """
    if jobs < 0 or files < 0 or tasks < 0 or machines < 0:
        raise InvalidParamsError("counts must be non-negative")
    if files and not jobs:
        raise InvalidParamsError("files need at least one producing job")
    if tasks and not machines:
        raise InvalidParamsError("tasks need machines to run on")
    rng = random.Random(seed)
    schema = PROVENANCE_SCHEMA if tasks else LINEAGE_SCHEMA

    vertices = []
    for j in range(jobs):
        vertices.append((f"j{j}", "Job",
                         {"cpu_hours": rng.randint(1, 100), "name": f"job-{j}"}))
    owners = []
    for f in range(files):
        owner = rng.randrange(jobs)
        owners.append(owner)
        vertices.append((f"f{f}", "File", {"bytes": rng.randint(1, 10 ** 6)}))
    for t in range(tasks):
        vertices.append((f"t{t}", "Task", {}))
    for mt in range(machines):
        vertices.append((f"m{mt}", "Machine", {}))

    pools = {}
    for j in range(jobs):
        later = range(j + 1, min(jobs, j + 1 + reader_window))
        if later:
            pools[j] = [rng.choice(later)
                        for _ in range(consumers_per_producer)]

    edges = []
    eid = 0
    ts = 0
    for f, owner in enumerate(owners):
        ts += 1
        edges.append((f"e{eid}", f"j{owner}", f"f{f}", "WRITES_TO",
                      {"timestamp": ts}))
        eid += 1
    for f, owner in enumerate(owners):
        pool = pools.get(owner)
        if not pool:
            continue
        for _ in range(readers_per_file):
            reader = rng.choice(pool)
            ts += 1
            edges.append((f"e{eid}", f"f{f}", f"j{reader}", "IS_READ_BY",
                          {"timestamp": ts}))
            eid += 1
    if tasks:
        for t in range(tasks):
            spawner = rng.randrange(jobs)
            ts += 1
            edges.append((f"e{eid}", f"j{spawner}", f"t{t}", "SPAWNS",
                          {"timestamp": ts}))
            eid += 1
            machine = rng.randrange(machines)
            ts += 1
            edges.append((f"e{eid}", f"t{t}", f"m{machine}", "RUNS_ON",
                          {"timestamp": ts}))
            eid += 1
    return _write(Path(out_dir), stem, schema, vertices, edges)


# the share of power-law vertices that are hubs, a hub's out-degree
# range, and the chance that an edge's target is a hub
HUB_FRACTION = 0.07
HUB_OUT_RANGE = (30, 50)
HUB_ATTACHMENT = 0.85


def generate_power_law(out_dir, seed: int, n: int,
                       stem: str = "power_law") -> Dataset:
    """Heavy-tailed attachment graph. A small hub class emits most edges
    (out-degree drawn from ``HUB_OUT_RANGE``; everyone else emits one),
    and targets attach preferentially to hubs. Hubs therefore dominate
    both degree directions, giving the degree distribution the very fat
    tail real social graphs show: median out-degree ~1 against hub
    degrees an order of magnitude or two larger."""
    if n < 2:
        raise InvalidParamsError("need at least 2 vertices")
    rng = random.Random(seed)
    vertices = [(f"n{i}", "Node", {}) for i in range(n)]
    hubs = [i for i in range(n) if rng.random() < HUB_FRACTION]
    if not hubs:
        hubs = [0]
    hub_set = set(hubs)
    edges = []
    eid = 0
    for v in range(n):
        out = rng.randint(*HUB_OUT_RANGE) if v in hub_set else 1
        for _ in range(out):
            if rng.random() < HUB_ATTACHMENT:
                t = rng.choice(hubs)
            else:
                t = rng.randrange(n)
            if t == v:
                continue
            edges.append((f"e{eid}", f"n{v}", f"n{t}", "LINK",
                          {"weight": rng.randint(1, 100)}))
            eid += 1
    return _write(Path(out_dir), stem, POWER_LAW_SCHEMA, vertices, edges)


def generate_road_like(out_dir, seed: int, rows: int, cols: int,
                       stem: str = "road_like") -> Dataset:
    """Near-regular grid with bidirectional road segments; a few segments
    are randomly missing. Maximum out-degree is 4."""
    if rows < 1 or cols < 1:
        raise InvalidParamsError("grid must be at least 1x1")
    rng = random.Random(seed)
    vertices = [(f"r{r}c{c}", "Junction", {}) for r in range(rows)
                for c in range(cols)]
    edges = []
    eid = 0
    for r in range(rows):
        for c in range(cols):
            here = f"r{r}c{c}"
            for dr, dc in ((0, 1), (1, 0)):
                nr, nc = r + dr, c + dc
                if nr >= rows or nc >= cols:
                    continue
                if rng.random() < 0.05:
                    continue  # missing segment
                there = f"r{nr}c{nc}"
                length = rng.randint(1, 9)
                edges.append((f"e{eid}", here, there, "ROAD", {"length": length}))
                eid += 1
                edges.append((f"e{eid}", there, here, "ROAD", {"length": length}))
                eid += 1
    return _write(Path(out_dir), stem, ROAD_SCHEMA, vertices, edges)

