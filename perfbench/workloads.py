"""The benchmark's three workloads: a fixed graph, its templates and a
seeded query stream each.

A workload writes its dataset CSVs, query files and workload JSON into a
directory; the program sees only those files. The graph of a workload is
fixed (its own generator seed), so the pipeline's work counters repeat in
every run. The ``--seed`` of a run picks the anchors of the stream.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from graphviews.generate import generate_lineage, generate_road_like

BLAST = ("MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
         "(q_f1)-[r*0..8]->(q_f2:File), (q_f2)-[:IS_READ_BY]->(q_j2:Job) "
         "{where}RETURN q_j1.id, avg(q_j2.cpu_hours)")
ROAD_COUNT = ("MATCH (a:Junction)-[p*4..4]->(b:Junction) "
              "WHERE a.id = '{src}' RETURN b.id, count(a)")
ROAD_REACH = ("MATCH (a:Junction)-[p*1..4]->(b:Junction) "
              "WHERE a.id = '{src}' RETURN b.id")


def blast(job: str | None) -> str:
    """Q1: blast radius of every job, or of one job when pinned."""
    return BLAST.format(where=f"WHERE q_j1.id = '{job}' " if job else "")


@dataclass(frozen=True)
class StreamQuery:
    """One stream request: the template it instantiates, and either
    query text or op parameters."""

    template: str
    text: str | None = None
    op: str | None = None
    params: dict | None = None


def _job_op(job: str, **extra) -> dict:
    return {"source": job, "hops": 4, "result_type": "Job", **extra}


PINNED_PER_ROUND = 9
JOB_OPS = (("q2", "ancestors", {}), ("q3", "descendants", {}),
           ("q4", "path_lengths", {"property": "timestamp"}))


@dataclass(frozen=True)
class Workload:
    name: str
    budget: float
    graph: dict          # generator arguments
    tiny_graph: dict     # the same, at smoke-test size
    anchor_stride: int = 1   # pinned Q1s cover every stride-th job

    def sized(self, tiny: bool) -> "Workload":
        return replace(self, graph=self.tiny_graph) if tiny else self

    def generate(self, out: Path):
        """Write dataset, query files and workload.json; returns the
        dataset and the workload file."""
        out.mkdir(parents=True, exist_ok=True)
        if self.name == "road":
            ds = generate_road_like(out, **self.graph)
            files = {"q1.query": ROAD_COUNT.format(src="r0c0"),
                     "q2.query": ROAD_REACH.format(src="r0c0")}
            centre = f"r{self.graph['rows'] // 2}c{self.graph['cols'] // 2}"
            op = {"source": centre, "hops": 4, "result_type": "Junction"}
            queries = [
                {"name": "q1", "file": "q1.query"},
                {"name": "q2", "file": "q2.query"},
                {"name": "q3", "op": "descendants", "params": op},
                {"name": "q4", "op": "path_lengths",
                 "params": {**op, "property": "length"}},
                {"name": "q5", "op": "label_propagation",
                 "params": {"passes": 6}},
            ]
        else:
            ds = generate_lineage(out, **self.graph)
            pinned = "j0" if self.name == "provenance" else None
            files = {"q1.query": blast(pinned)}
            queries = [{"name": "q1", "file": "q1.query", "weight": 2.0}]
            queries += [{"name": name, "op": op,
                         "params": _job_op("j20" if name == "q2" else "j2", **extra)}
                        for name, op, extra in JOB_OPS]
            if self.name == "lineage":
                files["q5.query"] = "MATCH (a)-[]->(b) RETURN count(a)"
                files["q6.query"] = "MATCH (a:Job) RETURN count(a)"
                queries += [{"name": "q5", "file": "q5.query"},
                            {"name": "q6", "file": "q6.query"}]
            queries.append({"name": "q7", "op": "label_propagation",
                            "params": {"passes": 6}})
            if self.name == "lineage":
                queries.append({"name": "q8", "op": "largest_community",
                                "params": {"passes": 6, "count_type": "Job"}})
        for fname, text in files.items():
            (out / fname).write_text(text, encoding="utf-8")
        spec = {
            "graph": {"vertices": ds.vertex_file.name,
                      "edges": ds.edge_file.name,
                      "schema": ds.schema_file.name},
            "budget": self.budget, "alpha": 95, "max_k": 10, "seed": 0,
            "queries": queries,
        }
        path = out / "workload.json"
        path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
        return ds, path

    def stream(self, seed: int, length: int) -> list[StreamQuery]:
        """``length`` requests cycling over the workload's stream shapes.
        Road requests start at seeded random junctions. Pinned Q1s go
        through every ``anchor_stride``-th job (from a seeded offset) in
        a seeded order, then again; the ops start at seeded random jobs."""
        rng = random.Random(f"{self.name}:{seed}")
        jobs = self.graph.get("jobs", 0)
        # Q1 latency differs widely between jobs; a fixed share of them in
        # a seeded order keeps which jobs a run reaches from moving p90
        anchors = list(range(rng.randrange(self.anchor_stride), jobs,
                             self.anchor_stride))
        rng.shuffle(anchors)
        pinned = itertools.cycle(anchors)
        out = []
        while len(out) < length:
            if self.name == "road":
                rows, cols = self.graph["rows"], self.graph["cols"]
                for template, text in (("q1", ROAD_COUNT), ("q2", ROAD_REACH)):
                    src = f"r{rng.randrange(rows)}c{rng.randrange(cols)}"
                    out.append(StreamQuery(template, text=text.format(src=src)))
                continue
            # nine pinned Q1s per op, so that p50 and p90 both fall inside
            # the Q1 latency distribution: with a larger share of the much
            # cheaper ops, p50 sits on a cliff of the lineage view latencies
            for _ in range(PINNED_PER_ROUND):
                out.append(StreamQuery("q1", text=blast(f"j{next(pinned)}")))
            name, op, extra = JOB_OPS[len(out) // 10 % len(JOB_OPS)]
            out.append(StreamQuery(name, op=op, params=_job_op(
                f"j{rng.randrange(jobs)}", **extra)))
        return out[:length]


WORKLOADS = {
    "lineage": Workload(
        "lineage", 10 ** 6,
        graph={"seed": 0, "jobs": 2000, "files": 4000},
        tiny_graph={"seed": 0, "jobs": 40, "files": 80}),
    "provenance": Workload(
        "provenance", 3 * 10 ** 6,
        graph={"seed": 0, "jobs": 3400, "files": 6600, "tasks": 60000,
               "machines": 30000},
        tiny_graph={"seed": 0, "jobs": 40, "files": 80, "tasks": 400,
                    "machines": 200},
        anchor_stride=8),
    "road": Workload(
        "road", 2 * 10 ** 6,
        graph={"seed": 1, "rows": 60, "cols": 60},
        tiny_graph={"seed": 1, "rows": 6, "cols": 6}),
}
