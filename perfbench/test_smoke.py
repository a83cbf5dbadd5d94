"""Self-test of the benchmark at smoke-test sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once per mode with ``--tiny`` and checks the output
contract of ``run.py`` against ``BENCHMARK.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
WRAPPED = {"load_graph", "degree_summary", "vertices_of_type", "parse_query",
           "mine_constraints", "enumerate_views", "rewrite_with_view",
           "estimate_heterogeneous", "eval_cost", "select_views",
           "materialize", "execute", "k_hop_neighborhood", "path_lengths",
           "label_propagation", "run_pipeline"}


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    record, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    # ops_failed == 0: every answer matched raw execution
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ops_ok"]["value"] == 1.0
    assert min(record["samples"].values()) > 100
    for key in ("git_sha", "python", "nproc", "loadavg_start", "loadavg_end",
                "seed", "n", "m", "budget"):
        assert key in record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    record, result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    trace = record["trace"]
    assert set(trace["layers"]) == WRAPPED
    assert trace["self_ms_sum"] <= trace["wall_ms"]


def test_seed_state_findings_recorded():
    why = {w["name"]: w["why"] for w in BENCH["workloads"]}
    assert "q-error ≈21" in why["lineage"]
    assert "q-error ≈493" in why["provenance"]
    assert "anchor scan" in why["provenance"]
    assert "khop:Junction:Junction:04" in why["road"]
    assert "svtc:Junction:04:04" in why["road"]
