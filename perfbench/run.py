"""graphviews benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lineage --seed 1 --seconds 10 --trace 0

Run from the repository root. Generates the workload's inputs (untimed),
then measures it in a child process of its own, so the child's peak
memory is the workload's alone. Prints a run record (git sha, Python,
nproc, load, seed, input sizes, budget, deterministic counters) and, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Exits non-zero, naming the failing (workload, query,
view), when any answer differs from raw execution or a deterministic
counter differs from an earlier run of the same code and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"     # scratch inputs, traces and counter records
CHILD_TIMEOUT_S = 170


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the engine's and the benchmark's sources: identifies
    the code measured even where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "graphviews").glob("*.py"),
                        *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: shows in the record how
    fast the machine ran around a measurement."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i % 7
        times.append((time.perf_counter() - started) * 1000.0)
    return sorted(times)[2]


def check_repeatable(key: str, counters: dict) -> str | None:
    """Compare the run's deterministic counters with the first run of the
    same code, workload, size, seed and mode in this checkout."""
    record = WORK / "counters" / f"{key}.json"
    text = json.dumps(counters, sort_keys=True)
    if record.exists():
        before = record.read_text(encoding="utf-8")
        if before != text:
            return f"deterministic counters differ from {record.name}"
        return None
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(text, encoding="utf-8")
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (self-test only)")
    args = ap.parse_args(argv)

    if not (SRC / "graphviews" / "__init__.py").is_file():
        return _fail(f"no graphviews sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload].sized(args.tiny)
    load_start, speed_start = os.getloadavg(), speed_probe_ms()
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        started = time.perf_counter()
        ds, workload_file = workload.generate(run_dir / "inputs")
        generate_ms = (time.perf_counter() - started) * 1000.0
        cfg = {"workload": args.workload, "tiny": args.tiny,
               "workload_file": str(workload_file), "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "generate_ms": generate_ms,
               "trace_file": str(WORK / "traces"
                                 / f"{args.workload}-{args.seed}.json")}
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        child = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            stdout=subprocess.PIPE, env=env, text=True,
            timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if child.returncode != 0:
        return _fail(f"worker exited with {child.returncode}")
    out = json.loads(child.stdout.strip().splitlines()[-1])

    digest = source_digest()
    record = {
        "record": {
            "workload": args.workload, "tiny": args.tiny, "seed": args.seed,
            "trace": args.trace, "git_sha": git_sha(),
            "source_sha256": digest, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(), "speed_probe_ms_start":
            speed_start, "speed_probe_ms_end": speed_probe_ms(),
            "budget": workload.budget,
            "n": ds.vertices, "m": ds.edges,
            "attempted": out["attempted"], "failures": out["failures"],
            **{k: v for k, v in out.items()
               if k not in ("metrics", "attempted", "failures")},
        }
    }
    print(json.dumps(record, sort_keys=True))
    problems = [f"{f['workload']} {f['template']} view={f['view']} "
                f"({f['side']}): {f['why']}: {f['query']}"
                for f in out["failures"]]
    det = out["deterministic"]
    if not det["pipeline_reps_identical"]:
        problems.append("run_pipeline reports differ between repetitions")
    size = "tiny" if args.tiny else "full"
    mismatch = check_repeatable(
        f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}-"
        f"{digest[:16]}", det)
    if mismatch:
        problems.append(mismatch)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": out["attempted"],
                      "failed": len(out["failures"]),
                      "metrics": out["metrics"]}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
