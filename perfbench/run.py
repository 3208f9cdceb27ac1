"""Benchmark entry point.

    python3 perfbench/run.py --workload train-full --seed 0 --seconds 40 --trace 0

Run from the repository root. ``semtrack`` is imported from ``src/`` of the
same checkout and never from an installed copy; without it the run exits
with a non-zero status and prints no result. ``--workload all`` runs every
workload in turn. Each workload prints its metrics with units, a ``# meta``
line with the run's environment, and, last, one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics. Result files and span dumps go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread: the small matrices here run faster and steadier on one,
# and the thread count must be fixed before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_program():
    """Put this checkout's ``src`` and root first on the path; refuse to run
    against any other copy of ``semtrack``."""
    src = ROOT / "src"
    if not (src / "semtrack" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no semtrack sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import semtrack
    if Path(semtrack.__file__).resolve().parent != (src / "semtrack").resolve():
        raise SystemExit(f"perfbench: imported semtrack from {semtrack.__file__}")


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; a copy
    of the sources without ``.git`` reads "unknown"."""
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
    return "unknown"


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import platform
    import scipy
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(result: dict, metric_specs: list[dict]) -> dict:
    """The result line: exactly the metrics of ``metric_specs``, with units."""
    values = result["values"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metric_specs}}


def run_one(name: str, seed: int, seconds: float, trace: int) -> None:
    from perfbench import workloads
    workload = workloads.WORKLOADS[name]
    if trace:
        result = workloads.run_traced(workload, seed, OUT_DIR)
        metric_specs = spec()["per_layer"]
    else:
        result = workloads.run_end_to_end(workload, seed, seconds)
        metric_specs = spec()["end_to_end"]
    line = report(result, metric_specs)
    meta = metadata(name, seed, seconds, trace)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"meta": meta, "detail": result["detail"], **line}, indent=2) + "\n")
    for metric, entry in line["metrics"].items():
        print(f"{name:14s} {metric:42s} {entry['value']:14.6g} {entry['unit']}")
    print("# meta " + json.dumps(meta))
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    _import_program()
    from perfbench.workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_one(name, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
