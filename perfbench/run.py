"""Benchmark entry point: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-viewsync-rng --seed 0 \\
        --seconds 55 --trace 0

Prints a metric table, then as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  The full
record, with run metadata, is written under a fresh key in
``perfbench/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import os

# Load hygiene: one process, one BLAS/OpenMP thread — set before NumPy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RESULTS_DIR = BENCH_DIR / "results"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` (None outside a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text()
    except OSError:
        return None
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np

    from perfbench.driver import run_benchmark
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    recorded = json.loads(DIGESTS.read_text())
    expected = (
        recorded["digests"].get(workload.name)
        if args.seed == recorded["seed"]
        else None
    )
    load_start = os.getloadavg()
    out = run_benchmark(
        workload, args.seed, args.seconds, bool(args.trace), expected_digest=expected
    )
    load_end = os.getloadavg()
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in out["metrics"].items()
    }
    summary = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    now = datetime.datetime.now(datetime.timezone.utc)
    key = (
        f"{now:%Y%m%dT%H%M%S%fZ}-{workload.name}-seed{args.seed}"
        f"-trace{args.trace}-pid{os.getpid()}"
    )
    record = {
        "schema": "perfbench-result/1",
        "key": key,
        "meta": {
            "git_sha": git_sha(ROOT),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "hello_route": out["hello_route"],
            "loadavg_start": list(load_start),
            "loadavg_end": list(load_end),
            "digest_checked": expected is not None,
        },
        **summary,
        "errors": out["errors"],
        "drives": out["drives"],
    }
    if not args.trace:
        record["meta"]["sample_count"] = out["sample_count"]
        record["meta"]["tail_percentile"] = out["tail_percentile"]
        record["meta"]["probe_p5_s"] = out["probe_p5_s"]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / f"{key}.json", "x", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if args.trace:
        out["tracer"].write(RESULTS_DIR / f"{key}.spans.json.gz")

    print(
        f"# {workload.name} seed={args.seed} trace={args.trace} "
        f"route={out['hello_route']} drives={len(out['drives'])} "
        f"load={load_start[0]:.2f}->{load_end[0]:.2f} record={key}.json"
    )
    if not args.trace:
        p = out["tail_percentile"]
        print(
            f"# sample_p99_ms is p{p:.4g} over {out['sample_count']} sample steps"
            + (" (fewer than 1000)" if p < 99.0 else "")
        )
    for error in out["errors"]:
        print(f"# FAILED: {error}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
