"""Self-tests of the benchmark: its driver, tracer and printed metrics.

Run: ``python3 -m pytest perfbench/tests``
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.experiment import run_once

from perfbench.driver import (
    PROBE_REFERENCE_S,
    at_reference,
    drive_world,
    result_digest,
    run_benchmark,
    tail,
)
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each workload shrunk to 30 nodes and 3 simulated seconds.
SMALL = {
    name: replace(w, name=f"small-{name}", n_nodes=30, duration=3.0)
    for name, w in WORKLOADS.items()
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_driver_digest_equals_run_once(name):
    workload = SMALL[name]
    driven = drive_world(workload, seed=11)
    reference = run_once(workload.spec(), seed=11, faults=workload.faults())
    assert driven.digest == result_digest(reference)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_digests_agree(name):
    workload = SMALL[name]
    tracer = Tracer()
    traced = drive_world(workload, seed=5, tracer=tracer)
    assert tracer.names, "the tracer recorded no spans"
    assert traced.digest == drive_world(workload, seed=5).digest


def test_self_times_sum_within_traced_wall():
    out = run_benchmark(SMALL["paper-viewsync-rng"], seed=3, seconds=0.5, trace=True)
    metrics = {name: value for name, (value, _) in out["metrics"].items()}
    self_total = sum(
        row["self_s"] for row in out["tracer"].layer_times().values()
    )
    assert 0.0 < self_total <= metrics["traced_wall_s"]
    assert metrics["unattributed_s"] >= 0.0
    assert out["failed"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(trace):
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    out = run_benchmark(SMALL["gossip-rng"], seed=2, seconds=0.1, trace=trace)
    printed = {name: unit for name, (_, unit) in out["metrics"].items()}
    assert printed == declared


def test_repeats_hash_alike_and_keep_fastest_steps():
    workload = replace(SMALL["paper-viewsync-rng"], repeats=3, batch=2)
    out = run_benchmark(workload, seed=4, seconds=0.1, trace=False)
    assert (out["attempted"], out["failed"]) == (6, 0)
    digests: dict[int, set[str]] = {}
    for drive in out["drives"]:
        digests.setdefault(drive["seed"], set()).add(drive["digest"])
    assert len(digests) == 2 and all(len(d) == 1 for d in digests.values())
    first = out["drives"][:2]
    single = sum(d["sim_s"] for d in first) / sum(d["cpu_s"] for d in first)
    assert out["metrics"]["sim_s_per_cpu_s"][0] >= single


def test_at_reference_scales_by_mean_probe():
    slow = 2.0 * PROBE_REFERENCE_S
    assert at_reference(0.3, slow, slow) == pytest.approx(0.15)
    assert at_reference(0.3, PROBE_REFERENCE_S, 3 * PROBE_REFERENCE_S) == pytest.approx(0.15)


def test_wrong_expected_digest_fails_world_0():
    out = run_benchmark(
        SMALL["gossip-rng"], seed=0, seconds=0.1, trace=False,
        expected_digest="0" * 64,
    )
    assert out["failed"] == out["attempted"] > 0


def test_workloads_are_declared():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == [name for name, w in WORKLOADS.items() if w.benchmarked]


def test_tail_keeps_ten_samples_beyond_below_1000():
    values = [float(v) for v in range(100)]
    assert tail(values) == (89.0, pytest.approx(90.0))
    assert tail([1.0] * 5000) == (1.0, 99.0)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "gossip-rng",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
