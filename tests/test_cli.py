"""Tests for repro.cli: argument parsing and end-to-end command runs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def test_import_leaves_heavy_libraries_unloaded():
    # scipy.stats (~0.8 s) and networkx (~0.15 s) load on first use, so a
    # CLI call or a queue worker does not pay for them at start-up.
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('scipy.stats', 'networkx') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == "quick" and args.command == "table1"

    def test_scale_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--scale", "galactic"])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--protocol", "mst", "--mechanism", "weak", "--buffer", "10",
             "--speed", "40", "--pn"]
        )
        assert args.protocol == "mst"
        assert args.mechanism == "weak"
        assert args.buffer == 10.0
        assert args.pn

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "pigeon"])


class TestMain:
    def test_run_command_prints_summary(self, capsys):
        code = main(
            [
                "run", "--protocol", "rng", "--speed", "5", "--nodes", "12",
                "--duration", "5", "--sample-rate", "1", "--repetitions", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "connectivity" in out
        assert "rng+baseline" in out

    def test_unicast_subcommand(self, capsys):
        code = main(["unicast", "--scale", "smoke", "--speed", "10"])
        out = capsys.readouterr().out
        assert code == 0 and "GFG/GPSR" in out

    def test_lifetime_subcommand(self, capsys):
        code = main(["lifetime", "--scale", "smoke", "--budget", "1e7"])
        out = capsys.readouterr().out
        assert code == 0 and "lifetime" in out

    def test_equivalence_subcommand(self, capsys):
        code = main(["equivalence", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert code == 0 and "v_over_R" in out

    def test_table1_smoke_with_csv(self, capsys, tmp_path, monkeypatch):
        # swap the smoke scale in for an even smaller one via --scale smoke
        csv_path = tmp_path / "t1.csv"
        code = main(["table1", "--scale", "smoke", "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "artifact" in header


class TestTelemetryFlag:
    def test_run_with_telemetry_writes_valid_jsonl_and_phases(self, capsys, tmp_path):
        from repro.telemetry import validate_jsonl

        path = tmp_path / "out.jsonl"
        code = main(
            [
                "run", "--protocol", "rng", "--speed", "5", "--nodes", "12",
                "--duration", "5", "--sample-rate", "1", "--repetitions", "1",
                "--telemetry", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert validate_jsonl(path) == []
        assert "telemetry — run" in out
        assert "hello_sent" in out
        phases = tmp_path / "out.jsonl.phases.json"
        assert phases.exists()
        import json

        doc = json.loads(phases.read_text())
        assert "engine_run" in doc["phases"]

    def test_telemetry_multi_worker_merges(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        code = main(
            [
                "run", "--protocol", "rng", "--speed", "5", "--nodes", "12",
                "--duration", "5", "--sample-rate", "1", "--repetitions", "2",
                "--workers", "2", "--telemetry", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "forcing --workers 1" not in out
        assert "parent-side events only" in out
        assert "hello_sent" in out  # worker counters merged into the summary
        assert path.exists()

    def test_figures_accept_telemetry(self, capsys, tmp_path):
        from repro.telemetry import validate_jsonl

        path = tmp_path / "fig.jsonl"
        code = main(["table1", "--scale", "smoke", "--telemetry", str(path)])
        assert code == 0
        assert validate_jsonl(path) == []
        assert "telemetry — table1" in capsys.readouterr().out


class TestOrchestratedCommands:
    RUN = [
        "run", "--protocol", "rng", "--speed", "5", "--nodes", "12",
        "--duration", "5", "--sample-rate", "1", "--repetitions", "2",
    ]

    def test_unit_timeout_at_one_worker_completes(self, capsys):
        assert main(self.RUN + ["--unit-timeout", "60"]) == 0
        out = capsys.readouterr().out
        assert "[orchestrator] 2 executed; 0 resumed; 0 quarantined" in out

    def test_cold_run_prints_no_orchestrator_lines(self, capsys):
        assert main(self.RUN) == 0
        assert "[orchestrator]" not in capsys.readouterr().out

    def test_overhead_honours_store_and_unit_budget(self, capsys, tmp_path):
        from repro.orchestrator import RunStore

        db = tmp_path / "s.db"
        code = main(
            ["overhead", "--scale", "smoke", "--store", str(db), "--max-units", "1"]
        )
        assert code == 3
        assert "[orchestrator] interrupted" in capsys.readouterr().out
        with RunStore(db) as store:
            assert store.counts()["done"] == 1

    def test_telemetry_stream_same_with_and_without_store(self, capsys, tmp_path):
        """At one worker, units trace in-process: the JSONL stream holds
        every event whether or not a store checkpoints the campaign."""
        import collections
        import json

        tallies = []
        for name, extra in (("cold", []), ("stored", ["--store", str(tmp_path / "s.db")])):
            path = tmp_path / f"{name}.jsonl"
            assert main(self.RUN + ["--telemetry", str(path)] + extra) == 0
            records = [json.loads(line) for line in path.read_text().splitlines()]
            tallies.append(collections.Counter(r["record"] for r in records))
        capsys.readouterr()
        cold, stored = tallies
        assert cold["event"] > 0
        assert cold == stored
