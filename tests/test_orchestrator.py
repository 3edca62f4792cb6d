"""Tests for the campaign orchestrator: units, store, backends, resume."""

from __future__ import annotations

import json
import os
import re
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.analysis.experiment import (
    ExperimentSpec,
    run_once,
    run_repetitions_many,
)
from repro.mobility.base import Area
from repro.orchestrator import (
    OrchestrationContext,
    RunStore,
    WorkUnit,
    content_unit_id,
    execute_unit,
    result_from_dict,
    result_to_dict,
    unit_id,
)
from repro.orchestrator import runner
from repro.orchestrator.backend import InProcessBackend, QueueBackend
from repro.orchestrator.runner import (
    CampaignInterrupted,
    clear_unit_timeout,
    install_unit_timeout,
)
from repro.sim.config import ScenarioConfig
from repro.util.errors import (
    ConfigurationError,
    OrchestrationError,
    UnitTimeoutError,
    WorkUnitError,
)

TINY = ScenarioConfig(
    n_nodes=10,
    area=Area(285.0, 285.0),
    normal_range=250.0,
    duration=5.0,
    warmup=2.0,
    sample_rate=1.0,
)

SPEC = ExperimentSpec(protocol="rng", mean_speed=10.0, config=TINY)

#: Pinned canonical form of SPEC: any drift here silently invalidates every
#: existing run store, so it must be a deliberate SCHEMA_VERSION bump.
PINNED_JSON = (
    '{"buffer_width":0.0,"config":{"area":[285.0,285.0],"duration":5.0,'
    '"hello_expiry":2.5,"hello_interval":1.0,"hello_jitter":0.25,'
    '"hello_loss_rate":0.0,"hello_tx_duration":0.0,"history_depth":3,'
    '"max_clock_skew":0.01,"n_nodes":10,"normal_range":250.0,'
    '"propagation_delay":0.0005,"reactive_flood_delay":0.02,'
    '"sample_rate":1.0,"warmup":2.0},"label":"","mean_speed":10.0,'
    '"mechanism":"baseline","mechanism_kwargs":{},'
    '"physical_neighbor_mode":false,"protocol":"rng","protocol_kwargs":{}}'
)
PINNED_UNIT_ID = "fa457cddb4c0577450404aa604cf8c1e19f0518ed798bc849c8e3187ff7762b1"


class TestSpecCanonicalJson:
    def test_round_trip(self):
        clone = ExperimentSpec.from_json(SPEC.to_json())
        assert clone == SPEC
        assert clone.to_json() == SPEC.to_json()

    def test_pinned_canonical_form(self):
        assert SPEC.to_json() == PINNED_JSON

    def test_numeric_coercion_canonicalizes(self):
        a = SPEC.with_(buffer_width=10)
        b = SPEC.with_(buffer_width=10.0)
        assert a.to_json() == b.to_json()

    def test_from_dict_tolerates_missing_keys(self):
        data = json.loads(SPEC.to_json())
        del data["label"]
        del data["config"]["hello_loss_rate"]
        del data["config"]["hello_tx_duration"]
        spec = ExperimentSpec.from_dict(data)
        assert spec == SPEC

    def test_kwargs_round_trip(self):
        spec = SPEC.with_(protocol="yao", protocol_kwargs={"k": 7})
        assert ExperimentSpec.from_json(spec.to_json()) == spec


class TestUnitIdentity:
    def test_pinned_hash(self):
        assert unit_id(SPEC, 7) == PINNED_UNIT_ID

    def test_stable_and_seed_sensitive(self):
        assert unit_id(SPEC, 7) == unit_id(SPEC, 7)
        assert unit_id(SPEC, 7) != unit_id(SPEC, 8)
        assert unit_id(SPEC, 7) != unit_id(SPEC.with_(mean_speed=11.0), 7)

    def test_kind_namespacing(self):
        payload = SPEC.to_json()
        assert content_unit_id("run", payload, 7) != content_unit_id(
            "fuzz", payload, 7
        )

    def test_int_float_specs_share_identity(self):
        assert unit_id(SPEC.with_(buffer_width=10), 7) == unit_id(
            SPEC.with_(buffer_width=10.0), 7
        )

    def test_work_unit_precomputed_json(self):
        unit = WorkUnit(spec=SPEC, seed=7, spec_json=SPEC.to_json())
        assert unit.unit_id == PINNED_UNIT_ID
        assert unit.label == f"{SPEC.describe()} seed=7"
        bare = WorkUnit(spec=SPEC, seed=7)
        assert bare.unit_id == unit.unit_id


#: ``result_to_dict(run_once(SPEC, seed=3))`` as a 2.0.0 store holds it,
#: decision-cache counters included.
STORED_2_0_0 = {
    "series": {
        "delivery_ratios": [
            0.8888888888888888, 0.1111111111111111, 1.0, 0.5555555555555556
        ],
        "mean_actual_ranges": [
            103.58057549479273, 104.93190409902584, 111.07176115062074,
            98.32772183530946,
        ],
        "mean_extended_ranges": [
            103.58057549479273, 104.93190409902584, 111.07176115062074,
            98.32772183530946,
        ],
        "mean_logical_degrees": [1.9, 2.1, 2.1, 2.0],
        "mean_physical_degrees": [2.4, 2.5, 2.7, 2.1],
        "strict_connected": [False, False, False, False],
    },
    "stats": {
        "collisions": 0, "data_transmissions": 27, "decision_cache_hits": 0,
        "decision_cache_misses": 55, "decision_cache_uncacheable": 0,
        "deliveries": 446, "fault_blocked_receptions": 0,
        "fault_delayed_deliveries": 0, "fault_hello_drops": 0,
        "fault_noisy_positions": 0, "fault_stale_discards": 0,
        "fault_suppressed_sends": 0, "faults_armed": False,
        "gossip_armed": False, "gossip_maydays": 0, "gossip_merged": 0,
        "gossip_messages": 0, "gossip_rounds": 0, "hello_losses": 0,
        "hello_messages": 55, "propagation": "unit-disk",
        "propagation_losses": 0, "sync_messages": 0, "telemetry": None,
    },
}


class TestResultRoundTrip:
    def test_legacy_document_with_cache_counters_loads(self):
        loaded = result_from_dict(SPEC, 3, STORED_2_0_0)
        assert result_to_dict(loaded) == result_to_dict(run_once(SPEC, seed=3))
        assert "decision_cache_hits" not in result_to_dict(loaded)["stats"]

    def test_exact(self):
        result = run_once(SPEC, seed=3)
        doc = result_to_dict(result)
        clone = result_from_dict(SPEC, 3, json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(clone.delivery_ratios, result.delivery_ratios)
        np.testing.assert_array_equal(clone.strict_connected, result.strict_connected)
        assert result_to_dict(clone) == doc
        assert clone.stats == result.stats


class TestRunStore:
    def test_register_and_counts(self, tmp_path):
        with RunStore(tmp_path / "s.db") as store:
            units = [WorkUnit(spec=SPEC, seed=s) for s in (1, 2)]
            store.register(units)
            store.register(units)  # idempotent
            assert store.counts() == {"pending": 2, "done": 0, "quarantined": 0}

    def test_record_result_upsert_idempotent(self, tmp_path):
        unit = WorkUnit(spec=SPEC, seed=1)
        with RunStore(tmp_path / "s.db") as store:
            store.register([unit])
            store.record_result(unit, {"series": {}, "stats": {}}, attempts=1)
            store.record_result(unit, {"series": {}, "stats": {}}, attempts=2)
            assert store.counts()["done"] == 1
            row = store.get(unit.unit_id)
            assert row.attempts == 2
            assert row.status == "done"

    def test_completed_only_returns_done(self, tmp_path):
        done, pending = WorkUnit(spec=SPEC, seed=1), WorkUnit(spec=SPEC, seed=2)
        with RunStore(tmp_path / "s.db") as store:
            store.register([done, pending])
            store.record_result(done, {"x": 1})
            out = store.completed([done.unit_id, pending.unit_id])
            assert out == {done.unit_id: {"x": 1}}

    def test_quarantine_row(self, tmp_path):
        unit = WorkUnit(spec=SPEC, seed=1)
        with RunStore(tmp_path / "s.db") as store:
            store.record_quarantine(unit, "it broke", attempts=3)
            row = store.get(unit.unit_id)
            assert row.status == "quarantined"
            assert row.error == "it broke"
            assert store.completed([unit.unit_id]) == {}

    def test_get_by_prefix(self, tmp_path):
        unit = WorkUnit(spec=SPEC, seed=1)
        with RunStore(tmp_path / "s.db") as store:
            store.register([unit])
            assert store.get(unit.unit_id[:12]).unit_id == unit.unit_id
            assert store.get("nope00") is None

    def test_schema_mismatch_refuses_to_open(self, tmp_path):
        path = tmp_path / "s.db"
        RunStore(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE meta SET value = 'repro-unit/0' WHERE key = 'unit_schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(ConfigurationError, match="repro-unit/0"):
            RunStore(path)

    def test_export_jsonl_round_trip(self, tmp_path):
        unit = WorkUnit(spec=SPEC, seed=1)
        result = run_once(SPEC, seed=1)
        out = tmp_path / "units.jsonl"
        with RunStore(tmp_path / "s.db") as store:
            store.record_result(unit, result_to_dict(result))
            lines = store.export_jsonl(out)
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines == len(docs) == 2
        assert docs[0]["schema"] == "repro-runstore/1"
        assert docs[0]["units"] == 1
        assert docs[1]["unit_id"] == unit.unit_id
        assert docs[1]["spec"] == json.loads(SPEC.to_json())
        assert docs[1]["result"] == result_to_dict(result)

    def test_export_csv_scalars(self, tmp_path):
        import csv

        unit = WorkUnit(spec=SPEC, seed=1)
        result = run_once(SPEC, seed=1)
        out = tmp_path / "units.csv"
        with RunStore(tmp_path / "s.db") as store:
            store.record_result(unit, result_to_dict(result))
            assert store.export_csv(out) == 1
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["connectivity"]) == pytest.approx(
            float(result.delivery_ratios.mean())
        )


# ----------------------------------------------------------------------- #
# fault containment on both execution backends

#: Both execution implementations, with the worker count that selects
#: each: in the calling thread, and two queue worker processes over a
#: private temporary store.
BACKENDS = (("inprocess", 1), ("queue", 2))

_execute_unit = runner.execute_unit


def _units(*seeds):
    return [WorkUnit(spec=SPEC, seed=seed, spec_json=SPEC.to_json()) for seed in seeds]


def _patch_execute(monkeypatch, fn):
    """Route every unit through *fn*.  Queue workers are forked, so they
    inherit the patch."""
    monkeypatch.setattr(runner, "execute_unit", fn)


class TestWorkerPool:
    """Retry, quarantine, crash and timeout containment, re-checked on
    the ``inprocess`` and ``queue`` backends."""

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            InProcessBackend(retries=-1)
        with pytest.raises(ValueError):
            QueueBackend(workers=-1)
        with pytest.raises(ValueError):
            QueueBackend(retries=-1)

    def test_inline_retry_then_success(self, tmp_path, monkeypatch):
        for backend, workers in BACKENDS:
            marker = tmp_path / f"{backend}.marker"

            def flaky(payload, telemetry=None, marker=marker):
                if not marker.exists():
                    marker.write_text("tried")
                    raise RuntimeError("transient failure")
                return _execute_unit(payload, telemetry)

            _patch_execute(monkeypatch, flaky)
            [unit] = _units(3)
            with RunStore(tmp_path / f"{backend}.db") as store:
                context = OrchestrationContext(
                    store=store, backend=backend, workers=workers, retries=1
                )
                results = context.run_units([unit])
                assert not context.quarantined, backend
                assert store.get(unit.unit_id).attempts == 2, backend
            assert result_to_dict(results[unit.unit_id]) == result_to_dict(
                run_once(SPEC, seed=3)
            )

    def test_inline_quarantine_after_retries(self, monkeypatch):
        def failing(payload, telemetry=None):
            raise ValueError(f"unit {payload['seed']} always fails")

        _patch_execute(monkeypatch, failing)
        for backend, workers in BACKENDS:
            context = OrchestrationContext(
                backend=backend, workers=workers, retries=2
            )
            assert context.run_units(_units(1)) == {}
            [quarantined] = context.quarantined
            assert quarantined.attempts == 3, backend
            assert "always fails" in quarantined.error, backend

    def test_pooled_crash_quarantines_without_aborting(self, monkeypatch):
        """A unit that kills its worker (queue) or raises (in-process) is
        quarantined; every other unit of the batch still completes."""
        for backend, workers in BACKENDS:

            def crashy(payload, telemetry=None, backend=backend):
                if payload["seed"] == 99:
                    if backend == "queue":
                        os._exit(13)
                    raise RuntimeError("unit died")
                return _execute_unit(payload, telemetry)

            _patch_execute(monkeypatch, crashy)
            units = _units(0, 1, 2, 3, 99)
            context = OrchestrationContext(
                backend=backend, workers=workers, retries=1
            )
            results = context.run_units(units)
            assert set(results) == {u.unit_id for u in units[:4]}, backend
            [quarantined] = context.quarantined
            assert quarantined.seed == 99
            assert quarantined.attempts == 2, backend
            assert "died" in quarantined.error, backend

    def test_pooled_timeout_quarantines(self, monkeypatch):
        def sleepy(payload, telemetry=None):
            if payload["seed"] != 99:
                return _execute_unit(payload, telemetry)
            armed = install_unit_timeout(payload["timeout"])
            try:
                time.sleep(30.0)
            finally:
                if armed:
                    clear_unit_timeout()

        _patch_execute(monkeypatch, sleepy)
        for backend, workers in BACKENDS:
            context = OrchestrationContext(
                backend=backend, workers=workers, retries=0, unit_timeout=1.0
            )
            fast, slow = _units(1, 99)
            results = context.run_units([fast, slow])
            assert fast.unit_id in results, backend
            [quarantined] = context.quarantined
            assert quarantined.unit_id == slow.unit_id, backend
            assert "timeout" in quarantined.error, backend


class TestUnitTimeoutThreads:
    def test_timeout_context_off_main_thread_completes(self):
        """SIGALRM belongs to the main thread: elsewhere the bound is
        not armed, and the campaign still runs every unit."""
        outcome = {}

        def drive():
            context = OrchestrationContext(unit_timeout=30)
            with context:
                outcome["aggs"] = run_repetitions_many(
                    [SPEC], repetitions=2, base_seed=50
                )
            outcome["quarantined"] = context.quarantined

        thread = threading.Thread(target=drive)
        thread.start()
        thread.join(timeout=300)
        assert outcome["quarantined"] == []
        assert outcome["aggs"] == run_repetitions_many(
            [SPEC], repetitions=2, base_seed=50
        )

    def test_install_is_noop_off_main_thread(self):
        armed = []
        thread = threading.Thread(
            target=lambda: armed.append(install_unit_timeout(5.0))
        )
        thread.start()
        thread.join()
        assert armed == [False]


class TestExecuteUnit:
    def test_returns_result_document(self):
        doc = execute_unit(
            {"spec_json": SPEC.to_json(), "seed": 3, "timeout": None, "telemetry": False}
        )
        assert doc == result_to_dict(run_once(SPEC, seed=3))

    def test_timeout_raises_unit_timeout(self):
        with pytest.raises(UnitTimeoutError):
            execute_unit(
                {
                    "spec_json": SPEC.to_json(),
                    "seed": 3,
                    "timeout": 0.001,
                    "telemetry": False,
                }
            )

    def test_wraps_failures_with_unit_name(self):
        bad = SPEC.with_(protocol="yao", protocol_kwargs={"k": -1})
        with pytest.raises(WorkUnitError) as excinfo:
            execute_unit(
                {"spec_json": bad.to_json(), "seed": 5, "timeout": None, "telemetry": False}
            )
        assert excinfo.value.seed == 5
        assert bad.describe() in str(excinfo.value)


class TestOrchestratedRuns:
    SPECS = [SPEC, SPEC.with_(mean_speed=20.0)]

    def _cold(self):
        return run_repetitions_many(self.SPECS, repetitions=3, base_seed=50, workers=1)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_interrupt_then_resume_bit_identical(self, tmp_path, workers):
        cold = self._cold()
        store_path = tmp_path / "campaign.db"
        with RunStore(store_path) as store:
            first = OrchestrationContext(store=store, workers=workers, max_units=3)
            with pytest.raises(CampaignInterrupted):
                with first:
                    run_repetitions_many(self.SPECS, repetitions=3, base_seed=50)
            assert first.executed_units == 3
            assert store.counts()["done"] == 3
        with RunStore(store_path) as store:
            second = OrchestrationContext(store=store, workers=workers)
            with second:
                aggs = run_repetitions_many(self.SPECS, repetitions=3, base_seed=50)
            assert aggs == cold
            assert second.resumed_units == 3
            assert second.executed_units == 3
            assert store.counts() == {"pending": 0, "done": 6, "quarantined": 0}

    def test_storeless_context_matches_cold(self):
        cold = self._cold()
        context = OrchestrationContext(workers=2)
        with context:
            aggs = run_repetitions_many(self.SPECS, repetitions=3, base_seed=50)
        assert aggs == cold
        assert context.executed_units == 6

    def test_no_resume_reexecutes(self, tmp_path):
        with RunStore(tmp_path / "s.db") as store:
            with OrchestrationContext(store=store):
                run_repetitions_many([SPEC], repetitions=2, base_seed=50)
            again = OrchestrationContext(store=store, resume=False)
            with again:
                run_repetitions_many([SPEC], repetitions=2, base_seed=50)
            assert again.executed_units == 2
            assert again.resumed_units == 0

    def test_all_repetitions_quarantined_raises_named_error(self, tmp_path):
        bad = SPEC.with_(protocol="yao", protocol_kwargs={"k": -1})
        with RunStore(tmp_path / "s.db") as store:
            context = OrchestrationContext(store=store, retries=0)
            with context:
                with pytest.raises(OrchestrationError, match=re.escape(bad.describe())):
                    run_repetitions_many([SPEC, bad], repetitions=2, base_seed=50)
            # The healthy spec's units completed and were checkpointed.
            assert store.counts() == {"pending": 0, "done": 2, "quarantined": 2}
            assert len(context.quarantined) == 2
            assert all(q.label == bad.describe() for q in context.quarantined)

    def test_summary_line(self, tmp_path):
        with RunStore(tmp_path / "s.db") as store:
            context = OrchestrationContext(store=store)
            with context:
                run_repetitions_many([SPEC], repetitions=1, base_seed=50)
            line = context.summary_line()
            assert "1 executed" in line
            assert "1 done" in line


class TestTelemetryMerge:
    def test_absorb_merges_counters_spans_events(self):
        from repro.telemetry import Telemetry

        worker = Telemetry()
        worker.count("decisions", 3.0)
        worker.count("drops", 1.0, reason="loss")
        worker.gauge("depth", 4.0)
        worker.observe("latency", 2.0)
        worker.observe("latency", 4.0)
        with worker.span("phase"):
            pass
        worker.event("fault", t=1.0, node=2)
        parent = Telemetry()
        parent.count("decisions", 1.0)
        parent.absorb(worker.summary())
        assert parent.registry.counter("decisions").value == 4.0
        assert parent.registry.counter("drops", reason="loss").value == 1.0
        assert parent.registry.gauge("depth").value == 4.0
        hist = parent.registry.histogram("latency")
        assert hist.count == 2
        assert hist.total == 6.0
        assert parent.spans["phase"].count == 1
        assert parent.events.kind_counts() == {"fault": 1}
        assert parent.events.recorded == 1
        assert parent.events.dropped == 1  # absorbed, not retained

    def test_summary_survives_json_round_trip(self):
        from repro.telemetry import Telemetry, TelemetrySummary

        tel = Telemetry()
        tel.count("x", 2.0, kind="a")
        tel.event("fault", t=0.5)
        summary = tel.summary()
        clone = TelemetrySummary.from_dict(json.loads(json.dumps(summary.as_dict())))
        assert clone == summary

    def test_parallel_run_collects_worker_telemetry(self):
        from repro.telemetry import Telemetry, use_telemetry

        sequential = Telemetry()
        with use_telemetry(sequential):
            run_repetitions_many([SPEC], repetitions=2, base_seed=50, workers=1)
        parallel = Telemetry()
        with use_telemetry(parallel):
            run_repetitions_many([SPEC], repetitions=2, base_seed=50, workers=2)
        assert dict(parallel.summary().counters) == dict(sequential.summary().counters)
        assert dict(parallel.summary().event_counts) == dict(
            sequential.summary().event_counts
        )

    def test_orchestrated_run_collects_worker_telemetry(self, tmp_path):
        from repro.telemetry import Telemetry, use_telemetry

        sequential = Telemetry()
        with use_telemetry(sequential):
            run_repetitions_many([SPEC], repetitions=2, base_seed=50, workers=1)
        merged = Telemetry()
        with RunStore(tmp_path / "s.db") as store:
            with use_telemetry(merged):
                with OrchestrationContext(store=store, workers=2):
                    run_repetitions_many([SPEC], repetitions=2, base_seed=50)
        assert dict(merged.summary().counters) == dict(sequential.summary().counters)


class TestFuzzStore:
    def test_fuzz_persists_and_resumes(self, tmp_path, monkeypatch):
        from repro.faults import fuzz as fuzz_mod

        with RunStore(tmp_path / "f.db") as store:
            report = fuzz_mod.fuzz(runs=2, seed=7, differential=False, store=store)
            assert store.counts()["done"] == 2
            rows = store.units(kind="fuzz")
            assert len(rows) == 2

            # Resuming must replay verdicts without re-simulating anything.
            def _boom(*args, **kwargs):
                raise AssertionError("resume must not re-run cases")

            monkeypatch.setattr(fuzz_mod, "run_case", _boom)
            replayed = fuzz_mod.fuzz(
                runs=2, seed=7, differential=False, store=store
            )
            assert replayed.ok == report.ok
            assert len(replayed.failures) == len(report.failures)


class TestErrorTypes:
    def test_work_unit_error_is_picklable_and_named(self):
        import pickle

        error = WorkUnitError("rng+baseline+v10", 42, "KeyError: boom")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.label == "rng+baseline+v10"
        assert clone.seed == 42
        assert "seed 42" in str(clone)

    def test_unit_timeout_is_work_unit_error(self):
        assert issubclass(UnitTimeoutError, WorkUnitError)
