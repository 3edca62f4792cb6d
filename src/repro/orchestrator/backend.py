"""Execution backends for campaign orchestration.

The :class:`~repro.orchestrator.runner.OrchestrationContext` hands each
batch of work units to an :class:`ExecutionBackend`.  There are exactly
two implementations:

:class:`InProcessBackend`
    Executes one unit per :meth:`~ExecutionBackend.poll` call in the
    calling thread, with no threads or processes.  Tests step it
    deterministically, cancellation between polls is exact, and traced
    units hand their live collector (full event stream) to the context.

:class:`QueueBackend`
    Worker processes claim pending units by content-hash ID under a
    lease (store schema v2), execute them, and record outcomes straight
    into a :class:`RunStore` — the campaign's, or a private temporary
    store when the campaign has none.  A crashed worker's leases are
    released as soon as the parent reaps it; a stalled one's expire and
    other workers reclaim the units.  Results remain bit-identical to a
    cold run — seeds, not schedulers, define every simulation.

The registry (``available_backends`` / ``make_backend``) also knows
``local``, the default of the CLI, the service and
``repro.api.submit_campaign``: it selects ``inprocess`` at one worker
and ``queue`` above one.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.orchestrator.store import RunStore
from repro.telemetry.core import Telemetry
from repro.util.errors import ConfigurationError

__all__ = [
    "BackendCapabilities",
    "UnitOutcome",
    "ExecutionBackend",
    "InProcessBackend",
    "QueueBackend",
    "available_backends",
    "make_backend",
]

#: Seconds between an idle queue process's checks for another
#: connection's commit (``PRAGMA data_version``, a cheap read).
_IDLE_POLL_S = 0.01


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, queried by the orchestration layer.

    ``writes_store`` is the load-bearing flag: a backend that records
    outcomes into the :class:`RunStore` itself (the queue workers do, so
    a crash between execute and report loses nothing) tells the context
    *not* to re-record them on receipt.
    """

    name: str
    parallel: bool
    supports_cancel: bool
    writes_store: bool


@dataclass(frozen=True)
class UnitOutcome:
    """One finished unit as reported by a backend.

    Either ``result`` (the JSON-ready result document) or ``error`` (the
    final failure string after retries) is set, never both.  ``trace``
    is the live collector of a traced in-process unit, which the context
    merges (events included) instead of absorbing the result's summary.
    """

    unit_id: str
    ok: bool
    attempts: int
    result: dict | None = None
    error: str | None = None
    trace: Telemetry | None = None


class ExecutionBackend(ABC):
    """Protocol between the orchestration context and an execution engine.

    Lifecycle: one :meth:`submit_units` call hands the backend a batch of
    payloads (``{unit_id: payload}``, payloads as consumed by
    :func:`~repro.orchestrator.runner.execute_unit`); the caller then
    drains :meth:`poll` until :meth:`done`; :meth:`cancel` asks the
    backend to stop launching new units (in-flight ones still report).
    A backend instance serves one batch; :meth:`close` releases whatever
    it holds.
    """

    @abstractmethod
    def submit_units(self, payloads: dict[str, dict]) -> None:
        """Accept a batch of unit payloads for execution."""

    @abstractmethod
    def poll(self, timeout: float = 0.1) -> list[UnitOutcome]:
        """Return outcomes that completed since the last poll.

        May block up to *timeout* seconds waiting for the first one; an
        empty list means nothing finished in that window (call
        :meth:`done` to distinguish "still working" from "drained").
        """

    @abstractmethod
    def cancel(self) -> None:
        """Stop launching new units; in-flight units still report."""

    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Static description of this backend."""

    @abstractmethod
    def done(self) -> bool:
        """Whether every submitted unit has reported (or been cancelled)."""

    def close(self) -> None:
        """Release threads/processes; idempotent."""


# --------------------------------------------------------------------- #


class InProcessBackend(ExecutionBackend):
    """Synchronous backend: one unit per :meth:`poll` call.

    No threads, no processes — execution happens inside ``poll`` itself,
    on the calling thread, so tests can single-step a campaign and
    cancellation between polls is exact.  A failing unit is retried up to
    ``retries`` extra times, then reported as quarantined.  The per-unit
    timeout is enforced only when the calling thread is the main thread
    (see :func:`~repro.orchestrator.runner.install_unit_timeout`).
    """

    def __init__(self, retries: int = 1) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = int(retries)
        self._pending: deque[tuple[str, dict]] = deque()
        self._cancelled = False

    def submit_units(self, payloads: dict[str, dict]) -> None:
        if not self._cancelled:
            self._pending.extend(payloads.items())

    def poll(self, timeout: float = 0.1) -> list[UnitOutcome]:
        from repro.orchestrator.runner import execute_unit

        if self._cancelled or not self._pending:
            return []
        uid, payload = self._pending.popleft()
        attempts = 0
        while True:
            attempts += 1
            trace = Telemetry() if payload.get("telemetry") else None
            try:
                result = execute_unit(payload, telemetry=trace)
            except Exception as exc:
                if attempts <= self.retries:
                    continue
                return [UnitOutcome(uid, ok=False, attempts=attempts,
                                    error=str(exc))]
            return [UnitOutcome(uid, ok=True, attempts=attempts,
                                result=result, trace=trace)]

    def cancel(self) -> None:
        self._cancelled = True
        self._pending.clear()

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="inprocess", parallel=False,
            supports_cancel=True, writes_store=False,
        )

    def done(self) -> bool:
        return self._cancelled or not self._pending


# --------------------------------------------------------------------- #
# QueueBackend: work-stealing worker processes over a RunStore


def _payload_unit(spec_json: str, seed: int):
    """Rebuild the WorkUnit a payload or store row was made from."""
    from repro.analysis.experiment import ExperimentSpec
    from repro.orchestrator.units import WorkUnit

    return WorkUnit(
        spec=ExperimentSpec.from_json(spec_json), seed=seed, spec_json=spec_json
    )


def _claim_and_run(
    store: RunStore,
    owner: str,
    batch: frozenset[str],
    unit_timeout: float | None,
    telemetry: bool,
    retries: int,
    lease_seconds: float,
) -> bool:
    """Claim one pending unit of *batch*, execute it, record the outcome.

    Returns False when nothing was claimable.  A failure within the retry
    budget releases the lease so any worker (this one included) can
    reclaim the unit; past the budget the unit is quarantined.  While the
    unit runs, a heartbeat thread keeps its lease alive over its own
    store connection (SQLite connections are bound to their thread).
    """
    from repro.orchestrator.runner import execute_unit

    max_attempts = retries + 1
    claimed = store.claim_units(
        owner, limit=1, lease_seconds=lease_seconds,
        max_attempts=max_attempts, among=batch,
    )
    if not claimed:
        return False
    row = claimed[0]
    unit = _payload_unit(row.spec_json, row.seed)
    payload = {
        "spec_json": row.spec_json,
        "seed": row.seed,
        "timeout": unit_timeout,
        "telemetry": telemetry,
    }
    beat_done = threading.Event()

    def _beat() -> None:
        beat_store = None
        while not beat_done.wait(lease_seconds / 3.0):
            beat_store = beat_store or RunStore(store.path)
            beat_store.heartbeat(owner, [row.unit_id], lease_seconds)
        if beat_store is not None:
            beat_store.close()

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    try:
        document = execute_unit(payload)
    except Exception as exc:
        if row.attempts >= max_attempts:
            store.record_quarantine(unit, str(exc), attempts=row.attempts)
        else:
            store.release_unit(row.unit_id)
    else:
        store.record_result(unit, document, attempts=row.attempts)
    finally:
        beat_done.set()
        beater.join(timeout=5.0)
    return True


def _queue_worker_main(
    store_path: str,
    owner: str,
    batch: frozenset[str],
    unit_timeout: float | None,
    telemetry: bool,
    retries: int,
    lease_seconds: float,
) -> None:
    """Worker process body: claim → execute → record, until drained.

    Runs against its *own* store connection (never the parent's) and
    only claims units of its *batch*, so a shared store's other pending
    rows (another campaign's, or ones a unit budget left out) are never
    touched.  While nothing is claimable but batch units are still
    pending — leased by live workers — it lingers, looking again as soon
    as another connection commits (a released unit, a cancel, the last
    result) and every quarter lease (to steal expired leases); it exits
    once none is pending.
    """
    store = RunStore(store_path)
    seen, next_look = None, 0.0
    try:
        while True:
            version = store.data_version()
            if version == seen and time.monotonic() < next_look:
                time.sleep(_IDLE_POLL_S)
                continue
            seen, next_look = version, time.monotonic() + lease_seconds / 4.0
            if store.cancel_requested():
                return
            if _claim_and_run(
                store, owner, batch, unit_timeout, telemetry, retries,
                lease_seconds,
            ):
                seen = None  # look again at once for the next unit
            elif not store.pending(batch):
                return
    finally:
        store.close()


class QueueBackend(ExecutionBackend):
    """Work-stealing execution over a :class:`RunStore`.

    ``workers`` processes each run :func:`_queue_worker_main`: claim a
    pending unit of the batch under a lease, execute it, record the
    outcome directly into the store (``writes_store``), repeat until the
    batch drains or cancellation is flagged through the store's control
    table.  The parent's :meth:`poll` reads newly settled batch rows and
    reports them as :class:`UnitOutcome` objects.

    *store* is the campaign's :class:`RunStore` (or its path); None
    gives the backend a private temporary store, deleted on
    :meth:`close`.

    When the parent reaps a crashed worker it releases that worker's
    leases at once (or quarantines a unit whose claims are spent), so a
    crash costs the unit one attempt, not a lease expiry; it then
    respawns a replacement while ``respawn_budget`` lasts.

    ``workers=0`` is the *inline drain* mode: ``poll`` runs one
    claim-execute-record cycle in the calling process — the exact worker
    code path, minus process spawn — which is what the conformance tests
    step through.

    Duplicate execution (two workers racing one unit across a lease
    expiry) is harmless by construction: units are content-addressed and
    results are idempotent upserts, so the second writer converges on
    the same row.
    """

    def __init__(
        self,
        store: RunStore | str | Path | None = None,
        workers: int = 2,
        retries: int = 1,
        lease_seconds: float = 60.0,
        unit_timeout: float | None = None,
        respawn_budget: int | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._temp_dir: str | None = None
        if store is None:
            self._temp_dir = tempfile.mkdtemp(prefix="repro-queue-")
            store = Path(self._temp_dir) / "units.db"
        self._owns_store = not isinstance(store, RunStore)
        self._store = RunStore(store) if self._owns_store else store
        self.workers = int(workers)
        self.retries = int(retries)
        self.lease_seconds = float(lease_seconds)
        self.unit_timeout = unit_timeout
        self.respawn_budget = (
            int(respawn_budget) if respawn_budget is not None
            else max(2, 2 * max(1, self.workers))
        )
        self._procs: dict[str, object] = {}
        self._spawned = 0
        self._batch: frozenset[str] = frozenset()
        self._unseen: dict[str, None] = {}
        self._version: int | None = None
        self._telemetry = False
        self._cancelled = False

    # ---------------------------------------------------------------- #

    def submit_units(self, payloads: dict[str, dict]) -> None:
        if self._cancelled or not payloads:
            return
        # The store is the queue: register the batch (a no-op for rows
        # the campaign already registered), put settled rows the context
        # wants re-executed back to pending, and let workers loose.
        self._store.register(
            [_payload_unit(p["spec_json"], p["seed"]) for p in payloads.values()]
        )
        self._store.requeue(list(payloads))
        self._store.set_control("cancel", "0")
        self._batch = frozenset(payloads)
        self._unseen.update(dict.fromkeys(payloads))
        for payload in payloads.values():
            self._telemetry = bool(payload.get("telemetry"))
            if payload.get("timeout") is not None:
                self.unit_timeout = payload["timeout"]
        if self.workers > 0:
            self._spawn(min(self.workers, len(payloads)))

    def _spawn(self, n: int) -> None:
        import multiprocessing as mp

        for _ in range(n):
            owner = f"worker-{os.getpid()}-{id(self):x}-{self._spawned}"
            self._spawned += 1
            proc = mp.Process(
                target=_queue_worker_main,
                args=(
                    str(self._store.path), owner, self._batch,
                    self.unit_timeout, self._telemetry, self.retries,
                    self.lease_seconds,
                ),
                daemon=True,
            )
            proc.start()
            self._procs[owner] = proc

    def poll(self, timeout: float = 0.1) -> list[UnitOutcome]:
        if self.workers == 0:
            if not self._store.cancel_requested():
                _claim_and_run(
                    self._store, f"inline-{os.getpid()}", self._batch,
                    self.unit_timeout, self._telemetry, self.retries,
                    self.lease_seconds,
                )
                self._version = None
            return self._collect_settled()
        self._reap_and_respawn()
        deadline = time.monotonic() + timeout
        while True:
            out = self._collect_settled()
            if out or self.done() or time.monotonic() >= deadline:
                return out
            time.sleep(_IDLE_POLL_S)

    def _collect_settled(self) -> list[UnitOutcome]:
        """Outcomes of batch rows settled since the last collection.

        Reads the rows only when another connection has committed since
        the last read; this backend's own writes (inline drain, reclaim)
        reset the mark.
        """
        version = self._store.data_version()
        if not self._unseen or version == self._version:
            return []
        self._version = version
        out: list[UnitOutcome] = []
        for row in self._store.settled(list(self._unseen)):
            del self._unseen[row.unit_id]
            if row.status == "done":
                out.append(UnitOutcome(
                    row.unit_id, ok=True, attempts=row.attempts,
                    result=json.loads(row.result_json),
                ))
            else:
                out.append(UnitOutcome(
                    row.unit_id, ok=False, attempts=row.attempts,
                    error=row.error or "quarantined",
                ))
        return out

    def _stopping(self) -> bool:
        return self._cancelled or self._store.cancel_requested()

    def _reap_and_respawn(self) -> None:
        crashed = 0
        for owner, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            del self._procs[owner]
            if proc.exitcode == 0:  # drained, or stopped on cancel
                continue
            crashed += 1
            self._store.reclaim(
                owner, max_attempts=self.retries + 1,
                error=f"worker process died (exit code {proc.exitcode})",
            )
            self._version = None
        if crashed and self._unseen and not self._stopping():
            n = min(crashed, self.respawn_budget)
            self.respawn_budget -= n
            self._spawn(n)

    def cancel(self) -> None:
        self._cancelled = True
        self._store.request_cancel()

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="queue", parallel=self.workers > 1,
            supports_cancel=True, writes_store=True,
        )

    def done(self) -> bool:
        if not self._unseen:
            return True
        if self.workers == 0:
            return self._stopping()
        if any(proc.is_alive() for proc in self._procs.values()):
            return False
        if self.respawn_budget > 0 and not self._stopping():
            return False  # the next poll respawns or collects
        # No worker left and none coming: done once every outcome a
        # worker recorded before it exited has been collected.
        return not self._store.settled(list(self._unseen))

    def close(self) -> None:
        for proc in self._procs.values():
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._procs = {}
        if self._owns_store:
            self._store.close()
        if self._temp_dir is not None:
            shutil.rmtree(self._temp_dir, ignore_errors=True)
            self._temp_dir = None


# --------------------------------------------------------------------- #
# registry


def available_backends() -> tuple[str, ...]:
    """Registered backend names, stable order (CLI choices, docs)."""
    return ("inprocess", "local", "queue")


def make_backend(
    name: str,
    *,
    workers: int = 1,
    retries: int = 1,
    store: RunStore | str | Path | None = None,
    unit_timeout: float | None = None,
) -> ExecutionBackend:
    """Build a backend by registry name.

    ``local`` resolves to ``inprocess`` at ``workers <= 1`` and to
    ``queue`` above.  ``inprocess`` ignores *workers*, *store* and
    *unit_timeout* (the context records outcomes and passes the timeout
    in each payload); ``queue`` without a *store* works over a private
    temporary one.  Unknown names raise
    :class:`~repro.util.errors.ConfigurationError` listing the taxonomy,
    so CLI/service errors teach the valid choices.
    """
    if name == "local":
        name = "inprocess" if workers <= 1 else "queue"
    if name == "inprocess":
        return InProcessBackend(retries=retries)
    if name == "queue":
        return QueueBackend(
            store=store, workers=workers, retries=retries,
            unit_timeout=unit_timeout,
        )
    raise ConfigurationError(
        f"unknown execution backend {name!r}; "
        f"available: {', '.join(available_backends())}"
    )
