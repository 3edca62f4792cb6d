"""The Hello pipeline: bit-identity with the historical scalar route.

Every world delivers each Hello as one engine event carrying its receiver
array, into the columnar :class:`NeighborState`.  Before faults moved onto
that pipeline, a scalar per-receiver route ran next to it and these tests
built *twin worlds* — one per route — to prove them identical.  The
scalar route is gone; its outputs for the same scenarios were recorded as
digests (``tests/data/hello_route_digests.json``, section ``twins``), so
the twin tests below now compare the pipeline against those recordings:
same retained Hello histories, same table tokens, same channel counters,
same RNG stream consumption — across consistency mechanisms, Hello loss,
the collision model and clock jitter.

Also here: the pipeline counters, the ``_drop_collided`` expiry boundary,
:class:`NeighborState` ring/prune semantics and the engine's handle-free
``schedule_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_hello_route_digests import recorded_digests, route_digest, spec_for

from repro.analysis.experiment import build_world
from repro.core.neighbor_state import NO_VERSION, NeighborState
from repro.core.views import Hello
from repro.faults.schedule import FaultSchedule, NodeOutage
from repro.sim.engine import Engine
from repro.sim.world import NetworkWorld
from repro.util.errors import ScheduleError

MECHANISMS = ("baseline", "view-sync", "proactive", "reactive", "weak")

#: recorded-digest key -> (spec, seed) for every twin scenario below
ROUTE_TWINS = {
    **{
        f"hello-batch/ideal/{mechanism}/{seed}": (spec_for(mechanism), seed)
        for mechanism in MECHANISMS
        for seed in (101, 202)
    },
    **{
        f"hello-batch/loss-{loss}/{mechanism}": (
            spec_for(mechanism, hello_loss_rate=loss), 303
        )
        for mechanism in ("baseline", "proactive", "weak")
        for loss in (0.1, 0.3)
    },
    **{
        f"hello-batch/collisions/{seed}": (
            spec_for("view-sync", hello_tx_duration=0.05), seed
        )
        for seed in (404, 505)
    },
    "hello-batch/snapshots": (spec_for("view-sync", duration=6.0), 11),
}


def _assert_matches_scalar_route(prefix: str) -> None:
    recorded = recorded_digests("twins")
    keys = [key for key in ROUTE_TWINS if key.startswith(prefix)]
    assert keys
    for key in keys:
        spec, seed = ROUTE_TWINS[key]
        assert route_digest(spec, seed) == recorded[key], key


class TestBatchedScalarBitIdentity:
    def test_ideal_channel(self):
        _assert_matches_scalar_route("hello-batch/ideal/")

    def test_lossy_channel_consumes_rng_identically(self):
        # The i.i.d. loss model draws one uniform per candidate receiver,
        # positionally: identical receiver arrays are the only way the
        # pipeline can agree with the recorded losses, deliveries and
        # every downstream view.
        _assert_matches_scalar_route("hello-batch/loss-")

    def test_collision_model(self):
        _assert_matches_scalar_route("hello-batch/collisions/")

    def test_snapshots_and_decisions_agree(self):
        _assert_matches_scalar_route("hello-batch/snapshots")


class TestPipelineDispatch:
    """Every world, faulted or not, runs the one Hello pipeline."""

    def test_pipeline_stats_reported_on_batched_route(self):
        world = build_world(spec_for("baseline"), 4)
        world.run_until(3.0)
        stats = world.hello_pipeline_stats()
        assert stats["oracle_queries"] > 0
        assert stats["oracle_rebuilds"] >= 1
        assert stats["neighbor_slots"] > 0

    def test_faulted_world_runs_the_pipeline(self):
        schedule = FaultSchedule(events=(NodeOutage(node=0, start=1.0, end=3.0),))
        world = build_world(spec_for("baseline"), 2, faults=schedule)
        world.run_until(5.0)
        assert world.fault_stats()["fault_suppressed_sends"] > 0
        assert world.fault_stats()["fault_blocked_receptions"] > 0
        assert world.hello_pipeline_stats()["oracle_queries"] > 0

    def test_construction_compiles_no_trajectories(self):
        world = build_world(spec_for("baseline"), 3)
        assert world.mobility._trajectories is None
        world.run_until(1.0)
        assert world.mobility._trajectories is not None


class TestDropCollidedBoundary:
    """The airtime window is boundary-inclusive: age == window still collides."""

    @staticmethod
    def _world(window: float) -> NetworkWorld:
        return build_world(spec_for("baseline", hello_tx_duration=window), 5)

    def test_entry_exactly_at_window_edge_still_on_air(self):
        world = self._world(0.1)
        origin = np.array([0.0, 0.0])
        none = np.empty(0, dtype=np.intp)
        world._drop_collided(0.0, 0, origin, none, np.empty((0, 2)))
        # Exactly window seconds later: t - entry[0] == window, kept on air,
        # so a receiver inside the earlier sender's range collides.
        receivers = np.array([3], dtype=np.intp)
        survivors = world._drop_collided(
            0.1, 1, np.array([50.0, 0.0]), receivers, np.array([[10.0, 0.0]])
        )
        assert survivors.size == 0
        assert world.channel.stats.collisions == 1

    def test_entry_just_past_window_is_pruned(self):
        world = self._world(0.1)
        origin = np.array([0.0, 0.0])
        none = np.empty(0, dtype=np.intp)
        world._drop_collided(0.0, 0, origin, none, np.empty((0, 2)))
        receivers = np.array([3], dtype=np.intp)
        survivors = world._drop_collided(
            0.1 + 1e-9, 1, np.array([50.0, 0.0]), receivers, np.array([[10.0, 0.0]])
        )
        assert survivors.tolist() == [3]
        assert world.channel.stats.collisions == 0
        assert len(world._recent_hellos) == 1  # only the new transmission


def _hello(sender: int, version: int, sent_at: float, x: float = 1.0) -> Hello:
    return Hello(
        sender=sender,
        version=version,
        position=(x, 2.0),
        sent_at=sent_at,
        timestamp=sent_at + 0.001,
    )


class TestNeighborState:
    def test_ring_evicts_oldest_beyond_depth(self):
        state = NeighborState(4, history_depth=3)
        for v in range(5):
            state.record_one(0, _hello(1, v, float(v)))
        history = state.history(0, 1)
        assert [h.version for h in history] == [2, 3, 4]
        assert state.hellos_received[0] == 5

    def test_record_batch_equals_record_one(self):
        batch, one = NeighborState(6, 2), NeighborState(6, 2)
        receivers = np.array([0, 2, 5], dtype=np.intp)
        for v in range(3):
            hello = _hello(1, v, float(v))
            batch.record_batch(hello, receivers)  # second call hits the slot cache
            for rid in receivers:
                one.record_one(int(rid), hello)
        for rid in receivers:
            assert batch.history(int(rid), 1) == one.history(int(rid), 1)
            assert batch.senders(int(rid)) == one.senders(int(rid))
        assert np.array_equal(batch.hellos_received, one.hellos_received)

    def test_prune_drops_stale_and_restarts_history(self):
        state = NeighborState(2, 3)
        for v in range(3):
            state.record_batch(_hello(1, v, float(v)), np.array([0], dtype=np.intp))
        assert state.prune(0, now=10.0, expiry=2.5)
        assert state.history(0, 1) == ()
        assert state.senders(0) == []
        # A later Hello starts a fresh depth-1 history, like a new deque.
        state.record_batch(_hello(1, 9, 11.0), np.array([0], dtype=np.intp))
        assert [h.version for h in state.history(0, 1)] == [9]

    def test_prune_without_stale_is_a_noop(self):
        state = NeighborState(2, 3)
        state.record_one(0, _hello(1, 0, 5.0))
        assert not state.prune(0, now=6.0, expiry=2.5)

    def test_live_ids_preserve_insertion_order(self):
        state = NeighborState(2, 3)
        for sender in (7, 3, 5):
            state.record_one(0, _hello(sender, 0, 1.0))
        assert state.live_ids(0, now=2.0, expiry=2.5) == (7, 3, 5)
        assert list(state.latest_live(0, 2.0, 2.5)) == [7, 3, 5]

    def test_newest_versions_per_receiver(self):
        state = NeighborState(4, 2)
        state.record_batch(_hello(1, 3, 1.0), np.array([0, 2], dtype=np.intp))
        state.record_one(2, _hello(1, 5, 2.0))
        receivers = np.array([0, 1, 2, 3], dtype=np.intp)
        assert state.newest_versions(1, receivers).tolist() == [
            3, NO_VERSION, 5, NO_VERSION
        ]
        assert state.prune(2, now=10.0, expiry=2.5)
        assert state.newest_versions(1, receivers[2:3]).tolist() == [NO_VERSION]

    def test_storage_grows_past_initial_capacity(self):
        state = NeighborState(1, 2)  # room for 16 slots before the first growth
        for sender in range(1, 40):
            state.record_one(0, _hello(sender, sender, 1.0))
        assert state.n_slots == 39
        assert [h.version for h in state.history(0, 17)] == [17]
        assert list(state.latest_live(0, 1.0, 2.5)) == list(range(1, 40))


class TestScheduleBatch:
    def test_interleaves_with_schedule_at_in_seq_order(self):
        engine = Engine()
        seen: list[str] = []
        engine.schedule_at(1.0, seen.append, "a")
        engine.schedule_batch(1.0, seen.append, "b")
        engine.schedule_at(1.0, seen.append, "c")
        engine.run(until=2.0)
        assert seen == ["a", "b", "c"]

    def test_validates_like_schedule_at(self):
        engine = Engine()
        engine.run(until=1.0)
        with pytest.raises(ScheduleError, match="past"):
            engine.schedule_batch(0.5, lambda: None)
        with pytest.raises(ScheduleError, match="finite"):
            engine.schedule_batch(float("nan"), lambda: None)

    def test_counts_as_pending_and_clears(self):
        engine = Engine()
        engine.schedule_batch(1.0, lambda: None)
        handle = engine.schedule_at(1.5, lambda: None)
        assert engine.pending_events == 2
        engine.clear()
        assert engine.pending_events == 0
        assert handle.cancelled

    def test_compaction_keeps_handle_free_entries(self):
        engine = Engine()
        fired: list[int] = []
        engine.schedule_batch(1.0, fired.append, 1)
        # Cancel enough handled events that tombstones dominate and the
        # heap compacts; the handle-free entry must survive compaction.
        handles = [engine.schedule_at(2.0, fired.append, 99) for _ in range(8)]
        for handle in handles:
            handle.cancel()
        engine.run(until=3.0)
        assert fired == [1]
