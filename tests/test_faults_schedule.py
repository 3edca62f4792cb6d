"""Tests for the fault-injection subsystem (repro.faults).

Covers the schedule's value semantics (windows, normalization, JSON
round-trips), the injector's runtime queries, and the world-level seams:
outages gate emission and reception, loss bursts are charged to
``ChannelStats.hello_losses``, delivery delays reorder without breaking
the version discipline, GPS noise stays within its amplitude bound, and
the whole pipeline replays bit-identically from ``(seed, schedule)``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, build_world, run_once
from repro.core.audit import audit_world
from repro.faults import (
    ClockSkew,
    DeliveryDelay,
    FaultInjector,
    FaultSchedule,
    HelloIntervalScale,
    HelloLossBurst,
    NodeOutage,
    PositionNoise,
)
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig
from repro.util.errors import ConfigurationError


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        n_nodes=12,
        area=Area(320.0, 320.0),
        duration=6.0,
        warmup=2.0,
        sample_rate=2.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(mechanism="view-sync", mean_speed=5.0, config=tiny_config())
    base.update(overrides)
    return ExperimentSpec(**base)


ALL_KINDS = FaultSchedule(
    events=(
        HelloLossBurst(start=2.0, end=3.5, probability=0.7),
        NodeOutage(node=3, start=2.5, end=4.0),
        DeliveryDelay(start=1.0, end=5.0, delay=0.3, senders=(1, 2)),
        PositionNoise(start=0.0, end=6.0, amplitude=5.0, nodes=(0, 1, 2, 3)),
        ClockSkew(node=5, offset=0.2),
        HelloIntervalScale(node=6, start=0.0, end=6.0, factor=1.5),
    ),
    note="one of each",
)


class TestEventSemantics:
    def test_window_is_half_open(self):
        event = NodeOutage(node=0, start=1.0, end=2.0)
        assert not event.active(0.999)
        assert event.active(1.0)
        assert event.active(1.999)
        assert not event.active(2.0)

    def test_default_window_is_permanent(self):
        event = PositionNoise(amplitude=1.0)
        assert event.active(0.0)
        assert event.active(1e9)
        assert math.isinf(event.end)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeOutage(node=0, start=2.0, end=2.0)

    def test_negative_node_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeOutage(node=-1)
        with pytest.raises(ConfigurationError):
            HelloLossBurst(senders=(0, -2))

    def test_zero_probability_burst_rejected(self):
        with pytest.raises(ConfigurationError):
            HelloLossBurst(probability=0.0)

    def test_node_filters_normalised_sorted(self):
        event = HelloLossBurst(senders=[5, 1, 3])
        assert event.senders == (1, 3, 5)
        assert event.matches(3, 0)
        assert not event.matches(2, 0)


class TestScheduleValueSemantics:
    def test_events_normalised_by_start(self):
        a = NodeOutage(node=0, start=3.0, end=4.0)
        b = NodeOutage(node=1, start=1.0, end=2.0)
        assert FaultSchedule(events=(a, b)) == FaultSchedule(events=(b, a))
        assert FaultSchedule(events=(a, b)).events[0] is b

    def test_horizon_ignores_infinite_ends(self):
        sched = FaultSchedule(
            events=(ClockSkew(node=0, offset=0.1), NodeOutage(node=1, start=2.0, end=5.0))
        )
        assert sched.horizon == 5.0

    def test_without_and_subset(self):
        assert len(ALL_KINDS.without(0)) == len(ALL_KINDS) - 1
        assert len(ALL_KINDS.subset([0, 2])) == 2
        assert len(ALL_KINDS.subset([])) == 0

    def test_any_active_window_overlap(self):
        sched = FaultSchedule(events=(NodeOutage(node=0, start=2.0, end=3.0),))
        assert sched.any_active(2.5, 2.6)
        assert sched.any_active(0.0, 2.0)  # touches the start
        assert not sched.any_active(3.0, 9.0)  # [start, end) excludes end

    def test_clock_skew_counts_always_active(self):
        sched = FaultSchedule(events=(ClockSkew(node=0, offset=0.1),))
        assert sched.any_active(50.0, 60.0)

    def test_json_round_trip_every_kind(self):
        assert FaultSchedule.from_json(ALL_KINDS.to_json()) == ALL_KINDS

    def test_json_encodes_infinite_end_as_null(self):
        text = FaultSchedule(events=(PositionNoise(amplitude=2.0),)).to_json()
        assert '"end": null' in text
        restored = FaultSchedule.from_json(text)
        assert math.isinf(restored.events[0].end)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSchedule.from_dict({"events": [{"kind": "meteor-strike"}]})


class TestInjectorQueries:
    def make_injector(self, schedule=ALL_KINDS, seed=0):
        return FaultInjector(schedule, np.random.default_rng(seed))

    def test_node_down_tracks_window(self):
        inj = self.make_injector()
        assert not inj.node_down(3, 2.0)
        assert inj.node_down(3, 3.0)
        assert not inj.node_down(3, 4.0)
        assert not inj.node_down(9, 3.0)

    def test_total_blackout_drops_all_matched(self):
        sched = FaultSchedule(
            events=(HelloLossBurst(start=0.0, end=1.0, receivers=(1, 2)),)
        )
        inj = self.make_injector(sched)
        receivers = np.array([1, 2, 3, 4])
        survivors = inj.filter_hello_receivers(0.5, 0, receivers)
        assert survivors.tolist() == [3, 4]
        assert inj.stats["hello_drops"] == 2

    def test_partial_burst_is_seeded(self):
        sched = FaultSchedule(events=(HelloLossBurst(probability=0.5),))
        a = self.make_injector(sched, seed=7)
        b = self.make_injector(sched, seed=7)
        receivers = np.arange(50)
        assert a.filter_hello_receivers(0.0, 0, receivers).tolist() == (
            b.filter_hello_receivers(0.0, 0, receivers).tolist()
        )

    def test_delivery_delay_sums_matching_events(self):
        sched = FaultSchedule(
            events=(
                DeliveryDelay(start=0.0, end=9.0, delay=0.2),
                DeliveryDelay(start=0.0, end=9.0, delay=0.3, senders=(1,)),
            )
        )
        inj = self.make_injector(sched)
        receivers = np.array([5, 6])
        assert inj.delivery_delays(1.0, 1, receivers) == pytest.approx([0.5, 0.5])
        assert inj.delivery_delays(1.0, 2, receivers) == pytest.approx([0.2, 0.2])
        assert inj.delivery_delays(9.5, 1, receivers).tolist() == [0.0, 0.0]
        assert inj.stats["delayed_deliveries"] == 4

    def test_delivery_delay_receiver_filter_splits_a_batch(self):
        sched = FaultSchedule(
            events=(DeliveryDelay(start=0.0, end=9.0, delay=0.3, receivers=(2, 7)),)
        )
        inj = self.make_injector(sched)
        delays = inj.delivery_delays(1.0, 0, np.array([1, 2, 5, 7]))
        assert delays.tolist() == [0.0, 0.3, 0.0, 0.3]
        assert inj.stats["delayed_deliveries"] == 2

    def test_nodes_down_is_the_vector_form_of_node_down(self):
        inj = self.make_injector()
        nodes = np.array([3, 9, 3])
        for t in (2.0, 3.0, 4.0):
            assert inj.nodes_down(nodes, t).tolist() == [
                inj.node_down(int(n), t) for n in nodes
            ]

    def test_position_noise_within_amplitude(self):
        sched = FaultSchedule(events=(PositionNoise(amplitude=5.0),))
        inj = self.make_injector(sched, seed=3)
        pos = np.array([10.0, 20.0])
        for _ in range(200):
            noisy = inj.advertised_position(0, 0.0, pos)
            assert np.hypot(*(noisy - pos)) <= 5.0 + 1e-12
        assert inj.position_noise_bound() == 5.0

    def test_interval_scale_and_skew(self):
        inj = self.make_injector()
        assert inj.interval_scale(6, 1.0) == pytest.approx(1.5)
        assert inj.interval_scale(6, 7.0) == 1.0  # window closed
        assert inj.interval_scale(0, 1.0) == 1.0
        assert inj.clock_offset_shift(5) == pytest.approx(0.2)
        assert inj.clock_offset_shift(0) == 0.0


class TestWorldIntegration:
    def test_world_rejects_out_of_range_node(self):
        sched = FaultSchedule(events=(NodeOutage(node=99, start=1.0, end=2.0),))
        with pytest.raises(ConfigurationError, match="99"):
            build_world(tiny_spec(), seed=0, faults=sched)

    def test_outage_suppresses_sends_and_receptions(self):
        sched = FaultSchedule(events=(NodeOutage(node=0, start=0.0, end=6.0),))
        world = build_world(tiny_spec(), seed=1, faults=sched)
        world.run_until(6.0)
        stats = world.fault_stats()
        assert stats["fault_suppressed_sends"] > 0
        assert stats["fault_blocked_receptions"] > 0
        # the downed node heard nothing, so it never decided
        assert world.nodes[0].decision is None
        assert not world.nodes[0].table.known_neighbors()

    def test_blackout_charged_to_channel_hello_losses(self):
        # Bursty injected loss must be accounted exactly where the i.i.d.
        # loss model counts: a full blackout makes every would-be delivery
        # a recorded hello_loss and leaves zero deliveries.
        sched = FaultSchedule(events=(HelloLossBurst(start=0.0, end=10.0),))
        spec = tiny_spec(mean_speed=0.0)
        world = build_world(spec, seed=2, faults=sched)
        world.run_until(6.0)
        stats = world.channel.stats
        assert stats.hello_losses > 0
        assert stats.deliveries == 0
        assert stats.hello_losses == world.fault_stats()["fault_hello_drops"]
        baseline = build_world(spec, seed=2)
        baseline.run_until(6.0)
        # every delivery the fault-free twin made was dropped here
        assert stats.hello_losses == baseline.channel.stats.deliveries

    def test_delivery_delay_preserves_version_order(self):
        sched = FaultSchedule(
            events=(DeliveryDelay(start=0.0, end=6.0, delay=1.7),)
        )
        world = build_world(tiny_spec(), seed=3, faults=sched)
        world.run_until(6.0)
        # the audit's version-order invariant must hold despite reordering
        assert not [v for v in audit_world(world) if v.invariant == "version-order"]
        assert world.fault_stats()["fault_delayed_deliveries"] > 0

    def test_gps_noise_audits_clean_with_widened_slack(self):
        sched = FaultSchedule(
            events=(PositionNoise(start=0.0, end=6.0, amplitude=8.0),)
        )
        world = build_world(tiny_spec(mean_speed=10.0), seed=4, faults=sched)
        world.run_until(6.0)
        assert world.fault_stats()["fault_noisy_positions"] > 0
        assert audit_world(world) == []

    def test_run_once_merges_fault_counters(self):
        result = run_once(tiny_spec(), seed=7, faults=ALL_KINDS)
        for key in (
            "fault_hello_drops",
            "fault_suppressed_sends",
            "fault_blocked_receptions",
            "fault_delayed_deliveries",
            "fault_noisy_positions",
        ):
            assert key in result.stats.as_dict()
        assert result.stats.faults_armed
        clean = run_once(tiny_spec(), seed=7)
        assert not clean.stats.faults_armed
        assert not any(k.startswith("fault_") for k in clean.stats.as_dict())

    def test_same_seed_and_schedule_replays_bit_identically(self):
        first = run_once(tiny_spec(), seed=7, faults=ALL_KINDS)
        second = run_once(tiny_spec(), seed=7, faults=ALL_KINDS)
        assert np.array_equal(first.delivery_ratios, second.delivery_ratios)
        assert np.array_equal(first.mean_actual_ranges, second.mean_actual_ranges)
        assert first.stats == second.stats

    def test_interval_scale_changes_hello_cadence(self):
        slow = FaultSchedule(
            events=(HelloIntervalScale(node=0, start=0.0, end=20.0, factor=2.0),)
        )
        spec = tiny_spec(mean_speed=0.0)
        scaled = build_world(spec, seed=5, faults=slow)
        plain = build_world(spec, seed=5)
        scaled.run_until(6.0)
        plain.run_until(6.0)
        assert (
            scaled.channel.stats.hello_messages < plain.channel.stats.hello_messages
        )

    def test_clock_skew_shifts_offset(self):
        sched = FaultSchedule(events=(ClockSkew(node=4, offset=0.25),))
        spec = tiny_spec()
        skewed = build_world(spec, seed=6, faults=sched)
        plain = build_world(spec, seed=6)
        delta = skewed.clocks.offsets[4] - plain.clocks.offsets[4]
        assert delta == pytest.approx(0.25)
