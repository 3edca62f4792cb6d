"""Golden digests of the Hello route: every mechanism under every fault.

``tests/data/hello_route_digests.json`` holds one sha256 per named case
(section ``cases``, the battery below) and per scenario of the older
twin-world tests in other modules (section ``twins``).
The digests were first recorded from the historical scalar per-receiver
Hello route — the route every faulted run took before faults moved onto
the batched pipeline.  They were re-recorded once since, when the
decision-cache counters and per-table revision numbers left the hashed
surface (they counted skipped work, not behaviour), from code that still
matched the scalar-route digests.  A match therefore proves the single
remaining route is byte-identical to the scalar route across:

- each registered consistency mechanism under each fault kind, including
  a partial :class:`HelloLossBurst`, a :class:`DeliveryDelay` with a
  ``receivers`` filter (one Hello split into several delivery batches)
  and a mixed schedule that exercises the noise -> i.i.d. loss -> burst
  RNG draw order in a single run;
- an ideal channel, i.i.d. Hello loss, the collision model, log-distance
  shadowing and the probabilistic SINR model with no faults armed.

Each case runs the :func:`repro.analysis.experiment.run_once` sampling
loop twice, with telemetry disarmed and armed, and hashes the per-sample
series, the ``RunStats`` dict (channel and ``fault_*`` counters), every
node's retained Hello state and live neighbour ids and, for the armed run,
the telemetry counters and per-kind event totals (timings and the engine's
heap-entry count excluded).  Small worlds (10 nodes, 5 s) keep the whole
battery to a few seconds.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, RunStats, build_world
from repro.core.consistency import available_mechanisms
from repro.faults.schedule import (
    ClockSkew,
    DeliveryDelay,
    FaultSchedule,
    HelloIntervalScale,
    HelloLossBurst,
    NodeOutage,
    PositionNoise,
)
from repro.metrics.connectivity import strictly_connected
from repro.metrics.topology import sample_topology
from repro.mobility import Area
from repro.sim.config import ScenarioConfig
from repro.sim.flood import flood
from repro.telemetry import Telemetry
from repro.util.randomness import SeedSequenceFactory

DIGESTS = Path(__file__).parent / "data" / "hello_route_digests.json"

SEED = 17

FAULTS: dict[str, tuple] = {
    "loss-burst": (HelloLossBurst(start=1.0, end=3.0, senders=(1, 2)),),
    "loss-burst-partial": (
        HelloLossBurst(start=0.5, end=4.0, probability=0.4, receivers=(0, 3, 5, 7)),
    ),
    "outage": (
        NodeOutage(node=0, start=1.0, end=3.0),
        NodeOutage(node=4, start=2.0, end=4.5),
    ),
    "clock-skew": (ClockSkew(node=2, offset=0.3),),
    "interval-scale": (HelloIntervalScale(node=3, start=1.0, end=4.0, factor=0.4),),
    "delay": (DeliveryDelay(start=0.5, end=4.0, delay=1.3, senders=(0, 1, 2, 3, 4)),),
    "delay-receivers": (
        DeliveryDelay(start=0.5, end=4.0, delay=0.7, receivers=(1, 4, 6, 8)),
        DeliveryDelay(start=1.0, end=3.5, delay=1.2, senders=(5,), receivers=(4,)),
    ),
    "noise": (PositionNoise(start=0.5, end=4.0, amplitude=25.0, nodes=(0, 2, 4, 6)),),
}
FAULTS["mixed"] = tuple(event for events in FAULTS.values() for event in events)

#: fault-free channel variants (name -> ScenarioConfig overrides)
CHANNELS: dict[str, dict] = {
    "ideal": {},
    "iid-loss": {"hello_loss_rate": 0.3},
    "collisions": {"hello_tx_duration": 0.05},
    "log-distance": {"propagation": "log-distance"},
    "sinr": {"propagation": "sinr"},
}


def spec_for(mechanism: str, **overrides) -> ExperimentSpec:
    """The battery's scenario: 10 nodes on 300 m x 300 m for 5 s."""
    config = dict(
        n_nodes=10,
        area=Area(300.0, 300.0),
        normal_range=150.0,
        duration=5.0,
        warmup=1.0,
        sample_rate=2.0,
    )
    config.update(overrides)
    return ExperimentSpec(
        protocol="rng",
        mechanism=mechanism,
        buffer_width=20.0,
        mean_speed=8.0,
        config=ScenarioConfig(**config),
    )


def _cases() -> dict[str, tuple[ExperimentSpec, FaultSchedule | None]]:
    """``name -> (spec, fault schedule)`` for every battery case."""
    cases: dict[str, tuple[ExperimentSpec, FaultSchedule | None]] = {}
    for mechanism in available_mechanisms():
        for fault, events in FAULTS.items():
            overrides = {"hello_loss_rate": 0.2} if fault == "mixed" else {}
            cases[f"{mechanism}/{fault}"] = (
                spec_for(mechanism, **overrides),
                FaultSchedule(events=events),
            )
        for channel, overrides in CHANNELS.items():
            cases[f"{mechanism}/{channel}"] = (spec_for(mechanism, **overrides), None)
    return cases


CASES = _cases()


def recorded_digests(section: str) -> dict[str, str]:
    """One section of the recorded digest file: ``cases`` or ``twins``."""
    return json.loads(DIGESTS.read_text())[section]


def _observe(
    spec: ExperimentSpec,
    seed: int,
    faults: FaultSchedule | None,
    telemetry: Telemetry | None,
    **world_kwargs,
) -> dict:
    """Run one world through the ``run_once`` sampling loop; collect outputs."""
    world = build_world(
        spec, seed, faults=faults, telemetry=telemetry, **world_kwargs
    )
    cfg = spec.config
    source_rng = SeedSequenceFactory(seed).rng("flood-sources")
    series: list[float] = []
    for t in np.arange(cfg.warmup, cfg.duration + 1e-9, 1.0 / cfg.sample_rate):
        world.run_until(float(t))
        result = flood(world, int(source_rng.integers(cfg.n_nodes)))
        snap = world.snapshot()
        topo = sample_topology(snap)
        series += [
            result.delivery_ratio,
            topo.mean_actual_range,
            topo.mean_extended_range,
            topo.mean_logical_degree,
            topo.mean_physical_degree,
            float(strictly_connected(snap, world.manager.physical_neighbor_mode)),
        ]
    tables = []
    now = world.engine.now
    for node in world.nodes:
        table = node.table
        tables.append([
            node.hellos_sent,
            node.next_version,
            table.hellos_received,
            list(table.state.live_ids(table.row, now, table.expiry)),
            [repr(h) for h in table.own_history],
            {
                str(nid): [repr(h) for h in table.history_of(nid)]
                for nid in table.known_neighbors()
            },
        ])
    observed = {
        "series": np.asarray(series).tobytes().hex(),
        "stats": RunStats.from_world(world).as_dict(),
        "tables": tables,
    }
    if telemetry is not None:
        summary = telemetry.summary()
        # engine_events counts heap entries, and a coalesced batch is one
        # entry however many receivers it carries, so it is not compared.
        observed["counters"] = sorted(
            row for row in summary.counters if row[0] != "engine_events"
        )
        observed["event_counts"] = sorted(summary.event_counts)
    return observed


def route_digest(
    spec: ExperimentSpec,
    seed: int = SEED,
    faults: FaultSchedule | None = None,
    **world_kwargs,
) -> str:
    """Sha256 over one run disarmed and once more with telemetry armed."""
    payload = {
        "disarmed": _observe(spec, seed, faults, None, **world_kwargs),
        "armed": _observe(spec, seed, faults, Telemetry(), **world_kwargs),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def test_every_case_has_a_recorded_digest():
    assert sorted(recorded_digests("cases")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_route_reproduces_recorded_digest(name):
    spec, faults = CASES[name]
    assert route_digest(spec, faults=faults) == recorded_digests("cases")[name]
