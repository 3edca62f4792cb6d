"""The benchmark's workloads: seeded scenarios built from public specs.

Every workload runs at paper density (side = 90·√n m), random waypoint at
a 20 m/s mean speed, a 2 s warmup and 10 samples/s, as in Wu & Dai §5.
One *world* is one ``run_once``-equivalent repetition of ``duration``
simulated seconds; a benchmark run drives whole worlds back to back.
Workloads with ``benchmarked=False`` run the same way from ``run.py`` but
are not declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.experiment import ExperimentSpec
from repro.faults.schedule import (
    DeliveryDelay,
    FaultSchedule,
    HelloLossBurst,
    NodeOutage,
)
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig

__all__ = ["Workload", "WORKLOADS", "world_seed"]

WARMUP = 2.0
SAMPLE_RATE = 10.0
MEAN_SPEED = 20.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes
    ----------
    name / why:
        Identifier and the one-line reason it is in the benchmark.
    n_nodes, mechanism, protocol:
        Scenario size and the topology control stack under test.
    duration:
        Simulated seconds per world, warmup included.
    faulted:
        Arm the workload's fault schedule (see :meth:`faults`).
    repeats:
        Times each world is driven in an end-to-end run; each sample
        step's fastest repeat is the one measured.
    batch:
        Worlds whose repeats an end-to-end run takes in turn.
    benchmarked:
        Declared in ``BENCHMARK.json``.  False for a workload kept only
        for runs by hand, such as per-layer profiles.
    """

    name: str
    why: str
    n_nodes: int
    mechanism: str
    protocol: str
    duration: float
    faulted: bool = False
    repeats: int = 5
    batch: int = 1
    benchmarked: bool = True

    def spec(self) -> ExperimentSpec:
        """The experiment spec every world of this workload runs."""
        side = 90.0 * math.sqrt(self.n_nodes)
        return ExperimentSpec(
            protocol=self.protocol,
            mechanism=self.mechanism,
            mean_speed=MEAN_SPEED,
            config=ScenarioConfig(
                n_nodes=self.n_nodes,
                area=Area(side, side),
                duration=self.duration,
                warmup=WARMUP,
                sample_rate=SAMPLE_RATE,
            ),
        )

    def faults(self) -> FaultSchedule | None:
        """10 % Hello loss all run, 0.3 s delay on every 7th sender, one outage."""
        if not self.faulted:
            return None
        return FaultSchedule(
            events=(
                HelloLossBurst(probability=0.1),
                DeliveryDelay(delay=0.3, senders=tuple(range(0, self.n_nodes, 7))),
                NodeOutage(start=WARMUP + 0.5, end=WARMUP + 1.5, node=0),
            ),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-viewsync-rng",
            why="paper scale (n=100) under view-sync/rng: every flood redecides "
            "all nodes, so the decision layer dominates",
            n_nodes=100,
            mechanism="view-sync",
            protocol="rng",
            duration=4.0,
            batch=3,
        ),
        Workload(
            name="scale-faulted-mst",
            why="n=1000 baseline/mst with armed faults: scalar Hello route, "
            "per-Hello decisions, no packet-time redecide",
            n_nodes=1000,
            mechanism="baseline",
            protocol="mst",
            duration=4.0,
            faulted=True,
            repeats=4,
        ),
        Workload(
            name="gossip-rng",
            why="n=200 gossip/rng: anti-entropy rounds in the engine and "
            "large gossip-filled views in the decision layer",
            n_nodes=200,
            mechanism="gossip",
            protocol="rng",
            duration=4.0,
            repeats=4,
            # A world costs 5-8 CPU seconds per repeat, so a 35 s run held
            # one world, and over five seeds its fastest-of-four step times
            # spread 25 % (IQR / median): too noisy to gate on.  Run it by
            # hand; see README.md.
            benchmarked=False,
        ),
    )
}


def world_seed(seed: int, index: int) -> int:
    """Seed of the *index*-th world of a benchmark run seeded *seed*."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
