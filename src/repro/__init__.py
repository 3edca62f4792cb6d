"""repro — Mobility-Sensitive Topology Control in Mobile Ad Hoc Networks.

A full reproduction of Wu & Dai (IPDPS 2004 / IEEE TPDS 2006): localized
topology control protocols (RNG, Gabriel, LMST, SPT, Yao, CBTC, K-Neigh),
the paper's consistency mechanisms (strong proactive/reactive, weak,
view synchronization) and buffer zones, a from-scratch discrete-event MANET
simulator with analytic mobility models, and the experiment harness that
regenerates every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import ExperimentSpec, run_once
>>> from repro.sim import ScenarioConfig
>>> spec = ExperimentSpec(
...     protocol="rng", mechanism="view-sync", buffer_width=10.0,
...     mean_speed=20.0,
...     config=ScenarioConfig(n_nodes=40, duration=12.0, sample_rate=2.0))
>>> result = run_once(spec, seed=7)
>>> 0.0 <= result.connectivity_ratio <= 1.0
True
"""

from repro.analysis.experiment import (
    AggregateResult,
    ExperimentSpec,
    RunResult,
    RunStats,
    build_manager,
    build_mobility,
    build_world,
    run_once,
    run_repetitions,
)
from repro.core import (
    BufferZonePolicy,
    Hello,
    LocalView,
    MobilitySensitiveTopologyControl,
    MultiVersionView,
    NeighborTable,
    NodeDecision,
    SelectionResult,
    buffer_width,
    make_mechanism,
    max_delay_bound,
    required_history_depth,
    views_consistent,
    views_weakly_consistent,
)
from repro.protocols import available_protocols, make_protocol
from repro.sim import NetworkWorld, ScenarioConfig, flood

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # experiment harness
    "ExperimentSpec",
    "RunResult",
    "RunStats",
    "AggregateResult",
    "run_once",
    "run_repetitions",
    "build_manager",
    "build_mobility",
    "build_world",
    # core
    "Hello",
    "LocalView",
    "MultiVersionView",
    "NeighborTable",
    "SelectionResult",
    "NodeDecision",
    "MobilitySensitiveTopologyControl",
    "BufferZonePolicy",
    "buffer_width",
    "max_delay_bound",
    "required_history_depth",
    "views_consistent",
    "views_weakly_consistent",
    "make_mechanism",
    # protocols & sim
    "make_protocol",
    "available_protocols",
    "NetworkWorld",
    "ScenarioConfig",
    "flood",
]
