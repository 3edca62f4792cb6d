"""The whole-world decision kernels: bit-identity with per-owner selection.

Every decision of a kernel protocol runs through
:func:`repro.core.framework.decide_views`: packet-time recomputation
(``World.redecide_all``) decides every live owner in one array pass, and
Hello-time decisions are gathered and settled in one pass the first time
anything reads a standing decision.  The per-owner route — one view, one
:class:`~repro.core._reference.RankedCostGraph` and one reference
predicate per owner, as :class:`~repro.core._reference.ReferenceProtocol`
decides — is the oracle, the way ``geometry/_reference.py`` backs the
geometry kernels.

Hypothesis builds columnar stores holding many owners' Hello histories
(lattice positions with exact cost ties, expired-but-unpruned senders,
owners that never advertised, arbitrary versions) and requires the kernel
to return exactly the per-owner :class:`SelectionResult` of every owner:
the same ``frozenset`` of logical neighbors and a bit-equal
``actual_range``.  The world-level tests drive faulted worlds of every
mechanism against twins running the reference protocol, comparing
standing decisions, floods and range-change records at every sample.

Run with a larger budget via ``--hypothesis-profile=deep``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.core import framework
from repro.core._reference import ReferenceProtocol
from repro.core.consistency import (
    BaselineConsistency,
    GossipConsistency,
    ProactiveConsistency,
    ViewSynchronization,
    WeakConsistency,
)
from repro.core.neighbor_state import NeighborState
from repro.core.tables import NeighborTable
from repro.core.views import Hello
from repro.faults.fuzz import BrokenViewSync
from repro.faults.schedule import (
    ClockSkew,
    DeliveryDelay,
    FaultSchedule,
    HelloLossBurst,
    NodeOutage,
)
from repro.mobility import Area
from repro.protocols import make_protocol
from repro.protocols.spt import SptProtocol
from repro.sim.config import ScenarioConfig
from repro.sim.flood import flood
from repro.telemetry import Telemetry
from repro.util.errors import ViewError
from repro.util.randomness import SeedSequenceFactory

PROTOCOLS = {
    "rng": make_protocol("rng"),
    "spt": SptProtocol(alpha=3.0, const=5.0),
    "spt2": make_protocol("spt2"),
    "mst": make_protocol("mst"),
}

NOW = 10.0
EXPIRY = 2.5
NORMAL_RANGE = 100.0

#: half the loaded profile's budget: 50 examples in tier-1, 500 under
#: ``--hypothesis-profile=deep`` (registered in conftest.py)
BUDGET = settings(
    deadline=None, derandomize=True, max_examples=settings().max_examples // 2
)

coordinate = st.one_of(
    # a 25 m lattice: many pairs at exactly equal distance, so the total
    # order must break cost ties on node ids
    st.integers(0, 8).map(lambda i: 25.0 * i),
    st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False),
)
position = st.tuples(coordinate, coordinate)


@st.composite
def stores(draw):
    """Tables of *n* owners over one columnar store, filled at random."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    state = NeighborState(n, k)
    tables = [
        NeighborTable(r, NORMAL_RANGE, history_depth=k, expiry=EXPIRY, state=state)
        for r in range(n)
    ]
    for table in tables:
        # 0 advertisements = an owner that never advertised
        for version in draw(st.lists(st.integers(1, 6), max_size=4)):
            table.record_own(Hello(table.owner, version, draw(position), NOW, NOW))
    records = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(1, 6),
                # sent before NOW - EXPIRY = expired but not yet pruned
                st.sampled_from([NOW - 4.0, NOW - 2.5, NOW - 1.0, NOW]),
                position,
            ),
            max_size=6 * n,
        )
    )
    for receiver, sender, version, sent_at, pos in records:
        if receiver != sender:
            tables[receiver].record_hello(Hello(sender, version, pos, sent_at, sent_at))
    for table in tables:
        if draw(st.booleans()) and draw(st.booleans()):
            table.prune(NOW)
    currents = [
        Hello(table.owner, 99, draw(position), NOW, NOW) for table in tables
    ]
    return tables, currents


def per_node(mechanism, protocol, tables, currents, version):
    """The oracle: one reference decision per owner, None on ViewError."""
    if protocol.view_kernel is not None:
        protocol = ReferenceProtocol(protocol)
    out = []
    for table, current in zip(tables, currents):
        try:
            out.append(mechanism.decide(protocol, table, NOW, current, version=version))
        except ViewError:
            out.append(None)
    return out


def whole_world(mechanism, protocol, tables, currents, version):
    tel = Telemetry()
    got = mechanism.decide_many(protocol, tables, NOW, currents, version=version, spans=tel)
    assert "redecide_view" in tel.spans, "the array kernel was not used"
    return got


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert g.owner == w.owner
        assert g.logical_neighbors == w.logical_neighbors
        assert np.float64(g.actual_range).tobytes() == np.float64(w.actual_range).tobytes()


#: the latest-live gathers: the current own Hello, or the last advertised
LATEST_LIVE = {
    "baseline": BaselineConsistency(),
    "view-sync": ViewSynchronization(),
    "gossip": GossipConsistency(),
}


class TestKernelEqualsPerNode:
    @BUDGET
    @given(
        store=stores(),
        protocol=st.sampled_from(sorted(PROTOCOLS)),
        mechanism=st.sampled_from(sorted(LATEST_LIVE)),
        budget=st.sampled_from([1, 20, 150, framework.KERNEL_CHUNK_ELEMENTS]),
    )
    def test_latest_live_views(self, store, protocol, mechanism, budget):
        tables, currents = store
        proto = PROTOCOLS[protocol]
        mechanism = LATEST_LIVE[mechanism]
        want = per_node(mechanism, proto, tables, currents, None)
        with mock.patch.object(framework, "KERNEL_CHUNK_ELEMENTS", budget):
            got = whole_world(mechanism, proto, tables, currents, None)
        assert_identical(got, want)

    @BUDGET
    @given(
        store=stores(),
        protocol=st.sampled_from(sorted(PROTOCOLS)),
        version=st.one_of(st.none(), st.integers(0, 7)),
        budget=st.sampled_from([1, 20, 150, framework.KERNEL_CHUNK_ELEMENTS]),
    )
    def test_versioned_views_with_fallback(self, store, protocol, version, budget):
        tables, currents = store
        proto = PROTOCOLS[protocol]
        mechanism = ProactiveConsistency()
        want = per_node(mechanism, proto, tables, currents, version)
        with mock.patch.object(framework, "KERNEL_CHUNK_ELEMENTS", budget):
            got = whole_world(mechanism, proto, tables, currents, version)
        assert_identical(got, want)

    @BUDGET
    @given(
        store=stores(),
        protocol=st.sampled_from(sorted(PROTOCOLS)),
        budget=st.sampled_from([1, 20, 150, framework.KERNEL_CHUNK_ELEMENTS]),
    )
    def test_weak_interval_views(self, store, protocol, budget):
        tables, currents = store
        proto = PROTOCOLS[protocol]
        mechanism = WeakConsistency()
        want = per_node(mechanism, proto, tables, currents, None)
        with mock.patch.object(framework, "KERNEL_CHUNK_ELEMENTS", budget):
            got = whole_world(mechanism, proto, tables, currents, None)
        assert_identical(got, want)

    @BUDGET
    @given(
        store=stores(),
        protocol=st.sampled_from(sorted(PROTOCOLS)),
        mechanism=st.sampled_from(["view-sync", "proactive", "weak"]),
        version=st.one_of(st.none(), st.integers(0, 7)),
    )
    def test_gathered_one_by_one_then_settled_together(
        self, store, protocol, mechanism, version
    ):
        # the Hello-time route: one gather per owner, one decide pass
        tables, currents = store
        proto = PROTOCOLS[protocol]
        mech = {
            "view-sync": ViewSynchronization(),
            "proactive": ProactiveConsistency(),
            "weak": WeakConsistency(),
        }[mechanism]
        want = per_node(mech, proto, tables, currents, version)
        views, owners = [], []
        for i, (table, current) in enumerate(zip(tables, currents)):
            try:
                views.append(mech.gather_view(table, NOW, current, version=version))
            except ViewError:
                continue
            owners.append(i)
        got: list = [None] * len(tables)
        if views:
            for i, result in zip(owners, mech.decide_gathered(proto, views)):
                got[i] = result
        assert_identical(got, want)


def _lattice_tables(points: dict[int, tuple[float, float]], owner_hears: dict[int, list[int]]):
    n = max(points) + 1
    state = NeighborState(n, 3)
    tables = [NeighborTable(r, NORMAL_RANGE, expiry=EXPIRY, state=state) for r in range(n)]
    for r, table in enumerate(tables):
        table.record_own(Hello(r, 1, points[r], NOW, NOW))
        for s in owner_hears.get(r, []):
            table.record_hello(Hello(s, 1, points[s], NOW, NOW))
    return tables, [t.last_advertised for t in tables]


class TestCorners:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_exact_ties_break_on_ids(self, protocol):
        # a unit square: every side costs the same, both diagonals too
        points = {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (0.0, 50.0), 3: (50.0, 50.0)}
        hears = {r: [s for s in points if s != r] for r in points}
        tables, currents = _lattice_tables(points, hears)
        proto = PROTOCOLS[protocol]
        want = per_node(ViewSynchronization(), proto, tables, currents, None)
        got = whole_world(ViewSynchronization(), proto, tables, currents, None)
        assert_identical(got, want)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_owners_without_live_neighbors(self, protocol):
        points = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (500.0, 500.0)}
        tables, currents = _lattice_tables(points, {0: [1], 1: [0]})
        got = whole_world(ViewSynchronization(), PROTOCOLS[protocol], tables, currents, None)
        assert got[2].logical_neighbors == frozenset()
        assert got[2].actual_range == 0.0
        assert got[0].logical_neighbors == frozenset({1})

    def test_versioned_owner_without_usable_version_is_skipped(self):
        points = {0: (0.0, 0.0), 1: (10.0, 0.0)}
        tables, currents = _lattice_tables(points, {0: [1], 1: [0]})
        got = whole_world(ProactiveConsistency(), PROTOCOLS["rng"], tables, currents, 0)
        assert got == [None, None]
        fallback = whole_world(ProactiveConsistency(), PROTOCOLS["rng"], tables, currents, 5)
        assert [r.logical_neighbors for r in fallback] == [frozenset({1}), frozenset({0})]

    def test_versioned_pick_is_the_oldest_matching_hello(self):
        points = {0: (0.0, 0.0), 1: (10.0, 0.0)}
        tables, currents = _lattice_tables(points, {1: [0]})
        # two retained version-1 Hellos of node 1: in range, then not
        tables[0].record_hello(Hello(1, 1, (90.0, 0.0), NOW, NOW))
        tables[0].record_hello(Hello(1, 1, (300.0, 0.0), NOW, NOW))
        want = per_node(ProactiveConsistency(), PROTOCOLS["rng"], tables, currents, 1)
        got = whole_world(ProactiveConsistency(), PROTOCOLS["rng"], tables, currents, 1)
        assert got[0].actual_range == 90.0
        assert_identical(got, want)

    def test_chunks_cover_every_owner_once(self):
        counts = np.array([3, 1, 7, 2, 2, 9, 1])
        with mock.patch.object(framework, "KERNEL_CHUNK_ELEMENTS", 60):
            chunks = list(framework._chunks(counts))
        assert chunks[0][0] == 0 and chunks[-1][1] == counts.size
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        for start, stop in chunks:
            width = int(counts[start:stop].max())
            assert stop - start == 1 or (stop - start) * width * width <= 60

    def test_protocols_and_mechanisms_without_kernel_fall_back(self):
        points = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 5.0)}
        hears = {r: [s for s in points if s != r] for r in points}
        tables, currents = _lattice_tables(points, hears)
        for name in ("gabriel", "yao", "none", "rng&spt2"):
            proto = make_protocol(name)
            assert proto.view_kernel is None
            tel = Telemetry()
            got = ViewSynchronization().decide_many(
                proto, tables, NOW, currents, spans=tel
            )
            assert "redecide_view" not in tel.spans
            assert got == per_node(ViewSynchronization(), proto, tables, currents, None)
        mechanism = BrokenViewSync()
        assert mechanism.gather_views is None
        tel = Telemetry()
        got = mechanism.decide_many(PROTOCOLS["rng"], tables, NOW, currents, spans=tel)
        assert "redecide_view" not in tel.spans
        assert got == per_node(mechanism, PROTOCOLS["rng"], tables, currents, None)


# --------------------------------------------------------------------- #
# world level: every decision against a reference-protocol twin


FAULTS = FaultSchedule(
    events=(
        NodeOutage(node=0, start=0.0, end=2.5),  # never advertised early on
        NodeOutage(node=5, start=2.0, end=4.0),
        HelloLossBurst(start=1.0, end=3.5, probability=0.5),
        DeliveryDelay(start=1.5, end=4.5, delay=0.8, senders=(1, 2, 3)),
        ClockSkew(node=4, offset=0.6),
    )
)


def _spec(mechanism: str, protocol: str) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=protocol,
        mechanism=mechanism,
        buffer_width=10.0,
        mean_speed=15.0,
        config=ScenarioConfig(
            n_nodes=16,
            area=Area(350.0, 350.0),
            normal_range=150.0,
            duration=6.0,
            warmup=0.5,
            sample_rate=4.0,
        ),
    )


def _state(world):
    return [
        (
            node.packet_decisions,
            None
            if node.decision is None
            else (
                node.decision.logical_neighbors,
                np.float64(node.decision.actual_range).tobytes(),
                node.decision.extended_range,
                node.decision.decided_at,
            ),
        )
        for node in world.nodes
    ]


def _range_events(tel):
    return [event for event in tel.events if event.kind == "range_change"]


def _reference_twin(spec, seed, telemetry):
    """The world of *spec* deciding every decision per owner through the
    reference predicates, at once (its protocol has no kernel)."""
    twin = build_world(spec, seed, faults=FAULTS, telemetry=telemetry)
    twin.manager.protocol = ReferenceProtocol(twin.manager.protocol)
    assert not twin.manager.kernel_route
    return twin


@pytest.mark.parametrize("protocol", ["rng", "mst", "spt2"])
@pytest.mark.parametrize(
    "mechanism", ["view-sync", "proactive", "baseline", "reactive", "weak", "gossip"]
)
def test_faulted_world_matches_per_node_twin(mechanism, protocol):
    spec = _spec(mechanism, protocol)
    seed = 23
    tel, twin_tel = Telemetry(), Telemetry()
    world = build_world(spec, seed, faults=FAULTS, telemetry=tel)
    twin = _reference_twin(spec, seed, twin_tel)
    sources = SeedSequenceFactory(seed).rng("flood-sources")
    skipped = 0
    for t in np.arange(0.5, 6.0 + 1e-9, 0.25):
        world.run_until(float(t))
        twin.run_until(float(t))
        source = int(sources.integers(spec.config.n_nodes))
        assert flood(world, source).reached.tolist() == flood(twin, source).reached.tolist()
        assert _state(world) == _state(twin), t
        skipped += sum(node.decision is None for node in world.nodes)
    assert _range_events(tel) == _range_events(twin_tel)
    assert (
        tel.registry.counters_dict()["range_changes"]
        == twin_tel.registry.counters_dict()["range_changes"]
    )
    assert skipped > 0, "the outage must leave an owner that cannot decide"
    assert "decide" in tel.spans
    if world.manager.recompute_on_packet:
        assert {"redecide", "redecide_view", "redecide_kernel"} <= set(tel.spans)
