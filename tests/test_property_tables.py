"""The columnar neighbor table against its dict-of-deques reference.

:class:`repro.core.tables.NeighborTable` keeps received Hellos in a
columnar :class:`~repro.core.neighbor_state.NeighborState`;
:mod:`repro.core._reference` keeps the original per-sender
``deque(maxlen=k)`` table as the specification.  Hypothesis drives random
streams of ``record_own`` / ``record_hello`` / ``record_batch`` / ``prune``
into both — tables sharing one store, as in a simulated world, and a
standalone table with its private store — and after every operation
compares live neighbours, views, histories and counters.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import _reference
from repro.core.neighbor_state import NeighborState
from repro.core.tables import NeighborTable
from repro.core.views import Hello
from repro.util.errors import ConfigurationError, ViewError

N_NODES = 4
EXPIRY = 2.5

times = st.integers(0, 16).map(lambda i: i / 2.0)
versions = st.integers(0, 6)
nodes = st.integers(0, N_NODES - 1)

operations = st.one_of(
    st.tuples(st.just("own"), nodes, versions, times),
    st.tuples(st.just("one"), nodes, nodes, versions, times),
    st.tuples(
        st.just("batch"),
        nodes,
        st.sets(nodes, min_size=1),
        versions,
        times,
    ),
    st.tuples(st.just("prune"), nodes, times),
)


def _hello(sender: int, version: int, t: float) -> Hello:
    return Hello(
        sender=sender,
        version=version,
        position=(10.0 * sender + version, t),
        sent_at=t,
        timestamp=t + 0.01 * sender,
    )


def _outcome(fn):
    """Call *fn*; a ViewError is an outcome to compare, like a value."""
    try:
        return fn()
    except ViewError as exc:
        return ("ViewError", str(exc))


def _assert_same(table: NeighborTable, ref: _reference.NeighborTable, now: float) -> None:
    assert table.hellos_received == ref.hellos_received
    assert table.known_neighbors() == ref.known_neighbors()
    assert table.known_neighbors(now) == ref.known_neighbors(now)
    for neighbor in range(N_NODES):
        assert table.history_of(neighbor) == ref.history_of(neighbor)
        assert table.message_versions_in_use(neighbor) == ref.message_versions_in_use(
            neighbor
        )
    assert table.own_history == ref.own_history
    assert table.last_advertised == ref.last_advertised
    assert table.available_versions() == ref.available_versions()
    own = table.last_advertised
    if own is not None:
        # Dict order is part of the contract (view iteration).
        assert list(table.latest_view(now, own).neighbor_hellos.items()) == list(
            ref.latest_view(now, own).neighbor_hellos.items()
        )
    multi = _outcome(lambda: list(table.multi_view(now).neighbor_hellos.items()))
    assert multi == _outcome(lambda: list(ref.multi_view(now).neighbor_hellos.items()))
    for version in table.available_versions() | {99}:
        assert _outcome(
            lambda v=version: list(table.versioned_view(now, v).neighbor_hellos.items())
        ) == _outcome(
            lambda v=version: list(ref.versioned_view(now, v).neighbor_hellos.items())
        )


class TestSharedStoreMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(operations, max_size=40), depth=st.integers(1, 3))
    def test_random_streams(self, ops, depth):
        state = NeighborState(N_NODES, depth)
        tables = [
            NeighborTable(i, 100.0, history_depth=depth, expiry=EXPIRY, state=state)
            for i in range(N_NODES)
        ]
        refs = [
            _reference.NeighborTable(i, 100.0, history_depth=depth, expiry=EXPIRY)
            for i in range(N_NODES)
        ]
        now = 0.0
        for op in ops:
            kind = op[0]
            if kind == "own":
                _, node, version, now = op
                hello = _hello(node, version, now)
                tables[node].record_own(hello)
                refs[node].record_own(hello)
            elif kind == "one":
                _, receiver, sender, version, now = op
                if receiver == sender:
                    continue
                hello = _hello(sender, version, now)
                tables[receiver].record_hello(hello)
                refs[receiver].record_hello(hello)
            elif kind == "batch":
                _, sender, receivers, version, now = op
                receivers = sorted(receivers - {sender})
                hello = _hello(sender, version, now)
                state.record_batch(hello, np.asarray(receivers, dtype=np.intp))
                for receiver in receivers:
                    refs[receiver].record_hello(hello)
            else:
                _, node, now = op
                tables[node].prune(now)
                refs[node].prune(now)
            for table, ref in zip(tables, refs):
                _assert_same(table, ref, now)


class TestStandaloneTableMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(operations, max_size=40), depth=st.integers(1, 3))
    def test_random_streams(self, ops, depth):
        owner = 2
        table = NeighborTable(owner, 100.0, history_depth=depth, expiry=EXPIRY)
        ref = _reference.NeighborTable(owner, 100.0, history_depth=depth, expiry=EXPIRY)
        now = 0.0
        for op in ops:
            kind = op[0]
            if kind == "own":
                _, _, version, now = op
                hello = _hello(owner, version, now)
                table.record_own(hello)
                ref.record_own(hello)
            elif kind == "prune":
                now = op[2]
                table.prune(now)
                ref.prune(now)
            else:
                # "one" carries (receiver, sender), "batch" (sender, receivers)
                sender = op[2] if kind == "one" else op[1]
                version, now = op[3], op[4]
                if sender == owner:
                    continue
                hello = _hello(sender, version, now)
                table.record_hello(hello)
                ref.record_hello(hello)
            _assert_same(table, ref, now)


class TestConstruction:
    def test_depth_must_match_shared_store(self):
        with pytest.raises(ViewError, match="history_depth"):
            NeighborTable(0, 100.0, history_depth=2, state=NeighborState(3, 3))

    def test_validation_matches_reference(self):
        for cls in (NeighborTable, _reference.NeighborTable):
            with pytest.raises(ConfigurationError, match="history_depth"):
                cls(owner=0, normal_range=100.0, history_depth=0)
            with pytest.raises(ConfigurationError, match="expiry"):
                cls(owner=0, normal_range=100.0, expiry=0.0)


def test_only_tests_import_the_reference_table():
    # The differential fuzzer is test tooling: its twin world decides
    # through the reference predicates.  No simulation module may import
    # the oracles.
    package = Path(repro.__file__).parent
    fuzzer = package / "faults" / "fuzz.py"
    importer = re.compile(
        r"^\s*(from\s+repro\.core\._reference\s+import|import\s+repro\.core\._reference"
        r"|from\s+repro\.core\s+import\s+.*\b_reference\b)",
        re.MULTILINE,
    )
    offenders = [
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if path != fuzzer and importer.search(path.read_text())
    ]
    assert offenders == []
