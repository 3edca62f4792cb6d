"""The enhanced (interval) removal kernels against the per-edge predicates.

Under weak consistency a view keeps up to ``k`` Hellos per member, and
each link has a cost interval ``[cMin, cMax]`` (Section 4.2).  The array
kernels of :mod:`repro.core.framework` judge witness links by ``cMax`` and
the link under test by ``cMin`` (Theorem 4's enhanced conditions).  Their
specification is the per-edge predicates of :mod:`repro.core._reference`
— one RNG witness scan, one SPT Dijkstra and one MST bottleneck BFS per
link of a :class:`~repro.core._reference.RankedCostGraph` — and this
suite requires :func:`~repro.core.framework.decide_views` over an
:class:`~repro.core.framework.IntervalBatch` to return, view for view,
their exact survivors and a bit-equal actual range.

Hypothesis draws batches of views with 1-4 versions per member, lattice
positions (exact cost ties the ids must break), owners without
neighbours and kernel chunk budgets that split the batch.  Run with a
larger budget via ``--hypothesis-profile=deep``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import framework
from repro.core._reference import (
    RankedCostGraph,
    mst_removable,
    rng_removable,
    spt_removable,
)
from repro.core.costs import DistanceCost, EnergyCost
from repro.core.framework import (
    IntervalBatch,
    apply_removal_condition,
    decide_views,
    mst_survivors,
    rng_survivors,
    spt_survivors,
)
from repro.core.views import Hello, MultiVersionView

#: name -> (kernel, per-edge reference predicate, cost model)
CONDITIONS = {
    "rng": (rng_survivors, rng_removable, DistanceCost()),
    "spt": (spt_survivors, spt_removable, EnergyCost(alpha=3.0, const=5.0)),
    "spt2": (spt_survivors, spt_removable, EnergyCost(alpha=2.0)),
    "mst": (mst_survivors, mst_removable, DistanceCost()),
}

NORMAL_RANGE = 100.0

BUDGET = settings(deadline=None, derandomize=True)

coordinate = st.one_of(
    # a 25 m lattice: many pairs at exactly equal distance
    st.integers(0, 8).map(lambda i: 25.0 * i),
    st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False),
)
position = st.tuples(coordinate, coordinate)


@st.composite
def multi_views(draw):
    """One k-version view: 0-8 neighbours, 1-k Hellos per member."""
    k = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=9, unique=True))
    owner, neighbors = ids[0], ids[1:]

    def history(node):
        return [
            Hello(node, v, pos, float(v), float(v))
            for v, pos in enumerate(draw(st.lists(position, min_size=1, max_size=k)), 1)
        ]

    return MultiVersionView(
        owner=owner,
        own_hellos=history(owner),
        neighbor_hellos={nid: history(nid) for nid in neighbors},
        normal_range=NORMAL_RANGE,
        sampled_at=10.0,
    )


def per_edge(view, predicate, cost_model):
    graph = RankedCostGraph.from_multi_version_view(view, cost_model)
    return apply_removal_condition(graph, predicate)


@BUDGET
@given(
    views=st.lists(multi_views(), min_size=1, max_size=6),
    condition=st.sampled_from(sorted(CONDITIONS)),
    budget=st.sampled_from([1, 20, 150, framework.KERNEL_CHUNK_ELEMENTS]),
)
def test_interval_kernels_equal_per_edge_predicates(views, condition, budget):
    kernel, predicate, cost_model = CONDITIONS[condition]
    want = [per_edge(view, predicate, cost_model) for view in views]
    with mock.patch.object(framework, "KERNEL_CHUNK_ELEMENTS", budget):
        got = decide_views(IntervalBatch.of_views(views), kernel, cost_model)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.owner == w.owner
        assert g.logical_neighbors == w.logical_neighbors
        assert np.float64(g.actual_range).tobytes() == np.float64(w.actual_range).tobytes()


def _view(histories):
    owner = next(iter(histories))
    return MultiVersionView(
        owner=owner,
        own_hellos=[Hello(owner, i, p, 0.0, 0.0) for i, p in enumerate(histories[owner])],
        neighbor_hellos={
            nid: [Hello(nid, i, p, 0.0, 0.0) for i, p in enumerate(ps)]
            for nid, ps in histories.items()
            if nid != owner
        },
        normal_range=NORMAL_RANGE,
        sampled_at=0.0,
    )


def test_witness_interval_straddling_the_link_keeps_it():
    # RNG: witness 2 is close to both ends in one version and far in the
    # other, so only its cMax counts — and cMax exceeds the link's cMin.
    view = _view({0: [(0.0, 0.0)], 1: [(50.0, 0.0)], 2: [(25.0, 5.0), (25.0, 60.0)]})
    for name in ("rng", "mst"):
        kernel, predicate, cost_model = CONDITIONS[name]
        got = decide_views(IntervalBatch.of_views([view]), kernel, cost_model)[0]
        assert got == per_edge(view, predicate, cost_model)
        assert 1 in got.logical_neighbors



def test_witness_path_through_a_node_with_an_interval_owner_link():
    # (0, 2) costs 72.06.  The path 0-1-3-2 has upper bounds 45, 71.4 and
    # 62.0, so (0, 2) goes.  Node 3's own link to the owner spans
    # [42.2, 91.5]: a kernel that reached 3 at that lower bound and then
    # relayed its upper one would miss the path and keep (0, 2).
    view = _view({
        0: [(3.0, 28.0)],
        1: [(3.0, 73.0)],
        2: [(75.0, 25.0)],
        3: [(73.0, 87.0), (39.0, 50.0)],
    })
    kernel, predicate, cost_model = CONDITIONS["mst"]
    got = decide_views(IntervalBatch.of_views([view]), kernel, cost_model)[0]
    assert got == per_edge(view, predicate, cost_model)
    assert got.logical_neighbors == frozenset({1, 3})
