"""Gabriel-graph topology control (Gabriel & Sokal 1969).

A special case of the RNG family where the witness must lie inside the
disk with diameter (u, v):  remove (u, v) iff some visible w satisfies
``d(u,w)^2 + d(w,v)^2 < d(u,v)^2``.  The Gabriel graph contains the RNG,
so it keeps slightly more links (useful as a redundancy ablation point
between RNG and SPT-2).
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import DistanceCost, cost_key
from repro.core.framework import LocalCostGraph, SelectionResult, apply_removal_condition
from repro.core.views import LocalView, MultiVersionView
from repro.protocols.base import TopologyControlProtocol, register_protocol

__all__ = ["GabrielProtocol", "gabriel_removable"]


def gabriel_removable(graph: LocalCostGraph, owner: int, v: int) -> bool:
    """Remove (owner, v) iff a diametral-disk witness path is strictly cheaper.

    Conservative form: the witness legs use upper-bound distances, the
    candidate link its lower bound, with ID tie-breaking on exact equality
    (same total-order discipline as the three framework conditions).
    """
    d_low = graph.dist_low[owner, v]
    target = cost_key(d_low * d_low, graph.ids[owner], graph.ids[v])
    adj = graph.adj
    for w in np.flatnonzero(adj[owner] & adj[v]):
        if w == v or w == owner:
            continue
        a = graph.dist_high[owner, w]
        b = graph.dist_high[w, v]
        if cost_key(a * a + b * b, graph.ids[owner], graph.ids[w]) < target:
            return True
    return False


@register_protocol
class GabrielProtocol(TopologyControlProtocol):
    """Gabriel-graph protocol (diametral-disk witness removal)."""

    name = "gabriel"
    supports_conservative = True

    def __init__(self) -> None:
        self.cost_model = DistanceCost()

    def select(self, view: LocalView) -> SelectionResult:
        graph = LocalCostGraph.from_local_view(view, self.cost_model)
        return apply_removal_condition(graph, gabriel_removable)

    def select_conservative(self, view: MultiVersionView) -> SelectionResult:
        graph = LocalCostGraph.from_multi_version_view(view, self.cost_model)
        return apply_removal_condition(graph, gabriel_removable)
