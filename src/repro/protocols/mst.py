"""LMST: local-MST-based topology control (Li, Hou & Sha 2003).

Each node builds an MST over its 1-hop view and keeps its tree neighbors.
Because link costs are totally ordered (IDs break ties), this is exactly
removal condition 3: drop (u, v) iff some u→v path exists whose *every*
link is cheaper — i.e. the direct link is not the bottleneck-optimal
connection.  The paper notes LMST yields the sparsest (near-tree, mean
degree ≈ 2.09) and therefore most mobility-fragile logical topology.
"""

from __future__ import annotations

from repro.core.framework import mst_survivors
from repro.protocols.base import ConditionProtocol, register_protocol

__all__ = ["MstProtocol"]


@register_protocol
class MstProtocol(ConditionProtocol):
    """Local minimum-spanning-tree protocol (removal condition 3).

    Selection runs :func:`~repro.core.framework.mst_survivors`, one
    bottleneck Dijkstra over the owner's view.
    """

    name = "mst"
    view_kernel = staticmethod(mst_survivors)
