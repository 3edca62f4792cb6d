"""Per-node simulation state.

A :class:`SimNode` owns exactly the state a real node would: its neighbor
table (Hello history), its latest topology control decision, and its Hello
version counter.  Positions live in the mobility model; the node never
reads them directly — the Hello process samples them on its behalf at send
time, which is precisely the information boundary the paper studies.
"""

from __future__ import annotations

from repro.core.manager import NodeDecision
from repro.core.tables import NeighborTable

__all__ = ["SimNode"]


class SimNode:
    """State of one simulated node.

    Attributes
    ----------
    node_id:
        Index in the world (0-based).
    table:
        Hello history and view factory.
    decision:
        Latest topology control decision (None until the first Hello).
    next_version:
        Next Hello version this node will stamp (baseline mode counts from
        1; synchronized modes overwrite with the epoch number).
    hellos_sent:
        Diagnostics counter.
    packet_decisions:
        Decisions recomputed on packet forwarding (view-sync / proactive).

    Notes
    -----
    A world may gather Hello-time decisions and decide them later, all at
    once: *pending* is its list of gathered decisions and *settle* decides
    them.  Reading or assigning :attr:`decision` settles a non-empty list
    first, so no reader ever sees a decision that is still queued.  The
    settle pass installs its results in ``_decision`` directly.
    """

    __slots__ = (
        "node_id",
        "table",
        "next_version",
        "hellos_sent",
        "packet_decisions",
        "_decision",
        "_pending",
        "_settle",
    )

    def __init__(
        self,
        node_id: int,
        table: NeighborTable,
        decision: NodeDecision | None = None,
        next_version: int = 1,
        hellos_sent: int = 0,
        pending: list | None = None,
        settle=None,
    ) -> None:
        self.node_id = node_id
        self.table = table
        self.next_version = next_version
        self.hellos_sent = hellos_sent
        self.packet_decisions = 0
        self._decision = decision
        self._pending = pending
        self._settle = settle

    @property
    def decision(self) -> NodeDecision | None:
        """Latest topology control decision (None until the first one)."""
        if self._pending:
            self._settle()
        return self._decision

    @decision.setter
    def decision(self, decision: NodeDecision | None) -> None:
        if self._pending:
            self._settle()
        self._decision = decision

    @property
    def logical_neighbors(self) -> frozenset[int]:
        """Current logical neighbor set (empty before the first decision)."""
        decision = self.decision
        return decision.logical_neighbors if decision else frozenset()

    @property
    def extended_range(self) -> float:
        """Current extended transmission range (0 before the first decision)."""
        decision = self.decision
        return decision.extended_range if decision else 0.0

    @property
    def actual_range(self) -> float:
        """Current actual (pre-buffer) transmission range."""
        decision = self.decision
        return decision.actual_range if decision else 0.0
