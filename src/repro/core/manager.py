"""The paper's headline object: mobility-sensitive topology control.

:class:`MobilitySensitiveTopologyControl` wraps an *unmodified* base
protocol with the three mobility mechanisms the paper proposes/evaluates:

1. a **consistency mechanism** choosing the view behind each decision
   (baseline / view synchronization / proactive / reactive / weak /
   gossip),
2. a **buffer zone** extending the actual transmission range
   (Theorem 5 width or an experimental width),
3. optional **physical-neighbor forwarding** (accept packets from any
   in-range sender, not only logical neighbors).

The object is simulator-agnostic: it turns a neighbor table + current
position into a :class:`NodeDecision`.  Library users call
:meth:`~MobilitySensitiveTopologyControl.decide` on hand-built tables.
The simulator decides through the protocol's array kernel wherever there
is one (:attr:`~MobilitySensitiveTopologyControl.kernel_route`).  At
Hello time it gathers the owner's view
(:meth:`~MobilitySensitiveTopologyControl.gather`) and later decides all
it gathered in one pass
(:meth:`~MobilitySensitiveTopologyControl.decide_gathered`); at packet
time :meth:`~MobilitySensitiveTopologyControl.decide_many` gathers and
decides the whole world at once (see ``docs/PERFORMANCE.md``).  Without a
kernel it calls :meth:`~MobilitySensitiveTopologyControl.decide` owner by
owner.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.buffer_zone import BufferZonePolicy
from repro.core.consistency import BaselineConsistency, ConsistencyMechanism
from repro.core.framework import SelectionResult
from repro.core.tables import NeighborTable
from repro.core.views import Hello
from repro.protocols.base import TopologyControlProtocol
from repro.telemetry.core import NULL_TELEMETRY
from repro.util.errors import ProtocolError

__all__ = ["NodeDecision", "MobilitySensitiveTopologyControl"]


@dataclass(frozen=True, slots=True)
class NodeDecision:
    """One node's complete topology control state after a decision.

    Attributes
    ----------
    owner:
        Deciding node.
    logical_neighbors:
        Selected logical neighbor IDs.
    actual_range:
        Range covering the farthest logical neighbor (protocol output).
    extended_range:
        Actual range plus the buffer-zone width (what the radio uses).
    decided_at:
        Physical decision time.
    """

    owner: int
    logical_neighbors: frozenset[int]
    actual_range: float
    extended_range: float
    decided_at: float


class MobilitySensitiveTopologyControl:
    """Bundle a base protocol with the paper's mobility mechanisms.

    Parameters
    ----------
    protocol:
        Any registered :class:`TopologyControlProtocol`, unmodified.
    mechanism:
        View-consistency strategy (default: mobility-insensitive baseline).
    buffer_policy:
        Buffer-zone policy (default: no buffer — width 0).
    physical_neighbor_mode:
        When True, receivers accept data packets from *any* in-range
        sender ("enabling physical neighbors", Section 5.1); the logical
        set still determines each node's transmission range.

    Examples
    --------
    >>> from repro.protocols import RngProtocol
    >>> from repro.core.buffer_zone import BufferZonePolicy
    >>> mstc = MobilitySensitiveTopologyControl(
    ...     RngProtocol(), buffer_policy=BufferZonePolicy(width=10.0))
    >>> mstc.describe()
    'rng+baseline+buf10'
    """

    def __init__(
        self,
        protocol: TopologyControlProtocol,
        mechanism: ConsistencyMechanism | None = None,
        buffer_policy: BufferZonePolicy | None = None,
        physical_neighbor_mode: bool = False,
    ) -> None:
        self.protocol = protocol
        self.mechanism = mechanism or BaselineConsistency()
        self.buffer_policy = buffer_policy or BufferZonePolicy(width=0.0)
        self.physical_neighbor_mode = bool(physical_neighbor_mode)
        #: span collector of decide_many (attach_telemetry)
        self._spans = NULL_TELEMETRY
        if (
            self.mechanism.name == "weak"
            and not protocol.supports_conservative
        ):
            raise ProtocolError(
                f"protocol {protocol.name!r} has no conservative mode; "
                "weak consistency cannot drive it"
            )

    @property
    def recompute_on_packet(self) -> bool:
        """Whether forwarding a packet triggers a fresh decision."""
        return self.mechanism.recompute_on_packet

    @property
    def synchronized_versions(self) -> bool:
        """Whether Hello versions must be globally epoch-aligned."""
        return self.mechanism.synchronized_versions

    def decide(
        self,
        table: NeighborTable,
        now: float,
        current_hello: Hello,
        version: int | None = None,
    ) -> NodeDecision:
        """Make a full topology control decision for one node."""
        result = self.mechanism.decide(
            self.protocol, table, now, current_hello, version=version
        )
        return self._decision(now, result)

    @property
    def kernel_route(self) -> bool:
        """True when decisions can be gathered and decided in batches: the
        protocol has an array kernel and the mechanism a batched gather."""
        return self.protocol.view_kernel is not None and self.mechanism.gather_views is not None

    def gather(
        self,
        table: NeighborTable,
        now: float,
        current_hello: Hello,
        version: int | None = None,
    ):
        """The view :meth:`decide` would decide from, gathered *now* for a
        later :meth:`decide_gathered` (requires :attr:`kernel_route`).

        Raises :class:`~repro.util.errors.ViewError` where :meth:`decide`
        would.
        """
        return self.mechanism.gather_view(table, now, current_hello, version=version)

    def decide_gathered(
        self, views: Sequence, times: Sequence[float]
    ) -> list[NodeDecision]:
        """Decide gathered *views* in one array pass, in order.

        ``times[i]`` is the instant ``views[i]`` was gathered at; decision
        *i* equals :meth:`decide` at that instant.
        """
        results = self.mechanism.decide_gathered(self.protocol, views)
        return [self._decision(t, result) for t, result in zip(times, results)]

    def decide_many(
        self,
        tables: Sequence[NeighborTable],
        now: float,
        current_hello: Callable[[NeighborTable], Hello],
        version: int | None = None,
    ) -> list[NodeDecision | None]:
        """:meth:`decide` for many owners at one instant, in table order.

        *current_hello* maps a table to the Hello :meth:`decide` would be
        given for its owner; it is called once per table.  Returns one
        decision per table, or None where the owner cannot decide (its
        :meth:`decide` would raise :class:`~repro.util.errors.ViewError`).
        The owners are decided together by the mechanism's
        :meth:`~repro.core.consistency.ConsistencyMechanism.decide_many`
        (one array pass where the protocol has a kernel), with results
        equal to one :meth:`decide` per table.
        """
        results = self.mechanism.decide_many(
            self.protocol,
            tables,
            now,
            [current_hello(table) for table in tables],
            version=version,
            spans=self._spans,
        )
        return [
            None if result is None else self._decision(now, result)
            for result in results
        ]

    def _decision(self, now: float, result: SelectionResult) -> NodeDecision:
        """The standing decision of a fresh selection *result*."""
        return NodeDecision(
            owner=result.owner,
            logical_neighbors=result.logical_neighbors,
            actual_range=result.actual_range,
            extended_range=self.buffer_policy.extended_range(result.actual_range),
            decided_at=now,
        )

    # ------------------------------------------------------------------ #
    # telemetry

    def attach_telemetry(self, telemetry) -> None:
        """Install (or clear, with None) a telemetry collector.

        Armed, :meth:`decide_many` times its view gather and kernel under
        the ``redecide_view`` / ``redecide_kernel`` spans; disarmed (None
        or a :class:`~repro.telemetry.NullTelemetry`), those spans are
        no-ops.
        """
        if telemetry is None or not getattr(telemetry, "enabled", True):
            telemetry = NULL_TELEMETRY
        self._spans = telemetry

    def describe(self) -> str:
        """Compact configuration label used in reports and figures."""
        parts = [self.protocol.name, self.mechanism.name]
        if self.buffer_policy.width > 0:
            parts.append(f"buf{self.buffer_policy.width:g}")
        if self.physical_neighbor_mode:
            parts.append("pn")
        return "+".join(parts)

    def __repr__(self) -> str:
        return (
            f"MobilitySensitiveTopologyControl(protocol={self.protocol!r}, "
            f"mechanism={self.mechanism!r}, buffer={self.buffer_policy!r}, "
            f"physical_neighbor_mode={self.physical_neighbor_mode})"
        )
