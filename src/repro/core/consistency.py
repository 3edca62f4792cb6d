"""View-consistency mechanisms (Sections 4.1-4.2).

Each mechanism is a strategy answering one question: *which view does a
node base its logical-neighbor decision on, and when does it re-decide?*

- :class:`BaselineConsistency` — the mobility-insensitive status quo:
  latest Hello per neighbor, own true position, decide at Hello time.
- :class:`ViewSynchronization` — the paper's simulated lightweight scheme:
  re-decide *on every packet send* from the latest Hellos, using the own
  position advertised in the node's last Hello (so nodes a fast packet
  visits share nearly consistent views).
- :class:`ProactiveConsistency` — strong consistency via timestamped
  Hellos: packets carry the source's version ``s``; every node on the path
  decides from its version-``s`` view, which enforces ``|M(t, v)| = 1``
  (Theorem 2).
- :class:`ReactiveConsistency` — strong consistency via synchronized
  rounds: an initiation flood stamps one version on every Hello of the
  round, and decisions use exactly that round's view.
- :class:`WeakConsistency` — no synchronization: keep ``k`` recent Hellos,
  evaluate the protocol's *conservative* (enhanced-condition) mode
  (Theorem 4).
- :class:`GossipConsistency` — anti-entropy epidemic dissemination: views
  converge by periodic digest exchange and monotone last-writer-wins
  merge (:mod:`repro.gossip`) rather than by every node hearing every
  neighbor directly; decisions read the merged view exactly like
  view synchronization, lagging by at most ``rounds_to_converge ×
  interval`` (see ``docs/GOSSIP.md``).
"""

from __future__ import annotations

import inspect
import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.core.framework import IntervalBatch, SelectionResult, ViewBatch, decide_views
from repro.core.tables import NeighborTable
from repro.core.views import Hello
from repro.protocols.base import TopologyControlProtocol
from repro.telemetry.core import NULL_TELEMETRY
from repro.util.errors import ConfigurationError, ViewError
from repro.util.validate import check_int_range, check_positive

__all__ = [
    "ConsistencyMechanism",
    "BaselineConsistency",
    "ViewSynchronization",
    "ProactiveConsistency",
    "ReactiveConsistency",
    "WeakConsistency",
    "GossipConsistency",
    "available_mechanisms",
    "make_mechanism",
]


class ConsistencyMechanism(ABC):
    """Strategy: how a node builds the view behind each decision."""

    #: registry key and report label
    name: str = ""
    #: True if logical sets must be recomputed when forwarding a packet
    recompute_on_packet: bool = False
    #: True if Hello versions must be globally aligned (epoch-based)
    synchronized_versions: bool = False

    @abstractmethod
    def decide(
        self,
        protocol: TopologyControlProtocol,
        table: NeighborTable,
        now: float,
        current_hello: Hello,
        version: int | None = None,
    ) -> SelectionResult:
        """Run *protocol* on the view this mechanism prescribes.

        Parameters
        ----------
        protocol:
            The (unchanged) base topology control protocol.
        table:
            The deciding node's neighbor table.
        now:
            Physical time of the decision.
        current_hello:
            A Hello describing the node's *current true* position (only
            mechanisms that are allowed to use it do).
        version:
            Global Hello version a packet mandates (proactive/reactive).
        """

    #: ``gather_views(tables, now, current_hellos, version=None)`` returns
    #: ``(batch, kept)``: the decision views of many owners as one
    #: :class:`~repro.core.framework.ViewBatch` (or, for k-version views,
    #: :class:`~repro.core.framework.IntervalBatch`), and the positions in
    #: *tables* (in order) whose owner has a view — the others cannot
    #: decide, their :meth:`decide` raising :class:`ViewError`.
    #: Single-version gathers read the columnar store all *tables* share.
    #: None for mechanisms without a batched gather: they decide owner by
    #: owner through :meth:`decide`.
    gather_views = None

    def gather_view(
        self,
        table: NeighborTable,
        now: float,
        current_hello: Hello,
        version: int | None = None,
    ):
        """The one-view batch :meth:`decide` would decide from, gathered now.

        Raises :class:`ViewError` where :meth:`decide` would.  Deciding it
        later with :meth:`decide_gathered` gives :meth:`decide`'s result.
        """
        batch, kept = self.gather_views([table], now, [current_hello], version=version)
        if not kept:
            raise ViewError(f"node {table.owner} has no view to decide from at t={now:g}")
        return batch

    def decide_gathered(
        self, protocol: TopologyControlProtocol, batches: Sequence
    ) -> list[SelectionResult]:
        """Decide gathered views (:meth:`gather_view` batches) in one array
        pass through *protocol*'s kernel, one result per view, in order."""
        batch = type(batches[0]).concat(batches)
        return decide_views(batch, protocol.view_kernel, protocol.cost_model)

    def decide_many(
        self,
        protocol: TopologyControlProtocol,
        tables: Sequence[NeighborTable],
        now: float,
        current_hellos: Sequence[Hello],
        version: int | None = None,
        spans=NULL_TELEMETRY,
    ) -> list[SelectionResult | None]:
        """:meth:`decide` for many owners at one instant, in order.

        None stands for an owner that cannot decide (:class:`ViewError`).
        When *protocol* has an array kernel
        (:attr:`~repro.protocols.base.TopologyControlProtocol.view_kernel`),
        this mechanism has a :attr:`gather_views` and the tables share one
        store, all views are gathered in one pass (span ``redecide_view``)
        and decided in one array pass (span ``redecide_kernel``); otherwise
        every owner runs :meth:`decide` (span ``redecide_kernel``).
        *spans* is the armed telemetry collector, or the disarmed default.
        """
        gathered = None
        if (
            protocol.view_kernel is not None
            and self.gather_views is not None
            and tables
            and all(table.state is tables[0].state for table in tables)
        ):
            with spans.span("redecide_view"):
                gathered = self.gather_views(tables, now, current_hellos, version=version)
        with spans.span("redecide_kernel"):
            if gathered is None:
                return [
                    self._decide_or_none(protocol, table, now, current, version)
                    for table, current in zip(tables, current_hellos)
                ]
            batch, kept = gathered
            results: list[SelectionResult | None] = [None] * len(tables)
            for i, result in zip(kept, self.decide_gathered(protocol, [batch])):
                results[i] = result
            return results

    def _decide_or_none(self, protocol, table, now, current_hello, version):
        try:
            return self.decide(protocol, table, now, current_hello, version=version)
        except ViewError:
            return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BaselineConsistency(ConsistencyMechanism):
    """Mobility-insensitive default: latest Hellos, own true position."""

    name = "baseline"

    @staticmethod
    def _own_hello(table: NeighborTable, current_hello: Hello) -> Hello:
        """The owner's position record a decision uses: the current one."""
        return current_hello

    def decide(self, protocol, table, now, current_hello, version=None):
        view = table.latest_view(now, own_hello=self._own_hello(table, current_hello))
        return protocol.select(view)

    def gather_views(self, tables, now, current_hellos, version=None):
        """Latest live views of many owners (:attr:`ConsistencyMechanism.gather_views`)."""
        owns = [
            self._own_hello(table, current)
            for table, current in zip(tables, current_hellos)
        ]
        index, senders, hellos = tables[0].state.latest_live_many(
            [table.row for table in tables],
            now,
            np.array([table.expiry for table in tables]),
        )
        ranges = np.array([table.normal_range for table in tables])
        return ViewBatch.assemble(owns, index, senders, hellos, ranges), range(len(tables))


class ViewSynchronization(BaselineConsistency):
    """On-the-fly almost-consistent views (Section 5.1, "view synchronization").

    Decisions use the latest received Hellos but the node's **previously
    advertised** own position — the paper is explicit that using the true
    current position instead would re-introduce inconsistency.  The
    simulator additionally re-decides whenever a packet is sent
    (:attr:`recompute_on_packet`), so all nodes a fast-travelling packet
    visits decide from nearly the same Hello generation.
    """

    name = "view-sync"
    recompute_on_packet = True

    @staticmethod
    def _own_hello(table: NeighborTable, current_hello: Hello) -> Hello:
        """The owner's last advertised Hello.  Before its first one the
        node is invisible to neighbors anyway, so deciding from the current
        position is harmless."""
        return table.last_advertised or current_hello


class ProactiveConsistency(ConsistencyMechanism):
    """Strong consistency from timestamped Hellos (the proactive approach).

    Requires globally aligned versions (nodes stamp Hello *i* during epoch
    *i*; clock skew only shifts the stamping instant).  A decision for
    version ``s`` uses exactly the version-``s`` Hello of every neighbor
    that produced one — so all nodes relaying a packet stamped ``s`` use
    the same version of everyone's location, satisfying Theorem 2.
    """

    name = "proactive"
    recompute_on_packet = True
    synchronized_versions = True

    @staticmethod
    def _view_version(table: NeighborTable, version: int | None) -> int:
        """The Hello version a decision for *version* uses at *table*'s owner.

        Raises :class:`ViewError` when the owner has no usable version.
        """
        available = table.available_versions()
        if version is None:
            if not available:
                raise ViewError(
                    f"node {table.owner} cannot decide proactively before advertising"
                )
            return max(available)
        if version in available:
            return version
        # The node has not reached epoch `version` yet (clock skew or a
        # packet racing ahead of Hello emission): fall back to the most
        # recent version it *has* advertised — the paper's "wait before
        # migrating to the next local view" rule seen from the packet's
        # perspective.
        candidates = [v for v in available if v < version]
        if not candidates:
            raise ViewError(
                f"node {table.owner} has not advertised version {version} yet"
            )
        return max(candidates)

    def decide(self, protocol, table, now, current_hello, version=None):
        view = table.versioned_view(now, self._view_version(table, version))
        return protocol.select(view)

    def gather_views(self, tables, now, current_hellos, version=None):
        """Version-matched views of many owners (:attr:`ConsistencyMechanism.gather_views`)."""
        kept: list[int] = []
        owns: list[Hello] = []
        versions: list[int] = []
        for i, table in enumerate(tables):
            try:
                v = self._view_version(table, version)
            except ViewError:
                continue
            kept.append(i)
            versions.append(v)
            owns.append(next(h for h in table.own_history if h.version == v))
        index, senders, hellos = tables[0].state.versioned_many(
            [tables[i].row for i in kept], np.array(versions, dtype=np.int64)
        )
        ranges = np.array([tables[i].normal_range for i in kept])
        return ViewBatch.assemble(owns, index, senders, hellos, ranges), kept


class ReactiveConsistency(ProactiveConsistency):
    """Strong consistency from synchronized Hello rounds (reactive approach).

    Functionally a versioned decision like the proactive scheme; the
    difference is *how* versions get aligned (an initiation flood rather
    than clocks) and its traffic cost, which the simulator accounts
    separately.  Decisions do not depend on packets, so logical sets are
    refreshed once per round, not per packet.
    """

    name = "reactive"
    recompute_on_packet = False
    synchronized_versions = True


class WeakConsistency(ConsistencyMechanism):
    """Conservative decisions from k recent Hellos — no synchronization.

    Runs the protocol's enhanced link-removal conditions
    (:meth:`~repro.protocols.base.TopologyControlProtocol
    .select_conservative`) on a :class:`~repro.core.views.MultiVersionView`.
    Theorem 4 guarantees a connected logical topology when views are weakly
    consistent, which Theorem 3 guarantees for sufficient *k*.
    """

    name = "weak"

    def __init__(self, history_depth: int = 3) -> None:
        self.history_depth = check_int_range("history_depth", history_depth, 1)

    def decide(self, protocol, table, now, current_hello, version=None):
        view = table.multi_view(now, own_hello=current_hello)
        return protocol.select_conservative(view)

    def gather_views(self, tables, now, current_hellos, version=None):
        """Distance bounds of many owners' k-version views
        (:attr:`ConsistencyMechanism.gather_views`)."""
        views = [
            table.multi_view(now, own_hello=current)
            for table, current in zip(tables, current_hellos)
        ]
        return IntervalBatch.of_views(views), range(len(tables))

    def __repr__(self) -> str:
        return f"WeakConsistency(history_depth={self.history_depth})"


class GossipConsistency(ViewSynchronization):
    """Anti-entropy epidemic views (ROADMAP item 4; see docs/GOSSIP.md).

    Hello state spreads by periodic push–pull digest exchange with
    ``fanout`` sampled in-range peers, merged monotonically
    (last-writer-wins per sender), with age-based peer removal and a
    mayday re-request when the local view goes silent.  The decision
    itself is view-synchronization-shaped: the latest expiry-filtered
    entries plus the node's previously advertised own position — only the
    *transport* of those entries is epidemic.  The dissemination driver
    (:class:`~repro.gossip.GossipEngine`) is wired by the world whenever
    this mechanism is selected.

    Parameters
    ----------
    fanout:
        Peers sampled per round (without replacement) from the nodes in
        normal Hello range.
    interval:
        Gossip round period in seconds (per node, jitter-started from
        the dedicated ``"gossip"`` seed stream).
    removal_age:
        Entries older than this are neither advertised in digests nor
        relayed, so silent peers age out of circulation; defaults to the
        scenario's Hello expiry.
    mayday_after:
        Silence (no live neighbors while in-range peers exist) tolerated
        before a full-view re-request; defaults to ``2 × interval``.
    """

    name = "gossip"
    recompute_on_packet = False

    def __init__(
        self,
        fanout: int = 2,
        interval: float = 1.0,
        removal_age: float | None = None,
        mayday_after: float | None = None,
    ) -> None:
        self.fanout = check_int_range("fanout", fanout, 1)
        self.interval = check_positive("interval", interval)
        self.removal_age = (
            None if removal_age is None else check_positive("removal_age", removal_age)
        )
        self.mayday_after = (
            None
            if mayday_after is None
            else check_positive("mayday_after", mayday_after)
        )

    def staleness_bound(self, n_nodes: int) -> float:
        """Worst-case extra view lag in seconds at population *n_nodes*.

        Push–pull epidemics infect all *n* nodes in
        ``ceil(log_{fanout+1}(n))`` rounds with high probability; one
        extra round absorbs the exchange's in-flight hops.  Oracles widen
        their Theorem 5 slack by this much for gossip runs.
        """
        rounds = (
            math.ceil(math.log(max(int(n_nodes), 2)) / math.log(self.fanout + 1.0))
            + 1
        )
        return rounds * self.interval

    def __repr__(self) -> str:
        return (
            f"GossipConsistency(fanout={self.fanout}, interval={self.interval}, "
            f"removal_age={self.removal_age}, mayday_after={self.mayday_after})"
        )


_MECHANISMS = {
    cls.name: cls
    for cls in (
        BaselineConsistency,
        ViewSynchronization,
        ProactiveConsistency,
        ReactiveConsistency,
        WeakConsistency,
        GossipConsistency,
    )
}


def available_mechanisms() -> tuple[str, ...]:
    """Registered mechanism names, sorted — the single source of truth
    for CLI choices and the fuzzer's mechanism axis."""
    return tuple(sorted(_MECHANISMS))


def make_mechanism(name: str, **kwargs) -> ConsistencyMechanism:
    """Instantiate a consistency mechanism by name (CLI / config entry)."""
    try:
        cls = _MECHANISMS[name]
    except KeyError:
        raise ViewError(
            f"unknown consistency mechanism {name!r}; available: {sorted(_MECHANISMS)}"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        accepted = [
            p for p in inspect.signature(cls.__init__).parameters if p != "self"
        ]
        raise ConfigurationError(
            f"invalid parameters {sorted(kwargs)} for consistency mechanism "
            f"{name!r}; accepted parameters: {accepted or 'none'}"
        ) from exc
