"""Per-node neighbor tables: the Hello history behind every local view.

A :class:`NeighborTable` holds the ``k`` most recent Hellos per 1-hop
neighbor (plus the owner's own advertisement history) and materialises the
three kinds of views the paper's mechanisms need:

- the *latest* single-version view (baseline and view-synchronization),
- a *versioned* view using one global Hello version everywhere (proactive
  and reactive strong consistency, Theorem 2's ``|M(t, v)| = 1``),
- the *multi-version* view (weak consistency, Definition 2).

Received Hellos live in a columnar
:class:`~repro.core.neighbor_state.NeighborState`.  In a simulated world
every table is a facade over one shared store, which the Hello delivery
path updates with one vectorized splice per transmission; a table built
on its own gets a private single-row store.  The original dict-of-deques
table survives as the test oracle in :mod:`repro.core._reference`.
"""

from __future__ import annotations

from collections import deque

from repro.core.neighbor_state import NeighborState
from repro.core.views import Hello, LocalView, MultiVersionView
from repro.util.errors import ViewError
from repro.util.validate import check_int_range, check_positive

__all__ = ["NeighborTable"]


class NeighborTable:
    """Hello history of one node.

    Parameters
    ----------
    owner:
        Owning node's ID.
    normal_range:
        Normal transmission range (view link threshold).
    history_depth:
        How many recent Hellos to retain per neighbor (``k`` of Theorem 3).
    expiry:
        A neighbor whose most recent Hello is older than this many seconds
        is dropped from views (the paper's ``[t - Delta, t]`` link rule,
        with slack for jitter).
    state:
        Shared columnar store whose row *owner* holds this table's
        received Hellos (its ``k`` must equal *history_depth*).  None
        builds a private single-row store.
    """

    def __init__(
        self,
        owner: int,
        normal_range: float,
        history_depth: int = 3,
        expiry: float = 2.5,
        state: NeighborState | None = None,
    ) -> None:
        self.owner = owner
        self.normal_range = check_positive("normal_range", normal_range)
        self.history_depth = check_int_range("history_depth", history_depth, 1)
        self.expiry = check_positive("expiry", expiry)
        if state is None:
            state, row = NeighborState(1, self.history_depth), 0
        elif state.k != self.history_depth:
            raise ViewError(
                f"table history_depth={history_depth} does not match the "
                f"columnar store's k={state.k}"
            )
        else:
            row = owner
        self._state = state
        self._row = row
        self._own: deque[Hello] = deque(maxlen=self.history_depth)

    @property
    def state(self) -> NeighborState:
        """The columnar store holding this table's received Hellos."""
        return self._state

    @property
    def row(self) -> int:
        """This table's receiver row in :attr:`state`."""
        return self._row

    @property
    def hellos_received(self) -> int:
        """Neighbor Hellos recorded so far."""
        return int(self._state.hellos_received[self._row])

    # ------------------------------------------------------------------ #
    # recording

    def record_own(self, hello: Hello) -> None:
        """Remember a Hello the owner just advertised."""
        if hello.sender != self.owner:
            raise ViewError(f"record_own got a Hello from {hello.sender}, not {self.owner}")
        self._own.append(hello)

    def record_hello(self, hello: Hello) -> None:
        """Store a received neighbor Hello (keeps the newest ``k``)."""
        if hello.sender == self.owner:
            raise ViewError("a node does not receive its own Hello")
        self._state.record_one(self._row, hello)

    def prune(self, now: float) -> None:
        """Drop neighbors not heard from within the expiry window."""
        self._state.prune(self._row, now, self.expiry)

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def last_advertised(self) -> Hello | None:
        """The owner's most recent own advertisement, if any."""
        return self._own[-1] if self._own else None

    @property
    def own_history(self) -> tuple[Hello, ...]:
        """The owner's retained advertisements, oldest first."""
        return tuple(self._own)

    def known_neighbors(self, now: float | None = None) -> list[int]:
        """IDs of neighbors with a live (non-expired) Hello."""
        if now is None:
            return sorted(self._state.senders(self._row))
        return sorted(self._state.live_ids(self._row, now, self.expiry))

    def history_of(self, neighbor: int) -> tuple[Hello, ...]:
        """Retained Hellos of one neighbor, oldest first."""
        return self._state.history(self._row, neighbor)

    def message_versions_in_use(self, neighbor: int) -> set[int]:
        """Versions of *neighbor*'s Hellos currently retained (``M(t, v)``)."""
        return {h.version for h in self.history_of(neighbor)}

    # ------------------------------------------------------------------ #
    # view materialisation

    def latest_view(self, now: float, own_hello: Hello) -> LocalView:
        """Single-version view from each neighbor's most recent live Hello."""
        return LocalView(
            owner=self.owner,
            own_hello=own_hello,
            neighbor_hellos=self._state.latest_live(self._row, now, self.expiry),
            normal_range=self.normal_range,
            sampled_at=now,
        )

    def versioned_view(self, now: float, version: int) -> LocalView:
        """View built *only* from Hellos carrying the given global version.

        Neighbors with no retained Hello of that version are absent — the
        proactive scheme's rule that enforces ``|M(t, v)| = 1``.  The
        owner's own record must exist for that version.
        """
        own = next((h for h in self._own if h.version == version), None)
        if own is None:
            raise ViewError(
                f"node {self.owner} has not advertised version {version} yet"
            )
        state, row = self._state, self._row
        neighbors: dict[int, Hello] = {}
        for nid in state.senders(row):
            match = next(
                (h for h in state.history(row, nid) if h.version == version),
                None,
            )
            if match is not None:
                neighbors[nid] = match
        return LocalView(
            owner=self.owner,
            own_hello=own,
            neighbor_hellos=neighbors,
            normal_range=self.normal_range,
            sampled_at=now,
        )

    def available_versions(self) -> set[int]:
        """Versions for which the owner has advertised (candidates for views)."""
        return {h.version for h in self._own}

    def multi_view(self, now: float, own_hello: Hello | None = None) -> MultiVersionView:
        """Multi-version view over all retained live Hellos (weak consistency).

        The owner contributes its advertisement history; *own_hello*, when
        given, is appended as the freshest own record (a node always knows
        where it is *now* — but under weak consistency its neighbors may be
        using any of its retained advertisements, hence the history).
        """
        own = list(self._own)
        if own_hello is not None:
            own.append(own_hello)
        if not own:
            raise ViewError(f"node {self.owner} has no own position record")
        return MultiVersionView(
            owner=self.owner,
            own_hellos=own,
            neighbor_hellos=self._state.live_histories(self._row, now, self.expiry),
            normal_range=self.normal_range,
            sampled_at=now,
        )
