"""Dict-of-deques reference implementation of the neighbor table.

This is the original per-node table — one ``deque[Hello]`` per sender,
kept verbatim as the *semantic specification* of the columnar
:class:`repro.core.tables.NeighborTable` the simulator runs on.  The
differential suite (``tests/test_property_tables.py``) drives random
``record_own`` / ``record_hello`` / ``prune`` streams into both and
asserts equal live neighbours, views, histories and counters.

Test oracle only: no runtime module imports it.
"""

from __future__ import annotations

from collections import deque

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
    """

    def __init__(
        self,
        owner: int,
        normal_range: float,
        history_depth: int = 3,
        expiry: float = 2.5,
    ) -> None:
        self.owner = owner
        self.normal_range = check_positive("normal_range", normal_range)
        self.history_depth = check_int_range("history_depth", history_depth, 1)
        self.expiry = check_positive("expiry", expiry)
        self._records: dict[int, deque[Hello]] = {}
        self._own: deque[Hello] = deque(maxlen=self.history_depth)
        self.hellos_received = 0

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
        queue = self._records.get(hello.sender)
        if queue is None:
            queue = deque(maxlen=self.history_depth)
            self._records[hello.sender] = queue
        queue.append(hello)
        self.hellos_received += 1

    def prune(self, now: float) -> None:
        """Drop neighbors not heard from within the expiry window."""
        stale = [
            nid for nid, q in self._records.items() if now - q[-1].sent_at > self.expiry
        ]
        for nid in stale:
            del self._records[nid]

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
            return sorted(self._records)
        return sorted(
            nid
            for nid, q in self._records.items()
            if now - q[-1].sent_at <= self.expiry
        )

    def history_of(self, neighbor: int) -> tuple[Hello, ...]:
        """Retained Hellos of one neighbor, oldest first."""
        queue = self._records.get(neighbor)
        return tuple(queue) if queue else ()

    def message_versions_in_use(self, neighbor: int) -> set[int]:
        """Versions of *neighbor*'s Hellos currently retained (``M(t, v)``)."""
        return {h.version for h in self.history_of(neighbor)}

    # ------------------------------------------------------------------ #
    # view materialisation

    def latest_view(self, now: float, own_hello: Hello) -> LocalView:
        """Single-version view from each neighbor's most recent live Hello."""
        neighbors = {
            nid: q[-1]
            for nid, q in self._records.items()
            if now - q[-1].sent_at <= self.expiry
        }
        return LocalView(
            owner=self.owner,
            own_hello=own_hello,
            neighbor_hellos=neighbors,
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
        neighbors: dict[int, Hello] = {}
        for nid, q in self._records.items():
            match = next((h for h in q if h.version == version), None)
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
        neighbors = {
            nid: tuple(q)
            for nid, q in self._records.items()
            if now - q[-1].sent_at <= self.expiry
        }
        return MultiVersionView(
            owner=self.owner,
            own_hellos=own,
            neighbor_hellos=neighbors,
            normal_range=self.normal_range,
            sampled_at=now,
        )
