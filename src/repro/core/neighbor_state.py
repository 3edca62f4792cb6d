"""World-level columnar neighbor state (struct-of-arrays Hello storage).

At 10k nodes a single Hello generation delivers hundreds of thousands of
Hellos; storing them as per-sender ``deque[Hello]`` objects would cost a
Python-level deque append each.  :class:`NeighborState` stores them
*columnar* instead: NumPy ring buffers of shape ``(slots, k)``, where a
*slot* is one (receiver, sender) pair and ``k`` is the retained history
depth.  A Hello delivery then updates every receiver of one
transmission with a single vectorized splice (`record_batch`).

The semantics are those of the dict-of-deques reference table
(:mod:`repro.core._reference`), bit for bit:

- per-receiver sender *insertion order* is preserved (an insertion-ordered
  ``dict[sender -> slot]`` directory per receiver), which is what keeps
  live-neighbour orderings and view dict iteration identical;
- per-pair histories are bounded rings of depth ``k`` (oldest evicted),
  the exact ``deque(maxlen=k)`` behaviour;
- the ``hellos_received`` counter lives in a flat per-node array and
  follows the same increment rule.

The rings hold references to the recorded :class:`~repro.core.views.Hello`
objects themselves (one frozen object per transmission, shared by all its
receivers), next to an int64 version column for vectorized version reads
and a newest-``sent_at`` column for the liveness checks.

The per-node facade over this storage is
:class:`~repro.core.tables.NeighborTable`; the delivery path that feeds
it lives in :mod:`repro.sim.world`.
"""

from __future__ import annotations

import numpy as np

from repro.core.views import Hello
from repro.util.validate import check_int_range

__all__ = ["NeighborState"]

#: :meth:`NeighborState.newest_versions` value where no Hello is retained
NO_VERSION = np.iinfo(np.int64).min


class NeighborState:
    """Columnar Hello storage for all (receiver, sender) pairs of a world.

    Parameters
    ----------
    n_nodes:
        Number of nodes (receivers) served.
    history_depth:
        Retained Hellos per (receiver, sender) pair (``k`` of Theorem 3).
    """

    __slots__ = (
        "n_nodes",
        "k",
        "hellos_received",
        "_directory",
        "_hello",
        "_version",
        "_writes",
        "_latest_sent",
        "_n_slots",
        "_slot_cache",
    )

    def __init__(self, n_nodes: int, history_depth: int) -> None:
        self.n_nodes = check_int_range("n_nodes", n_nodes, 1)
        self.k = check_int_range("history_depth", history_depth, 1)
        self.hellos_received = np.zeros(n_nodes, dtype=np.int64)
        #: per-receiver ``{sender: slot}``; dict insertion order *is* the
        #: reference table's record order, which view iteration follows.
        self._directory: list[dict[int, int]] = [{} for _ in range(n_nodes)]
        cap = 16 * n_nodes
        #: the recorded Hello objects themselves (shared by every receiver
        #: of one transmission), ring position ``writes % k`` per slot
        self._hello = np.full((cap, self.k), None, dtype=object)
        self._version = np.zeros((cap, self.k), dtype=np.int64)
        #: total writes per slot; ring head = writes % k, fill = min(writes, k)
        self._writes = np.zeros(cap, dtype=np.int64)
        #: sent_at of the newest entry per slot (freshness / expiry checks)
        self._latest_sent = np.full(cap, -np.inf, dtype=np.float64)
        self._n_slots = 0
        #: per-sender ``(receivers, slots)`` fast path: consecutive Hello
        #: generations usually reach the same receiver set, so the slot
        #: gather is one ``array_equal`` instead of a per-receiver dict walk.
        self._slot_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # storage management

    def _alloc_slot(self) -> int:
        slot = self._n_slots
        cap = self._writes.shape[0]
        if slot >= cap:
            for name, fill in (
                ("_hello", None),
                ("_version", 0),
                ("_writes", 0),
                ("_latest_sent", -np.inf),
            ):
                old = getattr(self, name)
                fresh = np.full((2 * cap,) + old.shape[1:], fill, dtype=old.dtype)
                fresh[:cap] = old
                setattr(self, name, fresh)
        self._n_slots = slot + 1
        return slot

    def _slots_for(self, sender: int, receivers: np.ndarray) -> np.ndarray:
        slots = np.empty(receivers.size, dtype=np.intp)
        directory = self._directory
        for i, rid in enumerate(receivers.tolist()):
            d = directory[rid]
            slot = d.get(sender)
            if slot is None:
                slot = self._alloc_slot()
                d[sender] = slot
            slots[i] = slot
        return slots

    # ------------------------------------------------------------------ #
    # writes

    def record_batch(self, hello: Hello, receivers: np.ndarray) -> None:
        """Record one Hello at every receiver in one vectorized splice.

        *receivers* must be unique node indices (the radio's surviving
        receiver array).  Equivalent to ``table.record_hello(hello)`` at
        each receiver, in array order.
        """
        if receivers.size == 0:
            return
        sender = hello.sender
        cached = self._slot_cache.get(sender)
        if (
            cached is not None
            and cached[0].size == receivers.size
            and np.array_equal(cached[0], receivers)
        ):
            slots = cached[1]
        else:
            slots = self._slots_for(sender, receivers)
            self._slot_cache[sender] = (receivers.copy(), slots)
        pos = self._writes[slots] % self.k
        self._hello[slots, pos] = hello
        self._version[slots, pos] = hello.version
        self._writes[slots] += 1
        self._latest_sent[slots] = hello.sent_at
        self.hellos_received[receivers] += 1

    def record_one(self, receiver: int, hello: Hello) -> None:
        """Single-receiver form of :meth:`record_batch`."""
        d = self._directory[receiver]
        sender = hello.sender
        slot = d.get(sender)
        if slot is None:
            slot = self._alloc_slot()
            d[sender] = slot
            self._slot_cache.pop(sender, None)
        pos = int(self._writes[slot]) % self.k
        self._hello[slot, pos] = hello
        self._version[slot, pos] = hello.version
        self._writes[slot] += 1
        self._latest_sent[slot] = hello.sent_at
        self.hellos_received[receiver] += 1

    def newest_versions(self, sender: int, receivers: np.ndarray) -> np.ndarray:
        """Newest retained version of *sender*'s Hellos at each receiver.

        :data:`NO_VERSION` where a receiver retains nothing from *sender*
        (never heard, or pruned).  The delivery path compares this with an
        arriving Hello's version to discard overtaken (stale) copies.
        """
        directory = self._directory
        slots = np.fromiter(
            (directory[rid].get(sender, -1) for rid in receivers.tolist()),
            dtype=np.intp,
            count=receivers.size,
        )
        out = np.full(receivers.size, NO_VERSION, dtype=np.int64)
        held = slots >= 0
        slots = slots[held]
        out[held] = self._version[slots, (self._writes[slots] - 1) % self.k]
        return out

    def prune(self, receiver: int, now: float, expiry: float) -> bool:
        """Drop *receiver*'s pairs not heard from within *expiry* seconds.

        Returns True when anything was dropped.  Dropped slots are
        never reused; the per-sender slot caches touching them are
        invalidated so a later Hello from the same sender starts a fresh
        history, exactly like a fresh deque.
        """
        d = self._directory[receiver]
        if not d:
            return False
        latest = self._latest_sent
        stale = [s for s, slot in d.items() if now - latest[slot] > expiry]
        if not stale:
            return False
        for s in stale:
            del d[s]
            self._slot_cache.pop(s, None)
        return True

    # ------------------------------------------------------------------ #
    # reads

    def _history(self, slot: int) -> tuple[Hello, ...]:
        writes = int(self._writes[slot])
        k = self.k
        count = writes if writes < k else k
        row = self._hello[slot]
        return tuple(row[(writes - count + i) % k] for i in range(count))

    def senders(self, receiver: int) -> list[int]:
        """Sender ids recorded at *receiver*, in insertion order."""
        return list(self._directory[receiver])

    def history(self, receiver: int, sender: int) -> tuple[Hello, ...]:
        """Retained Hellos of one (receiver, sender) pair, oldest first."""
        slot = self._directory[receiver].get(sender)
        return () if slot is None else self._history(slot)

    def live_ids(self, receiver: int, now: float, expiry: float) -> tuple[int, ...]:
        """Sender ids with a live (non-expired) Hello, insertion order."""
        latest = self._latest_sent
        return tuple(
            s
            for s, slot in self._directory[receiver].items()
            if now - latest[slot] <= expiry
        )

    def latest_live(
        self, receiver: int, now: float, expiry: float
    ) -> dict[int, Hello]:
        """Most recent live Hello per sender (insertion-ordered dict)."""
        latest = self._latest_sent
        live = [
            (s, slot)
            for s, slot in self._directory[receiver].items()
            if now - latest[slot] <= expiry
        ]
        if not live:
            return {}
        senders, slots = zip(*live)
        slots = np.asarray(slots, dtype=np.intp)
        newest = self._hello[slots, (self._writes[slots] - 1) % self.k]
        return dict(zip(senders, newest.tolist()))

    def live_histories(
        self, receiver: int, now: float, expiry: float
    ) -> dict[int, tuple[Hello, ...]]:
        """Full retained history per live sender (insertion-ordered dict)."""
        latest = self._latest_sent
        return {
            s: self._history(slot)
            for s, slot in self._directory[receiver].items()
            if now - latest[slot] <= expiry
        }

    # ------------------------------------------------------------------ #
    # many-receiver reads (the whole-world decision kernel's view gather)

    def _pairs(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row index, sender, slot)`` of every pair held at *rows*."""
        directory = self._directory
        counts: list[int] = []
        senders: list[int] = []
        slots: list[int] = []
        for row in rows:
            d = directory[row]
            counts.append(len(d))
            senders.extend(d)
            slots.extend(d.values())
        index = np.repeat(np.arange(len(counts)), counts)
        return index, np.array(senders, dtype=np.int64), np.array(slots, dtype=np.intp)

    def latest_live_many(
        self, rows, now: float, expiry: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`latest_live` of many receivers as flat arrays.

        Returns ``(index, sender, hello)``: entry *e* is the newest Hello
        of ``sender[e]`` at ``rows[index[e]]``, for every sender live
        under that row's ``expiry[index[e]]``.
        """
        index, senders, slots = self._pairs(rows)
        live = now - self._latest_sent[slots] <= expiry[index]
        index, senders, slots = index[live], senders[live], slots[live]
        newest = self._hello[slots, (self._writes[slots] - 1) % self.k]
        return index, senders, newest

    def versioned_many(
        self, rows, versions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Version-matched Hellos of many receivers as flat arrays.

        Returns ``(index, sender, hello)``: entry *e* is the oldest
        retained Hello of ``sender[e]`` at ``rows[index[e]]`` carrying
        version ``versions[index[e]]`` — the per-pair pick of
        :meth:`~repro.core.tables.NeighborTable.versioned_view`, which
        ignores expiry.  Senders without such a Hello are absent.
        """
        index, senders, slots = self._pairs(rows)
        k = self.k
        writes = self._writes[slots][:, np.newaxis]
        fill = np.minimum(writes, k)
        age = np.arange(k)
        pos = (writes - fill + age) % k
        match = (age < fill) & (
            self._version[slots[:, np.newaxis], pos] == versions[index][:, np.newaxis]
        )
        held = match.any(axis=1)
        first = match.argmax(axis=1)
        hellos = self._hello[slots[held], pos[held, first[held]]]
        return index[held], senders[held], hellos

    @property
    def n_slots(self) -> int:
        """Total (receiver, sender) pairs ever allocated (diagnostics)."""
        return self._n_slots
