"""Reference implementations: the semantic specifications behind the
simulator's array code, kept as test oracles.

- :class:`NeighborTable` — the original dict-of-deques per-node table,
  one ``deque[Hello]`` per sender, specifying the columnar
  :class:`repro.core.tables.NeighborTable` the simulator runs on.  The
  differential suite (``tests/test_property_tables.py``) drives random
  ``record_own`` / ``record_hello`` / ``prune`` streams into both and
  asserts equal live neighbours, views, histories and counters.
- The per-owner removal predicates of conditions 1-3 —
  :func:`rng_removable`, :func:`spt_removable`, :func:`mst_removable` and
  their one-pass ``_batch`` forms — over a :class:`RankedCostGraph`,
  whose joint integer ranks realise the total order of cost keys.  They
  specify the whole-world kernels of :mod:`repro.core.framework`
  (``tests/test_property_decide_batch.py``,
  ``tests/test_property_interval_kernels.py``).
- :class:`ReferenceProtocol` — an RNG / SPT / MST protocol that decides
  view by view through those predicates and has no kernel, so a world
  running it decides every Hello-time and packet-time decision at once,
  per owner: the twin the fuzzer's ``kernel-differential`` finding and
  the world-level twin tests compare against.

No simulation module imports this one; the fuzzer and the tests do.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import deque

import numpy as np

from repro.core.costs import cost_key
from repro.core.framework import (
    LocalCostGraph,
    SelectionResult,
    mst_survivors,
    rng_survivors,
    spt_survivors,
)
from repro.core.views import Hello, LocalView, MultiVersionView
from repro.protocols.base import TopologyControlProtocol
from repro.util.errors import ViewError
from repro.util.validate import check_int_range, check_positive

__all__ = [
    "NeighborTable",
    "RankedCostGraph",
    "rng_removable",
    "rng_removable_batch",
    "spt_removable",
    "spt_removable_batch",
    "mst_removable",
    "mst_removable_batch",
    "select_batch",
    "BATCH_PREDICATES",
    "ReferenceProtocol",
]


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


# --------------------------------------------------------------------- #
# removal conditions 1-3, per owner


@functools.lru_cache(maxsize=256)
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(m, k=1)``, built once per view size."""
    iu, iv = np.triu_indices(m, k=1)
    iu.flags.writeable = False
    iv.flags.writeable = False
    return iu, iv


class RankedCostGraph(LocalCostGraph):
    """A :class:`~repro.core.framework.LocalCostGraph` with the total order
    of its cost keys as dense integer ranks (built on first use)."""

    __slots__ = ("_rank_low", "_rank_high")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rank_low: np.ndarray | None = None
        self._rank_high: np.ndarray | None = None

    def key_low(self, i: int, j: int) -> tuple[float, int, int]:
        """Total-order key of the *lower* cost bound of link (i, j)."""
        return cost_key(self.cost_low[i, j], self.ids[i], self.ids[j])

    def key_high(self, i: int, j: int) -> tuple[float, int, int]:
        """Total-order key of the *upper* cost bound of link (i, j)."""
        return cost_key(self.cost_high[i, j], self.ids[i], self.ids[j])

    def _compute_ranks(self) -> None:
        """Dense integer ranks realising the total order of cost keys.

        Both bound matrices are ranked *jointly*, so
        ``rank_high[a,b] < rank_low[c,d]`` iff
        ``key_high(a,b) < key_low(c,d)`` — tuple semantics at NumPy
        comparison cost.
        """
        m = len(self.ids)
        iu, iv = _upper_pairs(m)
        ids_arr = np.asarray(self.ids)
        lo_ids = np.minimum(ids_arr[iu], ids_arr[iv])
        hi_ids = np.maximum(ids_arr[iu], ids_arr[iv])
        costs = np.concatenate([self.cost_low[iu, iv], self.cost_high[iu, iv]])
        lo2 = np.concatenate([lo_ids, lo_ids])
        hi2 = np.concatenate([hi_ids, hi_ids])
        order = np.lexsort((hi2, lo2, costs))
        s_cost, s_lo, s_hi = costs[order], lo2[order], hi2[order]
        new_group = np.empty(order.shape[0], dtype=np.int64)
        new_group[:1] = 0
        new_group[1:] = (
            (s_cost[1:] != s_cost[:-1])
            | (s_lo[1:] != s_lo[:-1])
            | (s_hi[1:] != s_hi[:-1])
        )
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(new_group)
        k = iu.shape[0]
        rank_low = np.zeros((m, m), dtype=np.int64)
        rank_high = np.zeros((m, m), dtype=np.int64)
        rank_low[iu, iv] = rank_low[iv, iu] = inverse[:k]
        rank_high[iu, iv] = rank_high[iv, iu] = inverse[k:]
        self._rank_low, self._rank_high = rank_low, rank_high

    @property
    def rank_low(self) -> np.ndarray:
        """Integer total-order ranks of the lower cost bounds."""
        if self._rank_low is None:
            self._compute_ranks()
        return self._rank_low

    @property
    def rank_high(self) -> np.ndarray:
        """Integer total-order ranks of the upper cost bounds."""
        if self._rank_high is None:
            self._compute_ranks()
        return self._rank_high


def rng_removable(graph: RankedCostGraph, owner: int, v: int) -> bool:
    """Condition 1 (RNG): a 2-hop witness path strictly cheaper on both links.

    Enhanced form: witness links are judged by their *upper* cost bound,
    the removed link by its *lower* bound, so removal is only allowed when
    it would be correct under every consistent completion of the view.
    """
    target = graph.rank_low[owner, v]
    rank_high = graph.rank_high
    adj = graph.adj
    witnesses = (
        adj[owner]
        & adj[v]
        & (rank_high[owner] < target)
        & (rank_high[:, v] < target)
    )
    witnesses[owner] = witnesses[v] = False
    return bool(witnesses.any())


def rng_removable_batch(graph: RankedCostGraph) -> dict[int, bool]:
    """Condition 1 for *all* of the owner's links in one broadcast pass,
    exactly :func:`rng_removable` per link."""
    adj = graph.adj
    neighbors = np.flatnonzero(adj[0])
    if neighbors.size == 0:
        return {}
    rank_high = graph.rank_high
    targets = graph.rank_low[0, neighbors][:, np.newaxis]
    witnesses = (
        adj[0][np.newaxis, :]
        & adj[neighbors, :]
        & (rank_high[0][np.newaxis, :] < targets)
        & (rank_high[:, neighbors].T < targets)
    )
    witnesses[:, 0] = False
    witnesses[np.arange(neighbors.size), neighbors] = False
    removable = witnesses.any(axis=1)
    return {int(v): bool(r) for v, r in zip(neighbors, removable)}


def spt_removable(graph: RankedCostGraph, owner: int, v: int) -> bool:
    """Condition 2 (SPT): some path with summed cost below c(owner, v).

    Dijkstra over upper-bound costs; removal requires the alternative to be
    *strictly* cheaper than the lower bound of the direct link (ties keep
    the link — connectivity-safe).
    """
    m = graph.size
    threshold = graph.cost_low[owner, v]
    dist = np.full(m, math.inf)
    dist[owner] = 0.0
    heap: list[tuple[float, int]] = [(0.0, owner)]
    visited = np.zeros(m, dtype=bool)
    while heap:
        d, i = heapq.heappop(heap)
        if visited[i]:
            continue
        visited[i] = True
        if i == v:
            break
        if d >= threshold:
            # Every remaining path is at least this long; cannot beat c(o, v).
            return False
        for j in np.flatnonzero(graph.adj[i]):
            if i == owner and j == v:
                continue  # the direct link is not its own witness
            nd = d + graph.cost_high[i, j]
            if nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, int(j)))
    return bool(dist[v] < threshold)


def spt_removable_batch(graph: RankedCostGraph) -> dict[int, bool]:
    """Condition 2 for *all* of the owner's links via one Dijkstra.

    ``dist[v] < cost_low(owner, v)`` iff an alternative path is strictly
    cheaper: the direct link contributes exactly ``cost_high >= cost_low``
    to the shortest-path tree, so including it changes nothing.
    """
    m = graph.size
    weights = np.where(graph.adj, graph.cost_high, math.inf)
    np.fill_diagonal(weights, math.inf)
    dist = np.full(m, math.inf)
    dist[0] = 0.0
    visited = np.zeros(m, dtype=bool)
    for _ in range(m):
        candidates = np.where(visited, math.inf, dist)
        i = int(np.argmin(candidates))
        if not math.isfinite(candidates[i]):
            break
        visited[i] = True
        dist = np.minimum(dist, dist[i] + weights[i])
    return {
        int(j): bool(dist[j] < graph.cost_low[0, j])
        for j in np.flatnonzero(graph.adj[0])
    }


def mst_removable(graph: RankedCostGraph, owner: int, v: int) -> bool:
    """Condition 3 (MST): some path whose every link is cheaper than (owner, v).

    Reachability of *v* from *owner* in the subgraph of links whose upper
    key is strictly below the direct link's lower key (direct link
    excluded), as a frontier BFS over that boolean subgraph.
    """
    target = graph.rank_low[owner, v]
    sub = graph.adj & (graph.rank_high < target)
    sub[owner, v] = sub[v, owner] = False
    m = graph.size
    reached = np.zeros(m, dtype=bool)
    reached[owner] = True
    frontier = reached.copy()
    while frontier.any():
        nxt = sub[frontier].any(axis=0) & ~reached
        if nxt[v]:
            return True
        reached |= nxt
        frontier = nxt
    return False


def mst_removable_batch(graph: RankedCostGraph) -> dict[int, bool]:
    """Condition 3 for *all* of the owner's links in one MST construction.

    With a total order on links, (owner, v) survives iff it is an edge of
    the local minimum spanning tree (the cycle property): one Prim pass
    over the rank matrix.  Interval graphs, whose low/high asymmetry has
    no single-MST equivalent, take :func:`mst_removable` per link.
    """
    if graph.cost_low is not graph.cost_high and not np.array_equal(
        graph.cost_low, graph.cost_high
    ):
        return {
            int(j): mst_removable(graph, 0, int(j))
            for j in np.flatnonzero(graph.adj[0])
        }
    m = graph.size
    neighbors = np.flatnonzero(graph.adj[0])
    if m <= 2 or neighbors.size == 0:
        return {int(j): False for j in neighbors}
    inf = np.iinfo(np.int64).max
    weights = np.where(graph.adj, graph.rank_low, inf)
    np.fill_diagonal(weights, inf)
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    parent = np.zeros(m, dtype=np.intp)
    owner_children: set[int] = set()
    for _ in range(m - 1):
        masked = np.where(in_tree, inf, best)
        j = int(np.argmin(masked))
        if masked[j] >= inf:
            break  # remaining nodes unreachable (they are not neighbors of 0)
        in_tree[j] = True
        if parent[j] == 0:
            owner_children.add(j)
        improves = (weights[j] < best) & ~in_tree
        parent[improves] = j
        best = np.where(improves, weights[j], best)
    return {int(j): (int(j) not in owner_children) for j in neighbors}


def select_batch(graph: RankedCostGraph, removable_batch) -> SelectionResult:
    """The selection of a ``_batch`` predicate: surviving owner links, and
    the largest upper-bound distance to a survivor."""
    survivors: list[int] = []
    max_dist = 0.0
    for j, is_removable in removable_batch(graph).items():
        if not is_removable:
            survivors.append(graph.ids[j])
            max_dist = max(max_dist, float(graph.dist_high[0, j]))
    return SelectionResult(
        owner=graph.ids[0],
        logical_neighbors=frozenset(survivors),
        actual_range=max_dist,
    )


#: each whole-world kernel -> the per-owner predicate it must equal
BATCH_PREDICATES = {
    rng_survivors: rng_removable_batch,
    spt_survivors: spt_removable_batch,
    mst_survivors: mst_removable_batch,
}


class ReferenceProtocol(TopologyControlProtocol):
    """A kernel protocol (RNG / SPT / MST) deciding through the predicates
    above, view by view.

    It has no kernel, so worlds and mechanisms decide it per owner at
    once.  Name, cost model and conservative support are the wrapped
    protocol's, so it drops into any world the original runs in.
    """

    supports_conservative = True

    def __init__(self, protocol: TopologyControlProtocol) -> None:
        self.protocol = protocol
        self.name = protocol.name
        self.cost_model = protocol.cost_model
        self._removable = BATCH_PREDICATES[protocol.view_kernel]

    def select(self, view: LocalView) -> SelectionResult:
        graph = RankedCostGraph.from_local_view(view, self.cost_model)
        return select_batch(graph, self._removable)

    def select_conservative(self, view: MultiVersionView) -> SelectionResult:
        graph = RankedCostGraph.from_multi_version_view(view, self.cost_model)
        return select_batch(graph, self._removable)

    def __repr__(self) -> str:
        return f"ReferenceProtocol({self.protocol!r})"
