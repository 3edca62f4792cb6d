"""The paper's formal framework (Section 3) as executable machinery.

A topology control decision at a node is: build a *local cost graph* from
the node's view, then remove the node's adjacent links according to one of
three conditions (Section 3.1):

1. **RNG-style** — remove (u, v) if a 2-hop path (u, w, v) exists whose two
   links are both cheaper than (u, v);
2. **SPT-style** — remove (u, v) if any path exists whose *summed* cost is
   below c(u, v);
3. **MST-style** — remove (u, v) if any path exists whose *bottleneck*
   (maximum link) cost is below c(u, v).

Costs form a total order (ID pairs break exact ties, per the paper), which
is what makes Theorem 1 go through.  The *enhanced* conditions of Section
4.2 are the same predicates evaluated conservatively on cost intervals:
``cMin`` for the link under the knife, ``cMax`` for every witness link.
On a single-version view the two bounds coincide and the enhanced
conditions reduce to the plain ones — so one implementation serves both.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.costs import CostModel, cost_key
from repro.core.views import Hello, LocalView, MultiVersionView
from repro.util.errors import ProtocolError

__all__ = [
    "LocalCostGraph",
    "SelectionResult",
    "rng_removable",
    "rng_removable_batch",
    "spt_removable",
    "spt_removable_batch",
    "mst_removable",
    "mst_removable_batch",
    "apply_removal_condition",
    "KERNEL_CHUNK_ELEMENTS",
    "ViewBatch",
    "VIEW_KERNELS",
    "decide_views",
]


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Outcome of one node's logical-neighbor selection.

    Attributes
    ----------
    owner:
        The deciding node.
    logical_neighbors:
        IDs of the selected logical neighbors.
    actual_range:
        Transmission range covering the farthest logical neighbor, as
        believed by the owner (advertised distances, conservative bound
        under weak consistency).  Zero if no logical neighbors.
    """

    owner: int
    logical_neighbors: frozenset[int]
    actual_range: float

    def __post_init__(self) -> None:
        if self.owner in self.logical_neighbors:
            raise ProtocolError(f"node {self.owner} selected itself as logical neighbor")
        if self.actual_range < 0 or not math.isfinite(self.actual_range):
            raise ProtocolError(f"invalid actual range {self.actual_range!r}")


@functools.lru_cache(maxsize=256)
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(m, k=1)``, built once per view size."""
    iu, iv = np.triu_indices(m, k=1)
    iu.flags.writeable = False
    iv.flags.writeable = False
    return iu, iv


class LocalCostGraph:
    """Dense cost graph over the members of a local view.

    Attributes
    ----------
    ids:
        Member node IDs; index 0 is always the view owner.
    adj:
        ``(m, m)`` boolean adjacency (within normal range).
    cost_low / cost_high:
        ``(m, m)`` conservative cost bounds; equal on single-version views.
    dist_low / dist_high:
        Matching distance bounds (used for range assignment).
    """

    __slots__ = (
        "ids",
        "index",
        "adj",
        "cost_low",
        "cost_high",
        "dist_low",
        "dist_high",
        "_rank_low",
        "_rank_high",
    )

    def __init__(
        self,
        ids: Sequence[int],
        adj: np.ndarray,
        cost_low: np.ndarray,
        cost_high: np.ndarray,
        dist_low: np.ndarray,
        dist_high: np.ndarray,
    ) -> None:
        self.ids = list(ids)
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        self.adj = adj
        self.cost_low = cost_low
        self.cost_high = cost_high
        self.dist_low = dist_low
        self.dist_high = dist_high
        self._rank_low: np.ndarray | None = None
        self._rank_high: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of members (owner + neighbors)."""
        return len(self.ids)

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
        comparison cost (the removal predicates run millions of key
        comparisons per simulation; see the optimization guide: vectorize
        the measured hot spot, nothing else).
        """
        m = len(self.ids)
        iu, iv = _upper_pairs(m)
        ids_arr = np.asarray(self.ids)
        lo_ids = np.minimum(ids_arr[iu], ids_arr[iv])
        hi_ids = np.maximum(ids_arr[iu], ids_arr[iv])
        costs = np.concatenate([self.cost_low[iu, iv], self.cost_high[iu, iv]])
        lo2 = np.concatenate([lo_ids, lo_ids])
        hi2 = np.concatenate([hi_ids, hi_ids])
        # Dense ranks via lexsort (primary key last): ~10x faster than
        # np.unique on a structured dtype for these sizes.
        order = np.lexsort((hi2, lo2, costs))
        s_cost, s_lo, s_hi = costs[order], lo2[order], hi2[order]
        new_group = np.empty(order.shape[0], dtype=np.int64)
        new_group[0] = 0
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

    @classmethod
    def from_local_view(cls, view: LocalView, cost_model: CostModel) -> "LocalCostGraph":
        """Build the (exact-cost) graph of a single-version view."""
        ids, pts = view.positions()
        diff = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        adj = dist <= view.normal_range
        np.fill_diagonal(adj, False)
        cost = np.asarray(cost_model.from_distance(dist), dtype=np.float64)
        return cls(ids, adj, cost, cost, dist, dist)

    @classmethod
    def from_multi_version_view(
        cls, view: MultiVersionView, cost_model: CostModel
    ) -> "LocalCostGraph":
        """Build the interval-cost graph of a k-version view.

        For every member pair, distances over all retained position pairs
        give [dMin, dMax] (via the vectorized
        :meth:`~repro.core.views.MultiVersionView.distance_bounds`); costs
        follow by monotonicity of the cost model.  A pair is adjacent if
        *any* position pair is within normal range (conservative link
        presence).
        """
        ids, dist_low, dist_high = view.distance_bounds()
        adj = dist_low <= view.normal_range
        np.fill_diagonal(adj, False)
        cost_low = np.asarray(cost_model.from_distance(dist_low), dtype=np.float64)
        cost_high = np.asarray(cost_model.from_distance(dist_high), dtype=np.float64)
        np.fill_diagonal(cost_low, 0.0)
        np.fill_diagonal(cost_high, 0.0)
        return cls(ids, adj, cost_low, cost_high, dist_low, dist_high)


def rng_removable(graph: LocalCostGraph, owner: int, v: int) -> bool:
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


def rng_removable_batch(graph: LocalCostGraph) -> dict[int, bool]:
    """Condition 1 for *all* of the owner's links in one broadcast pass.

    One ``(k, m)`` witness mask replaces k per-edge scans: for every
    neighbor v of the owner, witness w qualifies iff it is adjacent to
    both ends and both witness links rank (by upper bound) strictly below
    the direct link's lower bound — exactly :func:`rng_removable`, so the
    conservative low/high asymmetry carries over and interval graphs need
    no fallback.
    """
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


#: marker consumed by apply_removal_condition
rng_removable_batch.is_batch = True  # type: ignore[attr-defined]


def spt_removable(graph: LocalCostGraph, owner: int, v: int) -> bool:
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


def mst_removable(graph: LocalCostGraph, owner: int, v: int) -> bool:
    """Condition 3 (MST): some path whose every link is cheaper than (owner, v).

    Equivalent to reachability of *v* from *owner* in the subgraph of links
    with key strictly below the direct link's key (direct link excluded);
    computed as a vectorized frontier BFS over that boolean subgraph.
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


def mst_removable_batch(graph: LocalCostGraph) -> dict[int, bool]:
    """Condition 3 for *all* of the owner's links in one MST construction.

    With a total order on links, (owner, v) survives condition 3 iff it is
    an edge of the local graph's minimum spanning tree (the cycle
    property), so one Prim pass over the rank matrix replaces one BFS per
    neighbor.  Only valid when the cost bounds coincide (single-version
    views); interval graphs fall back to the per-edge predicate, whose
    conservative low/high asymmetry has no single-MST equivalent.
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


#: marker consumed by apply_removal_condition
mst_removable_batch.is_batch = True  # type: ignore[attr-defined]


def spt_removable_batch(graph: LocalCostGraph) -> dict[int, bool]:
    """Condition 2 for *all* of the owner's links via one Dijkstra.

    ``dist[v] < cost_low(owner, v)`` iff an alternative path is strictly
    cheaper: the direct link contributes exactly ``cost_high >= cost_low``
    to the shortest-path tree, and no simple path through the direct link
    can beat it, so including it changes nothing — one O(m^2) Dijkstra
    replaces one per neighbor.  Semantics identical to
    :func:`spt_removable` (verified by tests on random graphs).
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


#: marker consumed by apply_removal_condition
spt_removable_batch.is_batch = True  # type: ignore[attr-defined]


def apply_removal_condition(
    graph: LocalCostGraph,
    removable,
) -> SelectionResult:
    """Run a removal predicate over the owner's adjacent links.

    Parameters
    ----------
    graph:
        Local cost graph; index 0 is the owner.
    removable:
        ``f(graph, owner_index, neighbor_index) -> bool``, or a batch
        predicate (``is_batch`` attribute set) mapping the whole graph to
        ``{neighbor_index: removable}`` in one pass.

    Returns
    -------
    SelectionResult
        Logical neighbors = adjacent nodes whose direct link survives;
        actual range = largest (upper-bound) distance to a survivor.
    """
    owner_idx = 0
    survivors: list[int] = []
    max_dist = 0.0
    if getattr(removable, "is_batch", False):
        verdicts = removable(graph)
        for j, is_removable in verdicts.items():
            if not is_removable:
                survivors.append(graph.ids[j])
                max_dist = max(max_dist, float(graph.dist_high[owner_idx, j]))
    else:
        for j in np.flatnonzero(graph.adj[owner_idx]):
            if not removable(graph, owner_idx, int(j)):
                survivors.append(graph.ids[j])
                max_dist = max(max_dist, float(graph.dist_high[owner_idx, j]))
    return SelectionResult(
        owner=graph.ids[owner_idx],
        logical_neighbors=frozenset(survivors),
        actual_range=max_dist,
    )


# --------------------------------------------------------------------- #
# whole-world kernels: many owners' single-version views in one pass

#: Element budget of one kernel chunk.  Owners are decided in chunks whose
#: ``owners x M x M`` padded size stays below this (a single owner larger
#: than the budget gets a chunk of its own), so one float64 temporary is at
#: most 1 MiB however many owners a world has.
KERNEL_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True, slots=True)
class ViewBatch:
    """Many owners' single-version views, flattened member by member.

    View *i* occupies ``ids[s:s + counts[i]]`` (``s`` the sum of the
    earlier counts): its owner first, then its neighbors by ascending id —
    the member order of :attr:`~repro.core.views.LocalView.members`, so
    member *j* of a view is index *j* of its per-node
    :class:`LocalCostGraph`.

    Attributes
    ----------
    counts:
        ``(B,)`` members per view (owner included).
    ids / x / y:
        Member ids and advertised positions, concatenated over views.
    normal_range:
        ``(B,)`` link threshold of each view.
    """

    counts: np.ndarray
    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    normal_range: np.ndarray

    @classmethod
    def assemble(
        cls,
        own_hellos: Sequence[Hello],
        index: np.ndarray,
        senders: np.ndarray,
        hellos: np.ndarray,
        normal_range: np.ndarray,
    ) -> "ViewBatch":
        """Batch from per-view own Hellos and flat neighbor entries.

        Entry *e* says that view ``index[e]`` holds Hello ``hellos[e]`` of
        neighbor ``senders[e]``; entries may come in any order.
        """
        order = np.lexsort((senders, index))
        index, senders, hellos = index[order], senders[order], hellos[order]
        neighbors = np.bincount(index, minlength=len(own_hellos))
        counts = neighbors + 1
        first = np.cumsum(counts) - counts
        # neighbor e of view i goes to member 1 + (its rank within view i)
        rank = np.arange(index.size) - (np.cumsum(neighbors) - neighbors)[index]
        slots = first[index] + 1 + rank
        ids = np.empty(int(counts.sum()), dtype=np.int64)
        xy = np.empty((ids.size, 2), dtype=np.float64)
        ids[first] = np.array([h.sender for h in own_hellos], dtype=np.int64)
        xy[first] = _positions(own_hellos)
        ids[slots] = senders
        xy[slots] = _positions(hellos.tolist())
        return cls(counts, ids, xy[:, 0], xy[:, 1], normal_range)


def _positions(hellos: Sequence[Hello]) -> np.ndarray:
    """``(len(hellos), 2)`` advertised positions."""
    return np.array([h.position for h in hellos], dtype=np.float64).reshape(-1, 2)


def _chunks(counts: np.ndarray):
    """``(start, stop)`` runs of views whose padded size fits the budget."""
    start, width = 0, 0
    for i, c in enumerate(counts.tolist()):
        wider = max(width, c)
        if i > start and (i + 1 - start) * wider * wider > KERNEL_CHUNK_ELEMENTS:
            yield start, i
            start, wider = i, c
        width = wider
    if counts.size:
        yield start, counts.size


def _tie_keys(ids: np.ndarray) -> np.ndarray:
    """``(b, M, M)`` int64 keys ordering link (i, j) by (min id, max id)."""
    base = int(ids.min())
    span = int(ids.max()) - base + 1
    a, b = ids[:, :, np.newaxis] - base, ids[:, np.newaxis, :] - base
    # min*span + max == min*(span - 1) + a + b, built in place
    key = np.minimum(a, b)
    key *= span - 1
    key += a
    key += b
    return key


def _key_less(cost, key, target_cost, target_key) -> np.ndarray:
    """Total order of links: ``(cost, key) < (target_cost, target_key)``."""
    less = cost == target_cost
    less &= key < target_key
    less |= cost < target_cost
    return less


def _rng_survivors(adj, cost, ids) -> np.ndarray:
    """Condition 1 for every owner: :func:`rng_removable_batch` per row.

    ``witness[b, v, w]``: w is adjacent to owner and v, and both witness
    links precede the direct link (owner, v) in the total order.
    """
    key = _tie_keys(ids)
    target_cost = cost[:, 0, :, np.newaxis]
    target_key = key[:, 0, :, np.newaxis]
    witness = _key_less(cost, key, target_cost, target_key)
    witness &= _key_less(
        cost[:, 0, np.newaxis, :], key[:, 0, np.newaxis, :], target_cost, target_key
    )
    witness &= adj
    witness &= adj[:, 0, np.newaxis, :]
    return adj[:, 0, :] & ~witness.any(axis=2)


def _spt_survivors(adj, cost, ids) -> np.ndarray:
    """Condition 2 for every owner: one Dijkstra step for all rows at once.

    Same visit order and float additions as :func:`spt_removable_batch`
    (argmin ties break on the lower index); a row whose frontier is
    exhausted relaxes from an infinite distance, which changes nothing.
    """
    b, m, _ = adj.shape
    weights = np.where(adj, cost, np.inf)
    dist = np.full((b, m), np.inf)
    dist[:, 0] = 0.0
    visited = np.zeros((b, m), dtype=bool)
    rows = np.arange(b)
    for _ in range(m):
        candidates = np.where(visited, np.inf, dist)
        i = np.argmin(candidates, axis=1)
        visited[rows, i] = True
        dist = np.minimum(dist, candidates[rows, i][:, np.newaxis] + weights[rows, i])
    return adj[:, 0, :] & ~(dist < cost[:, 0, :])


def _mst_survivors(adj, cost, ids) -> np.ndarray:
    """Condition 3 for every owner: Prim's algorithm for all rows at once.

    (owner, v) survives iff v joins the tree with the owner as parent, as
    in :func:`mst_removable_batch`; the minimum is taken in the total order
    of links (cost, then ids), which is what the per-node ranks realise.
    Once a row's tree spans everything reachable from its owner, its later
    steps pick a member already in the tree (rewriting the same flags) or
    one unreachable from the owner, so they change none of its verdicts.
    """
    b, m, _ = adj.shape
    top = np.iinfo(np.int64).max
    link_cost = np.where(adj, cost, np.inf)
    link_key = np.where(adj, _tie_keys(ids), top)
    best_cost = link_cost[:, 0].copy()
    best_key = link_key[:, 0].copy()
    in_tree = np.zeros((b, m), dtype=bool)
    in_tree[:, 0] = True
    parent = np.zeros((b, m), dtype=np.intp)
    owner_child = np.zeros((b, m), dtype=bool)
    rows = np.arange(b)
    for _ in range(m - 1):
        candidates = np.where(in_tree, np.inf, best_cost)
        low = candidates.min(axis=1, keepdims=True)
        if not np.isfinite(low).any():
            break
        j = np.argmin(np.where(candidates == low, best_key, top), axis=1)
        in_tree[rows, j] = True
        owner_child[rows, j] = parent[rows, j] == 0
        new_cost, new_key = link_cost[rows, j], link_key[rows, j]
        improves = _key_less(new_cost, new_key, best_cost, best_key)
        improves &= ~in_tree
        parent[improves] = np.broadcast_to(j[:, np.newaxis], (b, m))[improves]
        best_cost[improves] = new_cost[improves]
        best_key[improves] = new_key[improves]
    return adj[:, 0, :] & owner_child


#: per-view batch predicate -> its whole-world kernel
#: ``(adj, cost, ids) -> (b, M) survivor mask``
VIEW_KERNELS = {
    rng_removable_batch: _rng_survivors,
    spt_removable_batch: _spt_survivors,
    mst_removable_batch: _mst_survivors,
}


def decide_views(batch: ViewBatch, kernel, cost_model: CostModel) -> list[SelectionResult]:
    """One :class:`SelectionResult` per view of *batch*, in one array pass.

    Equal, view for view, to :func:`apply_removal_condition` on the view's
    :class:`LocalCostGraph` with the per-view predicate *kernel* stands for
    (see :data:`VIEW_KERNELS`).  Views are padded to ``(b, M, M)`` per
    chunk; padding members are no one's neighbors.
    """
    results: list[SelectionResult] = []
    counts = batch.counts
    first = np.cumsum(counts) - counts
    for start, stop in _chunks(counts):
        c = counts[start:stop]
        b, m = stop - start, int(c.max())
        flat = slice(int(first[start]), int(first[start] + c.sum()))
        row = np.repeat(np.arange(b), c)
        col = np.arange(row.size) - (first[start:stop] - first[start])[row]
        ids = np.full((b, m), batch.ids[flat.start], dtype=np.int64)
        x = np.zeros((b, m))
        y = np.zeros((b, m))
        member = np.zeros((b, m), dtype=bool)
        ids[row, col] = batch.ids[flat]
        x[row, col] = batch.x[flat]
        y[row, col] = batch.y[flat]
        member[row, col] = True
        # dist = sqrt(dx*dx + dy*dy) from separate x / y planes, in place:
        # the same roundings as the per-view einsum over a (m, m, 2)
        # difference tensor (pinned by tests/test_property_decide_batch.py),
        # with two (b, M, M) temporaries.
        dist = x[:, :, np.newaxis] - x[:, np.newaxis, :]
        dist *= dist
        dy = y[:, :, np.newaxis] - y[:, np.newaxis, :]
        dy *= dy
        dist += dy
        del dy
        np.sqrt(dist, out=dist)
        adj = (
            (dist <= batch.normal_range[start:stop, np.newaxis, np.newaxis])
            & member[:, :, np.newaxis]
            & member[:, np.newaxis, :]
        )
        adj[:, np.arange(m), np.arange(m)] = False
        cost = np.asarray(cost_model.from_distance(dist), dtype=np.float64)
        survive = kernel(adj, cost, ids)
        ranges = np.where(survive, dist[:, 0, :], 0.0).max(axis=1).tolist()
        owners = ids[:, 0].tolist()
        hit_rows, hit_cols = np.nonzero(survive)
        chosen = ids[hit_rows, hit_cols].tolist()
        ends = np.cumsum(np.bincount(hit_rows, minlength=b)).tolist()
        lo = 0
        for owner, hi, reach in zip(owners, ends, ranges):
            results.append(SelectionResult(owner, frozenset(chosen[lo:hi]), reach))
            lo = hi
    return results
