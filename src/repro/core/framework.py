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

The three conditions run as array kernels over many owners' views at once
(:func:`decide_views`); a one-view batch is how a protocol decides a
single view.  The per-owner predicates they replaced live on as test
oracles in :mod:`repro.core._reference`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.costs import CostModel
from repro.core.views import Hello, LocalView, MultiVersionView
from repro.util.errors import ProtocolError

__all__ = [
    "LocalCostGraph",
    "SelectionResult",
    "apply_removal_condition",
    "KERNEL_CHUNK_ELEMENTS",
    "ViewBatch",
    "IntervalBatch",
    "rng_survivors",
    "spt_survivors",
    "mst_survivors",
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


class LocalCostGraph:
    """Dense cost graph over the members of a local view.

    The per-edge removal predicates of the protocols without an array
    kernel (Gabriel, enclosure) read it.

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

    __slots__ = ("ids", "index", "adj", "cost_low", "cost_high", "dist_low", "dist_high")

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

    @property
    def size(self) -> int:
        """Number of members (owner + neighbors)."""
        return len(self.ids)

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


def apply_removal_condition(graph: LocalCostGraph, removable) -> SelectionResult:
    """Run a per-edge removal predicate over the owner's adjacent links.

    Parameters
    ----------
    graph:
        Local cost graph; index 0 is the owner.
    removable:
        ``f(graph, owner_index, neighbor_index) -> bool``.

    Returns
    -------
    SelectionResult
        Logical neighbors = adjacent nodes whose direct link survives;
        actual range = largest (upper-bound) distance to a survivor.
    """
    survivors: list[int] = []
    max_dist = 0.0
    for j in np.flatnonzero(graph.adj[0]):
        if not removable(graph, 0, int(j)):
            survivors.append(graph.ids[j])
            max_dist = max(max_dist, float(graph.dist_high[0, j]))
    return SelectionResult(
        owner=graph.ids[0],
        logical_neighbors=frozenset(survivors),
        actual_range=max_dist,
    )


# --------------------------------------------------------------------- #
# whole-world kernels: many owners' views in one pass

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
    the member order of :attr:`~repro.core.views.LocalView.members`.

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

    @classmethod
    def of_view(cls, view: LocalView) -> "ViewBatch":
        """The one-view batch of *view*."""
        ids, pts = view.positions()
        return cls(
            np.array([len(ids)]),
            np.array(ids, dtype=np.int64),
            pts[:, 0],
            pts[:, 1],
            np.array([view.normal_range]),
        )

    @classmethod
    def concat(cls, batches: Sequence["ViewBatch"]) -> "ViewBatch":
        """One batch holding the views of *batches*, in order."""
        return cls(*(np.concatenate(column) for column in zip(*(
            (b.counts, b.ids, b.x, b.y, b.normal_range) for b in batches
        ))))

    def pad(self, start: int, stop: int, first: np.ndarray):
        """``(ids, member, dist_low, dist_high)`` of views ``start:stop``,
        padded to ``(b, M)`` / ``(b, M, M)``; the bounds are one array."""
        c = self.counts[start:stop]
        b, m = stop - start, int(c.max())
        flat = slice(int(first[start]), int(first[start] + c.sum()))
        row = np.repeat(np.arange(b), c)
        col = np.arange(row.size) - (first[start:stop] - first[start])[row]
        ids = np.full((b, m), self.ids[flat.start], dtype=np.int64)
        x = np.zeros((b, m))
        y = np.zeros((b, m))
        member = np.zeros((b, m), dtype=bool)
        ids[row, col] = self.ids[flat]
        x[row, col] = self.x[flat]
        y[row, col] = self.y[flat]
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
        return ids, member, dist, dist


@dataclass(frozen=True, slots=True)
class IntervalBatch:
    """Many owners' k-version views as per-view distance-bound matrices.

    View *i* has members ``ids[s:s + counts[i]]`` (owner first) and the
    ``(counts[i], counts[i])`` bounds ``low[i]`` / ``high[i]`` of
    :meth:`~repro.core.views.MultiVersionView.distance_bounds`.
    """

    counts: np.ndarray
    ids: np.ndarray
    low: tuple[np.ndarray, ...]
    high: tuple[np.ndarray, ...]
    normal_range: np.ndarray

    @classmethod
    def of_views(cls, views: Sequence[MultiVersionView]) -> "IntervalBatch":
        """The batch of *views*' distance bounds."""
        bounds = [view.distance_bounds() for view in views]
        return cls(
            np.array([len(ids) for ids, _, _ in bounds], dtype=np.int64),
            np.array([i for ids, _, _ in bounds for i in ids], dtype=np.int64),
            tuple(low for _, low, _ in bounds),
            tuple(high for _, _, high in bounds),
            np.array([view.normal_range for view in views], dtype=np.float64),
        )

    @classmethod
    def concat(cls, batches: Sequence["IntervalBatch"]) -> "IntervalBatch":
        """One batch holding the views of *batches*, in order."""
        return cls(
            np.concatenate([b.counts for b in batches]),
            np.concatenate([b.ids for b in batches]),
            tuple(m for b in batches for m in b.low),
            tuple(m for b in batches for m in b.high),
            np.concatenate([b.normal_range for b in batches]),
        )

    def pad(self, start: int, stop: int, first: np.ndarray):
        """``(ids, member, dist_low, dist_high)`` of views ``start:stop``,
        padded to ``(b, M)`` / ``(b, M, M)``."""
        c = self.counts[start:stop]
        b, m = stop - start, int(c.max())
        ids = np.full((b, m), self.ids[int(first[start])], dtype=np.int64)
        member = np.zeros((b, m), dtype=bool)
        low = np.zeros((b, m, m))
        high = np.zeros((b, m, m))
        for r, (i, size) in enumerate(zip(range(start, stop), c.tolist())):
            s = int(first[i])
            ids[r, :size] = self.ids[s:s + size]
            member[r, :size] = True
            low[r, :size, :size] = self.low[i]
            high[r, :size, :size] = self.high[i]
        return ids, member, low, high


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


# Every kernel maps ``(adj, cost_low, cost_high, ids)`` — ``(b, M, M)``
# adjacency and cost bounds, ``(b, M)`` member ids, the owner at member 0
# — to the ``(b, M)`` mask of owner links that survive.  Witness links are
# judged by their upper bound, the link under test by its lower bound; on
# single-version views both are one array.


def rng_survivors(adj, cost_low, cost_high, ids) -> np.ndarray:
    """Condition 1 for every owner.

    ``witness[b, v, w]``: w is adjacent to owner and v, and both witness
    links, by their upper bounds, precede the direct link (owner, v) by
    its lower bound in the total order.
    """
    key = _tie_keys(ids)
    target_cost = cost_low[:, 0, :, np.newaxis]
    target_key = key[:, 0, :, np.newaxis]
    witness = _key_less(cost_high, key, target_cost, target_key)
    witness &= _key_less(
        cost_high[:, 0, np.newaxis, :], key[:, 0, np.newaxis, :], target_cost, target_key
    )
    witness &= adj
    witness &= adj[:, 0, np.newaxis, :]
    return adj[:, 0, :] & ~witness.any(axis=2)


def spt_survivors(adj, cost_low, cost_high, ids) -> np.ndarray:
    """Condition 2 for every owner: one Dijkstra step for all rows at once.

    Shortest paths run over upper-bound costs; a link survives unless the
    path beats its lower bound strictly.  The direct link contributes its
    upper bound, which is never below its lower one, so one Dijkstra
    serves every link of the owner.  Argmin ties break on the lower
    index; a row whose frontier is exhausted relaxes from an infinite
    distance, which changes nothing.
    """
    b, m, _ = adj.shape
    weights = np.where(adj, cost_high, np.inf)
    dist = np.full((b, m), np.inf)
    dist[:, 0] = 0.0
    visited = np.zeros((b, m), dtype=bool)
    rows = np.arange(b)
    for _ in range(m):
        candidates = np.where(visited, np.inf, dist)
        i = np.argmin(candidates, axis=1)
        visited[rows, i] = True
        dist = np.minimum(dist, candidates[rows, i][:, np.newaxis] + weights[rows, i])
    return adj[:, 0, :] & ~(dist < cost_low[:, 0, :])


def mst_survivors(adj, cost_low, cost_high, ids) -> np.ndarray:
    """Condition 3 for every owner: one bottleneck (minimax) Dijkstra.

    ``label[v]`` is the smallest bottleneck — the largest link, by upper
    bound, in the total order of (cost, min id, max id) — over the paths
    from the owner to v found so far, the direct link included.  A link
    (owner, v) is removed iff ``label[v]`` ends strictly below the link's
    lower bound: the direct link itself bottlenecks at its upper bound,
    never below the lower one, so only a witness path can get there.  On
    single-version views this is the cycle property (survivors are the
    owner's local MST edges).
    """
    b, m, _ = adj.shape
    top = np.iinfo(np.int64).max
    key = _tie_keys(ids)
    link_cost = np.where(adj, cost_high, np.inf)
    link_key = np.where(adj, key, top)
    label_cost = link_cost[:, 0].copy()
    label_key = link_key[:, 0].copy()
    done = np.zeros((b, m), dtype=bool)
    done[:, 0] = True
    rows = np.arange(b)
    for _ in range(m - 1):
        candidates = np.where(done, np.inf, label_cost)
        low = candidates.min(axis=1, keepdims=True)
        if not np.isfinite(low).any():
            break
        j = np.argmin(np.where(candidates == low, label_key, top), axis=1)
        done[rows, j] = True
        # bottleneck of the path through j and on over link (j, w): the
        # larger of j's label and that link
        via_cost, via_key = link_cost[rows, j], link_key[rows, j]
        base_cost = label_cost[rows, j, np.newaxis]
        base_key = label_key[rows, j, np.newaxis]
        keep = _key_less(via_cost, via_key, base_cost, base_key)
        via_cost = np.where(keep, base_cost, via_cost)
        via_key = np.where(keep, base_key, via_key)
        improves = _key_less(via_cost, via_key, label_cost, label_key)
        improves &= ~done
        label_cost[improves] = via_cost[improves]
        label_key[improves] = via_key[improves]
    removed = _key_less(label_cost, label_key, cost_low[:, 0], key[:, 0])
    return adj[:, 0, :] & ~removed


def decide_views(batch, kernel, cost_model: CostModel) -> list[SelectionResult]:
    """One :class:`SelectionResult` per view of *batch*, in one array pass.

    *batch* is a :class:`ViewBatch` (single-version views) or an
    :class:`IntervalBatch` (k-version views, the enhanced conditions);
    *kernel* one of :func:`rng_survivors`, :func:`spt_survivors`,
    :func:`mst_survivors`.  Views are padded to ``(b, M, M)`` per chunk;
    padding members are no one's neighbors.  The actual range covers the
    farthest survivor by upper-bound distance.
    """
    results: list[SelectionResult] = []
    counts = batch.counts
    first = np.cumsum(counts) - counts
    for start, stop in _chunks(counts):
        ids, member, dist_low, dist_high = batch.pad(start, stop, first)
        m = ids.shape[1]
        adj = (
            (dist_low <= batch.normal_range[start:stop, np.newaxis, np.newaxis])
            & member[:, :, np.newaxis]
            & member[:, np.newaxis, :]
        )
        adj[:, np.arange(m), np.arange(m)] = False
        cost_low = np.asarray(cost_model.from_distance(dist_low), dtype=np.float64)
        cost_high = (
            cost_low
            if dist_high is dist_low
            else np.asarray(cost_model.from_distance(dist_high), dtype=np.float64)
        )
        survive = kernel(adj, cost_low, cost_high, ids)
        ranges = np.where(survive, dist_high[:, 0, :], 0.0).max(axis=1).tolist()
        owners = ids[:, 0].tolist()
        hit_rows, hit_cols = np.nonzero(survive)
        chosen = ids[hit_rows, hit_cols].tolist()
        ends = np.cumsum(np.bincount(hit_rows, minlength=stop - start)).tolist()
        lo = 0
        for owner, hi, reach in zip(owners, ends, ranges):
            results.append(SelectionResult(owner, frozenset(chosen[lo:hi]), reach))
            lo = hi
    return results
