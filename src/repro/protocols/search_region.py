"""Search-region minimum-energy protocol (Li & Halpern 2001 style).

The paper's future work singles out protocols "using a dynamic search
region [13], [14], [24], [32], where only partial 1-hop information ... is
available".  This implementation follows Li & Halpern's scheme: a node
starts from a small search radius, selects minimum-energy logical
neighbors *among nodes inside the region only*, and grows the region
iteratively until every neighbor outside it is reachable more cheaply
through a selected in-region relay than by direct transmission.  If no
radius short of the normal range achieves coverage the protocol degrades
to the plain SPT selection (full 1-hop information), exactly as Li &
Halpern's algorithm does.

One simplification versus the original: coverage is checked against the
*known* out-of-region neighbors rather than against every geometric
position outside the region (the original's conservative test).  Checking
actual neighbors exercises the identical grow-select-check loop while
staying inside the single-view protocol interface, and it never removes a
link the SPT condition would keep — so connectivity is preserved under the
same premises (Theorem 1 applies through removal condition 2).
"""

from __future__ import annotations

from repro.core.costs import EnergyCost
from repro.core.framework import SelectionResult, ViewBatch, decide_views, spt_survivors
from repro.core.views import LocalView
from repro.protocols.base import TopologyControlProtocol, register_protocol
from repro.util.validate import check_positive

__all__ = ["SearchRegionSptProtocol"]


@register_protocol
class SearchRegionSptProtocol(TopologyControlProtocol):
    """Minimum-energy selection with an iteratively grown search region.

    Parameters
    ----------
    alpha:
        Path-loss exponent of the energy model.
    growth_factor:
        Multiplicative region growth per iteration (> 1).

    Notes
    -----
    Compared to :class:`~repro.protocols.spt.SptProtocol`, the selection
    is computed from *partial* 1-hop information whenever a small region
    already covers the neighborhood — the point of the search-region
    family is exactly that the common case needs only nearby nodes.
    :attr:`last_iterations` and :attr:`last_region` expose the cost of the
    final run for overhead studies.
    """

    name = "spt-region"

    def __init__(self, alpha: float = 2.0, growth_factor: float = 2.0) -> None:
        self.cost_model = EnergyCost(alpha=alpha)
        self.alpha = float(alpha)
        if growth_factor <= 1.0:
            raise ValueError(f"growth_factor must exceed 1, got {growth_factor}")
        self.growth_factor = check_positive("growth_factor", growth_factor)
        #: diagnostics of the most recent selection
        self.last_iterations = 0
        self.last_region = 0.0

    def _restricted_selection(
        self, view: LocalView, region: float
    ) -> SelectionResult:
        """SPT selection using only neighbors inside *region*."""
        inside = {
            nid: h
            for nid, h in view.neighbor_hellos.items()
            if view.own_hello.distance_to(h) <= region
        }
        sub_view = LocalView(
            owner=view.owner,
            own_hello=view.own_hello,
            neighbor_hellos=inside,
            normal_range=view.normal_range,
            sampled_at=view.sampled_at,
        )
        return decide_views(ViewBatch.of_view(sub_view), spt_survivors, self.cost_model)[0]

    def _covers(self, view: LocalView, selected: frozenset[int], region: float) -> bool:
        """True iff every known neighbor beyond *region* has a cheaper relay."""
        own = view.own_hello
        for nid, hello in view.neighbor_hellos.items():
            d_direct = own.distance_to(hello)
            if d_direct <= region:
                continue
            direct_cost = float(self.cost_model.from_distance(d_direct))
            covered = False
            for w in selected:
                w_hello = view.neighbor_hellos[w]
                relay = float(
                    self.cost_model.from_distance(own.distance_to(w_hello))
                ) + float(self.cost_model.from_distance(w_hello.distance_to(hello)))
                if relay < direct_cost:
                    covered = True
                    break
            if not covered:
                return False
        return True

    def select(self, view: LocalView) -> SelectionResult:
        own = view.own_hello
        distances = sorted(
            own.distance_to(h) for h in view.neighbor_hellos.values()
        )
        if not distances:
            self.last_iterations, self.last_region = 0, 0.0
            return SelectionResult(
                owner=view.owner, logical_neighbors=frozenset(), actual_range=0.0
            )
        region = max(distances[0], 1e-9)
        iterations = 0
        while True:
            iterations += 1
            result = self._restricted_selection(view, region)
            if region >= view.normal_range or (
                result.logical_neighbors
                and self._covers(view, result.logical_neighbors, region)
            ):
                self.last_iterations = iterations
                self.last_region = min(region, view.normal_range)
                return result
            region = min(region * self.growth_factor, view.normal_range)

    def __repr__(self) -> str:
        return (
            f"SearchRegionSptProtocol(alpha={self.alpha:g}, "
            f"growth_factor={self.growth_factor:g})"
        )
