"""RNG-based topology control (Toussaint 1980; Cartigny et al. 2003).

Link (u, v) is removed when a third node w, visible to both, satisfies
``max(c(u,w), c(w,v)) < c(u,v)`` — removal condition 1 of the paper.
"""

from __future__ import annotations

from repro.core.framework import rng_survivors
from repro.protocols.base import ConditionProtocol, register_protocol

__all__ = ["RngProtocol"]


@register_protocol
class RngProtocol(ConditionProtocol):
    """Relative neighborhood graph protocol (removal condition 1).

    Selection runs :func:`~repro.core.framework.rng_survivors`, one
    broadcast witness mask over all of the owner's links.
    """

    name = "rng"
    view_kernel = staticmethod(rng_survivors)
