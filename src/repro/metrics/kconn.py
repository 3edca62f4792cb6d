"""Fault-tolerance metrics: k-connectivity of effective topologies.

The paper's related work (Bahramgiri et al.; Li & Hou FLSS; Li, Wan, Wang
& Yi) builds K-connected topologies so that "a few link failures" do not
partition the network, and notes such redundancy "can only reduce but not
eliminate network partitioning" under mobility.  These metrics quantify
that redundancy on snapshots so the trade-off can be measured rather than
asserted.
"""

from __future__ import annotations

import numpy as np

from repro.sim.world import WorldSnapshot

# networkx is imported where it is used: it costs ~0.15 s, which every
# CLI call and worker process would otherwise pay at start-up.

__all__ = [
    "edge_connectivity",
    "vertex_connectivity",
    "snapshot_edge_connectivity",
    "min_link_failures_to_partition",
]


def _to_graph(adj: np.ndarray):
    import networkx as nx

    g = nx.Graph()
    n = adj.shape[0]
    g.add_nodes_from(range(n))
    iu, iv = np.nonzero(np.triu(adj, k=1))
    g.add_edges_from(zip(iu.tolist(), iv.tolist()))
    return g


def edge_connectivity(adj: np.ndarray) -> int:
    """Global edge connectivity of an undirected boolean adjacency.

    0 for disconnected (or single-node) graphs.
    """
    import networkx as nx

    n = adj.shape[0]
    if n <= 1:
        return 0
    g = _to_graph(adj)
    if not nx.is_connected(g):
        return 0
    return int(nx.edge_connectivity(g))


def vertex_connectivity(adj: np.ndarray) -> int:
    """Global vertex connectivity of an undirected boolean adjacency."""
    import networkx as nx

    n = adj.shape[0]
    if n <= 1:
        return 0
    g = _to_graph(adj)
    if not nx.is_connected(g):
        return 0
    return int(nx.node_connectivity(g))


def snapshot_edge_connectivity(
    snap: WorldSnapshot, physical_neighbor_mode: bool = False
) -> int:
    """Edge connectivity of a snapshot's undirected effective topology."""
    import networkx as nx

    if snap.prefers_dense:
        return edge_connectivity(snap.effective_bidirectional(physical_neighbor_mode))
    graph = snap.effective_bidirectional_csr(physical_neighbor_mode)
    if graph.n <= 1:
        return 0
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    rows, cols = graph.rows_array(), graph.indices
    upper = rows < cols
    g.add_edges_from(zip(rows[upper].tolist(), cols[upper].tolist()))
    if not nx.is_connected(g):
        return 0
    return int(nx.edge_connectivity(g))


def min_link_failures_to_partition(
    snap: WorldSnapshot, physical_neighbor_mode: bool = False
) -> int:
    """How many simultaneous link failures a snapshot can absorb.

    Edge connectivity minus nothing — named for readability at call sites:
    an MST-like topology returns 1 ("a single link failure is enough to
    disconnect the entire network", Section 5.2), K-connected designs
    return K, disconnected snapshots return 0.
    """
    return snapshot_edge_connectivity(snap, physical_neighbor_mode)
