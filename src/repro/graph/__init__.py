"""Graph primitives over the social network (numpy, used by the planners)."""
from repro.graph.local import bfs_hops, undirected_bfs_hops, mioa_reach, diameter_within

__all__ = [
    "bfs_hops",
    "undirected_bfs_hops",
    "mioa_reach",
    "diameter_within",
]
