"""Collaboration-network substrate: graphs, SCN builder, triangles, WL kernel,
and the one-pass ego build of WL features and triangles."""

from .collab import CollaborationNetwork, Vertex
from .ego import ego_features
from .scn import (
    SCNBuilder,
    SCNBuildReport,
    build_scn,
    independence_tail_probability,
    mine_scrs,
)
from .triangles import (
    coauthor_triangle_names,
    count_triangles,
    iter_triangles,
    maximal_cliques_of_vertex,
    triangles_of_vertex,
)
from .unionfind import UnionFind
from .wl import (
    ball,
    normalized_wl_kernel,
    wl_feature_map,
    wl_kernel,
    wl_similarity,
)

__all__ = [
    "CollaborationNetwork",
    "SCNBuildReport",
    "SCNBuilder",
    "UnionFind",
    "Vertex",
    "ball",
    "build_scn",
    "coauthor_triangle_names",
    "count_triangles",
    "ego_features",
    "independence_tail_probability",
    "iter_triangles",
    "maximal_cliques_of_vertex",
    "mine_scrs",
    "normalized_wl_kernel",
    "triangles_of_vertex",
    "wl_feature_map",
    "wl_kernel",
    "wl_similarity",
]
