"""Weisfeiler–Lehman subgraph kernel (Shervashidze et al., JMLR 2011).

γ1 of the paper (Eq. 3–4) compares the h-hop neighbourhood structure of two
same-name vertices with a normalised WL sub-graph kernel.  The feature map
``φ⟨h⟩(v)`` counts label occurrences over ``h`` rounds of WL label
refinement inside the ball of radius ``h`` around ``v``; the initial vertex
labels are the *co-author names*, so the kernel measures how much the two
vertices' collaboration neighbourhoods look alike, name-wise and
structure-wise.

The normalisation of Eq. 4 (Ah-Pine, 2010) maps the kernel into ``[0, 1]``
so different sub-graph sizes do not distort the similarity.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable

from .collab import CollaborationNetwork

FeatureMap = Counter  # label -> occurrence count


def ball(net: CollaborationNetwork, vid: int, radius: int) -> set[int]:
    """Vertices within ``radius`` hops of ``vid`` (BFS ball, inclusive)."""
    return multi_source_ball(net, (vid,), radius)


def multi_source_ball(
    net: CollaborationNetwork, seeds, radius: int
) -> set[int]:
    """Vertices within ``radius`` hops of *any* seed (multi-source BFS).

    The one BFS of the package: :func:`ball`, cache invalidation
    (``SimilarityComputer.invalidate_many``), the streaming walk's value
    stains and the union of balls behind :func:`.ego.ego_features` all
    run it, so they can never drift apart (the parity contract of
    :mod:`repro.core.streaming` depends on their equivalence).  Each
    level is one C-level set union over the frontier's adjacency rows.
    Unknown seeds are ignored by callers before calling.
    """
    seen = set(seeds)
    frontier = seen
    for _ in range(radius):
        frontier = set().union(*net.adjacency_rows(frontier)) - seen
        if not frontier:
            break
        seen |= frontier
    return seen


def wl_feature_map(
    net: CollaborationNetwork,
    vid: int,
    h: int = 2,
    interner: dict[Hashable, int] | None = None,
) -> FeatureMap:
    """``φ⟨h⟩(v)``: WL label histogram of the radius-``h`` ball around ``v``.

    Labels start as vertex names (iteration 0) and are refined ``h`` times:
    a vertex's next label is the pair ``(own label, sorted tuple of its
    neighbours' labels)``.  The returned counter aggregates all iterations;
    the anchor vertex's own name is excluded at iteration 0 (two same-name
    vertices trivially share it).

    Labels are structured, never joined into strings, so no name can
    collide with a neighbour list: a co-author named ``"a,b"`` and two
    co-authors ``"a"`` and ``"b"`` refine to different labels.  Labels of
    different iterations never coincide either (iteration 0 labels are
    strings, iteration ``i`` labels are pairs over iteration ``i - 1``
    labels).

    ``interner`` optionally compresses every label on creation to a
    small int: a grow-only ``label -> id`` dict, extended in place and
    shared by all vertices a scorer compares, so refinement sorts and
    hashes ints instead of nested tuples.  Feature maps are comparable
    only when built with the same ``interner`` (or all without one).
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    nodes = ball(net, vid, h)
    labels: dict[int, Hashable] = {u: net.name_of(u) for u in nodes}
    if interner is not None:
        labels = {
            u: interner.setdefault(name, len(interner))
            for u, name in labels.items()
        }
    features: FeatureMap = Counter()
    for u in nodes:
        if u != vid:
            features[labels[u]] += 1
    for _iteration in range(h):
        refined: dict[int, Hashable] = {}
        for u in nodes:
            neighbours = sorted(
                labels[w] for w in net.adjacency(u) if w in nodes
            )
            label = (labels[u], tuple(neighbours))
            refined[u] = (
                label
                if interner is None
                else interner.setdefault(label, len(interner))
            )
        labels = refined
        features.update(labels.values())
    return features


def wl_kernel(phi_u: FeatureMap, phi_v: FeatureMap) -> float:
    """``K⟨h⟩(u, v) = <φ(u), φ(v)>`` (Eq. 3)."""
    if len(phi_v) < len(phi_u):
        phi_u, phi_v = phi_v, phi_u
    return float(sum(count * phi_v[label] for label, count in phi_u.items()))


def normalized_wl_kernel(phi_u: FeatureMap, phi_v: FeatureMap) -> float:
    """Cosine-normalised WL kernel (Eq. 4), in ``[0, 1]``.

    Returns 0 when either vertex has an empty feature map (isolated
    singleton vertices have no co-author neighbourhood to compare).
    """
    k_uu = wl_kernel(phi_u, phi_u)
    k_vv = wl_kernel(phi_v, phi_v)
    if k_uu == 0.0 or k_vv == 0.0:
        return 0.0
    return wl_kernel(phi_u, phi_v) / ((k_uu * k_vv) ** 0.5)


def wl_similarity(
    net: CollaborationNetwork, u: int, v: int, h: int = 2
) -> float:
    """One-shot normalised WL similarity between two vertices."""
    return normalized_wl_kernel(
        wl_feature_map(net, u, h), wl_feature_map(net, v, h)
    )
