"""Vertex-splitting rebalance strategy (Section V-F2).

Matched pairs are rare among same-name candidates, which starves the EM's
M component.  The paper's remedy: randomly partition prolific vertices into
two pseudo-vertices — the two halves are *known* to belong to one author,
so they provide high-confidence matched pairs for training.

The split network preserves the SCN's edge semantics: each edge's paper set
is routed to the half that owns the paper, and the two halves of a vertex
are not connected to each other (they must look like ordinary same-name
vertices to the similarity functions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..graphs.collab import CollaborationNetwork

Pair = tuple[int, int]


@dataclass(slots=True)
class SplitResult:
    """The auxiliary training network and its planted matched pairs."""

    network: CollaborationNetwork
    matched_pairs: list[Pair]
    #: original vid -> (half-1 vid, half-2 vid) for split vertices;
    #: original vid -> (new vid,) otherwise.
    mapping: dict[int, tuple[int, ...]]


def split_prolific_vertices(
    net: CollaborationNetwork,
    min_papers: int = 6,
    max_vertices: int = 400,
    seed: int = 0,
) -> SplitResult:
    """Build the balance-training network.

    Args:
        net: The stable collaboration network.
        min_papers: A vertex must own at least this many papers to be split
            (each half keeps ≥ ``min_papers // 2``).
        max_vertices: Split at most this many vertices (the most prolific
            first), bounding the training-set size.
        seed: Seed of the random paper partitions.
    """
    rng = random.Random(seed)
    prolific = sorted(
        (v.vid for v in net if len(v.papers) >= min_papers),
        key=lambda vid: (-len(net.papers_of(vid)), vid),
    )[:max_vertices]
    to_split = set(prolific)

    out = CollaborationNetwork()
    mapping: dict[int, tuple[int, ...]] = {}
    # (original vid, pid) -> new vid, for edge routing.
    owner: dict[tuple[int, int], int] = {}
    matched_pairs: list[Pair] = []

    for vertex in net:
        papers = sorted(vertex.papers)
        parts = [papers]
        if vertex.vid in to_split:
            rng.shuffle(papers)
            half = len(papers) // 2
            parts = [papers[:half], papers[half:]]
        new_vids = []
        for part in parts:
            new_vid = out.add_vertex(
                vertex.name,
                mentions=[(pid, vertex.mentions[pid]) for pid in part],
            )
            new_vids.append(new_vid)
            for pid in part:
                owner[(vertex.vid, pid)] = new_vid
        mapping[vertex.vid] = tuple(new_vids)
        if len(new_vids) == 2:
            matched_pairs.append((new_vids[0], new_vids[1]))

    for u, v, edge_papers in net.edges():
        for pid in edge_papers:
            # Route each edge paper to the halves owning it on both ends;
            # papers in P_uv but not attributed to a vertex (mention owned
            # elsewhere) keep the half that got the larger share.
            nu = owner.get((u, pid), mapping[u][0])
            nv = owner.get((v, pid), mapping[v][0])
            out.add_edge(nu, nv, (pid,))
    return SplitResult(network=out, matched_pairs=matched_pairs, mapping=mapping)
