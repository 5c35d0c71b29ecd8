"""Candidate-pair enumeration and training-sample selection (Stage 2).

``R_a ⊂ V_a × V_a`` — all unordered pairs of same-name vertices — is the
candidate set of name ``a`` (Section V-A).  Only 10 % of the pairs are used
for parameter learning (Section V-F1); every pair is scored for the merge
decision.

:func:`cannot_link_pairs` enumerates the candidate pairs the decision stage
must *refuse* regardless of score: two same-name vertices owning mentions
of one paper are two homonymous co-authors of that paper — provably
distinct people.  The per-occurrence mention model makes these pairs
directly enumerable from vertex payloads.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from ..graphs.collab import CollaborationNetwork

Pair = tuple[int, int]


def candidate_pairs_of_name(
    net: CollaborationNetwork, name: str
) -> list[Pair]:
    """All unordered same-name vertex pairs of ``name``."""
    vids = sorted(net.vertices_of_name(name))
    return list(combinations(vids, 2))


def cannot_link_pairs(net: CollaborationNetwork) -> list[Pair]:
    """Same-name vertex pairs sharing an attributed paper (never mergeable).

    With the per-occurrence mention model such pairs arise exactly from
    papers listing one name twice: each occurrence sits on its own vertex
    and both vertices carry the paper.  Registered as
    :meth:`~repro.graphs.unionfind.UnionFind.forbid` constraints before any
    merge decision is applied.
    """
    pairs: set[Pair] = set()
    for name in net.names:
        vids = net.vertices_of_name(name)
        if len(vids) < 2:
            # A lone vertex has no same-name partner; skipping it keeps a
            # shard's halo (mostly one-vertex names) off this walk.
            continue
        owners: dict[int, list[int]] = {}
        for vid in vids:
            for pid in net.papers_of(vid):
                owners.setdefault(pid, []).append(vid)
        for shared in owners.values():
            if len(shared) > 1:
                pairs.update(combinations(sorted(shared), 2))
    return sorted(pairs)


def iter_candidate_pairs(
    net: CollaborationNetwork,
    names: Iterable[str] | None = None,
) -> Iterator[tuple[str, Pair]]:
    """Candidate pairs of many names: yields ``(name, (u, v))``."""
    for name in net.names if names is None else names:
        for pair in candidate_pairs_of_name(net, name):
            yield name, pair


def sample_training_pairs(
    pairs: Sequence[Pair],
    sample_rate: float,
    min_pairs: int,
    seed: int,
) -> list[Pair]:
    """The Section V-F1 training sample: ``sample_rate`` of the candidate
    pairs, floor ``min_pairs`` (all pairs when fewer exist)."""
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
    target = max(min_pairs, int(round(sample_rate * len(pairs))))
    if target >= len(pairs):
        return list(pairs)
    rng = random.Random(seed)
    return rng.sample(list(pairs), k=target)
