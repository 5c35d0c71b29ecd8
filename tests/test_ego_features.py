"""Parity of the one-pass ego build with its per-vertex oracle.

:func:`repro.graphs.ego.ego_features` must give every ego exactly the WL
label multiset of :func:`repro.graphs.wl.wl_feature_map` and the triangle
set of :func:`repro.graphs.triangles.coauthor_triangle_names`, and the γ
matrix scored from its columns must equal (``==``) the one scored from
columns gathered vertex by vertex through the oracle.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import Corpus, Paper
from repro.graphs import CollaborationNetwork, ego
from repro.graphs.ego import ego_features
from repro.graphs.triangles import coauthor_triangle_names
from repro.graphs.wl import wl_feature_map
from repro.similarity import SimilarityComputer

#: Homonyms by construction, and a name holding the old label separators
#: next to the names it would have collided with.
NAMES = ("a", "b", "a,b", "x", "x|a")


def _world(names, edges):
    """A network over ``names`` plus a corpus holding every vertex's papers:
    one solo paper per vertex and one paper per edge."""
    net = CollaborationNetwork()
    papers = []
    for name in names:
        vid = net.add_vertex(name, papers=(len(papers),))
        papers.append(Paper(len(papers), (name,), f"solo {vid}", "V0", 2000))
    for u, v in edges:
        pid = len(papers)
        papers.append(
            Paper(pid, (names[u], names[v]), "joint work", f"V{u % 3}", 2001)
        )
        net.add_edge(u, v, {pid})
    return net, Corpus(papers)


def _decoder(interner):
    """Map interned WL ids back to structured labels (the oracle's form)."""
    inverse = {i: key for key, i in interner.items()}
    memo: dict[int, object] = {}

    def canonical(label_id):
        if label_id not in memo:
            key = inverse[label_id]
            if isinstance(key, str):
                memo[label_id] = key
            else:
                own, *nbrs = np.frombuffer(key, dtype=np.int64).tolist()
                memo[label_id] = (
                    canonical(own),
                    tuple(sorted(canonical(x) for x in nbrs)),
                )
        return memo[label_id]

    return canonical


def _oracle_columns(computer):
    """The per-vertex column build: one ``wl_feature_map`` and one
    ``coauthor_triangle_names`` per vertex."""
    engine = computer._engine
    triangle_ids: dict = {}

    def build(vids):
        n_papers, slots, wl, tri = [], [], ([], [], []), ([], [])
        for i, vid in enumerate(vids):
            vertex_slots = computer._paper_slots(vid)
            n_papers.append(len(vertex_slots))
            slots.extend(vertex_slots)
            features = wl_feature_map(
                computer.net, vid, computer.wl_iterations, engine.wl_labels
            )
            wl[0].extend([i] * len(features))
            wl[1].extend(features.keys())
            wl[2].extend(features.values())
            for clique in coauthor_triangle_names(computer.net, vid):
                tri[0].append(i)
                tri[1].append(
                    triangle_ids.setdefault(clique, len(triangle_ids))
                )
        engine.triangles = triangle_ids  # the join's column width
        return engine.build(vids, n_papers, slots, wl, tri)

    return build


@st.composite
def worlds(draw):
    n = draw(st.integers(1, 12))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=n, max_size=n))
    # Edges (u, u + k mod n), k > 0: no self-loops, repeats allowed.
    steps = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)))
    edges = [
        (u, (u + k) % n)
        for u, k in draw(st.lists(steps, max_size=3 * n if n > 1 else 0))
    ]
    # Repeated and unsorted egos in one block.
    vids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return names, edges, vids


@given(
    world=worlds(),
    h=st.integers(0, 3),
    chunk_cells=st.one_of(st.integers(1, 40), st.just(ego.CHUNK_CELLS)),
)
@settings(max_examples=150, deadline=None)
def test_matches_the_per_vertex_oracle(world, h, chunk_cells):
    names, edges, vids = world
    net, corpus = _world(names, edges)
    labels: dict = {}
    triangles: dict = {}
    # Small cells split the block into many chunks of a few egos each.
    with mock.patch.object(ego, "CHUNK_CELLS", chunk_cells):
        (wl_owner, wl_col, wl_count), (tri_owner, tri_col) = ego_features(
            net, vids, h, labels, triangles
        )

    canonical = _decoder(labels)
    # One id per structured label: equal labels are never split.
    assert len({canonical(i) for i in labels.values()}) == len(labels)
    phi = [Counter() for _ in vids]
    for owner, col, count in zip(wl_owner, wl_col, wl_count):
        phi[owner][canonical(int(col))] += int(count)
    inverse = {i: key for key, i in triangles.items()}
    cliques = [set() for _ in vids]
    for owner, col in zip(tri_owner, tri_col):
        a, b = inverse[int(col)]
        cliques[owner].add(frozenset((canonical(a), canonical(b))))
    for i, vid in enumerate(vids):
        assert phi[i] == wl_feature_map(net, vid, h)
        assert cliques[i] == coauthor_triangle_names(net, vid)

    # γ (γ1 above all) from the one-pass columns equals γ from the
    # per-vertex columns bit for bit.
    pairs = [(u, v) for u in vids for v in vids]
    with mock.patch.object(ego, "CHUNK_CELLS", chunk_cells):
        batched = SimilarityComputer(net, corpus, wl_iterations=h).pair_matrix(
            pairs
        )
    oracle = SimilarityComputer(net, corpus, wl_iterations=h)
    oracle._build_columns = _oracle_columns(oracle)
    assert np.array_equal(batched, oracle.pair_matrix(pairs))


def test_separator_names_stay_apart():
    """``"a,b"`` is one co-author, not ``"a"`` and ``"b"``: the two egos
    share no label, and only the second has a triangle."""
    net = CollaborationNetwork()
    x1, x2 = net.add_vertex("x"), net.add_vertex("x")
    ab = net.add_vertex("a,b")
    a, b = net.add_vertex("a"), net.add_vertex("b")
    net.add_edge(x1, ab, {0})
    net.add_edge(x2, a, {1})
    net.add_edge(x2, b, {1})
    net.add_edge(a, b, {1})
    labels: dict = {}
    triangles: dict = {}
    (owner, col, _), (tri_owner, _) = ego_features(
        net, [x1, x2], 2, labels, triangles
    )
    assert not set(col[owner == 0].tolist()) & set(col[owner == 1].tolist())
    assert tri_owner.tolist() == [1]


def test_empty_block_and_negative_radius():
    net = CollaborationNetwork()
    net.add_vertex("a")
    wl, tri = ego_features(net, [], 2, {}, {})
    assert all(part.size == 0 for part in (*wl, *tri))
    with pytest.raises(ValueError):
        ego_features(net, [0], -1, {}, {})
