"""Tests for the graph substrate: union-find, network, triangles, WL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    CollaborationNetwork,
    UnionFind,
    ball,
    coauthor_triangle_names,
    count_triangles,
    maximal_cliques_of_vertex,
    normalized_wl_kernel,
    triangles_of_vertex,
    wl_feature_map,
    wl_similarity,
)


class TestUnionFind:
    def test_basic_union(self):
        uf = UnionFind(range(5))
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.connected(0, 1)
        assert not uf.connected(1, 2)
        assert uf.n_components == 3

    def test_groups(self):
        uf = UnionFind(range(4))
        uf.union(0, 2)
        groups = uf.groups()
        assert sorted(map(sorted, groups.values())) == [[0, 2], [1], [3]]

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add("x")
        uf.add("x")
        assert len(uf) == 1

    def test_forbid_blocks_direct_union(self):
        uf = UnionFind(range(4))
        uf.forbid(0, 1)
        assert not uf.allowed(0, 1)
        assert uf.allowed(0, 2)
        with pytest.raises(ValueError, match="cannot-link"):
            uf.union(0, 1)

    def test_forbid_is_component_aware(self):
        """t1–x then t2–x must not chain t1 and t2 past their cannot-link."""
        uf = UnionFind([0, 1, 2])
        uf.forbid(0, 1)
        uf.union(0, 2)
        assert not uf.allowed(1, 2)  # 2 is now in 0's component
        with pytest.raises(ValueError, match="cannot-link"):
            uf.union(1, 2)
        assert not uf.connected(0, 1)

    def test_forbid_survives_third_party_unions(self):
        uf = UnionFind(range(6))
        uf.forbid(0, 1)
        uf.union(2, 3)
        uf.union(0, 3)   # grows 0's component through 2–3
        uf.union(1, 5)
        assert not uf.allowed(5, 2)
        assert uf.allowed(4, 2)

    def test_forbid_rejects_already_joined(self):
        uf = UnionFind([0, 1])
        uf.union(0, 1)
        with pytest.raises(ValueError, match="already in one set"):
            uf.forbid(0, 1)

    def test_union_of_same_component_is_noop_with_constraints(self):
        uf = UnionFind(range(3))
        uf.forbid(0, 2)
        uf.union(0, 1)
        assert uf.union(1, 0) == uf.find(0)

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_transitivity_and_symmetry(self, edges):
        uf = UnionFind(range(16))
        for a, b in edges:
            uf.union(a, b)
        for a, b in edges:
            assert uf.connected(a, b)
            assert uf.connected(b, a)
        # components partition the elements
        groups = uf.groups()
        members = sorted(x for g in groups.values() for x in g)
        assert members == list(range(16))


def triangle_net() -> CollaborationNetwork:
    net = CollaborationNetwork()
    a = net.add_vertex("a")
    b = net.add_vertex("b")
    c = net.add_vertex("c")
    d = net.add_vertex("d")
    net.add_edge(a, b, {0})
    net.add_edge(a, c, {0})
    net.add_edge(b, c, {0})
    net.add_edge(c, d, {1})
    return net


class TestCollaborationNetwork:
    def test_vertices_and_edges(self):
        net = triangle_net()
        assert len(net) == 4
        assert net.n_edges == 4
        assert net.degree(2) == 3
        assert net.edge_papers(0, 1) == {0}
        assert net.edge_papers(0, 3) == set()

    def test_self_loop_rejected(self):
        net = triangle_net()
        with pytest.raises(ValueError):
            net.add_edge(0, 0, {9})

    def test_name_index(self):
        net = CollaborationNetwork()
        v1 = net.add_vertex("x")
        v2 = net.add_vertex("x")
        assert net.vertices_of_name("x") == [v1, v2]
        assert net.vertices_of_name("missing") == []

    def test_isolated_vertices(self):
        net = triangle_net()
        v = net.add_vertex("lonely")
        assert net.isolated_vertices() == [v]

    def test_remove_isolated_vertex(self):
        net = triangle_net()
        v = net.add_vertex("lonely")
        net.remove_isolated_vertex(v)
        assert v not in net
        assert net.vertices_of_name("lonely") == []

    def test_remove_connected_vertex_rejected(self):
        net = triangle_net()
        with pytest.raises(ValueError):
            net.remove_isolated_vertex(0)

    def test_merged_same_name(self):
        net = CollaborationNetwork()
        x1 = net.add_vertex("x", mentions=((0, 0),))
        x2 = net.add_vertex("x", mentions=((1, 0),))
        y = net.add_vertex("y", mentions=((0, 1), (1, 1)))
        net.add_edge(x1, y, {0})
        net.add_edge(x2, y, {1})
        uf = UnionFind([x1, x2, y])
        uf.union(x1, x2)
        merged = net.merged(uf)
        assert len(merged) == 2
        xm = merged.vertices_of_name("x")[0]
        assert merged.papers_of(xm) == {0, 1}
        assert merged.n_edges == 1
        ym = merged.vertices_of_name("y")[0]
        assert merged.edge_papers(xm, ym) == {0, 1}

    def test_merged_cross_name_rejected(self):
        net = CollaborationNetwork()
        a = net.add_vertex("a")
        b = net.add_vertex("b")
        uf = UnionFind([a, b])
        uf.union(a, b)
        with pytest.raises(ValueError, match="illegal merge"):
            net.merged(uf)

    def test_merged_preserve_ids(self):
        """preserve_ids keeps every surviving vertex's id: the contract the
        round-persistent profile caches rely on."""
        net = CollaborationNetwork()
        x1 = net.add_vertex("x", mentions=((0, 0),))
        x2 = net.add_vertex("x", mentions=((1, 0),))
        y = net.add_vertex("y", mentions=((0, 1), (1, 1)))
        z = net.add_vertex("z", mentions=((2, 0),))
        net.add_edge(x1, y, {0})
        net.add_edge(x2, y, {1})
        uf = UnionFind([x1, x2, y, z])
        uf.union(x1, x2)
        merged = net.merged(uf, preserve_ids=True)
        rep = uf.find(x1)
        assert merged.vertices_of_name("x") == [rep]
        assert merged.papers_of(rep) == {0, 1}
        # Untouched vertices keep their exact ids.
        assert y in merged and merged.name_of(y) == "y"
        assert z in merged and merged.name_of(z) == "z"
        assert merged.edge_papers(rep, y) == {0, 1}
        # Fresh ids never collide with preserved ones.
        fresh = merged.add_vertex("w")
        assert fresh not in (x1, x2, y, z)

    def test_add_vertex_with_explicit_id(self):
        net = CollaborationNetwork()
        vid = net.add_vertex("a", vid=7)
        assert vid == 7
        assert net.add_vertex("b") == 8
        with pytest.raises(ValueError, match="already exists"):
            net.add_vertex("c", vid=7)


class TestMentionPayloads:
    def test_add_vertex_with_mentions_attributes_papers(self):
        net = CollaborationNetwork()
        v = net.add_vertex("a", mentions=((0, 1), (3, 0)))
        assert net.papers_of(v) == {0, 3}
        assert net.mentions_of(v) == {0: 1, 3: 0}
        assert net.n_mentions == 2

    def test_one_mention_per_paper_invariant(self):
        net = CollaborationNetwork()
        v = net.add_vertex("a", mentions=((0, 0),))
        with pytest.raises(ValueError, match="already owns a mention"):
            net.add_mention(v, 0, 1)
        with pytest.raises(ValueError, match="two mentions of paper"):
            net.add_vertex("b", mentions=((5, 0), (5, 1)))

    def test_merged_propagates_mentions(self):
        net = CollaborationNetwork()
        x1 = net.add_vertex("x", mentions=((0, 0),))
        x2 = net.add_vertex("x", mentions=((1, 2),))
        uf = UnionFind([x1, x2])
        uf.union(x1, x2)
        merged = net.merged(uf)
        (xm,) = merged.vertices_of_name("x")
        assert merged.mentions_of(xm) == {0: 0, 1: 2}

    def test_merged_rejects_same_paper_mentions(self):
        """The cheap assertion backing the Stage-2 cannot-link: a component
        holding two occurrences of one paper can never materialise."""
        net = CollaborationNetwork()
        t1 = net.add_vertex("x", mentions=((0, 0),))
        t2 = net.add_vertex("x", mentions=((0, 1),))
        uf = UnionFind([t1, t2])
        uf.union(t1, t2)
        with pytest.raises(ValueError, match="two mentions of paper"):
            net.merged(uf)


class TestTriangles:
    def test_triangle_enumeration(self):
        net = triangle_net()
        assert count_triangles(net) == 1
        assert triangles_of_vertex(net, 0) == {frozenset({0, 1, 2})}
        assert triangles_of_vertex(net, 3) == set()

    def test_coauthor_triangle_names(self):
        net = triangle_net()
        assert coauthor_triangle_names(net, 0) == {frozenset({"b", "c"})}

    def test_maximal_cliques(self):
        net = triangle_net()
        cliques = maximal_cliques_of_vertex(net, 0)
        assert frozenset({0, 1, 2}) in cliques


class TestWLKernel:
    def test_ball_radius(self):
        net = triangle_net()
        assert ball(net, 3, 0) == {3}
        assert ball(net, 3, 1) == {2, 3}
        assert ball(net, 3, 2) == {0, 1, 2, 3}

    def test_normalized_kernel_bounds(self):
        net = triangle_net()
        for u in range(4):
            for v in range(4):
                k = wl_similarity(net, u, v)
                assert 0.0 <= k <= 1.0 + 1e-9

    def test_self_similarity_is_one(self):
        net = triangle_net()
        phi = wl_feature_map(net, 0, h=2)
        assert normalized_wl_kernel(phi, phi) == pytest.approx(1.0)

    def test_isolated_vertex_similarity_zero(self):
        net = triangle_net()
        v = net.add_vertex("lonely")
        assert wl_similarity(net, v, 0) == 0.0

    def test_identical_neighbourhoods_score_high(self):
        net = CollaborationNetwork()
        # two 'x' vertices with identical co-author names p, q
        x1 = net.add_vertex("x")
        x2 = net.add_vertex("x")
        for other in ("p", "q"):
            o1 = net.add_vertex(other)
            o2 = net.add_vertex(other)
            net.add_edge(x1, o1, {0})
            net.add_edge(x2, o2, {1})
        assert wl_similarity(net, x1, x2, h=1) == pytest.approx(1.0)

    def test_disjoint_neighbourhoods_score_low(self):
        net = CollaborationNetwork()
        x1 = net.add_vertex("x")
        x2 = net.add_vertex("x")
        p = net.add_vertex("p")
        q = net.add_vertex("q")
        net.add_edge(x1, p, {0})
        net.add_edge(x2, q, {1})
        assert wl_similarity(net, x1, x2, h=1) < 0.5

    def test_h_zero_counts_names_only(self):
        net = triangle_net()
        phi = wl_feature_map(net, 0, h=0)
        assert phi == {}  # radius-0 ball has only the anchor, excluded

    def test_negative_h_rejected(self):
        net = triangle_net()
        with pytest.raises(ValueError):
            wl_feature_map(net, 0, h=-1)

    def test_separator_characters_do_not_collide(self):
        """A co-author named ``a,b`` is not the two co-authors ``a`` and
        ``b``: joined string signatures gave both anchors the iteration-1
        label ``x|a,b``."""
        net = CollaborationNetwork()
        x1 = net.add_vertex("x")
        x2 = net.add_vertex("x")
        net.add_edge(x1, net.add_vertex("a,b"), {0})
        net.add_edge(x2, net.add_vertex("a"), {1})
        net.add_edge(x2, net.add_vertex("b"), {1})
        phi1 = wl_feature_map(net, x1, h=1)
        phi2 = wl_feature_map(net, x2, h=1)
        assert not phi1.keys() & phi2.keys()
        assert wl_similarity(net, x1, x2, h=1) == 0.0
        # ... and a name holding the old label separator is no neighbour list
        net = CollaborationNetwork()
        y1 = net.add_vertex("y")
        y2 = net.add_vertex("y|p")
        net.add_edge(y1, net.add_vertex("p"), {0})
        net.add_edge(y2, net.add_vertex("q"), {1})
        labels1 = set(wl_feature_map(net, y1, h=1))
        labels2 = set(wl_feature_map(net, y2, h=1))
        assert not labels1 & labels2

    def test_interned_labels_match_structured(self):
        """Compressing labels through a shared interner changes the keys,
        never the kernel."""
        net = triangle_net()
        e = net.add_vertex("a")
        net.add_edge(e, net.add_vertex("b"), {2})
        interner: dict = {}
        for h in (0, 1, 2, 3):
            plain = {v.vid: wl_feature_map(net, v.vid, h) for v in net}
            packed = {
                v.vid: wl_feature_map(net, v.vid, h, interner) for v in net
            }
            for u in plain:
                assert sorted(packed[u].values()) == sorted(plain[u].values())
                for v in plain:
                    assert normalized_wl_kernel(
                        packed[u], packed[v]
                    ) == normalized_wl_kernel(plain[u], plain[v])
