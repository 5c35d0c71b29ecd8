"""Tests for the six similarity functions and the profile computer."""

import numpy as np
import pytest
from collections import Counter
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import Corpus, Paper
from repro.graphs import build_scn
from repro.graphs.collab import CollaborationNetwork
from repro.similarity import (
    N_SIMILARITIES,
    SIMILARITY_NAMES,
    SimilarityComputer,
    clique_coincidence,
    interest_cosine,
    min_year_difference,
    representative_community_similarity,
    research_community_similarity,
    time_consistency,
)


class TestCliqueCoincidence:
    def test_overlap(self):
        l1 = {frozenset({"p", "q"}), frozenset({"p", "r"})}
        l2 = {frozenset({"p", "q"})}
        assert clique_coincidence(l1, l2, tau=2) == 0.5

    def test_disjoint_is_zero(self):
        assert clique_coincidence({frozenset({"a", "b"})}, set(), 1) == 0.0

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            clique_coincidence(set(), set(), 0)


class TestInterestCosine:
    def test_identical(self):
        kw = Counter({"query": 2, "index": 1})
        assert interest_cosine(kw, kw) == pytest.approx(1.0)

    def test_disjoint(self):
        assert interest_cosine(Counter({"a": 1}), Counter({"b": 1})) == 0.0

    def test_empty(self):
        assert interest_cosine(Counter(), Counter({"a": 1})) == 0.0


class TestMinYearDifference:
    def test_overlapping_windows(self):
        assert min_year_difference((2000, 2005), (2003, 2008)) == 0

    def test_disjoint_windows(self):
        assert min_year_difference((2000, 2002), (2006, 2008)) == 4
        assert min_year_difference((2006, 2008), (2000, 2002)) == 4

    @given(
        a=st.tuples(st.integers(1990, 2020), st.integers(0, 10)),
        b=st.tuples(st.integers(1990, 2020), st.integers(0, 10)),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_nonnegative(self, a, b):
        ra = (a[0], a[0] + a[1])
        rb = (b[0], b[0] + b[1])
        assert min_year_difference(ra, rb) == min_year_difference(rb, ra) >= 0


class TestTimeConsistency:
    def test_rare_shared_word_scores_higher(self):
        rare = time_consistency(
            {"obscure": (2000, 2000)},
            {"obscure": (2000, 2000)},
            {"obscure": 2},
            tau=1,
        )
        common = time_consistency(
            {"popular": (2000, 2000)},
            {"popular": (2000, 2000)},
            {"popular": 500},
            tau=1,
        )
        assert rare > common > 0

    def test_year_gap_decays(self):
        near = time_consistency(
            {"w": (2000, 2000)}, {"w": (2001, 2001)}, {"w": 10}, tau=1
        )
        far = time_consistency(
            {"w": (2000, 2000)}, {"w": (2010, 2010)}, {"w": 10}, tau=1
        )
        assert near > far

    def test_validations(self):
        with pytest.raises(ValueError):
            time_consistency({}, {}, {}, tau=0)
        with pytest.raises(ValueError):
            time_consistency({}, {}, {}, tau=1, alpha=-1.0)


class TestCommunitySimilarities:
    def test_representative_cross_counts(self):
        hu = Counter({"VLDB": 3, "KDD": 1})
        hv = Counter({"VLDB": 2})
        got = representative_community_similarity(hu, hv, "VLDB", "VLDB", tau=2)
        assert got == (2 + 3) / 2

    def test_representative_handles_none(self):
        assert (
            representative_community_similarity(Counter(), Counter(), None, None, 1)
            == 0.0
        )

    def test_research_community_emphasises_rare_venues(self):
        rare = research_community_similarity(
            Counter({"W": 1}), Counter({"W": 1}), {"W": 3}, tau=1
        )
        common = research_community_similarity(
            Counter({"V": 1}), Counter({"V": 1}), {"V": 300}, tau=1
        )
        assert rare > common > 0

    def test_research_community_multiset_multiplicity(self):
        one = research_community_similarity(
            Counter({"V": 1}), Counter({"V": 5}), {"V": 10}, tau=1
        )
        three = research_community_similarity(
            Counter({"V": 3}), Counter({"V": 5}), {"V": 10}, tau=1
        )
        assert three == pytest.approx(3 * one)


class TestSimilarityComputer:
    @pytest.fixture()
    def setup(self, labelled_corpus):
        net, _ = build_scn(labelled_corpus, eta=2)
        computer = SimilarityComputer(net, labelled_corpus)
        return net, computer

    def test_vector_shape_and_names(self, setup):
        net, computer = setup
        x_vertices = net.vertices_of_name("X Y")
        assert len(x_vertices) >= 2
        gamma = computer.similarity_vector(x_vertices[0], x_vertices[1])
        assert gamma.shape == (N_SIMILARITIES,)
        assert len(SIMILARITY_NAMES) == N_SIMILARITIES

    def test_symmetry(self, setup):
        net, computer = setup
        u, v = net.vertices_of_name("X Y")[:2]
        np.testing.assert_allclose(
            computer.similarity_vector(u, v), computer.similarity_vector(v, u)
        )

    def test_nonnegative_except_cosine(self, setup):
        net, computer = setup
        u, v = net.vertices_of_name("X Y")[:2]
        gamma = computer.similarity_vector(u, v)
        for i in (0, 1, 3, 4, 5):
            assert gamma[i] >= 0.0
        assert -1.0 <= gamma[2] <= 1.0

    def test_same_author_vertices_more_similar(self, labelled_corpus):
        """The two VLDB-vertices (same author split) must beat a
        VLDB-vs-CVPR (different authors) pair on content features."""
        net, _ = build_scn(labelled_corpus, eta=2)
        computer = SimilarityComputer(net, labelled_corpus)
        by_venue = {}
        for vid in net.vertices_of_name("X Y"):
            pids = net.papers_of(vid)
            venue = labelled_corpus[next(iter(pids))].venue
            by_venue.setdefault(venue, []).append(vid)
        if len(by_venue.get("VLDB", [])) >= 2:
            u, v = by_venue["VLDB"][:2]
            w = by_venue["CVPR"][0]
            same = computer.similarity_vector(u, v)
            cross = computer.similarity_vector(u, w)
            assert same[4] + same[5] > cross[4] + cross[5]

    def test_pair_matrix(self, setup):
        net, computer = setup
        vs = net.vertices_of_name("X Y")
        pairs = [(vs[0], vs[1])]
        M = computer.pair_matrix(pairs)
        assert M.shape == (1, N_SIMILARITIES)

    def test_invalidate_reaches_wl_radius(self):
        """Regression: invalidation must extend to ``wl_iterations`` hops.

        Topology x–w, w–u, w–v puts u and v two hops from x, so a new edge
        u–v lies inside x's radius-2 WL ball.  A 1-hop-only invalidation
        (the old behaviour) left x serving its stale γ1 feature map.
        """
        corpus = Corpus(
            Paper(pid, ("A",), f"paper {pid} topic", "V", 2000 + pid)
            for pid in range(4)
        )
        net = CollaborationNetwork()
        x = net.add_vertex("X", mentions=((0, 0),))
        w = net.add_vertex("W", mentions=((0, 1), (1, 0), (2, 0)))
        u = net.add_vertex("U", mentions=((1, 1), (3, 0)))
        v = net.add_vertex("V", mentions=((2, 1), (3, 1)))
        net.add_edge(x, w, (0,))
        net.add_edge(w, u, (1,))
        net.add_edge(w, v, (2,))
        computer = SimilarityComputer(net, corpus)
        computer.pair_matrix([(x, x)])
        stale = computer._engine._arrays[x]
        assert computer.is_cached(x)

        net.add_edge(u, v, (3,))  # the incremental-mode edge insertion
        computer.invalidate(u)
        computer.invalidate(v)
        assert not computer.is_cached(x), "2-hop neighbour kept a stale cache"
        computer.pair_matrix([(x, x)])
        fresh = computer._engine._arrays[x]
        assert not np.array_equal(fresh.wl_cols, stale.wl_cols), (
            "recomputed WL features should see the edge"
        )

    def test_invalidate_refreshes_profile(self, setup):
        net, computer = setup
        vid = net.vertices_of_name("X Y")[0]
        computer.pair_matrix([(vid, vid)])
        before = computer._engine._arrays[vid].n_papers
        net.add_mention(vid, 999_999, 0)
        computer.invalidate(vid)
        assert not computer.is_cached(vid)
        # A column rebuild would fail on a paper id missing from the
        # corpus: vertices only ever hold corpus papers.
        del net.vertex(vid).mentions[999_999]
        computer.invalidate(vid)
        computer.pair_matrix([(vid, vid)])
        assert computer._engine._arrays[vid].n_papers == before
