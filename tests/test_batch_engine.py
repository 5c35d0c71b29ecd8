"""Parity and cache tests for the batched similarity engine.

The engine's contract: ``pair_matrix_batched`` equals the scalar
``similarity_vector`` path to (well below) 1e-9 for any pair list, in both
the embedding-centroid and the no-embeddings fallback branches of γ3.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IUAD, IUADConfig, StreamingIngestor
from repro.core.candidates import candidate_pairs_of_name
from repro.data import build_testing_dataset
from repro.data.records import Corpus, Paper
from repro.data.testing import split_for_incremental
from repro.graphs import UnionFind, build_scn
from repro.graphs.collab import CollaborationNetwork
from repro.similarity import SimilarityComputer
from repro.similarity import profile as profile_module
from repro.similarity.batch import VertexArrays
from repro.text.embeddings import train_title_embeddings

ATOL = 1e-9


def _no_profile(*_args, **_kwargs):
    raise AssertionError("the scoring path built a VertexProfile")


def _all_pairs(net):
    pairs = []
    for name in net.names:
        pairs.extend(candidate_pairs_of_name(net, name))
    return pairs


@pytest.fixture(scope="module")
def scn(small_corpus):
    net, _ = build_scn(small_corpus, eta=2)
    return net


@pytest.fixture(scope="module")
def embeddings(small_corpus):
    return train_title_embeddings(p.title for p in small_corpus)


@pytest.fixture(scope="module")
def computers(scn, small_corpus, embeddings):
    """One computer per γ3 branch (fallback / centroid)."""
    return {
        "fallback": SimilarityComputer(scn, small_corpus, embeddings=None),
        "centroid": SimilarityComputer(scn, small_corpus, embeddings=embeddings),
    }


class TestParity:
    @pytest.mark.parametrize("branch", ["fallback", "centroid"])
    def test_full_candidate_set(self, computers, scn, branch):
        computer = computers[branch]
        pairs = _all_pairs(scn)
        assert len(pairs) > 100
        reference = computer.pair_matrix_perpair(pairs)
        batched = computer.pair_matrix_batched(pairs)
        np.testing.assert_allclose(batched, reference, rtol=0.0, atol=ATOL)

    @pytest.mark.parametrize("branch", ["fallback", "centroid"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_sublists(self, computers, scn, branch, data):
        """Property: any sublist — repeats, flipped orders, self-pairs —
        scores identically on both paths."""
        computer = computers[branch]
        pairs = _all_pairs(scn)
        idx = data.draw(
            st.lists(
                st.integers(0, len(pairs) - 1), min_size=1, max_size=40
            )
        )
        flips = data.draw(
            st.lists(st.booleans(), min_size=len(idx), max_size=len(idx))
        )
        sub = [
            (pairs[i][1], pairs[i][0]) if flip else pairs[i]
            for i, flip in zip(idx, flips)
        ]
        if data.draw(st.booleans()):
            u = pairs[idx[0]][0]
            sub.append((u, u))  # self-pair: both paths must handle it
        np.testing.assert_allclose(
            computer.pair_matrix_batched(sub),
            computer.pair_matrix_perpair(sub),
            rtol=0.0,
            atol=ATOL,
        )

    def test_empty_pair_list(self, computers):
        for computer in computers.values():
            assert computer.pair_matrix_batched([]).shape == (0, 6)
            assert computer.pair_matrix([]).shape == (0, 6)

    def test_mixed_centroid_and_fallback_pairs(self, small_corpus, embeddings):
        """A vertex with no keywords has no centroid: pairs touching it take
        the multiset-cosine fallback even when embeddings exist, on both
        paths."""
        corpus = Corpus(
            [
                Paper(0, ("A A", "B B"), "query index join", "V1", 2001),
                Paper(1, ("A A", "B B"), "query index store", "V1", 2002),
                Paper(2, ("A A", "C C"), "", "V2", 2003),  # no keywords
                Paper(3, ("A A", "C C"), "", "V2", 2004),
            ]
        )
        net = CollaborationNetwork()
        a1 = net.add_vertex("A A", mentions=((0, 0), (1, 0)))
        a2 = net.add_vertex("A A", mentions=((2, 0), (3, 0)))
        b = net.add_vertex("B B", mentions=((0, 1), (1, 1)))
        c = net.add_vertex("C C", mentions=((2, 1), (3, 1)))
        net.add_edge(a1, b, (0, 1))
        net.add_edge(a2, c, (2, 3))
        computer = SimilarityComputer(net, corpus, embeddings=embeddings)
        assert computer.profile(a2).centroid is None
        pairs = [(a1, a2), (a2, a1), (a1, a1)]
        np.testing.assert_allclose(
            computer.pair_matrix_batched(pairs),
            computer.pair_matrix_perpair(pairs),
            rtol=0.0,
            atol=ATOL,
        )


class TestOnePath:
    @pytest.mark.parametrize("branch", ["fallback", "centroid"])
    @pytest.mark.parametrize("n_pairs", range(1, 16))
    def test_short_lists_take_the_join_kernel(
        self, scn, small_corpus, embeddings, branch, n_pairs, monkeypatch
    ):
        """Every list, however short, is scored by the batched engine:
        equal to ``pair_matrix_batched``, within 1e-9 of the scalar
        oracle, and no ``VertexProfile`` is built on the way."""
        computer = SimilarityComputer(
            scn,
            small_corpus,
            embeddings=embeddings if branch == "centroid" else None,
        )
        candidates = _all_pairs(scn)
        self_pair = (candidates[0][1], candidates[0][1])
        pairs = candidates[: n_pairs - 1] + [self_pair]
        with monkeypatch.context() as patch:
            patch.setattr(profile_module, "VertexProfile", _no_profile)
            scored = computer.pair_matrix(pairs)
        np.testing.assert_array_equal(
            scored, computer.pair_matrix_batched(pairs)
        )
        np.testing.assert_allclose(
            scored, computer.pair_matrix_perpair(pairs), rtol=0.0, atol=ATOL
        )


class TestStatelessOracle:
    @pytest.mark.parametrize("branch", ["fallback", "centroid"])
    def test_oracle_leaves_no_state(
        self, scn, small_corpus, embeddings, branch
    ):
        """The scalar oracle builds its profiles per call: after
        ``profile``, ``similarity_vector`` and ``pair_matrix_perpair``, no
        vertex they read is cached, and the join kernel's output is
        byte-equal to a fresh computer's."""
        emb = embeddings if branch == "centroid" else None
        computer = SimilarityComputer(scn, small_corpus, embeddings=emb)
        pairs = _all_pairs(scn)[:60]
        u, v = pairs[0]
        computer.profile(u)
        computer.similarity_vector(u, v)
        computer.pair_matrix_perpair(pairs)
        assert not any(
            computer.is_cached(vid) for pair in pairs for vid in pair
        )
        fresh = SimilarityComputer(scn, small_corpus, embeddings=emb)
        assert (
            computer.pair_matrix(pairs).tobytes()
            == fresh.pair_matrix(pairs).tobytes()
        )


class TestEngineCache:
    def test_invalidate_drops_profile_and_arrays(self, small_corpus):
        net, _ = build_scn(small_corpus, eta=2)
        computer = SimilarityComputer(net, small_corpus, embeddings=None)
        pairs = _all_pairs(net)[:20]
        before = computer.pair_matrix_batched(pairs)
        vid = pairs[0][0]
        assert computer.is_cached(vid)
        assert vid in computer._engine
        computer.invalidate(vid)
        assert not computer.is_cached(vid)
        assert vid not in computer._engine
        # Rebuild from unchanged state reproduces the identical matrix.
        np.testing.assert_allclose(
            computer.pair_matrix_batched(pairs), before, rtol=0.0, atol=0.0
        )

    def test_interners_survive_invalidation(self, small_corpus):
        net, _ = build_scn(small_corpus, eta=2)
        computer = SimilarityComputer(net, small_corpus, embeddings=None)
        pairs = _all_pairs(net)[:20]
        computer.pair_matrix_batched(pairs)
        engine = computer._engine
        n_kw, n_ven = len(engine._kw), len(engine._ven)
        for u, v in pairs:
            computer.invalidate(u)
            computer.invalidate(v)
        computer.pair_matrix_batched(pairs)
        # Grow-only column spaces: rebuilt vertices reuse their old ids.
        assert len(engine._kw) == n_kw
        assert len(engine._ven) == n_ven

    def test_invalidate_exact_drops_only_given_vids(self, small_corpus):
        net, _ = build_scn(small_corpus, eta=2)
        computer = SimilarityComputer(net, small_corpus, embeddings=None)
        pairs = _all_pairs(net)[:20]
        computer.pair_matrix_batched(pairs)
        (u0, v0) = pairs[0]
        others = [v for pair in pairs[1:] for v in pair if v not in (u0, v0)]
        computer.invalidate_exact([u0, v0])
        assert not computer.is_cached(u0) and not computer.is_cached(v0)
        assert u0 not in computer._engine and v0 not in computer._engine
        assert any(v in computer._engine for v in others)


class TestAttachPaper:
    def test_in_place_update_matches_rebuild(self, small_corpus, embeddings):
        """`attach_paper` must leave the cached columns equal to dropping
        them and rebuilding after the mention landed."""
        corpus = Corpus(list(small_corpus))  # session fixture stays pristine
        net, _ = build_scn(corpus, eta=2)
        computer = SimilarityComputer(net, corpus, embeddings=embeddings)
        target = next(
            v.vid
            for v in net
            if v.papers and len(net.vertices_of_name(v.name)) >= 1
        )
        new_pid = max(p.pid for p in corpus) + 1
        paper = Paper(
            pid=new_pid,
            authors=(net.name_of(target),),
            title="streaming attachment of shared venue work",
            venue=next(iter(corpus)).venue,
            year=2021,
        )
        corpus.add(paper)
        computer.pair_matrix([(target, target)])  # warm the columns
        net.add_mention(target, new_pid, 0)
        computer.attach_paper(target, new_pid)
        engine = computer._engine
        updated = engine._arrays[target]
        centroid = (
            None
            if updated.cent_slot < 0
            else engine._cent_matrix[updated.cent_slot].copy()
        )
        computer.invalidate_exact([target])
        computer.pair_matrix([(target, target)])  # rebuild, same interners
        rebuilt = engine._arrays[target]
        assert rebuilt is not updated
        for field in dataclasses.fields(VertexArrays):
            if field.name != "cent_slot":
                assert np.array_equal(
                    getattr(updated, field.name), getattr(rebuilt, field.name)
                ), f"attach left a stale {field.name}"
        assert (updated.cent_slot < 0) == (rebuilt.cent_slot < 0)
        if centroid is not None:
            np.testing.assert_array_equal(
                centroid, engine._cent_matrix[rebuilt.cent_slot]
            )
        assert computer.profile(target).n_papers == rebuilt.n_papers

    def test_attach_on_cold_cache_is_noop(self, small_corpus):
        corpus = Corpus(list(small_corpus))
        net, _ = build_scn(corpus, eta=2)
        computer = SimilarityComputer(net, corpus, embeddings=None)
        target = next(v.vid for v in net if v.papers)
        new_pid = max(p.pid for p in corpus) + 2
        corpus.add(Paper(new_pid, (net.name_of(target),), "cold", "V", 2021))
        net.add_mention(target, new_pid, 0)
        computer.attach_paper(target, new_pid)  # nothing cached: no-op
        assert not computer.is_cached(target)
        profile = computer.profile(target)
        assert new_pid in net.papers_of(target)
        assert profile.n_papers == len(net.papers_of(target))


def _assert_resident(computer):
    cached = computer._engine.cached_vids()
    stale = sorted(v for v in cached if v not in computer.net)
    assert not stale, f"caches hold vertices no longer in the network: {stale}"


class TestCacheResidency:
    """Every cached column entry belongs to a live vertex."""

    @pytest.fixture(scope="class")
    def fitted_and_burst(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=12)
        _base, new_pids = split_for_incremental(td, 40)
        held_out = set(new_pids)
        base = Corpus(p for p in small_corpus if p.pid not in held_out)
        # δ = 0 so merges happen and absorbed vertices leave the network.
        config = IUADConfig(delta=0.0, later_delta=0.0, merge_rounds=2)
        iuad = IUAD(config).fit(base, names=td.names)
        return iuad, [small_corpus[pid] for pid in new_pids]

    def test_after_fit_rebind_and_burst(self, fitted_and_burst):
        import copy

        fitted, burst = fitted_and_burst
        iuad = copy.deepcopy(fitted)
        computer = iuad.computer_
        assert iuad.report_.n_merges > 0
        assert computer.net is iuad.gcn_
        assert computer._engine.cached_vids()
        _assert_resident(computer)

        # An explicit merge round: score everything, merge one same-name
        # pair, rebind.  The absorbed vertex's columns must go.
        gcn = iuad.gcn_
        pairs = _all_pairs(gcn)
        computer.pair_matrix_batched(pairs)
        keep, absorbed = pairs[0]
        union = UnionFind(v.vid for v in gcn)
        assert union.union(keep, absorbed) == keep
        merged = gcn.merged(union, preserve_ids=True)
        assert absorbed in computer._engine
        computer.rebind(merged, touched=[keep])
        assert absorbed not in merged
        _assert_resident(computer)

        iuad.gcn_ = merged
        ingestor = StreamingIngestor(iuad)
        ingestor.add_papers(burst)
        assert computer.net is iuad.gcn_
        _assert_resident(computer)

    def test_reissued_vid_is_scored_fresh(self, small_corpus, embeddings):
        """A merge can lower the network's next vid, so a later vertex
        may reuse the id of an absorbed one whose columns were cached."""
        corpus = Corpus(
            [
                Paper(0, ("A A", "B B"), "query index join", "V1", 2001),
                Paper(1, ("A A", "B B"), "query index store", "V1", 2002),
                Paper(2, ("A A", "C C"), "graph mining pattern", "V2", 2010),
                Paper(3, ("A A", "C C"), "graph pattern search", "V2", 2011),
                Paper(4, ("A A", "D D"), "image object tracking", "V3", 2020),
            ]
        )
        net = CollaborationNetwork()
        a1 = net.add_vertex("A A", mentions=((0, 0), (1, 0)))
        b = net.add_vertex("B B", mentions=((0, 1), (1, 1)))
        c = net.add_vertex("C C", mentions=((2, 1), (3, 1)))
        a2 = net.add_vertex("A A", mentions=((2, 0), (3, 0)))
        net.add_edge(a1, b, (0, 1))
        net.add_edge(a2, c, (2, 3))
        computer = SimilarityComputer(net, corpus, embeddings=embeddings)
        computer.pair_matrix_batched([(a1, a2)])
        assert a2 in computer._engine

        union = UnionFind(v.vid for v in net)
        union.union(a1, a2)
        merged = net.merged(union, preserve_ids=True)
        computer.rebind(merged, touched=[a1])
        reissued = merged.add_vertex("A A", mentions=((4, 0),))
        assert reissued == a2, "the merge did not lower the next vid"
        d = merged.add_vertex("D D", mentions=((4, 1),))
        merged.add_edge(reissued, d, (4,))

        pairs = [(a1, reissued), (reissued, a1), (reissued, reissued)]
        fresh = SimilarityComputer(
            merged,
            corpus,
            embeddings=embeddings,
            word_frequencies=computer.word_frequencies,
            venue_frequencies=computer.venue_frequencies,
        )
        np.testing.assert_array_equal(
            computer.pair_matrix_batched(pairs),
            fresh.pair_matrix_batched(pairs),
        )
        np.testing.assert_array_equal(
            computer.pair_matrix_perpair(pairs),
            fresh.pair_matrix_perpair(pairs),
        )


class TestAttachOutOfOrder:
    def test_live_gamma_equals_fresh_computer(self, small_corpus, embeddings):
        """Attaching a paper whose id is *not* the vertex's largest must
        leave the live γ and columns byte-equal to a fresh computer on
        the same network — what a resumed process computes."""
        hole = sorted(p.pid for p in small_corpus)[len(small_corpus) // 2]
        corpus = Corpus(p for p in small_corpus if p.pid != hole)
        net, _ = build_scn(corpus, eta=2)
        live = SimilarityComputer(net, corpus, embeddings=embeddings)
        pairs = _all_pairs(net)
        live.pair_matrix_batched(pairs)  # cache every scored vertex's columns

        # The attached paper reuses the words and venue of a paper of the
        # first vertex the engine registers, so both computers intern
        # every column in the same order and equality can be exact.  Its
        # words are new to the target and land mid-way through the
        # target's papers, so appending them would reorder the centroid.
        first = min(v for pair in pairs for v in pair)
        donor = corpus[min(net.papers_of(first))]
        donor_words = set(donor.title.split())
        target = next(
            vid
            for vid in sorted({v for pair in pairs for v in pair})
            if vid != first
            and net.papers_of(vid)
            and min(net.papers_of(vid)) < hole < max(net.papers_of(vid))
            and len(donor_words - set(live.profile(vid).keywords)) >= 3
        )
        target_pairs = [pair for pair in pairs if target in pair]
        assert target in live._engine

        corpus.add(
            Paper(hole, (net.name_of(target),), donor.title, donor.venue, 2021)
        )
        net.add_mention(target, hole, 0)
        live.attach_paper(target, hole)

        fresh = SimilarityComputer(
            net,
            corpus,
            embeddings=embeddings,
            word_frequencies=live.word_frequencies,
            venue_frequencies=live.venue_frequencies,
        )
        np.testing.assert_array_equal(
            live.pair_matrix_batched(pairs), fresh.pair_matrix_batched(pairs)
        )
        np.testing.assert_allclose(
            live.pair_matrix_batched(target_pairs),
            live.pair_matrix_perpair(target_pairs),
            rtol=0.0,
            atol=ATOL,
        )
        # The state itself, not only γ: a centroid summed in another row
        # order is off by ~1e-18, which γ3's rounding can hide.
        ours, theirs = live._engine, fresh._engine
        a, b = ours._arrays[target], theirs._arrays[target]
        columns = ("kw_cols", "kw_counts", "kw_lohi", "ven_cols", "ven_counts")
        for field in columns:
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert (a.n_papers, a.kw_norm, a.top_venue_col, a.centroid_norm) == (
            b.n_papers, b.kw_norm, b.top_venue_col, b.centroid_norm
        )
        np.testing.assert_array_equal(
            ours._cent_matrix[a.cent_slot], theirs._cent_matrix[b.cent_slot]
        )
