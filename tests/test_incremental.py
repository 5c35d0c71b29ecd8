"""Tests for incremental single-paper disambiguation (Section V-E)."""

import copy
import dataclasses
import random

import numpy as np
import pytest

from repro.core import (
    IUAD,
    IUADConfig,
    IncrementalDisambiguator,
    IncrementalReport,
    ShardedIUAD,
    StreamingIngestor,
)
from repro.core.incremental import sequential_add_paper
from repro.data import Corpus, Paper, build_testing_dataset
from repro.data.testing import per_name_truth, split_for_incremental
from repro.eval import micro_metrics
from repro.graphs.wl import ball
from repro.similarity.batch import VertexArrays


@pytest.fixture(scope="module")
def base_setup(small_corpus):
    td = build_testing_dataset(small_corpus, n_names=12)
    base_pids, new_pids = split_for_incremental(td, 40)
    new_set = set(new_pids)
    base_corpus = Corpus(p for p in small_corpus if p.pid not in new_set)
    iuad = IUAD(IUADConfig()).fit(base_corpus, names=td.names)
    return iuad, td, new_pids, small_corpus


class TestIncremental:
    def test_requires_fitted_iuad(self):
        with pytest.raises(ValueError):
            IncrementalDisambiguator(IUAD())

    def test_streaming_assigns_every_mention(self, base_setup):
        iuad, _td, new_pids, full_corpus = base_setup
        inc = IncrementalDisambiguator(iuad)
        paper = full_corpus[new_pids[0]]
        assignments = inc.add_paper(paper)
        assert len(assignments) == len(paper.authors)
        for assignment in assignments:
            assert paper.pid in iuad.gcn_.papers_of(assignment.vid)
            assert iuad.gcn_.name_of(assignment.vid) == assignment.name

    def test_new_name_creates_vertex(self, base_setup):
        iuad, _td, _new_pids, _full = base_setup
        inc = IncrementalDisambiguator(iuad)
        paper = Paper(
            pid=10**7,
            authors=("Brand New Person",),
            title="entirely new topic",
            venue="NEW-VENUE",
            year=2021,
        )
        (assignment,) = inc.add_paper(paper)
        assert assignment.created
        assert assignment.score == float("-inf")

    def test_collaborative_relations_recovered(self, base_setup):
        iuad, _td, _new, _full = base_setup
        inc = IncrementalDisambiguator(iuad)
        paper = Paper(
            pid=10**7 + 1,
            authors=("New A", "New B"),
            title="joint work",
            venue="NEW-VENUE",
            year=2021,
        )
        a, b = inc.add_paper(paper)
        assert iuad.gcn_.has_edge(a.vid, b.vid)

    def test_streaming_drops_stale_wl_ball(self, base_setup):
        """Regression: after a streamed paper inserts an edge, every vertex
        within ``wl_iterations`` hops of the touched endpoints must lose its
        cached columns (2-hop neighbours kept stale γ1 caches before).

        The conservative radius-h drop is the oracle's; ``add_papers``
        drops only the exact value stain (``TestNoStaleCache``)."""
        iuad, _td, new_pids, full_corpus = base_setup
        inc = IncrementalDisambiguator(iuad)
        gcn, computer = iuad.gcn_, iuad.computer_
        # Walk from the end so this test never races the other tests of
        # this shared fixture for a paper id (they stream from the front).
        paper = next(
            full_corpus[pid]
            for pid in reversed(new_pids)
            if pid not in iuad.corpus_
            and len(full_corpus[pid].authors) >= 2
        )
        computer.pair_matrix([(vertex.vid, vertex.vid) for vertex in gcn])
        assignments = sequential_add_paper(inc, paper)
        assert len(assignments) >= 2  # an edge was recovered
        radius = max(1, iuad.config.wl_iterations)
        for assignment in assignments:
            for vid in ball(gcn, assignment.vid, radius):
                assert not computer.is_cached(vid), (
                    f"vertex {vid} within {radius} hops of touched vertex "
                    f"{assignment.vid} kept stale columns"
                )

    def test_duplicate_name_mentions_do_not_self_attach(self, base_setup):
        """Regression: a paper listing one name twice means two homonymous
        people; the second mention must not attach to the vertex the first
        mention just created on the evidence of this very paper."""
        iuad, _td, _new, _full = base_setup
        inc = IncrementalDisambiguator(iuad)
        paper = Paper(
            pid=10**7 + 99,
            authors=("Zz Dupname", "Zz Dupname"),
            title="joint homonym work on graphs",
            venue="DUP-VENUE",
            year=2021,
        )
        first, second = inc.add_paper(paper)
        assert first.vid != second.vid
        assert first.created and second.created
        assert len(iuad.gcn_.vertices_of_name("Zz Dupname")) == 2
        # The two homonyms still collaborated on the paper.
        assert iuad.gcn_.has_edge(first.vid, second.vid)

    def test_report_accumulates(self, base_setup):
        iuad, _td, new_pids, full_corpus = base_setup
        inc = IncrementalDisambiguator(iuad)
        for pid in new_pids[1:6]:
            inc.add_paper(full_corpus[pid])
        assert inc.report.n_papers == 5
        assert inc.report.n_mentions >= 5
        assert inc.report.avg_ms_per_paper > 0.0
        assert inc.report.n_attached + inc.report.n_created == inc.report.n_mentions

    def test_empty_report_average_is_zero(self):
        # Regression: a report that has processed no papers must answer
        # 0.0 instead of dividing by n_papers == 0.
        report = IncrementalReport()
        assert report.n_papers == 0
        assert report.avg_ms_per_paper == 0.0


class TestDuplicatePaperPolicy:
    def test_default_policy_raises_and_mutates_nothing(self, base_setup):
        """Regression: re-ingesting a pid must never append the paper a
        second time — a double-attached mention would violate the
        one-mention-per-paper invariant."""
        iuad, _td, _new, full_corpus = base_setup
        inc = IncrementalDisambiguator(copy.deepcopy(iuad))
        paper = next(iter(inc.iuad.corpus_))
        n_before = inc.iuad.gcn_.n_mentions
        with pytest.raises(ValueError, match="already"):
            inc.add_paper(paper)
        assert inc.report.n_papers == 0
        assert inc.iuad.gcn_.n_mentions == n_before

    def test_return_policy_is_idempotent(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=8)
        _base, new_pids = split_for_incremental(td, 10)
        new_set = set(new_pids)
        base = Corpus(p for p in small_corpus if p.pid not in new_set)
        iuad = IUAD(
            IUADConfig(duplicate_paper_policy="return")
        ).fit(base, names=td.names)
        inc = IncrementalDisambiguator(iuad)
        paper = small_corpus[new_pids[0]]
        first = inc.add_paper(paper)
        state = sorted(
            (v.vid, tuple(sorted(v.mentions.items()))) for v in iuad.gcn_
        )
        replay = inc.add_paper(paper)
        # Same owners, nothing mutated, counted as a duplicate.
        assert [a.vid for a in replay] == [a.vid for a in first]
        assert all(not a.created and np.isnan(a.score) for a in replay)
        assert (
            sorted(
                (v.vid, tuple(sorted(v.mentions.items()))) for v in iuad.gcn_
            )
            == state
        )
        assert inc.report.n_papers == 1
        assert inc.report.n_duplicates == 1

    def test_return_policy_answers_for_base_corpus_papers(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=8)
        _base, new_pids = split_for_incremental(td, 10)
        new_set = set(new_pids)
        base = Corpus(p for p in small_corpus if p.pid not in new_set)
        iuad = IUAD(
            IUADConfig(duplicate_paper_policy="return")
        ).fit(base, names=td.names)
        inc = IncrementalDisambiguator(iuad)
        paper = next(iter(base))
        replay = inc.add_paper(paper)
        assert len(replay) == len(paper.authors)
        for position, assignment in enumerate(replay):
            assert assignment.vid >= 0
            mentions = iuad.gcn_.mentions_of(assignment.vid)
            assert mentions.get(paper.pid) == position

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="duplicate_paper_policy"):
            IUADConfig(duplicate_paper_policy="explode")


class TestTimingTotal:
    def test_average_is_exact_over_the_stream(self, base_setup):
        """The report keeps one wall-clock total, not per-paper samples;
        the Table-VI average divides it by the papers ingested."""
        iuad, _td, _new, _full = base_setup
        inc = IncrementalDisambiguator(copy.deepcopy(iuad))
        next_pid = max(p.pid for p in inc.iuad.corpus_) + 1
        for i in range(11):
            inc.add_paper(
                Paper(next_pid + i, (f"Window Person {i}",), "t", "V", 2021)
            )
        report = inc.report
        assert report.n_papers == 11
        assert report.seconds > 0.0
        assert report.avg_ms_per_paper == pytest.approx(
            1000.0 * report.seconds / 11
        )


class TestTieBreak:
    def test_equal_scores_attach_to_lowest_vid(self, base_setup):
        """Regression: the argmax tie-break is the lowest vertex id, not
        candidate enumeration order — equal-score candidates must attach
        identically whatever the order of the name index."""
        iuad, _td, _new, _full = base_setup
        inc = IncrementalDisambiguator(iuad)
        fresh_pid = 10**8 + 7
        scores = np.array([1.5, 1.5, 0.5])
        # Enumeration order lists the higher vid first: the old
        # np.argmax picked index 0; the contract demands the lowest vid.
        a, b, c = sorted(v.vid for v in iuad.gcn_)[:3]
        idx, best = inc._select_candidate([b, a, c], scores, fresh_pid)
        assert (idx, best) == (1, 1.5)  # a < b, same score
        idx, best = inc._select_candidate([a, b, c], scores, fresh_pid)
        assert (idx, best) == (0, 1.5)

    def test_pid_owners_are_skipped_at_apply_time(self, base_setup):
        iuad, _td, _new, _full = base_setup
        inc = IncrementalDisambiguator(iuad)
        vertex = next(iter(iuad.gcn_))
        owned_pid = next(iter(vertex.papers))
        other = next(
            v.vid for v in iuad.gcn_ if owned_pid not in v.papers
        )
        idx, best = inc._select_candidate(
            [vertex.vid, other], np.array([9.0, 1.0]), owned_pid
        )
        # the higher-scoring candidate already owns the paper: barred
        assert idx == 1 and best == 1.0


class TestIncrementalQuality:
    def test_streaming_does_not_collapse_quality(self, small_corpus):
        """Table VI shape: metrics after streaming stay near the base run."""
        td = build_testing_dataset(small_corpus, n_names=12)
        truth = per_name_truth(td)
        _base, new_pids = split_for_incremental(td, 30)
        new_set = set(new_pids)
        base_corpus = Corpus(p for p in small_corpus if p.pid not in new_set)
        iuad = IUAD(IUADConfig()).fit(base_corpus, names=td.names)
        base_truth = {
            n: {pid: a for pid, a in t.items() if pid not in new_set}
            for n, t in truth.items()
        }
        before = micro_metrics(
            {n: iuad.mention_clusters_of_name(n) for n in td.names}, base_truth
        )
        inc = IncrementalDisambiguator(iuad)
        for pid in new_pids:
            inc.add_paper(small_corpus[pid])
        after = micro_metrics(
            {n: iuad.mention_clusters_of_name(n) for n in td.names}, truth
        )
        assert after.f1 >= before.f1 - 0.1

    def test_incremental_is_fast(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=12)
        _base, new_pids = split_for_incremental(td, 20)
        new_set = set(new_pids)
        base_corpus = Corpus(p for p in small_corpus if p.pid not in new_set)
        iuad = IUAD(IUADConfig()).fit(base_corpus, names=td.names)
        inc = IncrementalDisambiguator(iuad)
        for pid in new_pids:
            inc.add_paper(small_corpus[pid])
        # paper reports < 50 ms/paper on full DBLP; our corpus is far smaller
        assert inc.report.avg_ms_per_paper < 200.0


class TestOneIngestPath:
    def test_one_class_under_both_names(self):
        assert IncrementalDisambiguator is StreamingIngestor

    def test_add_paper_is_a_one_paper_burst(self, base_setup):
        iuad, _td, _new, _full = base_setup
        inc = IncrementalDisambiguator(copy.deepcopy(iuad))
        paper = Paper(10**7 + 500, ("Solo Burst",), "one paper", "V", 2021)
        (assignment,) = inc.add_paper(paper)
        assert assignment.created
        assert inc.report.n_batches == inc.report.n_waves == 1
        assert inc.last_batch.n_papers == inc.last_batch.n_fresh == 1


# --------------------------------------------------------------------- #
# no stale cached value: the invariant behind the exact value stain
# --------------------------------------------------------------------- #
def assert_no_stale_cache(computer):
    """Every cached column set equals a fresh build.

    The fresh build runs on a cache-cleared copy of the engine (same
    interners, so column ids agree); the live cache stays untouched.
    """
    engine = computer._engine
    shared = (
        engine._embeddings, engine._word_frequencies,
        engine._venue_frequencies,
    )
    clean = copy.deepcopy(engine, {id(x): x for x in shared})
    clean.clear()
    cached = sorted(engine.cached_vids())
    computer._engine = clean
    try:
        fresh = computer._build_columns(cached) if cached else []
    finally:
        computer._engine = engine
    for new in fresh:
        old = engine._arrays[new.vid]
        for field in dataclasses.fields(VertexArrays):
            if field.name != "cent_slot":
                assert np.array_equal(
                    getattr(old, field.name), getattr(new, field.name)
                ), f"vertex {new.vid} kept a stale {field.name}"
        assert (old.cent_slot < 0) == (new.cent_slot < 0)
        if new.cent_slot >= 0:
            assert np.array_equal(
                engine._cent_matrix[old.cent_slot],
                clean._cent_matrix[new.cent_slot],
            ), f"vertex {new.vid} kept a stale centroid"


def _warm(fitted, papers):
    """Cache columns around the names the papers carry, so the ingest
    has cached values to leave stale."""
    gcn, computer = fitted.gcn_, fitted.computer_
    seeds = {
        vid
        for paper in papers
        for name in paper.authors
        for vid in gcn.vertices_of_name(name)
    }
    radius = max(1, fitted.config.wl_iterations) + 1
    warm = sorted({v for s in seeds for v in ball(gcn, s, radius)})
    computer.pair_matrix(list(zip(warm, warm[1:])))


@pytest.fixture(scope="module")
def stale_world(small_corpus):
    td = build_testing_dataset(small_corpus, n_names=10)
    _base, new_pids = split_for_incremental(td, 30)
    new_set = set(new_pids)
    base = Corpus(p for p in small_corpus if p.pid not in new_set)
    plain = IUAD(IUADConfig()).fit(base, names=td.names)
    sharded = ShardedIUAD(IUADConfig(max_shard_size=300)).fit(
        base, names=td.names
    )
    return plain, sharded, [small_corpus[pid] for pid in new_pids]


class TestNoStaleCache:
    """After every ingest, every cached value equals a fresh build."""

    def test_single_paper_ingests(self, stale_world):
        plain, _sharded, burst = stale_world
        fitted = copy.deepcopy(plain)
        _warm(fitted, burst[:12])
        inc = IncrementalDisambiguator(fitted)
        for paper in burst[:12]:
            inc.add_paper(paper)
            assert_no_stale_cache(fitted.computer_)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_shuffled_bursts(self, stale_world, seed):
        plain, _sharded, burst = stale_world
        fitted = copy.deepcopy(plain)
        shuffled = list(burst)
        random.Random(seed).shuffle(shuffled)
        _warm(fitted, shuffled)
        ingestor = StreamingIngestor(fitted)
        for i in range(0, len(shuffled), 10):
            ingestor.add_papers(shuffled[i: i + 10])
            assert_no_stale_cache(fitted.computer_)

    def test_same_paper_homonyms(self, stale_world):
        plain, _sharded, burst = stale_world
        fitted = copy.deepcopy(plain)
        known = next(
            name
            for name in fitted.corpus_.names
            if len(fitted.gcn_.vertices_of_name(name)) >= 2
        )
        pid = max(p.pid for p in fitted.corpus_) + 10**6
        papers = burst[:8] + [
            Paper(pid, (known, known), "twin homonym graphs", "V-X", 2021),
            Paper(pid + 1, ("Aa Stale", known), "bridge", "V-X", 2022),
            Paper(pid + 2, (known, "Aa Stale", known), "trio", "V-Y", 2022),
        ]
        _warm(fitted, papers)
        ingestor = StreamingIngestor(fitted)
        ingestor.add_papers(papers[:9])
        assert_no_stale_cache(fitted.computer_)
        ingestor.add_papers(papers[9:])
        assert_no_stale_cache(fitted.computer_)

    def test_sharded_fit_with_bridging_paper(self, stale_world):
        _plain, sharded, burst = stale_world
        fitted = copy.deepcopy(sharded)
        index = fitted.shard_index_
        by_shard: dict[int, str] = {}
        for name in fitted.corpus_.names:
            sid = index.shard_of_name(name)
            if sid is not None:
                by_shard.setdefault(sid, name)
        name_a, name_b = list(by_shard.values())[:2]
        pid = max(p.pid for p in fitted.corpus_) + 10**6
        papers = burst[:10] + [
            Paper(pid, (name_a, name_b), "bridging work", "V-B", 2021),
        ] + burst[10:20]
        _warm(fitted, papers)
        ingestor = StreamingIngestor(fitted)
        bridges = index.n_bridges
        for i in range(0, len(papers), 7):
            ingestor.add_papers(papers[i: i + 7])
            assert_no_stale_cache(fitted.computer_)
        assert index.n_bridges > bridges
