"""Integration tests for the full IUAD pipeline (Algorithm 1)."""

import pytest

from repro.core import IUAD, IUADConfig, disambiguate
from repro.core.balance import split_prolific_vertices
from repro.core.candidates import candidate_pairs_of_name, sample_training_pairs
from repro.data import build_testing_dataset
from repro.data.testing import per_name_truth
from repro.eval import micro_metrics
from repro.graphs import build_scn


@pytest.fixture(scope="module")
def fitted(small_corpus):
    td = build_testing_dataset(small_corpus, n_names=15)
    iuad = IUAD(IUADConfig()).fit(small_corpus, names=td.names)
    return iuad, td


class TestFit:
    def test_report_populated(self, fitted):
        iuad, _td = fitted
        report = iuad.report_
        assert report is not None
        assert report.scn.n_vertices == len(iuad.scn_)
        assert report.gcn_vertices == len(iuad.gcn_)
        assert report.gcn_vertices <= report.scn.n_vertices
        assert report.stage1_seconds > 0 and report.stage2_seconds > 0

    def test_gcn_never_merges_across_names(self, fitted):
        iuad, _td = fitted
        for vertex in iuad.gcn_:
            for pid in vertex.papers:
                assert vertex.name in iuad.corpus_[pid].authors

    def test_stage2_improves_recall_at_small_precision_cost(self, fitted):
        """The Table IV shape: recall jumps, precision holds (mostly)."""
        iuad, td = fitted
        truth = per_name_truth(td)
        scn_m = micro_metrics(
            {n: iuad.scn_mention_clusters_of_name(n) for n in td.names}, truth
        )
        gcn_m = micro_metrics(
            {n: iuad.mention_clusters_of_name(n) for n in td.names}, truth
        )
        assert gcn_m.recall >= scn_m.recall
        assert gcn_m.f1 >= scn_m.f1
        assert scn_m.precision >= 0.75

    def test_unfitted_accessors_raise(self):
        iuad = IUAD()
        with pytest.raises(RuntimeError):
            iuad.clusters_of_name("x")
        with pytest.raises(RuntimeError):
            iuad.scn_clusters_of_name("x")

    def test_disambiguate_convenience(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=3)
        iuad = disambiguate(small_corpus, names=td.names)
        assert iuad.gcn_ is not None

    def test_candidate_pairs_not_double_counted(self, small_corpus):
        """Regression: ``n_candidate_pairs`` once re-accumulated every
        round's pairs; it must report the unique first-round candidates,
        with later rounds visible only in the per-round breakdown."""
        # δ = 0 guarantees round-1 merges, so a second round actually
        # re-scores pairs (the situation the old counter inflated).
        permissive = IUADConfig(merge_rounds=3, delta=0.0, later_delta=0.0)
        one = IUAD(IUADConfig(merge_rounds=1, delta=0.0)).fit(small_corpus)
        three = IUAD(permissive).fit(small_corpus)
        r1, r3 = one.report_, three.report_
        assert r3.n_candidate_pairs == r1.n_candidate_pairs
        assert r3.per_round_candidate_pairs[0] == r3.n_candidate_pairs
        assert len(r3.per_round_candidate_pairs) >= 2
        # Merged networks can only shrink the candidate set; the old code
        # reported the (larger) multi-round sum.
        assert all(
            later <= r3.n_candidate_pairs
            for later in r3.per_round_candidate_pairs[1:]
        )
        assert len(r3.per_round_merges) == len(r3.per_round_candidate_pairs)
        assert sum(r3.per_round_merges) == r3.n_merges

    def test_fit_reuses_one_similarity_computer(self, small_corpus, monkeypatch):
        """The profile store must persist across merge rounds: one computer
        for the whole decision stage (plus the one-off split-balance
        trainer), not a rebuild per round."""
        import repro.core.iuad as iuad_module
        from repro.similarity.profile import SimilarityComputer

        constructed = []
        original = SimilarityComputer.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SimilarityComputer, "__init__", counting_init)
        td = build_testing_dataset(small_corpus, n_names=5)
        iuad = iuad_module.IUAD(IUADConfig(merge_rounds=3)).fit(
            small_corpus, names=td.names
        )
        assert len(constructed) <= 2
        assert iuad.computer_ is not None
        assert iuad.computer_.net is iuad.gcn_

    def test_fit_handles_duplicate_name_papers(self, small_corpus):
        """A corpus containing a homonymous co-author pair (same name twice
        on one paper) must fit cleanly: Stage 1 assigns mentions per
        occurrence, and the cannot-link constraint keeps same-name vertices
        sharing a paper unmerged."""
        from repro.data.records import Corpus, Paper

        extra = Paper(
            pid=10**6,
            authors=("Zz Twin", "Zz Twin", "Other Person"),
            title="homonymous coauthors on one paper",
            venue="DUP-V",
            year=2015,
        )
        corpus = Corpus(list(small_corpus) + [extra])
        # δ = 0 is merge-happy: without the cannot-link guard, the two
        # twin vertices (near-identical one-paper profiles) would merge.
        iuad = IUAD(IUADConfig(merge_rounds=1, delta=0.0)).fit(corpus)
        owners = [
            vid
            for vid in iuad.gcn_.vertices_of_name("Zz Twin")
            if extra.pid in iuad.gcn_.papers_of(vid)
        ]
        # Two homonymous co-authors stay two vertices...
        assert len(owners) == 2
        u, v = owners
        # ...whose collaboration (this very paper) is still an edge, for
        # both twins (relation recovery must not drop one of them).
        assert iuad.gcn_.has_edge(u, v)
        other = next(
            vid
            for vid in iuad.gcn_.vertices_of_name("Other Person")
            if extra.pid in iuad.gcn_.papers_of(vid)
        )
        assert iuad.gcn_.has_edge(u, other)
        assert iuad.gcn_.has_edge(v, other)

    def test_reports_count_mentions_per_occurrence(self, small_corpus):
        """Satellite: SCNBuildReport / FitReport mention totals must match
        the per-occurrence model on a corpus with a homonym paper."""
        from repro.data.records import Corpus, Paper

        extra = Paper(
            pid=10**6,
            authors=("Zz Twin", "Zz Twin", "Other Person"),
            title="homonymous coauthors counted twice",
            venue="DUP-V",
            year=2015,
        )
        corpus = Corpus(list(small_corpus) + [extra])
        iuad = IUAD(IUADConfig(merge_rounds=1)).fit(corpus)
        report = iuad.report_
        # One mention per occurrence: the duplicated name contributes two.
        expected = corpus.num_author_paper_pairs
        assert expected == small_corpus.num_author_paper_pairs + 3
        assert report.scn.n_mentions == expected
        assert report.gcn_mentions == expected
        assert report.gcn_mentions == iuad.gcn_.n_mentions
        assert report.gcn_mentions == sum(
            len(v.mentions) for v in iuad.gcn_
        )

    def test_cannot_link_guard_is_transitive(self, small_corpus):
        """Regression: the guard must hold at *component* level.  With a
        third same-name vertex x, union(t1, x) then union(t2, x) would
        chain the twins into one component even though the (t1, t2) pair
        itself was skipped."""
        from repro.data.records import Corpus, Paper

        twin_paper = Paper(
            pid=10**6,
            authors=("Zz Twin", "Zz Twin"),
            title="joint homonym paper graphs",
            venue="DUP-V",
            year=2015,
        )
        solo_paper = Paper(
            pid=10**6 + 1,
            authors=("Zz Twin",),
            title="solo homonym paper graphs",
            venue="DUP-V",
            year=2016,
        )
        corpus = Corpus(list(small_corpus) + [twin_paper, solo_paper])
        iuad = IUAD(IUADConfig(merge_rounds=1, delta=0.0)).fit(corpus)
        owners = [
            vid
            for vid in iuad.gcn_.vertices_of_name("Zz Twin")
            if twin_paper.pid in iuad.gcn_.papers_of(vid)
        ]
        # However the solo vertex chains, the two co-authors of the twin
        # paper must remain two distinct vertices.
        assert len(owners) == 2

    def test_merge_rounds_one_is_weaker(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=10)
        truth = per_name_truth(td)
        one = IUAD(IUADConfig(merge_rounds=1)).fit(small_corpus, names=td.names)
        two = IUAD(IUADConfig(merge_rounds=2)).fit(small_corpus, names=td.names)
        r1 = micro_metrics(
            {n: one.mention_clusters_of_name(n) for n in td.names}, truth
        ).recall
        r2 = micro_metrics(
            {n: two.mention_clusters_of_name(n) for n in td.names}, truth
        ).recall
        assert r2 >= r1


class TestCandidates:
    def test_pairs_of_name(self, small_corpus):
        net, _ = build_scn(small_corpus, eta=2)
        name = next(n for n in net.names if len(net.vertices_of_name(n)) >= 3)
        pairs = candidate_pairs_of_name(net, name)
        k = len(net.vertices_of_name(name))
        assert len(pairs) == k * (k - 1) // 2
        assert all(u < v for u, v in pairs)

    def test_sampling_respects_floor(self):
        pairs = [(i, i + 1) for i in range(100)]
        sampled = sample_training_pairs(pairs, 0.1, min_pairs=30, seed=0)
        assert len(sampled) == 30

    def test_sampling_rate(self):
        pairs = [(i, i + 1) for i in range(1000)]
        sampled = sample_training_pairs(pairs, 0.1, min_pairs=1, seed=0)
        assert len(sampled) == 100

    def test_sampling_all_when_few(self):
        pairs = [(0, 1)]
        assert sample_training_pairs(pairs, 0.1, min_pairs=10, seed=0) == pairs

    def test_sampling_validation(self):
        with pytest.raises(ValueError):
            sample_training_pairs([], 0.0, 1, 0)


class TestBalanceSplit:
    def test_split_preserves_papers(self, small_corpus):
        net, _ = build_scn(small_corpus, eta=2)
        result = split_prolific_vertices(net, min_papers=4, max_vertices=20, seed=1)
        for vid, halves in result.mapping.items():
            original = net.papers_of(vid)
            combined = set()
            for half in halves:
                combined |= result.network.papers_of(half)
            assert combined == original

    def test_split_halves_share_name_and_are_disconnected(self, small_corpus):
        net, _ = build_scn(small_corpus, eta=2)
        result = split_prolific_vertices(net, min_papers=4, max_vertices=20, seed=1)
        assert result.matched_pairs
        for u, v in result.matched_pairs:
            assert result.network.name_of(u) == result.network.name_of(v)
            assert not result.network.has_edge(u, v)
            assert result.network.papers_of(u)
            assert result.network.papers_of(v)

    def test_max_vertices_cap(self, small_corpus):
        net, _ = build_scn(small_corpus, eta=2)
        result = split_prolific_vertices(net, min_papers=4, max_vertices=5, seed=1)
        assert len(result.matched_pairs) <= 5


class TestConfigValidation:
    def test_eta(self):
        with pytest.raises(ValueError):
            IUADConfig(eta=0)

    def test_sample_rate(self):
        with pytest.raises(ValueError):
            IUADConfig(sample_rate=0.0)

    def test_wl_iterations(self):
        """A negative WL radius fails at construction, not at the first
        scoring call after the SCN build."""
        with pytest.raises(ValueError, match="wl_iterations"):
            IUADConfig(wl_iterations=-1)
        assert IUADConfig(wl_iterations=0).wl_iterations == 0

    def test_merge_rounds(self):
        """Stage 2 runs at least the paper's one pass: with none, the GCN
        would be the Stage-1 SCN object and relation recovery would add
        edges to the SCN."""
        for rounds in (0, -1):
            with pytest.raises(ValueError, match="merge_rounds"):
                IUADConfig(merge_rounds=rounds)
        assert IUADConfig(merge_rounds=1).merge_rounds == 1

    def test_families_width(self):
        with pytest.raises(ValueError):
            IUADConfig(families=("gaussian",))

    def test_split_min(self):
        with pytest.raises(ValueError):
            IUADConfig(split_min_papers=1)
