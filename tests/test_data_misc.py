"""Tests for the remaining data modules: power law, DBLP XML, testing sets."""

import pytest

from repro.data import (
    build_testing_dataset,
    fit_power_law,
    frequency_histogram,
    load_dblp_xml,
    pair_frequency_distribution,
    render_table2,
    split_for_incremental,
)
from repro.data.dblp import dump_dblp_like_xml
from repro.data.powerlaw import ascii_loglog
from repro.data.records import Corpus, Paper
from repro.data.testing import per_name_truth


class TestPowerLaw:
    def test_frequency_histogram(self):
        assert frequency_histogram([1, 1, 2, 5, 5, 5]) == {1: 2, 2: 1, 5: 3}

    def test_ignores_nonpositive(self):
        assert frequency_histogram([0, -1, 3]) == {3: 1}

    def test_fit_exact_power_law(self):
        # counts = 1000 * k^-2 for k = 1..10
        histogram = {k: round(1000 * k**-2.0) for k in range(1, 11)}
        fit = fit_power_law(histogram)
        assert fit.slope == pytest.approx(-2.0, abs=0.05)
        assert fit.r_squared > 0.99

    def test_fit_log_binned(self):
        histogram = {k: max(1, round(5000 * k**-2.5)) for k in range(1, 60)}
        fit = fit_power_law(histogram, log_binned=True)
        assert fit.slope == pytest.approx(-2.5, abs=0.5)

    def test_pair_frequency_counts_distinct_coauthor_pairs(self):
        """Figure 3b counts a pair once per paper and never pairs a name
        with itself, even when a list repeats it (homonymous co-authors)."""
        corpus = Corpus(
            Paper(pid, authors, "t", "V", 2000)
            for pid, authors in enumerate([("A", "A", "B"), ("B", "C", "A")])
        )
        assert pair_frequency_distribution(corpus) == {1: 2, 2: 1}
        single = Corpus([Paper(0, ("A", "A", "B"), "t", "V", 2000)])
        assert pair_frequency_distribution(single) == {1: 1}

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law({3: 10})

    def test_predicted_matches_support(self):
        histogram = {1: 100, 2: 25, 4: 6}
        fit = fit_power_law(histogram)
        assert fit.predicted().shape == (3,)

    def test_ascii_render(self):
        art = ascii_loglog({1: 100, 2: 25, 4: 6, 8: 2})
        assert "*" in art
        assert ascii_loglog({}) == "(empty)"


class TestDBLPXml:
    def test_roundtrip(self, tmp_path, figure2_corpus):
        path = str(tmp_path / "dump.xml")
        dump_dblp_like_xml(figure2_corpus, path)
        restored = load_dblp_xml(path)
        assert len(restored) == len(figure2_corpus)
        assert sorted(restored.names) == sorted(figure2_corpus.names)
        for paper in figure2_corpus:
            match = [p for p in restored if p.title == paper.title]
            assert match and match[0].authors == paper.authors

    def test_max_papers_cap(self, tmp_path, figure2_corpus):
        path = str(tmp_path / "dump.xml")
        dump_dblp_like_xml(figure2_corpus, path)
        restored = load_dblp_xml(path, max_papers=3)
        assert len(restored) == 3

    def test_skips_incomplete_records(self, tmp_path):
        path = tmp_path / "partial.xml"
        path.write_text(
            "<dblp>"
            "<article><author>A</author><title>no venue or year</title></article>"
            "<article><author>B</author><title>ok</title>"
            "<journal>J</journal><year>2001</year></article>"
            "<article><author>C</author><title>bad year</title>"
            "<journal>J</journal><year>MMXX</year></article>"
            "</dblp>"
        )
        corpus = load_dblp_xml(str(path))
        assert len(corpus) == 1
        assert corpus[0].authors == ("B",)

    def test_repeated_author_preserved_by_default(self, tmp_path):
        # A name listed twice is two homonymous co-authors under the
        # positional mention model — the load path must not conflate them.
        path = tmp_path / "dup.xml"
        path.write_text(
            "<dblp><article><author>A</author><author>A</author>"
            "<author>B</author><title>t</title><journal>J</journal>"
            "<year>2001</year></article></dblp>"
        )
        corpus = load_dblp_xml(str(path))
        assert corpus[0].authors == ("A", "A", "B")

    def test_dedupes_repeated_author_on_request(self, tmp_path):
        path = tmp_path / "dup.xml"
        path.write_text(
            "<dblp><article><author>A</author><author>A</author>"
            "<author>B</author><title>t</title><journal>J</journal>"
            "<year>2001</year></article></dblp>"
        )
        corpus = load_dblp_xml(str(path), dedupe_names=True)
        assert corpus[0].authors == ("A", "B")

    def test_roundtrip_preserves_order_venues_and_duplicate_names(
        self, tmp_path
    ):
        # dump -> load must be lossless: paper order, venues, years and
        # full author lists — including a duplicate-name list (two
        # homonymous co-authors on one paper).
        papers = [
            Paper(0, ("X Y", "P A"), "query index", "VLDB", 2001),
            Paper(1, ("X Y", "X Y", "Q B"), "homonym paper", "ICDE", 2002),
            Paper(2, ("Q B",), "solo paper", "KDD", 2003),
        ]
        corpus = Corpus(papers)
        path = str(tmp_path / "dump.xml")
        dump_dblp_like_xml(corpus, path)
        restored = load_dblp_xml(path)
        assert len(restored) == len(corpus)
        for original, loaded in zip(corpus, restored):
            assert loaded.authors == original.authors
            assert loaded.title == original.title
            assert loaded.venue == original.venue
            assert loaded.year == original.year


class TestTestingDataset:
    def test_profile_bounds(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=10)
        for row in td.stats():
            assert 2 <= row.num_authors <= 17
            assert row.num_papers >= 4

    def test_requires_labels(self, figure2_corpus):
        with pytest.raises(ValueError):
            build_testing_dataset(figure2_corpus)

    def test_truth_covers_all_testing_mentions(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=10)
        for name in td.names:
            for pid in small_corpus.papers_of_name(name):
                for position in small_corpus[pid].positions_of(name):
                    assert (name, pid, position) in td.truth

    def test_true_clusters_partition_mentions(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=5)
        for name in td.names:
            clusters = td.true_clusters(name)
            flat = [unit for units in clusters.values() for unit in units]
            assert len(flat) == len(set(flat))  # units are disjoint
            # One unit per occurrence: the pid multiset matches the
            # (per-occurrence) name index of the corpus.
            assert sorted(pid for pid, _pos in flat) == sorted(td.papers_of(name))

    def test_split_for_incremental(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=10)
        base, new = split_for_incremental(td, 20)
        assert len(new) == 20
        assert base.isdisjoint(new)
        # the held-out papers are the most recent ones
        newest_base = max(small_corpus[p].year for p in base)
        oldest_new = min(small_corpus[p].year for p in new)
        assert oldest_new >= newest_base - 25  # sanity: years comparable

    def test_split_rejects_oversized_holdout(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=3)
        with pytest.raises(ValueError):
            split_for_incremental(td, 10**6)

    def test_render_table2(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=5)
        text = render_table2(td.stats(), td.totals())
        assert "Total" in text
        assert len(text.splitlines()) == 7

    def test_per_name_truth_shape(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=5)
        truth = per_name_truth(td)
        assert set(truth) == set(td.names)
