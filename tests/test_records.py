"""Unit tests for the record model (Paper, Corpus, CorpusStats)."""

import pytest

from repro.data.records import Corpus, CorpusStats, Mention, Paper


def make_paper(pid=0, authors=("A", "B"), ids=None):
    return Paper(
        pid=pid,
        authors=tuple(authors),
        title="a title",
        venue="V",
        year=2000,
        author_ids=ids,
    )


class TestPaper:
    def test_accepts_duplicate_names_as_homonyms(self):
        # Two homonymous co-authors on one paper are representable; the
        # incremental disambiguator is responsible for keeping them apart.
        paper = make_paper(authors=("A", "A"), ids=(1, 2))
        assert paper.authors == ("A", "A")

    def test_rejects_duplicate_author_ids(self):
        with pytest.raises(ValueError, match="duplicate author ids"):
            make_paper(authors=("A", "A"), ids=(1, 1))

    def test_rejects_mismatched_label_length(self):
        with pytest.raises(ValueError, match="author_ids length"):
            make_paper(ids=(1,))

    def test_labelled_flag(self):
        assert not make_paper().labelled
        assert make_paper(ids=(1, 2)).labelled

    def test_author_id_of(self):
        paper = make_paper(ids=(7, 9))
        assert paper.author_id_of("A") == 7
        assert paper.author_id_of("B") == 9

    def test_author_id_of_duplicated_name_raises(self):
        # A twice-listed name cannot be resolved by name — silently
        # returning the first twin's id would corrupt evaluation.
        paper = make_paper(authors=("A", "A"), ids=(1, 2))
        with pytest.raises(ValueError, match="more than once"):
            paper.author_id_of("A")

    def test_author_ids_of_returns_all_twins(self):
        paper = make_paper(authors=("A", "A"), ids=(1, 2))
        assert paper.author_ids_of("A") == (1, 2)
        assert paper.author_ids_of("missing") == ()

    def test_true_author_of_handles_homonym_papers(self):
        paper = make_paper(authors=("A", "A"), ids=(1, 2))
        corpus = Corpus([paper])
        mentions = list(corpus.mentions())
        # Mention identity is positional: each occurrence resolves to its
        # own ground-truth author.
        assert [corpus.true_author_of(m) for m in mentions] == [1, 2]

    def test_true_author_of_rejects_mismatched_mention(self):
        paper = make_paper(ids=(7, 9))
        corpus = Corpus([paper])
        with pytest.raises(ValueError, match="no mention"):
            corpus.true_author_of(Mention(0, "A", 1))  # position 1 is "B"
        with pytest.raises(ValueError, match="no mention"):
            corpus.true_author_of(Mention(0, "A", 5))

    def test_positions_of_and_author_id_at(self):
        paper = make_paper(authors=("A", "B", "A"), ids=(1, 2, 3))
        assert paper.positions_of("A") == (0, 2)
        assert paper.positions_of("B") == (1,)
        assert paper.positions_of("missing") == ()
        assert [paper.author_id_at(p) for p in paper.positions_of("A")] == [1, 3]
        with pytest.raises(ValueError, match="out of range"):
            paper.author_id_at(3)

    def test_paper_mentions_are_positional(self):
        paper = make_paper(authors=("A", "A"))
        assert list(paper.mentions()) == [
            Mention(0, "A", 0),
            Mention(0, "A", 1),
        ]

    def test_author_id_of_unlabelled_raises(self):
        with pytest.raises(ValueError, match="no ground-truth"):
            make_paper().author_id_of("A")

    def test_json_roundtrip(self):
        paper = make_paper(ids=(1, 2))
        assert Paper.from_json(paper.to_json()) == paper

    def test_json_roundtrip_unlabelled(self):
        paper = make_paper()
        restored = Paper.from_json(paper.to_json())
        assert restored == paper
        assert restored.author_ids is None


class TestCorpus:
    def test_indexes(self):
        corpus = Corpus([make_paper(0), make_paper(1, authors=("A", "C"))])
        assert len(corpus) == 2
        assert sorted(corpus.names) == ["A", "B", "C"]
        assert corpus.papers_of_name("A") == [0, 1]
        assert corpus.name_frequency("A") == 2
        assert corpus.name_frequency("missing") == 0
        assert corpus.venue_frequency("V") == 2
        assert corpus.num_author_paper_pairs == 4

    def test_rejects_duplicate_pids(self):
        with pytest.raises(ValueError, match="duplicate paper id"):
            Corpus([make_paper(0), make_paper(0)])

    def test_contains_and_getitem(self):
        corpus = Corpus([make_paper(3)])
        assert 3 in corpus
        assert 4 not in corpus
        assert corpus[3].pid == 3

    def test_mentions(self):
        corpus = Corpus([make_paper(0)])
        assert list(corpus.mentions()) == [Mention(0, "A", 0), Mention(0, "B", 1)]

    def test_subset_fraction(self, small_corpus):
        half = small_corpus.subset(0.5, seed=1)
        assert 0 < len(half) < len(small_corpus)
        assert all(p.pid in small_corpus for p in half)

    def test_subset_full_is_identity(self, small_corpus):
        assert small_corpus.subset(1.0) is small_corpus

    def test_subset_validates(self, small_corpus):
        with pytest.raises(ValueError):
            small_corpus.subset(0.0)
        with pytest.raises(ValueError):
            small_corpus.subset(1.5)

    def test_restrict_to_years(self):
        a = make_paper(0)
        b = Paper(1, ("A",), "t", "V", 2010)
        corpus = Corpus([a, b]).restrict_to_years(2005)
        assert len(corpus) == 1 and 0 in corpus

    def test_filter(self, small_corpus):
        sub = small_corpus.filter(lambda p: p.year >= 2010)
        assert all(p.year >= 2010 for p in sub)

    def test_add_updates_indexes(self):
        corpus = Corpus([make_paper(0)])
        corpus.add(Paper(1, ("A", "Z"), "t", "W", 2001))
        assert corpus.papers_of_name("Z") == [1]
        assert corpus.papers_of_name("A") == [0, 1]
        assert corpus.venue_frequency("W") == 1

    def test_add_rejects_duplicates(self):
        corpus = Corpus([make_paper(0)])
        with pytest.raises(ValueError):
            corpus.add(make_paper(0))

    def test_truth_helpers(self, labelled_corpus):
        assert labelled_corpus.labelled
        assert labelled_corpus.authors_of_name("X Y") == {100, 200}

    def test_jsonl_roundtrip(self, tmp_path, labelled_corpus):
        path = str(tmp_path / "corpus.jsonl")
        labelled_corpus.save_jsonl(path)
        restored = Corpus.load_jsonl(path)
        assert len(restored) == len(labelled_corpus)
        assert restored[0] == labelled_corpus[0]


class TestCorpusStats:
    def test_of_labelled(self, labelled_corpus):
        stats = CorpusStats.of(labelled_corpus)
        assert stats.num_papers == 8
        assert stats.num_true_authors == 6
        assert stats.year_range == (2001, 2005)
        assert stats.num_venues == 2

    def test_of_unlabelled(self, figure2_corpus):
        stats = CorpusStats.of(figure2_corpus)
        assert stats.num_true_authors is None
        assert stats.num_names == 7
