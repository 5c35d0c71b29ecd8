"""Tests for the text substrate: tokenisation and PPMI-SVD embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    STOP_WORDS,
    WordEmbeddings,
    corpus_word_frequencies,
    cosine,
    extract_keywords,
    tokenize,
    train_title_embeddings,
)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Deep Learning for Graphs") == [
            "deep",
            "learning",
            "for",
            "graphs",
        ]

    def test_drops_single_chars_and_symbols(self):
        assert tokenize("a b: c-d (e)") == []

    def test_keeps_alphanumerics(self):
        assert tokenize("word2vec embeddings") == ["word2vec", "embeddings"]

    @given(st.text(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_never_raises(self, text):
        tokens = tokenize(text)
        assert all(t == t.lower() for t in tokens)


class TestKeywords:
    def test_stop_words_removed(self):
        kws = extract_keywords("the index of the query")
        assert kws == ["index", "query"]

    def test_corpus_frequencies(self):
        freq = corpus_word_frequencies(["query index", "query join"])
        assert freq["query"] == 2
        assert freq["join"] == 1


class TestEmbeddings:
    @pytest.fixture(scope="class")
    def emb(self):
        titles = (
            ["query index join database storage"] * 30
            + ["neural network learning gradient deep"] * 30
            + ["query database index"] * 10
            + ["learning deep gradient"] * 10
        )
        return train_title_embeddings(titles, dim=8, min_count=2)

    def test_in_topic_closer_than_cross_topic(self, emb):
        assert emb.similarity("query", "index") > emb.similarity("query", "neural")

    def test_vectors_unit_norm(self, emb):
        for word in emb.vocabulary[:5]:
            assert np.linalg.norm(emb[word]) == pytest.approx(1.0)

    def test_oov_handling(self, emb):
        assert emb.get("zzzznope") is None
        assert "zzzznope" not in emb
        assert emb.similarity("query", "zzzznope") == 0.0

    def test_centroid(self, emb):
        c = emb.centroid(["query", "index"])
        assert c is not None and c.shape == (emb.dim,)
        assert emb.centroid(["zzzznope"]) is None

    def test_most_similar_excludes_self(self, emb):
        top = emb.most_similar("query", k=3)
        assert len(top) == 3
        assert all(w != "query" for w, _s in top)

    def test_too_small_corpus_raises(self):
        with pytest.raises(ValueError):
            train_title_embeddings(["lone"], dim=4)

    def test_mismatched_matrix_rejected(self):
        with pytest.raises(ValueError):
            WordEmbeddings(["a", "b"], np.zeros((3, 4)))


class TestCosine:
    def test_parallel(self):
        v = np.array([1.0, 2.0])
        assert cosine(v, 2 * v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0
