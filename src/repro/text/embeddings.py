"""Word embeddings from title co-occurrence: PPMI + truncated SVD.

The paper uses pretrained language-model vectors (Word2Vec/GloVe/BERT) for
the research-interest similarity γ3.  No pretrained vectors are available
offline, so we train our own on the corpus titles with the classic
matrix-factorisation equivalent of skip-gram (Levy & Goldberg, NeurIPS
2014): a positive pointwise-mutual-information co-occurrence matrix
factorised by truncated SVD.  What γ3 needs — keywords of similar research
areas landing near each other in cosine space — is exactly what PPMI-SVD
delivers.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds

from .tokenize import tokenize


class WordEmbeddings:
    """Dense word vectors with cosine utilities."""

    def __init__(self, vocabulary: list[str], matrix: np.ndarray):
        if len(vocabulary) != matrix.shape[0]:
            raise ValueError(
                f"vocabulary size {len(vocabulary)} != matrix rows {matrix.shape[0]}"
            )
        self._index: dict[str, int] = {w: i for i, w in enumerate(vocabulary)}
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        self._matrix = matrix / norms

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def vocabulary(self) -> list[str]:
        return list(self._index)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __getitem__(self, word: str) -> np.ndarray:
        """Unit-norm vector of ``word`` (KeyError if OOV)."""
        return self._matrix[self._index[word]]

    @property
    def matrix(self) -> np.ndarray:
        """The unit-norm vectors, one row per vocabulary word."""
        return self._matrix

    def index_of(self, word: str) -> int | None:
        """Row of ``word`` in :attr:`matrix`, or ``None`` if OOV."""
        return self._index.get(word)

    def get(self, word: str) -> np.ndarray | None:
        """Unit-norm vector of ``word`` or ``None`` if out of vocabulary."""
        idx = self._index.get(word)
        return None if idx is None else self._matrix[idx]

    def centroid(self, words: Iterable[str]) -> np.ndarray | None:
        """Mean vector of the in-vocabulary ``words`` (``W(v)`` in Eq. 6)."""
        rows = [self._index[w] for w in words if w in self._index]
        if not rows:
            return None
        return self._matrix[rows].mean(axis=0)

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity of two words (0 if either is OOV)."""
        va, vb = self.get(a), self.get(b)
        if va is None or vb is None:
            return 0.0
        return float(va @ vb)

    def most_similar(self, word: str, k: int = 5) -> list[tuple[str, float]]:
        """``k`` nearest vocabulary words by cosine."""
        vec = self.get(word)
        if vec is None:
            return []
        scores = self._matrix @ vec
        order = np.argsort(-scores)
        vocab = self.vocabulary
        out: list[tuple[str, float]] = []
        for idx in order:
            if vocab[idx] != word:
                out.append((vocab[idx], float(scores[idx])))
            if len(out) == k:
                break
        return out


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two dense vectors (Eq. 6)."""
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def train_title_embeddings(
    titles: Iterable[str],
    dim: int = 64,
    window: int = 4,
    min_count: int = 2,
    seed: int = 0,
) -> WordEmbeddings:
    """Train PPMI-SVD word vectors on an iterable of titles.

    Args:
        titles: The corpus titles.
        dim: Embedding dimensionality (clamped to vocabulary size - 1).
        window: Symmetric co-occurrence window within a title.
        min_count: Minimum corpus frequency for a word to enter the
            vocabulary.
        seed: Seed for the SVD starting vector (determinism).
    """
    token_lists = [tokenize(t) for t in titles]
    counts: Counter[str] = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    vocabulary = sorted(w for w, c in counts.items() if c >= min_count)
    if len(vocabulary) < 2:
        raise ValueError("vocabulary too small to train embeddings")
    index = {w: i for i, w in enumerate(vocabulary)}

    cooc = _cooccurrence_matrix(token_lists, index, window)
    ppmi = _ppmi(cooc)
    k = min(dim, ppmi.shape[0] - 1)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(min(ppmi.shape))
    u, s, _vt = svds(ppmi, k=k, v0=v0)
    # svds returns ascending singular values; order is irrelevant for cosine
    # but we keep the conventional descending layout.
    order = np.argsort(-s)
    vectors = u[:, order] * np.sqrt(s[order])
    return WordEmbeddings(vocabulary, vectors)


def _cooccurrence_matrix(
    token_lists: list[list[str]],
    index: Mapping[str, int],
    window: int,
) -> sparse.csr_matrix:
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for tokens in token_lists:
        ids = [index[t] for t in tokens if t in index]
        for i, wi in enumerate(ids):
            for j in range(max(0, i - window), min(len(ids), i + window + 1)):
                if i != j:
                    rows.append(wi)
                    cols.append(ids[j])
                    vals.append(1.0)
    n = len(index)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(n, n), dtype=np.float64
    )


def _ppmi(cooc: sparse.csr_matrix) -> sparse.csr_matrix:
    """Positive pointwise mutual information transform of a count matrix."""
    total = cooc.sum()
    if total == 0:
        return cooc
    row_sums = np.asarray(cooc.sum(axis=1)).ravel()
    col_sums = np.asarray(cooc.sum(axis=0)).ravel()
    coo = cooc.tocoo()
    with np.errstate(divide="ignore"):
        pmi = np.log(
            (coo.data * total)
            / (row_sums[coo.row] * col_sums[coo.col])
        )
    positive = np.maximum(pmi, 0.0)
    out = sparse.csr_matrix(
        (positive, (coo.row, coo.col)), shape=cooc.shape, dtype=np.float64
    )
    out.eliminate_zeros()
    return out
