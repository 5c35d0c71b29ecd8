"""Text substrate: tokenisation, keyword extraction, PPMI-SVD embeddings."""

from .embeddings import WordEmbeddings, cosine, train_title_embeddings
from .tokenize import (
    STOP_WORDS,
    corpus_word_frequencies,
    extract_keywords,
    tokenize,
)

__all__ = [
    "STOP_WORDS",
    "WordEmbeddings",
    "corpus_word_frequencies",
    "cosine",
    "extract_keywords",
    "tokenize",
    "train_title_embeddings",
]
