"""Title tokenisation and keyword extraction.

γ3/γ4 (Section V-B2) work on *keywords* from paper titles: stop words are
excluded so that what remains carries the author's research interests.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable

_TOKEN_RE = re.compile(r"[a-z][a-z0-9]+")

#: Standard English stop words plus title boilerplate.  The paper excludes
#: "the stop words or the frequent words in paper titles".
STOP_WORDS = frozenset(
    """
    a an and are as at be by for from has have in is it its of on or that
    the this to was were will with we you your our their i not no do does
    can could should would may might must about above after again against
    all am any because been before being below between both but did down
    during each few further here how if into more most much my nor off
    once only other out over own same so some such than then there these
    they those through too under until up very what when where which while
    who whom why
    toward towards using based via
    """.split()
)


def tokenize(text: str) -> list[str]:
    """Lower-case word tokens of ``text`` (alphanumeric, len >= 2)."""
    return _TOKEN_RE.findall(text.lower())


def extract_keywords(title: str) -> list[str]:
    """Keywords of one title: its tokens minus stop words."""
    return [tok for tok in tokenize(title) if tok not in STOP_WORDS]


def corpus_word_frequencies(titles: Iterable[str]) -> Counter[str]:
    """``F_B(b)``: occurrence count of every word over all titles (Eq. 7)."""
    counts: Counter[str] = Counter()
    for title in titles:
        counts.update(tokenize(title))
    return counts
