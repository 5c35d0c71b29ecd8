"""Core record types: papers, author mentions, and the corpus container.

The input of IUAD (paper, Section III-A) is a paper database where every
paper carries four attributes: the co-author list, the title, the published
venue, and the published year.  ``Paper`` models exactly that record;
``Corpus`` is the indexed container the rest of the library consumes.

The atomic unit of the bottom-up view is the :class:`Mention` — one author
*occurrence* identified by ``(paper, name, position)``.  Identity is
positional, not name-keyed: a paper may legitimately list the same name
twice (two homonymous co-authors), and every layer of the pipeline — the
Stage-1 SCN builder, Stage-2 candidate generation, the incremental path and
the evaluation harness — resolves mentions at occurrence granularity, so
the two homonyms are distinct vertices end to end (see
``docs/architecture.md``).

Ground-truth author identities (available for synthetic corpora and for
labelled evaluation subsets) ride along in ``Paper.author_ids`` but are never
read by the disambiguation pipeline itself — only by the evaluation harness.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True, slots=True)
class Paper:
    """A single bibliographic record.

    Attributes:
        pid: Unique integer id of the paper within its corpus.
        authors: Author *names* in list order (names may be ambiguous).
        title: Paper title (free text; tokenised downstream).
        venue: Publication venue (journal or conference key).
        year: Publication year.
        author_ids: Optional ground-truth author identities, parallel to
            ``authors``.  ``None`` when the corpus is unlabelled.
    """

    pid: int
    authors: tuple[str, ...]
    title: str
    venue: str
    year: int
    author_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.author_ids is not None and len(self.author_ids) != len(self.authors):
            raise ValueError(
                f"paper {self.pid}: author_ids length {len(self.author_ids)} "
                f"!= authors length {len(self.authors)}"
            )
        # A name may legitimately appear twice — two homonymous co-authors
        # on one paper (rare but real).  Mention identity is positional
        # (:class:`Mention`), so every layer keeps the two occurrences on
        # distinct vertices.  What *is* malformed is the same ground-truth
        # identity listed twice: an author co-authors with themselves.
        if self.author_ids is not None and len(set(self.author_ids)) != len(
            self.author_ids
        ):
            raise ValueError(
                f"paper {self.pid}: duplicate author ids in co-author list"
            )

    @property
    def labelled(self) -> bool:
        """Whether ground-truth author identities are attached."""
        return self.author_ids is not None

    def author_ids_of(self, name: str) -> tuple[int, ...]:
        """All ground-truth ids behind ``name`` on this paper, in list order.

        Normally a single element; two for a paper listing homonymous
        co-authors (the same name twice).
        """
        if self.author_ids is None:
            raise ValueError(f"paper {self.pid} carries no ground-truth labels")
        return tuple(
            aid
            for n, aid in zip(self.authors, self.author_ids)
            if n == name
        )

    def author_id_of(self, name: str) -> int:
        """Return the ground-truth author id behind ``name`` on this paper.

        Raises for a name listed twice (two homonymous co-authors): the
        name alone cannot identify the mention — use :meth:`positions_of`
        with :meth:`author_id_at`, or :meth:`author_ids_of`, instead.
        """
        ids = self.author_ids_of(name)
        if not ids:
            raise ValueError(f"paper {self.pid}: no author named {name!r}")
        if len(ids) > 1:
            raise ValueError(
                f"paper {self.pid}: name {name!r} is listed more than once; "
                "mention identity is positional, not name-keyed"
            )
        return ids[0]

    def positions_of(self, name: str) -> tuple[int, ...]:
        """Co-author-list positions at which ``name`` appears.

        Normally a single position; two for a paper listing homonymous
        co-authors.  Positions are the identity axis of :class:`Mention`.
        """
        return tuple(i for i, n in enumerate(self.authors) if n == name)

    def author_id_at(self, position: int) -> int:
        """Ground-truth author id of the mention at ``position``."""
        if self.author_ids is None:
            raise ValueError(f"paper {self.pid} carries no ground-truth labels")
        if not 0 <= position < len(self.authors):
            raise ValueError(
                f"paper {self.pid}: position {position} out of range "
                f"(co-author list has {len(self.authors)} entries)"
            )
        return self.author_ids[position]

    def mentions(self) -> Iterator["Mention"]:
        """All author mentions of this paper, in co-author-list order."""
        for position, name in enumerate(self.authors):
            yield Mention(self.pid, name, position)

    def to_json(self) -> str:
        """Serialise to a single JSON line (see :meth:`from_json`)."""
        payload: dict[str, object] = {
            "pid": self.pid,
            "authors": list(self.authors),
            "title": self.title,
            "venue": self.venue,
            "year": self.year,
        }
        if self.author_ids is not None:
            payload["author_ids"] = list(self.author_ids)
        return json.dumps(payload, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "Paper":
        """Parse a paper from a JSON line produced by :meth:`to_json`."""
        raw = json.loads(line)
        ids = raw.get("author_ids")
        return cls(
            pid=int(raw["pid"]),
            authors=tuple(raw["authors"]),
            title=str(raw["title"]),
            venue=str(raw["venue"]),
            year=int(raw["year"]),
            author_ids=tuple(ids) if ids is not None else None,
        )


@dataclass(frozen=True, slots=True)
class Mention:
    """One author *occurrence*: a ``(paper, name, position)`` triple.

    A mention is the atomic unit of the bottom-up view: before any merging,
    every mention is presumed to be a distinct author (paper, Section I).
    ``position`` is the index into the paper's co-author list, which makes
    the identity robust to homonymous co-authors — a paper listing the same
    name twice yields two distinct mentions.

    >>> from repro.data.records import Mention
    >>> Mention(pid=7, name="Wei Wang", position=2)
    Mention(pid=7, name='Wei Wang', position=2)

    """

    pid: int
    name: str
    position: int


class Corpus:
    """An indexed collection of :class:`Paper` records.

    Builds the per-name inverted index and venue frequency table (``F_H``
    in Eq. 9) once, at construction time; :meth:`add` keeps both current.
    """

    def __init__(self, papers: Iterable[Paper]):
        self._papers: dict[int, Paper] = {}
        self._by_name: dict[str, list[int]] = defaultdict(list)
        self._venue_freq: Counter[str] = Counter()
        for paper in papers:
            if paper.pid in self._papers:
                raise ValueError(f"duplicate paper id {paper.pid}")
            self._papers[paper.pid] = paper
            for name in paper.authors:
                self._by_name[name].append(paper.pid)
            self._venue_freq[paper.venue] += 1
        self._by_name = dict(self._by_name)

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._papers)

    def __iter__(self) -> Iterator[Paper]:
        return iter(self._papers.values())

    def __contains__(self, pid: int) -> bool:
        return pid in self._papers

    def __getitem__(self, pid: int) -> Paper:
        return self._papers[pid]

    def add(self, paper: Paper) -> None:
        """Append a newly published paper, updating all indexes.

        Used by the incremental disambiguation mode (Section V-E), where new
        papers stream into an already-built corpus one at a time.
        """
        if paper.pid in self._papers:
            raise ValueError(f"duplicate paper id {paper.pid}")
        self._papers[paper.pid] = paper
        for name in paper.authors:
            self._by_name.setdefault(name, []).append(paper.pid)
        self._venue_freq[paper.venue] += 1

    # ------------------------------------------------------------------ #
    # indexed views
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> Sequence[str]:
        """All distinct author names appearing in the corpus."""
        return list(self._by_name)

    def papers_of_name(self, name: str) -> list[int]:
        """Paper ids on which ``name`` appears (empty list if unknown)."""
        return list(self._by_name.get(name, ()))

    def name_frequency(self, name: str) -> int:
        """Number of papers carrying ``name`` (``n_a`` in Section IV-A)."""
        return len(self._by_name.get(name, ()))

    def venue_frequency(self, venue: str) -> int:
        """Number of papers published in ``venue`` (``F_H(h)`` in Eq. 9)."""
        return self._venue_freq.get(venue, 0)

    @property
    def venue_frequencies(self) -> Mapping[str, int]:
        """The full venue frequency table."""
        return dict(self._venue_freq)

    def mentions(self) -> Iterator[Mention]:
        """All author mentions in the corpus, per occurrence."""
        for paper in self:
            yield from paper.mentions()

    @property
    def num_author_paper_pairs(self) -> int:
        """Total author–paper pairs (2,393,969 in the paper's DBLP dump)."""
        return sum(len(p.authors) for p in self)

    # ------------------------------------------------------------------ #
    # slicing
    # ------------------------------------------------------------------ #
    def subset(self, fraction: float, seed: int = 0) -> "Corpus":
        """A random ``fraction`` of the corpus (used by the RQ3 data-scale
        experiments, Figure 5 / Table V)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        pids = sorted(self._papers)
        rng = random.Random(seed)
        keep = rng.sample(pids, k=max(1, int(round(fraction * len(pids)))))
        return Corpus(self._papers[pid] for pid in sorted(keep))

    def restrict_to_years(self, last_year: int) -> "Corpus":
        """Papers published up to and including ``last_year``.

        The incremental experiments (Table VI) split the corpus in time:
        old papers build the GCN, newer papers stream in one by one.
        """
        return Corpus(p for p in self if p.year <= last_year)

    def filter(self, predicate) -> "Corpus":
        """A new corpus containing the papers for which ``predicate`` holds."""
        return Corpus(p for p in self if predicate(p))

    # ------------------------------------------------------------------ #
    # ground truth helpers (evaluation only)
    # ------------------------------------------------------------------ #
    @property
    def labelled(self) -> bool:
        """Whether every paper carries ground-truth author ids."""
        return all(p.labelled for p in self)

    def true_author_of(self, mention: Mention) -> int:
        """Ground-truth author id of a mention (labelled corpora only).

        :class:`Mention` identity is positional, so a paper listing the
        same name twice resolves each occurrence to its own author.
        """
        paper = self[mention.pid]
        if (
            not 0 <= mention.position < len(paper.authors)
            or paper.authors[mention.position] != mention.name
        ):
            raise ValueError(
                f"paper {mention.pid}: no mention of {mention.name!r} "
                f"at position {mention.position}"
            )
        return paper.author_id_at(mention.position)

    def authors_of_name(self, name: str) -> set[int]:
        """Distinct ground-truth authors hiding behind ``name``."""
        out: set[int] = set()
        for pid in self.papers_of_name(name):
            out.update(self[pid].author_ids_of(name))
        return out

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save_jsonl(self, path: str) -> None:
        """Write the corpus as one JSON line per paper."""
        with open(path, "w", encoding="utf-8") as fh:
            for paper in self:
                fh.write(paper.to_json() + "\n")

    @classmethod
    def load_jsonl(cls, path: str) -> "Corpus":
        """Load a corpus previously written by :meth:`save_jsonl`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls(Paper.from_json(line) for line in fh if line.strip())


@dataclass(slots=True)
class CorpusStats:
    """Descriptive statistics of a corpus (paper, Section VI-A1)."""

    num_papers: int
    num_names: int
    num_author_paper_pairs: int
    num_venues: int
    year_range: tuple[int, int]
    num_true_authors: int | None = None
    extra: dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, corpus: Corpus) -> "CorpusStats":
        """Compute the statistics of ``corpus``."""
        years = [p.year for p in corpus]
        true_authors: set[int] | None = None
        if corpus.labelled and len(corpus) > 0:
            true_authors = set()
            for paper in corpus:
                true_authors.update(paper.author_ids or ())
        return cls(
            num_papers=len(corpus),
            num_names=len(corpus.names),
            num_author_paper_pairs=corpus.num_author_paper_pairs,
            num_venues=len(corpus.venue_frequencies),
            year_range=(min(years), max(years)) if years else (0, 0),
            num_true_authors=len(true_authors) if true_authors is not None else None,
        )
