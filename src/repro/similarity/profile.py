"""Vertex profiles and the six-dimensional similarity computer.

Stage 2 (Section V-B) scores every candidate pair of same-name SCN vertices
with a similarity vector ``γ = (γ1 … γ6)``:

======  =======  ===================================  =========================
γ       paper    What it measures                     Module
======  =======  ===================================  =========================
γ1      Eq. 3    normalised WL sub-graph kernel       :mod:`..graphs.wl`
γ2      Eq. 5    co-author clique coincidence ratio   :mod:`.structural`
γ3      Eq. 6    research-interest cosine             :mod:`.interests`
γ4      Eq. 7    time consistency of interests        :mod:`.interests`
γ5      Eq. 8    representative-community similarity  :mod:`.community`
γ6      Eq. 9    research-community (Adamic/Adar)     :mod:`.community`
======  =======  ===================================  =========================

Profiles are built from a vertex's attributed papers, which under the
per-occurrence mention model are exactly the papers of the mentions the
vertex owns — one occurrence per paper, so a homonym paper contributes its
title/venue/year evidence to *both* co-author vertices, once each.

Scoring has one path and one test oracle:

* :meth:`SimilarityComputer.pair_matrix` — the scoring path for every pair
  list, whatever its length.  It builds the columns of every cache-missing
  vertex of a call in one vectorised pass
  (:meth:`SimilarityComputer._build_columns` gathers papers, and WL labels
  and triangles in one :func:`~repro.graphs.ego.ego_features` pass;
  :meth:`.batch.BatchSimilarityEngine.build` reduces them) and
  evaluates all six γ's for the whole list with the numpy join kernel of
  :mod:`.batch`.  It never builds a :class:`VertexProfile`.
* :meth:`SimilarityComputer.similarity_vector` (and
  :meth:`SimilarityComputer.pair_matrix_perpair` over a list) — the scalar
  reference, one pair at a time through the per-function modules above,
  reading a cached :class:`VertexProfile` per vertex (keywords, venues,
  years, triangles, WL features).  Only tests and benchmarks call it, as
  the oracle the join kernel is checked against.

Cache invalidation: profiles and columns depend on the vertex's own
papers *and* on its radius-``wl_iterations`` neighbourhood (WL features
span that ball; triangles span 1 hop).  :meth:`SimilarityComputer.invalidate`
therefore drops both caches over the whole BFS ball around a touched
vertex, and :meth:`SimilarityComputer.rebind` retargets the computer at a
merged network while keeping every profile and column entry not reachable
from a touched vertex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..data.records import Corpus
from ..graphs.collab import CollaborationNetwork
from ..graphs.ego import ego_features
from ..graphs.triangles import coauthor_triangle_names
from ..graphs.wl import multi_source_ball, wl_feature_map
from ..text.embeddings import WordEmbeddings, cosine
from ..text.tokenize import corpus_word_frequencies, extract_keywords
from .batch import BatchSimilarityEngine, VertexArrays
from .community import representative_community_similarity, research_community_similarity
from .interests import interest_cosine, time_consistency
from .structural import clique_coincidence

#: Number of similarity functions (``m`` in Section V-C).
N_SIMILARITIES = 6

SIMILARITY_NAMES = (
    "wl_kernel",
    "clique_coincidence",
    "interest_cosine",
    "time_consistency",
    "representative_community",
    "research_community",
)


@dataclass(slots=True)
class VertexProfile:
    """Cached per-vertex state feeding the six similarity functions."""

    vid: int
    name: str
    n_papers: int
    keywords: Counter[str]
    keyword_years: dict[str, tuple[int, int]]  # word -> (min year, max year)
    centroid: np.ndarray | None
    venues: Counter[str]
    top_venue: str | None
    triangles: frozenset[frozenset[str]]
    wl_features: Counter = field(default_factory=Counter)


class SimilarityComputer:
    """Computes ``γ`` vectors for vertex pairs of a collaboration network."""

    def __init__(
        self,
        net: CollaborationNetwork,
        corpus: Corpus,
        embeddings: WordEmbeddings | None = None,
        word_frequencies: Mapping[str, int] | None = None,
        wl_iterations: int = 2,
        decay_alpha: float = 0.62,
        frequent_keywords: frozenset[str] = frozenset(),
        venue_frequencies: Mapping[str, int] | None = None,
    ):
        """
        Args:
            net: The (stable) collaboration network being scored.
            corpus: The underlying paper database.
            embeddings: Keyword vectors for γ3; when ``None``, γ3 falls back
                to keyword-multiset cosine (no semantic generalisation).
            word_frequencies: ``F_B`` of Eq. 7; computed from the corpus
                titles when omitted.
            wl_iterations: ``h`` of the WL kernel (Eq. 3).
            decay_alpha: α of Eq. 7 (0.62 in the paper, from FutureRank).
            frequent_keywords: Words excluded from keyword profiles.
            venue_frequencies: ``F_H`` of Eq. 9; taken from ``corpus`` when
                omitted.  Shard workers pass the *whole-corpus* tables here
                (and in ``word_frequencies``) while scoring against a
                sub-corpus, so γ4/γ6 match the single-process fit exactly.
        """
        self.net = net
        self.corpus = corpus
        self.embeddings = embeddings
        self.wl_iterations = wl_iterations
        self.decay_alpha = decay_alpha
        self.frequent_keywords = frequent_keywords
        if word_frequencies is None:
            word_frequencies = corpus_word_frequencies(
                p.title for p in corpus
            )
        self.word_frequencies = word_frequencies
        if venue_frequencies is None:
            venue_frequencies = corpus.venue_frequencies
        self.venue_frequencies = venue_frequencies
        self._profiles: dict[int, VertexProfile] = {}
        # Papers are immutable, so their extracted keywords are memoised
        # across vertices (co-authors share papers) and across profile
        # rebuilds after invalidation — tokenising titles repeatedly was
        # a measurable slice of profile construction on hot paths.
        self._paper_keywords: dict[int, tuple[str, ...]] = {}
        self._engine = BatchSimilarityEngine(
            self.word_frequencies, self.venue_frequencies, embeddings
        )

    # ------------------------------------------------------------------ #
    def profile(self, vid: int) -> VertexProfile:
        """The (cached) profile of vertex ``vid``."""
        cached = self._profiles.get(vid)
        if cached is not None:
            return cached
        profile = self._build_profile(vid)
        self._profiles[vid] = profile
        return profile

    def is_cached(self, vid: int) -> bool:
        """Whether ``vid`` has a cached profile or cached columns (for
        tests/tools); the batched path caches only columns."""
        return vid in self._profiles or vid in self._engine

    def _drop(self, vid: int) -> None:
        self._profiles.pop(vid, None)
        self._engine.invalidate(vid)

    def invalidate(self, vid: int) -> None:
        """Drop every cached profile ``vid``'s change can have stained.

        Incremental mode mutates GCN vertices when a new paper is attached;
        the stale profile must not survive.  WL features reach
        ``wl_iterations`` hops (Eq. 3's radius-``h`` ball), and triangle
        sets reach one hop, so every vertex within
        ``max(1, wl_iterations)`` hops of ``vid`` is dropped as well — a
        1-hop-only invalidation would leave 2-hop neighbours serving stale
        γ1 values after an edge insertion.
        """
        self.invalidate_many((vid,))

    def invalidate_many(self, vids: Iterable[int]) -> None:
        """Ball-invalidate several vertices with one multi-source BFS.

        Equivalent to calling :meth:`invalidate` per vertex but traverses
        the (largely overlapping) balls once — the per-paper hot path of
        incremental mode batches its edge endpoints through here.
        """
        present: list[int] = []
        for vid in vids:
            if vid in self.net:
                present.append(vid)
            else:
                self._drop(vid)
        for vid in multi_source_ball(
            self.net, present, max(1, self.wl_iterations)
        ):
            self._drop(vid)

    def invalidate_exact(self, vids: Iterable[int]) -> None:
        """Drop exactly the given cached profiles — no ball traversal.

        For callers that already computed the affected region themselves:
        the streaming walk derives each paper's invalidation set from the
        same multi-source BFS it runs for dependency staining, so
        re-walking the ball here (as :meth:`invalidate_many` would) would
        do the traversal twice.  The caller owns the correctness of the
        set; when in doubt use :meth:`invalidate` / :meth:`invalidate_many`.
        """
        for vid in vids:
            self._drop(vid)

    def attach_paper(self, vid: int, pid: int) -> None:
        """Fold one newly attributed paper into ``vid``'s cached state.

        The incremental path's attach operation changes no adjacency, so
        the expensive ingredients — WL features and triangles — are
        reusable verbatim, in the cached profile and in the cached
        columns alike; only the keyword/venue/year/centroid state moves.
        Updating in place instead of dropping saves a full rebuild per
        later read of the vertex, the dominant cost of streaming into
        hot name blocks.

        The moved state is re-derived in the canonical ascending-paper-id
        order a from-scratch build uses, whatever ``pid`` is, so the
        updated profile and columns are bit-identical to a rebuild: γ
        after the attach equals what a fresh computer (a resumed
        process) computes on the same network.
        """
        profile = self._profiles.get(vid)
        if profile is not None:
            self._fill_papers(profile)
        if vid in self._engine:
            self._engine.refresh_papers(vid, self._paper_slots(vid))

    def rebind(
        self,
        net: CollaborationNetwork,
        touched: Iterable[int] = (),
    ) -> None:
        """Retarget the computer at ``net``, keeping unaffected profiles.

        Used between Stage-2 merge rounds: ``net`` is the merged network
        (built with ``preserve_ids=True`` so surviving vertices keep their
        ids), and ``touched`` names the vertices whose neighbourhood
        changed — merge representatives, endpoints of recovered edges.
        Profiles and columns of vertices that no longer exist are dropped
        (a merge can lower the next vid, so a later vertex may reuse the
        id), as is the BFS ball (radius ``max(1, wl_iterations)``) around
        every touched vertex; everything else persists, including the
        engine's interned feature columns.
        """
        self.net = net
        cached = set(self._profiles).union(self._engine.cached_vids())
        for vid in [v for v in cached if v not in net]:
            self._drop(vid)
        # Touched sets can cover much of the network (e.g. relation
        # recovery), so their balls are unioned in one BFS.
        self.invalidate_many(touched)

    def _keywords_of(self, pid: int) -> tuple[str, ...]:
        words = self._paper_keywords.get(pid)
        if words is None:
            words = tuple(
                extract_keywords(self.corpus[pid].title, self.frequent_keywords)
            )
            self._paper_keywords[pid] = words
        return words

    def _build_profile(self, vid: int) -> VertexProfile:
        vertex = self.net.vertex(vid)
        profile = VertexProfile(
            vid=vid,
            name=vertex.name,
            n_papers=0,
            keywords=Counter(),
            keyword_years={},
            centroid=None,
            venues=Counter(),
            top_venue=None,
            triangles=frozenset(coauthor_triangle_names(self.net, vid)),
            wl_features=wl_feature_map(
                self.net, vid, self.wl_iterations, self._engine.wl_labels
            ),
        )
        self._fill_papers(profile)
        return profile

    def _fill_papers(self, profile: VertexProfile) -> None:
        """(Re)derive ``profile``'s paper state from the vertex's papers."""
        vertex = self.net.vertex(profile.vid)
        keywords: Counter[str] = Counter()
        keyword_years: dict[str, tuple[int, int]] = {}
        venues: Counter[str] = Counter()
        # Canonical paper order: set iteration order does not survive a
        # pickle round trip, and the insertion order of these counters
        # decides float accumulation order downstream (γ3 centroids, γ4/γ6
        # weighted sums).  Sorting keeps profiles bit-identical between a
        # parent process and a shard worker that received the network over
        # a pipe — the property the shard-vs-global parity tests pin.
        for pid in sorted(vertex.papers):
            paper = self.corpus[pid]
            venues[paper.venue] += 1
            for word in self._keywords_of(pid):
                keywords[word] += 1
                lo, hi = keyword_years.get(word, (paper.year, paper.year))
                keyword_years[word] = (min(lo, paper.year), max(hi, paper.year))
        profile.n_papers = len(vertex.papers)
        profile.keywords = keywords
        profile.keyword_years = keyword_years
        profile.venues = venues
        profile.top_venue = venues.most_common(1)[0][0] if venues else None
        profile.centroid = (
            self.embeddings.centroid(keywords) if self.embeddings else None
        )

    def _paper_slots(self, vid: int) -> list[int]:
        """Registry slots of ``vid``'s papers in ascending paper id,
        registering papers the engine has not seen yet."""
        slot_of = self._engine.paper_slot
        slots: list[int] = []
        for pid in sorted(self.net.vertex(vid).papers):
            slot = slot_of(pid)
            if slot is None:
                paper = self.corpus[pid]
                slot = self._engine.register_paper(
                    pid, self._keywords_of(pid), paper.year, paper.venue
                )
            slots.append(slot)
        return slots

    def _build_columns(self, vids: list[int]) -> list[VertexArrays]:
        """Columns of the given vertices in one engine pass.

        Papers are registered vertex by vertex in ascending vid and paper
        id, so keywords and venues are interned in the same first-seen
        order a profile-by-profile build would use.  WL labels and
        triangles of the whole block come from one
        :func:`~repro.graphs.ego.ego_features` pass over a local int CSR
        of the union of the block's balls: refined WL labels are interned
        as exact ``bytes`` keys (own label, then sorted neighbour labels,
        as int64) and triangles as pairs of name labels, straight into
        column ids.
        """
        engine = self._engine
        n_papers: list[int] = []
        slots: list[int] = []
        for vid in vids:
            vertex_slots = self._paper_slots(vid)
            n_papers.append(len(vertex_slots))
            slots.extend(vertex_slots)
        wl, tri = ego_features(
            self.net,
            vids,
            self.wl_iterations,
            engine.wl_labels,
            engine.triangles,
        )
        return engine.build(vids, n_papers, slots, wl, tri)

    # ------------------------------------------------------------------ #
    def similarity_vector(self, u: int, v: int) -> np.ndarray:
        """``γ`` for the vertex pair ``(u, v)`` — six non-negative reals
        except γ3 which lives in ``[-1, 1]``."""
        pu, pv = self.profile(u), self.profile(v)
        tau = max(1, min(pu.n_papers, pv.n_papers))
        gamma = np.empty(N_SIMILARITIES, dtype=np.float64)
        gamma[0] = self._wl(pu, pv)
        gamma[1] = clique_coincidence(pu.triangles, pv.triangles, tau)
        gamma[2] = self._interest(pu, pv)
        gamma[3] = time_consistency(
            pu.keyword_years,
            pv.keyword_years,
            self.word_frequencies,
            tau,
            self.decay_alpha,
        )
        gamma[4] = representative_community_similarity(
            pu.venues, pv.venues, pu.top_venue, pv.top_venue, tau
        )
        gamma[5] = research_community_similarity(
            pu.venues, pv.venues, self.venue_frequencies, tau
        )
        return gamma

    def _wl(self, pu: VertexProfile, pv: VertexProfile) -> float:
        from ..graphs.wl import normalized_wl_kernel

        return normalized_wl_kernel(pu.wl_features, pv.wl_features)

    def _interest(self, pu: VertexProfile, pv: VertexProfile) -> float:
        if pu.centroid is not None and pv.centroid is not None:
            return cosine(pu.centroid, pv.centroid)
        return interest_cosine(pu.keywords, pv.keywords)

    # ------------------------------------------------------------------ #
    def pair_matrix(
        self,
        pairs: Sequence[tuple[int, int]],
        transient: frozenset[int] = frozenset(),
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Similarity vectors for many pairs, stacked into ``(n, 6)``.

        Every list, of any length, is scored by
        :meth:`pair_matrix_batched`; the scalar oracle
        :meth:`pair_matrix_perpair` agrees with it to well below 1e-9.

        ``transient`` names score-once-and-discard vertices: their
        columnar arrays are built for this call but do not linger in the
        cache afterwards.  Use it when the vertices will never be scored
        again; callers that re-read their probes (the streaming walk
        patches stale pairs against the same probes later) deliberately
        leave them cacheable.

        ``out`` optionally supplies the ``(n, 6)`` float64 result buffer
        — the sharded executor's workers pass shared-memory views here
        so γ results never round-trip through pickle.
        """
        return self.pair_matrix_batched(pairs, transient=transient, out=out)

    def pair_matrix_perpair(
        self,
        pairs: Sequence[tuple[int, int]],
        transient: frozenset[int] = frozenset(),
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Scalar oracle: one :meth:`similarity_vector` per pair.

        ``transient`` vertices' profiles are dropped on return.
        """
        if out is None:
            out = np.empty((len(pairs), N_SIMILARITIES), dtype=np.float64)
        elif out.shape != (len(pairs), N_SIMILARITIES):
            raise ValueError(
                f"out buffer has shape {out.shape}, expected "
                f"{(len(pairs), N_SIMILARITIES)}"
            )
        for row, (u, v) in enumerate(pairs):
            out[row] = self.similarity_vector(u, v)
        for vid in transient:
            self._profiles.pop(vid, None)
        return out

    def pair_matrix_batched(
        self,
        pairs: Sequence[tuple[int, int]],
        transient: frozenset[int] = frozenset(),
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorised path: all six γ's over the whole list at once."""
        return self._engine.gamma_matrix(
            pairs,
            self._build_columns,
            self.decay_alpha,
            transient=transient,
            out=out,
        )
