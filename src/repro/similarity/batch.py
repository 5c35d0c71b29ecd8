"""Batched similarity engine: vectorised γ1–γ6 over whole pair lists.

This is the one scoring path of Stage 2: every pair list, from a single
streamed probe pair to a whole merge round's candidate set, goes through
:meth:`BatchSimilarityEngine.gamma_matrix`.  (The per-pair path in
:mod:`.profile` walks Python dicts one pair at a time and serves as the
test oracle.)  The engine keeps a *columnar* store of per-vertex state —
every per-vertex feature multiset (keywords, venues, WL labels,
triangles) is interned into a global column space and stored as sorted
``(column, value)`` arrays — and scores a pair list with one numpy
sorted-key join per feature family (:func:`_join`): the family's rows are
laid end to end as keys ``row * width + column``, and every pair probes
its shorter row's columns into the longer row with one ``searchsorted``.
Each γ is then a ``bincount`` over the shared-column hits:

======  =======  ============================  ===============================
γ       paper    per-pair form                 batched form
======  =======  ============================  ===============================
γ1      Eq. 3    WL feature-map dot product    product of the hit counts
γ2      Eq. 5    triangle-set intersection     number of hits
γ3      Eq. 6    centroid / multiset cosine    dense einsum; multiset
                                               fallback from the hit counts
γ4      Eq. 7    shared-keyword year decay     decayed weights of the hits'
                                               year windows
γ5      Eq. 8    representative-venue counts   hits on either side's
                                               representative venue
γ6      Eq. 9    venue Adamic/Adar overlap     weighted min count of the hits
======  =======  ============================  ===============================

Identity model: column caches are keyed by *vertex id*, and a vertex's
papers are derived from its per-occurrence mention payload (``(paper,
name, position)`` — see :mod:`repro.graphs.collab`).  Two homonymous
co-authors of one paper are two vertices, so their columns never alias
even though the underlying paper and name coincide.

Columnar build: every paper is registered once into flat per-paper
columns (its interned keyword columns in title order, its year, its
venue column).  The columns of all cache-missing vertices of one
:meth:`BatchSimilarityEngine.gamma_matrix` call are then produced
together by a few sort/reduce passes over the ``(vertex, paper)``
incidence (:meth:`BatchSimilarityEngine.build`) — keyword counts and
usage-year windows, venue counts and the representative venue, and the
γ3 centroids.  The structural features come from one
:func:`repro.graphs.ego.ego_features` pass per call, run by the owner:
the union of the block's balls becomes a local int CSR, ball membership
and induced edges become ``(ego, vertex)`` rows, and every WL refinement
is one sort plus one interner lookup per row.  A refined label's
interner key is the exact ``bytes`` of one int64 slice (own label, then
sorted neighbour labels), and a triangle's key is its pair of name
labels, so the column ids are exact, never fixed-width hashes.

Cache semantics: the engine caches one :class:`VertexArrays` per vertex
id, built from the owner's network by the columnar pass above — never
copied from a :class:`~.profile.VertexProfile`, which only the scalar
path builds.  The owner (:class:`~.profile.SimilarityComputer`) drops a
vertex's columns together with its profile — see its
``invalidate``/``rebind`` docs for the hop-radius contract — and refreshes
the paper-derived columns in place when a paper is attached.  Interned
column ids are grow-only and keywords/venues are interned in first-seen
(vertex id, paper id, title) order, so cached per-vertex column arrays
stay valid as the vocabulary expands (new papers, new venues).

Numerical contract: every γ matches the scalar path of :mod:`.profile` to
well below 1e-9 (the only differences are floating-point summation order);
``tests/test_batch_engine.py`` pins this down property-style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..text.embeddings import WordEmbeddings

Pair = tuple[int, int]


class FeatureInterner:
    """Grow-only mapping from hashable feature keys to dense column ids."""

    __slots__ = ("_index",)

    def __init__(self) -> None:
        self._index: dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._index)

    def intern(self, key: Hashable) -> int:
        """Column id of ``key``, allocating the next id on first sight."""
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._index)
            self._index[key] = idx
        return idx


class _IntColumn:
    """Grow-only int64 column: appends land in a list and are moved into
    an amortised-doubling numpy buffer when the column is read."""

    __slots__ = ("_data", "_size", "_pending")

    def __init__(self, initial: Iterable[int] = ()) -> None:
        self._data = np.empty(1024, dtype=np.int64)
        self._size = 0
        self._pending: list[int] = list(initial)

    def append(self, value: int) -> None:
        self._pending.append(value)

    def extend(self, values: Iterable[int]) -> None:
        self._pending.extend(values)

    def array(self) -> np.ndarray:
        if self._pending:
            end = self._size + len(self._pending)
            if end > self._data.size:
                grown = np.empty(max(end, 2 * self._data.size), dtype=np.int64)
                grown[: self._size] = self._data[: self._size]
                self._data = grown
            self._data[self._size : end] = self._pending
            self._size = end
            self._pending = []
        return self._data[: self._size]


@dataclass(slots=True)
class VertexArrays:
    """Columnar state of one vertex, as the γ kernels read it.

    All keyword-aligned arrays (``kw_cols``/``kw_counts``/``kw_lohi``)
    share one ordering, sorted by column id — as are the other column
    arrays — so rows laid end to end form the γ join's sorted keys
    without a per-call sort.
    """

    vid: int
    n_papers: int
    kw_cols: np.ndarray        # int64, sorted
    kw_counts: np.ndarray      # float64
    kw_lohi: np.ndarray        # complex128: min year + i·max year
    kw_norm: float             # ‖keyword multiset‖₂
    ven_cols: np.ndarray       # int64, sorted
    ven_counts: np.ndarray     # float64
    top_venue_col: int         # -1 when the vertex has no venues
    tri_cols: np.ndarray       # int64, sorted triangle ids
    wl_cols: np.ndarray        # int64, sorted WL label ids
    wl_counts: np.ndarray      # float64
    wl_norm: float             # sqrt(K⟨h⟩(v, v))
    centroid_norm: float
    cent_slot: int             # row in the engine's dense store, -1 if none


@dataclass(slots=True)
class _PaperColumns:
    """Paper-derived columns of a block of vertices, flat with offsets."""

    kw_ptr: np.ndarray
    kw_cols: np.ndarray
    kw_counts: np.ndarray
    kw_lohi: np.ndarray
    kw_norms: np.ndarray
    ven_ptr: np.ndarray
    ven_cols: np.ndarray
    ven_counts: np.ndarray
    top_cols: np.ndarray
    centroids: np.ndarray | None   # (n_with_centroid, dim) rows ...
    cent_of: np.ndarray            # ... row of each vertex, -1 if none
    cent_norms: np.ndarray


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.empty(0, dtype=np.int64)
    change = np.empty(sorted_keys.size, dtype=bool)
    change[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
    return np.flatnonzero(change)


def _ptr(owner: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of entries grouped by (sorted) owner index ``< n``."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=ptr[1:])
    return ptr


def _grouped(owner: np.ndarray, cols: np.ndarray, width: int):
    """Sort ``(owner, col)`` entries and group equal pairs.

    Returns ``(order, starts, owner, col)``: the stable sort order, the
    start of each group in sorted order, and each group's owner and
    column.  ``order[starts]`` is each group's first entry in input order.
    """
    keys = owner * max(width, 1) + cols
    order = np.argsort(keys, kind="stable")
    starts = _group_starts(keys[order])
    first = order[starts]
    return order, starts, owner[first], cols[first]


def _split(flat: np.ndarray, ptr: list[int]) -> list[np.ndarray]:
    return [flat[a:b] for a, b in zip(ptr[:-1], ptr[1:])]


def _join(
    cols: list[np.ndarray], width: int, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns shared by rows ``us[i]`` and ``vs[i]`` of every pair.

    ``cols`` holds one sorted column array per row (all ``< width``).  The
    rows are laid end to end as keys ``row * width + col``, which are
    therefore sorted globally; every pair re-bases its shorter row's
    columns onto the longer row and finds them among those keys with one
    ``searchsorted`` for the whole list.

    Returns ``(pair, at_u, at_v, col)``, one entry per shared column: the
    pair index, the flat positions of the column in the ``us`` and ``vs``
    rows, and the column id.  Hits are pair-major and in ascending column
    within a pair, so a ``bincount`` over ``pair`` sums each pair's terms
    in column order.
    """
    lengths = np.fromiter(
        (c.size for c in cols), dtype=np.int64, count=len(cols)
    )
    ptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    flat = np.concatenate(cols)
    width = max(width, 1)
    keys = np.repeat(np.arange(len(cols), dtype=np.int64) * width, lengths)
    keys += flat
    u_short = lengths[us] <= lengths[vs]
    short = np.where(u_short, us, vs)
    n_probe = lengths[short]
    pair = np.repeat(np.arange(us.size), n_probe)
    probe = np.arange(pair.size) + np.repeat(
        ptr[short] - (np.cumsum(n_probe) - n_probe), n_probe
    )
    target = np.where(u_short, vs, us)[pair] * width + flat[probe]
    pos = np.minimum(np.searchsorted(keys, target), keys.size - 1)
    hit = keys[pos] == target
    pair, probe, pos = pair[hit], probe[hit], pos[hit]
    u_probed = u_short[pair]
    return (
        pair,
        np.where(u_probed, probe, pos),
        np.where(u_probed, pos, probe),
        flat[probe],
    )


def _ratio(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``num / denom``, 0 where ``denom`` is 0."""
    return np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0)


class BatchSimilarityEngine:
    """Round-persistent columnar store + vectorised γ evaluation.

    One engine lives inside each :class:`~.profile.SimilarityComputer`; the
    interners (and thus column ids) and the per-paper registry persist for
    the computer's lifetime, so per-vertex arrays survive merge rounds
    untouched unless explicitly invalidated.
    """

    def __init__(
        self,
        word_frequencies: Mapping[str, int],
        venue_frequencies: Mapping[str, int],
        embeddings: WordEmbeddings | None = None,
    ) -> None:
        self._word_frequencies = word_frequencies
        self._venue_frequencies = venue_frequencies
        self._embeddings = embeddings
        self._kw = FeatureInterner()
        self._kw_weight: list[float] = []   # 1 / log(1 + F_B(word)), by col
        self._kw_row = _IntColumn()         # embedding row by col, -1 if OOV
        self._ven = FeatureInterner()
        self._ven_weight: list[float] = []  # 1 / log(1 + F_H(venue)), by col
        #: WL label -> column id, extended in place by
        #: :func:`repro.graphs.ego.ego_features` (names as ``str``, refined
        #: labels as exact ``bytes`` of own label + sorted neighbour
        #: labels) and by the scalar oracle's
        #: :func:`repro.graphs.wl.wl_feature_map` (tuple keys); the key
        #: types never collide, and each path compares only its own ids.
        self.wl_labels: dict[Hashable, int] = {}
        #: ``(name label, name label)`` triangle key -> column id, extended
        #: in place by :func:`repro.graphs.ego.ego_features`.
        self.triangles: dict[Hashable, int] = {}
        self._arrays: dict[int, VertexArrays] = {}
        self._kw_weight_arr = np.empty(0, dtype=np.float64)
        self._ven_weight_arr = np.empty(0, dtype=np.float64)
        # Per-paper registry: slot of each registered pid, and flat
        # columns by slot (keyword columns in title order via offsets).
        self._paper_slot: dict[int, int] = {}
        self._paper_kw_ptr = _IntColumn((0,))
        self._paper_kw = _IntColumn()
        self._n_paper_kw = 0
        self._paper_year = _IntColumn()
        self._paper_venue = _IntColumn()
        # Contiguous centroid store: vertices with a γ3 centroid own a row
        # (``cent_slot``); freed slots are recycled on invalidation.
        self._cent_matrix: np.ndarray | None = None
        self._cent_free: list[int] = []
        self._cent_used = 0

    # ------------------------------------------------------------------ #
    # cache maintenance
    # ------------------------------------------------------------------ #
    def invalidate(self, vid: int) -> None:
        """Drop the cached columnar arrays of ``vid``."""
        arrays = self._arrays.pop(vid, None)
        if arrays is not None and arrays.cent_slot >= 0:
            self._cent_free.append(arrays.cent_slot)

    def clear(self) -> None:
        """Drop every cached per-vertex array (interners are kept)."""
        self._arrays.clear()
        self._cent_free.clear()
        self._cent_used = 0

    def cached_vids(self) -> list[int]:
        """Vertex ids whose columns are cached."""
        return list(self._arrays)

    def __contains__(self, vid: int) -> bool:
        return vid in self._arrays

    # ------------------------------------------------------------------ #
    # interning and paper registration
    # ------------------------------------------------------------------ #
    def _intern_keyword(self, word: str) -> int:
        before = len(self._kw)
        idx = self._kw.intern(word)
        if len(self._kw) != before:
            freq = self._word_frequencies.get(word, 1)
            self._kw_weight.append(1.0 / math.log(1.0 + freq))
            row = (
                self._embeddings.index_of(word)
                if self._embeddings is not None
                else None
            )
            self._kw_row.append(-1 if row is None else row)
        return idx

    def _intern_venue(self, venue: str) -> int:
        before = len(self._ven)
        idx = self._ven.intern(venue)
        if len(self._ven) != before:
            freq = self._venue_frequencies.get(venue, 1)
            self._ven_weight.append(1.0 / math.log(1.0 + freq))
        return idx

    def paper_slot(self, pid: int) -> int | None:
        """Registry slot of ``pid``, or ``None`` if it is not registered."""
        return self._paper_slot.get(pid)

    def register_paper(
        self, pid: int, words: Sequence[str], year: int, venue: str
    ) -> int:
        """Register one paper's keywords, year and venue; returns its slot.

        Keywords and the venue are interned here, so callers register
        papers in the order their words should first be seen.
        """
        slot = len(self._paper_slot)
        self._paper_slot[pid] = slot
        self._paper_kw.extend([self._intern_keyword(w) for w in words])
        self._n_paper_kw += len(words)
        self._paper_kw_ptr.append(self._n_paper_kw)
        self._paper_year.append(year)
        self._paper_venue.append(self._intern_venue(venue))
        return slot

    def _kw_weights(self) -> np.ndarray:
        if self._kw_weight_arr.size != len(self._kw_weight):
            self._kw_weight_arr = np.asarray(self._kw_weight, dtype=np.float64)
        return self._kw_weight_arr

    def _ven_weights(self) -> np.ndarray:
        if self._ven_weight_arr.size != len(self._ven_weight):
            self._ven_weight_arr = np.asarray(
                self._ven_weight, dtype=np.float64
            )
        return self._ven_weight_arr

    # ------------------------------------------------------------------ #
    # columnar construction
    # ------------------------------------------------------------------ #
    def _paper_columns(
        self, n_papers: np.ndarray, slots: np.ndarray
    ) -> _PaperColumns:
        """Keyword, venue and centroid columns of a block of vertices.

        ``slots`` lists every vertex's registered papers, vertex-major and
        in ascending paper id — the canonical order the scalar profile
        walks, so counts, year windows, the representative-venue
        tie-break and the centroid's row order all match it exactly.
        """
        n = n_papers.size
        inc_vertex = np.repeat(np.arange(n, dtype=np.int64), n_papers)
        kw_ptr_tab = self._paper_kw_ptr.array()
        kw_tab = self._paper_kw.array()

        # Keyword tokens, in (vertex, paper, title) order.
        starts = kw_ptr_tab[slots]
        lengths = kw_ptr_tab[slots + 1] - starts
        n_tok = int(lengths.sum())
        tok_base = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        tok_col = kw_tab[tok_base + np.arange(n_tok, dtype=np.int64)]
        tok_vertex = np.repeat(inc_vertex, lengths)
        tok_year = np.repeat(self._paper_year.array()[slots], lengths)
        order, grp, kw_vertex, kw_cols = _grouped(
            tok_vertex, tok_col, len(self._kw)
        )
        kw_counts = np.diff(np.append(grp, n_tok)).astype(np.float64)
        if n_tok:
            years = tok_year[order].astype(np.float64)
            lo = np.minimum.reduceat(years, grp)
            hi = np.maximum.reduceat(years, grp)
        else:
            lo = hi = np.empty(0, dtype=np.float64)
        # Fuse the usage-year window into one complex layer (lo + i·hi):
        # one gather reads both endpoints of a shared keyword.
        kw_lohi = lo + 1j * hi
        kw_norms = np.sqrt(
            np.bincount(kw_vertex, weights=kw_counts * kw_counts, minlength=n)
        )

        # Venues: counts, and the representative venue — the most
        # frequent one, ties to the venue seen first (Counter.most_common).
        inc_ven = self._paper_venue.array()[slots]
        ven_order, ven_grp, ven_vertex, ven_cols = _grouped(
            inc_vertex, inc_ven, len(self._ven)
        )
        ven_counts = np.diff(np.append(ven_grp, inc_ven.size)).astype(
            np.float64
        )
        top_cols = np.full(n, -1, dtype=np.int64)
        if ven_cols.size:
            best = np.lexsort((ven_order[ven_grp], -ven_counts, ven_vertex))
            lead = best[_group_starts(ven_vertex[best])]
            top_cols[ven_vertex[lead]] = ven_cols[lead]

        centroids, cent_of, cent_norms = self._centroids(
            n, kw_vertex, kw_cols, order[grp]
        )
        return _PaperColumns(
            kw_ptr=_ptr(kw_vertex, n),
            kw_cols=kw_cols,
            kw_counts=kw_counts,
            kw_lohi=kw_lohi,
            kw_norms=kw_norms,
            ven_ptr=_ptr(ven_vertex, n),
            ven_cols=ven_cols,
            ven_counts=ven_counts,
            top_cols=top_cols,
            centroids=centroids,
            cent_of=cent_of,
            cent_norms=cent_norms,
        )

    def _centroids(
        self,
        n: int,
        kw_vertex: np.ndarray,
        kw_cols: np.ndarray,
        first_seen: np.ndarray,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """γ3 centroids: mean embedding of each vertex's distinct keywords.

        Bit-equal to ``WordEmbeddings.centroid``, i.e. ``ndarray.mean(axis=0)``
        over the rows in first-occurrence order: each vertex's rows, in
        that order, go through the same axis-0 ``sum`` that ``mean`` runs
        and are divided by the count.  Norms go through the same
        per-vector ``dot`` as ``np.linalg.norm``.
        """
        cent_of = np.full(n, -1, dtype=np.int64)
        cent_norms = np.zeros(n, dtype=np.float64)
        if self._embeddings is None or kw_cols.size == 0:
            return None, cent_of, cent_norms
        seen = np.argsort(first_seen, kind="stable")
        rows = self._kw_row.array()[kw_cols[seen]]
        known = rows >= 0
        rows, owner = rows[known], kw_vertex[seen][known]
        counts = np.bincount(owner, minlength=n)
        has = np.flatnonzero(counts)
        if has.size == 0:
            return None, cent_of, cent_norms
        ptr = _ptr(owner, n).tolist()
        matrix = self._embeddings.matrix
        acc = np.array(
            [matrix[rows[ptr[i] : ptr[i + 1]]].sum(axis=0) for i in has]
        )
        acc /= counts[has][:, None].astype(np.float64)
        cent_of[has] = np.arange(has.size)
        cent_norms[has] = [math.sqrt(row.dot(row)) for row in acc]
        return acc, cent_of, cent_norms

    def build(
        self,
        vids: Sequence[int],
        n_papers: Sequence[int],
        slots: Sequence[int],
        wl: tuple[Sequence[int], Sequence[int], Sequence[int]],
        tri: tuple[Sequence[int], Sequence[int]],
    ) -> list[VertexArrays]:
        """Columns of a block of vertices in one vectorised pass.

        Args:
            vids: The vertices, in the order their papers were registered.
            n_papers: Paper count of each vertex.
            slots: Registry slots of every vertex's papers, vertex-major,
                ascending paper id within a vertex.
            wl: ``(vertex index, WL column, count)`` entries, any order.
            tri: ``(vertex index, triangle column)`` entries, any order.
        """
        n = len(vids)
        counts = np.asarray(n_papers, dtype=np.int64)
        papers = self._paper_columns(
            counts, np.asarray(slots, dtype=np.int64)
        )
        wl_owner, wl_col, wl_count = (np.asarray(x, dtype=np.int64) for x in wl)
        order = np.lexsort((wl_col, wl_owner))
        wl_owner, wl_col = wl_owner[order], wl_col[order]
        wl_count = wl_count[order].astype(np.float64)
        wl_norms = np.sqrt(
            np.bincount(wl_owner, weights=wl_count * wl_count, minlength=n)
        )
        tri_owner, tri_col = (np.asarray(x, dtype=np.int64) for x in tri)
        order = np.lexsort((tri_col, tri_owner))
        tri_owner, tri_col = tri_owner[order], tri_col[order]

        kw_ptr = papers.kw_ptr.tolist()
        ven_ptr = papers.ven_ptr.tolist()
        wl_ptr = _ptr(wl_owner, n).tolist()
        cent_slots = self._store_centroids(papers.centroids, papers.cent_of)
        return [
            VertexArrays(*fields)
            for fields in zip(
                vids,
                counts.tolist(),
                _split(papers.kw_cols, kw_ptr),
                _split(papers.kw_counts, kw_ptr),
                _split(papers.kw_lohi, kw_ptr),
                papers.kw_norms.tolist(),
                _split(papers.ven_cols, ven_ptr),
                _split(papers.ven_counts, ven_ptr),
                papers.top_cols.tolist(),
                _split(tri_col, _ptr(tri_owner, n).tolist()),
                _split(wl_col, wl_ptr),
                _split(wl_count, wl_ptr),
                wl_norms.tolist(),
                papers.cent_norms.tolist(),
                cent_slots.tolist(),
            )
        ]

    def refresh_papers(self, vid: int, slots: Sequence[int]) -> None:
        """Recompute ``vid``'s paper-derived columns in place, if cached.

        For an attached paper: adjacency did not change, so the WL and
        triangle columns are kept; keywords, venues and the centroid are
        rebuilt from ``slots`` (ascending paper id) exactly as
        :meth:`build` would.
        """
        arrays = self._arrays.get(vid)
        if arrays is None:
            return
        papers = self._paper_columns(
            np.array([len(slots)], dtype=np.int64),
            np.asarray(slots, dtype=np.int64),
        )
        if arrays.cent_slot >= 0:
            self._cent_free.append(arrays.cent_slot)
        arrays.n_papers = len(slots)
        arrays.kw_cols = papers.kw_cols
        arrays.kw_counts = papers.kw_counts
        arrays.kw_lohi = papers.kw_lohi
        arrays.kw_norm = float(papers.kw_norms[0])
        arrays.ven_cols = papers.ven_cols
        arrays.ven_counts = papers.ven_counts
        arrays.top_venue_col = int(papers.top_cols[0])
        arrays.centroid_norm = float(papers.cent_norms[0])
        arrays.cent_slot = int(
            self._store_centroids(papers.centroids, papers.cent_of)[0]
        )

    def _store_centroids(
        self, centroids: np.ndarray | None, cent_of: np.ndarray
    ) -> np.ndarray:
        """Copy centroid rows into the dense store; slot per vertex (or -1)."""
        slots = np.full(cent_of.size, -1, dtype=np.int64)
        if centroids is None:
            return slots
        if self._cent_matrix is None:
            self._cent_matrix = np.zeros(
                (64, centroids.shape[1]), dtype=np.float64
            )
        n_new = centroids.shape[0]
        reuse = min(n_new, len(self._cent_free))
        taken = [self._cent_free.pop() for _ in range(reuse)]
        fresh = np.arange(self._cent_used, self._cent_used + n_new - reuse)
        self._cent_used += n_new - reuse
        if self._cent_used > self._cent_matrix.shape[0]:
            grown = np.zeros(
                (
                    max(self._cent_used, 2 * self._cent_matrix.shape[0]),
                    self._cent_matrix.shape[1],
                ),
                dtype=np.float64,
            )
            grown[: self._cent_matrix.shape[0]] = self._cent_matrix
            self._cent_matrix = grown
        row_slots = np.concatenate(
            [np.asarray(taken, dtype=np.int64), fresh.astype(np.int64)]
        )
        self._cent_matrix[row_slots] = centroids
        has = cent_of >= 0
        slots[has] = row_slots[cent_of[has]]
        return slots

    # ------------------------------------------------------------------ #
    # batched γ evaluation
    # ------------------------------------------------------------------ #
    def gamma_matrix(
        self,
        pairs: Sequence[Pair],
        build_missing: Callable[[list[int]], list[VertexArrays]],
        alpha: float,
        transient: frozenset[int] = frozenset(),
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(n_pairs, 6)`` γ matrix, numerically matching the scalar path.

        Args:
            pairs: Vertex-id pairs to score.
            build_missing: Builds the columns of the given cache-missing
                vertices (ascending vid) in one pass — normally the owning
                computer's columnar builder around :meth:`build`.
            alpha: Decay α of the time-consistency similarity (Eq. 7).
            transient: Vertex ids scored *once and discarded*: their
                columnar arrays are built for this call but never enter
                the per-vertex cache, and their centroid slots are
                released on return — the probe-vs-existing scoring mode
                for callers that score throwaway vertices and will not
                read them again (a caller that *will* re-read its probes,
                like the streaming walk's inline patching, should leave
                them cacheable instead).  A transient vid that happens to
                be cached already is served from (and left in) the cache.
            out: Optional preallocated ``(n_pairs, 6)`` float64 buffer
                the γ columns are written into (e.g. a shared-memory
                view of the sharded executor, whose workers then ship no
                result arrays at all).  Returned for convenience.
        """
        n = len(pairs)
        if out is None:
            out = np.empty((n, 6), dtype=np.float64)
        elif out.shape != (n, 6):
            raise ValueError(
                f"out buffer has shape {out.shape}, expected {(n, 6)}"
            )
        if n == 0:
            return out
        pairs_arr = np.asarray(pairs, dtype=np.int64).reshape(n, 2)
        vids = np.unique(pairs_arr)
        cached = self._arrays.get
        rows: list[VertexArrays | None] = [cached(vid) for vid in vids.tolist()]
        missing = [i for i, arrays in enumerate(rows) if arrays is None]
        borrowed: list[VertexArrays] = []
        if missing:
            built = build_missing([int(vids[i]) for i in missing])
            for i, arrays in zip(missing, built):
                rows[i] = arrays
                if arrays.vid in transient:
                    borrowed.append(arrays)
                else:
                    self._arrays[arrays.vid] = arrays
        us = np.searchsorted(vids, pairs_arr[:, 0])
        vs = np.searchsorted(vids, pairs_arr[:, 1])

        scalars = np.array(
            [
                (
                    a.n_papers,
                    a.wl_norm,
                    a.kw_norm,
                    a.centroid_norm,
                    float(a.top_venue_col),
                    float(a.cent_slot),
                )
                for a in rows
            ],
            dtype=np.float64,
        )
        n_papers, wl_norms, kw_norms, cent_norms, top_cols, cent_slots = (
            scalars.T
        )
        tau = np.maximum(1.0, np.minimum(n_papers[us], n_papers[vs]))

        def pair_sums(pair: np.ndarray, terms: np.ndarray) -> np.ndarray:
            # (bincount of an empty list is integer even with weights)
            sums = np.bincount(pair, weights=terms, minlength=n)
            return sums.astype(np.float64, copy=False)

        # γ1 — WL feature-map dot product
        pair, at_u, at_v, _ = _join(
            [a.wl_cols for a in rows], len(self.wl_labels), us, vs
        )
        wl = np.concatenate([a.wl_counts for a in rows])
        out[:, 0] = _ratio(
            pair_sums(pair, wl[at_u] * wl[at_v]), wl_norms[us] * wl_norms[vs]
        )
        # γ2 — shared triangles
        pair = _join(
            [a.tri_cols for a in rows], len(self.triangles), us, vs
        )[0]
        out[:, 1] = np.bincount(pair, minlength=n) / tau

        # γ3's multiset fallback and γ4 read the same keyword hits.
        pair, at_u, at_v, col = _join(
            [a.kw_cols for a in rows], len(self._kw), us, vs
        )
        counts = np.concatenate([a.kw_counts for a in rows])
        fallback = _ratio(
            pair_sums(pair, counts[at_u] * counts[at_v]),
            kw_norms[us] * kw_norms[vs],
        )
        out[:, 2] = self._gamma3(us, vs, fallback, cent_norms, cent_slots)
        # γ4 — Σ over shared keywords of e^{-α·gap} / log(1+F_B)
        lohi = np.concatenate([a.kw_lohi for a in rows])
        lohi_u, lohi_v = lohi[at_u], lohi[at_v]
        gap = np.maximum(
            np.maximum(lohi_u.real, lohi_v.real)
            - np.minimum(lohi_u.imag, lohi_v.imag),
            0.0,
        )
        decay = np.exp(-alpha * gap) * self._kw_weights()[col]
        out[:, 3] = pair_sums(pair, decay) / tau

        pair, at_u, at_v, col = _join(
            [a.ven_cols for a in rows], len(self._ven), us, vs
        )
        venues = np.concatenate([a.ven_counts for a in rows])
        count_u, count_v = venues[at_u], venues[at_v]
        # γ5 — each side's count of the other's representative venue
        top = top_cols.astype(np.int64)
        cross = np.where(col == top[us[pair]], count_v, 0.0) + np.where(
            col == top[vs[pair]], count_u, 0.0
        )
        out[:, 4] = pair_sums(pair, cross) / tau
        # γ6 — min-count overlap on the shared venues, Adamic/Adar weighted
        overlap = np.minimum(count_u, count_v) * self._ven_weights()[col]
        out[:, 5] = pair_sums(pair, overlap) / tau
        # Release transient centroid slots only now — γ3 read them above.
        for arrays in borrowed:
            if arrays.cent_slot >= 0:
                self._cent_free.append(arrays.cent_slot)
        return out

    def _gamma3(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        fallback: np.ndarray,
        cent_norms: np.ndarray,
        cent_slots: np.ndarray,
    ) -> np.ndarray:
        """Centroid cosine where both sides have a centroid, else
        ``fallback`` (the keyword-multiset cosine)."""
        slots_u = cent_slots[us].astype(np.int64)
        slots_v = cent_slots[vs].astype(np.int64)
        pair_dense = (slots_u >= 0) & (slots_v >= 0)
        if self._cent_matrix is None or not pair_dense.any():
            return fallback
        # Slot -1 is clipped to row 0; those reads are garbage but are
        # masked out by ``pair_dense`` below.
        store = self._cent_matrix
        cdots = np.einsum(
            "ij,ij->i",
            store[np.maximum(slots_u, 0)],
            store[np.maximum(slots_v, 0)],
        )
        dense = _ratio(cdots, cent_norms[us] * cent_norms[vs])
        return np.where(pair_dense, dense, fallback)
