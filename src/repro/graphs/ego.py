"""WL feature maps and co-author triangles of many egos in one pass.

:func:`ego_features` is the batched form of :func:`.wl.wl_feature_map`
(γ1, Eq. 3–4) and :func:`.triangles.coauthor_triangle_names` (γ2, Eq. 5),
which stay as its test oracle.  The similarity computer calls it once per
scoring call with every cache-missing vertex, instead of walking each
radius-``h`` ball vertex by vertex and re-filtering every ball node's full
adjacency on every refinement:

1. **Local CSR.** One multi-source BFS collects the union of all balls
   (radius ``max(h, 1)``: triangles need the 1-hop ball even at ``h = 0``),
   and each union vertex's adjacency is read once into int arrays over
   local ids.
2. **Ball membership** is built level by level as ``(ego, vertex)`` rows,
   with a dense ``ego × union vertex`` position index; only the induced
   ``(ego, u, w)`` edges of each ball are kept.
3. **Refinement.** Per iteration, one ``np.sort`` of ``row * L + label``
   orders every row's neighbour labels.  Row ``r``'s interner key is the
   exact slice ``[own label, sorted neighbour labels…]`` of one int64
   buffer, as ``bytes``; only the interner lookup is per row.
4. **Triangles** are the induced edges between two level-1 rows: pairs of
   ego-neighbours that are adjacent, keyed by their two name labels.

Label identity: iteration-0 labels are the names themselves (``str``
keys), refined labels are the ``bytes`` keys above, all in one grow-only
``label -> id`` dict.  Keys are exact, never hashed to a fixed width, so
two labels share an id only when they are structurally equal.  A bytes key
never equals a name, and keys of different iterations never coincide:
their first eight bytes are an own label of different earlier iterations.
WL counts are integers, so γ1's dot products and norms are exact in
float64 whatever ids the labels get.

Egos are processed in chunks so that the dense position index stays under
:data:`CHUNK_CELLS` cells whatever the size of the call.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from typing import Hashable, Sequence

import numpy as np

from .collab import CollaborationNetwork
from .wl import multi_source_ball

#: Cells of the dense ``(ego, union vertex)`` position index (int32) that
#: one chunk of egos may use; a chunk holds ``CHUNK_CELLS // |union|``
#: egos (at least one).
CHUNK_CELLS = 1 << 20

#: ``(owner, WL column, count)`` and ``(owner, triangle column)`` arrays.
WLEntries = tuple[np.ndarray, np.ndarray, np.ndarray]
TriangleEntries = tuple[np.ndarray, np.ndarray]


def _intern(keys: list, interner: dict[Hashable, int]) -> np.ndarray:
    """Ids of ``keys`` in the grow-only ``interner``; unseen keys get the
    next ids in the order they first appear."""
    ids = np.fromiter(
        map(interner.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
    )
    miss = np.flatnonzero(ids < 0).tolist()
    if miss:
        missing = list(map(keys.__getitem__, miss))
        fresh = dict(zip(dict.fromkeys(missing), count(len(interner))))
        interner.update(fresh)
        ids[miss] = list(map(fresh.__getitem__, missing))
    return ids


def _gather(
    ptr: np.ndarray, nbrs: np.ndarray, vtx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row lengths and the neighbour lists of ``vtx``, laid end to end."""
    lengths = ptr[vtx + 1] - ptr[vtx]
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    offsets = np.repeat(ptr[vtx] - (ends - lengths), lengths)
    return lengths, nbrs[offsets + np.arange(total)]


def ego_features(
    net: CollaborationNetwork,
    vids: Sequence[int],
    h: int,
    labels: dict[Hashable, int],
    triangles: dict[Hashable, int],
) -> tuple[WLEntries, TriangleEntries]:
    """WL feature maps and name-keyed triangles of every vertex in ``vids``.

    Args:
        net: The network the balls are taken in.
        vids: The egos, any order; repeats are separate egos.
        h: WL iterations, which is also the ball radius.
        labels: Grow-only WL label interner, extended in place.
        triangles: Grow-only interner of ``(name label, name label)``
            triangle keys (name labels from ``labels``), extended in place.

    Returns:
        ``(owner, column, count)`` with one entry per distinct label of
        each ego's ``φ⟨h⟩`` — the label multiset of
        :func:`.wl.wl_feature_map` — and ``(owner, column)`` with one entry
        per distinct name pair of :func:`.triangles.coauthor_triangle_names`.
        ``owner`` indexes ``vids``.
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    vids = list(vids)
    empty = np.empty(0, dtype=np.int64)
    if not vids:
        return (empty, empty, empty), (empty, empty)
    union = sorted(multi_source_ball(net, vids, max(h, 1)))
    n_union = len(union)
    local = dict(zip(union, range(n_union)))
    rows = net.adjacency_rows(union)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n_union)
    # Neighbours outside the union (beyond the outermost level) map to -1.
    nbrs = np.fromiter(
        map(local.get, chain.from_iterable(rows), repeat(-1)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    inside = nbrs >= 0
    ptr = np.zeros(n_union + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(
            np.repeat(np.arange(n_union), lengths)[inside], minlength=n_union
        ),
        out=ptr[1:],
    )
    nbrs = nbrs[inside]
    names = _intern(net.names_of(union), labels)
    # Dense ranks of the distinct name labels, for triangle keys.
    codes, rank = np.unique(names, return_inverse=True)
    egos = np.fromiter(map(local.__getitem__, vids), np.int64, len(vids))

    size = max(1, CHUNK_CELLS // n_union)
    pos = np.full(min(size, len(vids)) * n_union, -1, dtype=np.int32)
    wl_parts: list[tuple[np.ndarray, ...]] = []
    tri_parts: list[tuple[np.ndarray, ...]] = []
    for start in range(0, len(vids), size):
        ego, vtx, bounds = _balls(egos[start : start + size], ptr, nbrs,
                                  n_union, max(h, 1), pos)
        # Induced edges (src row, dst row) of every ball, src ascending.
        lengths, w = _gather(ptr, nbrs, vtx)
        src = np.repeat(np.arange(ego.size), lengths)
        dst = pos[ego[src] * n_union + w].astype(np.int64)
        keep = dst >= 0
        src, dst = src[keep], dst[keep]
        pos[ego * n_union + vtx] = -1
        owner, col = _triangles(ego, rank[vtx], src, dst, bounds, codes,
                                triangles)
        tri_parts.append((owner + start, col))
        if h:
            owner, col, count = _wl(ego, vtx, src, dst, bounds[1], names,
                                    h, labels)
            wl_parts.append((owner + start, col, count))
    wl = (
        tuple(np.concatenate(part) for part in zip(*wl_parts))
        if wl_parts
        else (empty, empty, empty)
    )
    tri = tuple(np.concatenate(part) for part in zip(*tri_parts))
    return wl, tri


def _balls(
    egos: np.ndarray,
    ptr: np.ndarray,
    nbrs: np.ndarray,
    n_union: int,
    radius: int,
    pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Ball rows ``(ego index, local vertex)`` of ``egos``, level by level.

    Rows ``bounds[k]:bounds[k + 1]`` are the vertices at distance ``k``;
    the first rows are the egos themselves, in order.  ``pos`` (all -1 on
    entry) is left holding every row's index at cell
    ``ego index * n_union + vertex``.
    """
    ego = [np.arange(egos.size)]
    vtx = [egos]
    pos[ego[0] * n_union + egos] = ego[0]
    bounds = [0, egos.size]
    for _ in range(radius):
        lengths, w = _gather(ptr, nbrs, vtx[-1])
        cells = np.repeat(ego[-1], lengths) * n_union + w
        cells = np.unique(cells[pos[cells] < 0])
        pos[cells] = np.arange(bounds[-1], bounds[-1] + cells.size)
        bounds.append(bounds[-1] + cells.size)
        ego.append(cells // n_union)
        vtx.append(cells % n_union)
    return np.concatenate(ego), np.concatenate(vtx), bounds


def _triangles(
    ego: np.ndarray,
    rank: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    bounds: list[int],
    codes: np.ndarray,
    triangles: dict[Hashable, int],
) -> tuple[np.ndarray, np.ndarray]:
    """``(ego index, triangle column)`` of every distinct name pair of two
    adjacent ego-neighbours (level-1 rows); ``rank`` is each row's index
    into the sorted distinct name labels ``codes``."""
    lo, hi = bounds[1], bounds[2]
    edge = (src >= lo) & (src < hi) & (dst > src) & (dst < hi)
    src, dst = src[edge], dst[edge]
    a, b = rank[src], rank[dst]
    k = codes.size
    keys = np.unique(
        (ego[src] * k + np.minimum(a, b)) * k + np.maximum(a, b)
    )
    pair = keys % (k * k)
    cols = _intern(
        list(zip(codes[pair // k].tolist(), codes[pair % k].tolist())),
        triangles,
    )
    return keys // (k * k), cols


def _wl(
    ego: np.ndarray,
    vtx: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    n_egos: int,
    names: np.ndarray,
    h: int,
    labels: dict[Hashable, int],
) -> WLEntries:
    """``(ego index, label, count)`` of every ego's ``φ⟨h⟩`` (``h >= 1``)."""
    n_rows = ego.size
    label = names[vtx]
    # Iteration 0 counts every ball vertex's name but the ego's own.
    found_ego, found = [ego[n_egos:]], [label[n_egos:]]
    # Row r's key occupies buf[start[r]:end[r]]: its own label, then its
    # sorted neighbour labels.
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_rows), out=ptr[1:])
    start = ptr[:-1] + np.arange(n_rows)
    nbr_at = np.arange(src.size) + src + 1
    end = ptr[1:] + np.arange(1, n_rows + 1)
    lo, hi = (8 * start).tolist(), (8 * end).tolist()
    buf = np.empty(n_rows + src.size, dtype=np.int64)
    for _ in range(h):
        shift = src * len(labels)
        buf[start] = label
        buf[nbr_at] = np.sort(shift + label[dst]) - shift
        raw = buf.tobytes()
        label = _intern([raw[a:b] for a, b in zip(lo, hi)], labels)
        found_ego.append(ego)
        found.append(label)
    width = len(labels)
    keys, counts = np.unique(
        np.concatenate(found_ego) * width + np.concatenate(found),
        return_counts=True,
    )
    return keys // width, keys % width, counts
