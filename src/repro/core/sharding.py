"""Sharded name-block execution: partition, parallel fit, global merge.

The bottom-up design of the paper makes Stage 2 embarrassingly
partitionable: every merge decision concerns two same-name vertices, and
candidate enumeration, γ scoring and the merge itself never cross name
boundaries.  Partitioning the corpus by *name blocks* — connected
components of the co-author name graph — therefore cuts the expensive
similarity work into independent shards that can be fitted in parallel
and stitched back into one global collaboration network.  This is the
"sharding" leg of the ROADMAP's production-scale north star and the
foundation for multi-machine scale-out.

Execution plan of :class:`ShardedIUAD.fit`.  One scheduler drives it:
``config.n_workers >= 1`` submits the tasks to a process pool,
``n_workers == 0`` submits the *same* tasks in the same order to an
in-process executor that runs each one at submission (phases then
simply follow one another):

1. **Global Stage 1 + text models** (serial): the SCN, the title
   embeddings and the corpus frequency tables are built exactly as in the
   single-process :meth:`~repro.core.iuad.IUAD.fit` — they are cheap
   relative to pair scoring and keep the learned model bit-compatible.
2. **Partition** (:func:`plan_shards`): pair-bearing names are grouped
   into blocks (connected components over shared papers), blocks are
   packed into shards up to ``config.max_shard_size`` candidate pairs,
   oversized blocks are split by name, and every vertex of a name with no
   same-name candidate takes the **singleton fast path** straight into
   the final network — no Stage-2 work at all.
3. **Phase A — parallel γ computation**: workers receive the SCN, the
   corpus and the global frequency tables *once per process* (pool
   initializer, see :class:`_WorkerContext`).  The candidate pairs of
   every pair-bearing name are laid out in one global
   ``(n_pairs, 6)`` result buffer in canonical ``scn.names`` order and
   chunked by **candidate-pair count** (:data:`GAMMA_CHUNK_PAIRS`,
   independent of both shard and worker count, so a fat shard never
   serialises the phase and in-process/pool runs fill byte-identical
   buffers); each pool worker writes its chunk's rows straight into a
   :mod:`multiprocessing.shared_memory` block instead of pickling γ
   matrices back.  Split-balance matched pairs (the densest per-vertex
   work of model learning) are scored by the pool too, in small chunks
   submitted ahead of the γ chunks into a second shared block — see
   :func:`_score_split_chunk`.
4. **Global model** (serial, *overlapped*): the training sample is drawn
   from the global candidate order (identical to the single-process
   sample) and its γ rows are sliced from the shared buffer.  The EM
   midsection starts as soon as the sampled rows and split scores are in
   hand — γ chunks that carry no sampled row keep computing in the pool
   *while* the mixture trains, so the midsection is no longer a barrier.
5. **Phase B — parallel decisions, pipelined**: the fitted model is
   broadcast once through a shared-memory blob (workers deserialise and
   cache it process-locally); each shard's decision task is dispatched
   the moment its γ rows are complete — shards whose chunks finished
   before the model simply go first.  (In-process runs hand the tasks
   the live model and plain arrays; nothing else changes.)  Tasks carry
   only name lists, vid tuples and ``(offset, count)`` row spans; the
   worker re-reads its γ rows from shared memory, scores them against
   the cached model, cuts its block (plus a profile halo of radius
   ``max(1, wl_iterations)``, needed only when ``merge_rounds > 1``
   re-scores) out of its process-local SCN, runs the shared
   :func:`~repro.core.iuad.run_merge_rounds` decision loop, merges its
   components under the cannot-link constraints, drops the halo and
   ships back its fitted block network.
6. **Merge** (serial, deterministic): per-shard networks and the
   fast-path vertices are stitched by
   :func:`repro.graphs.collab.combine_networks` — stable remapped vertex
   ids, preserved ``pid -> position`` mention payloads, a global
   uniqueness check on mention ownership — then the non-stable
   collaborative relations are recovered globally and the cannot-link
   constraints are re-derived on the stitched network.

Results are keyed by chunk/shard index and assembled in plan order, so
pool scheduling never changes an outcome, only the timeline.  The
per-phase walls, the overlap they bought, and the IPC/shared-memory
byte counts are recorded on the :class:`~repro.core.iuad.FitReport`
(``pipeline_seconds``, ``overlap_seconds``, ``ipc_task_bytes``, …) and
flattened into benchmark records by
:func:`repro.eval.timing.shard_summary` — a transport regression shows
up in the committed record, not in a reviewer's profiler.

Exactness: with ``merge_rounds == 1`` (the paper's Algorithm 1) the
sharded fit produces mention clusterings *identical* to the whole-corpus
fit — names cannot influence each other within a round, and profiles are
computed on the full network (``tests/test_sharding_parity.py`` pins
this, in-process and under a process pool; profile construction iterates
papers in canonical order so results survive the pickling of networks,
see ``SimilarityComputer._build_profile``).  With more rounds, exactness
additionally requires blocks to stay whole (``max_shard_size = 0``):
splitting a block can miss cross-shard profile updates between rounds.

Edge-paper caveat: a stable SCN edge between two blocks is re-established
by relation recovery, whose paper annotation derives from mention
ownership rather than SCR support; scoring never reads edge paper sets,
so clusterings are unaffected.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import time
from bisect import bisect_right
from concurrent.futures import (
    Executor, Future, ProcessPoolExecutor, as_completed,
)
from dataclasses import asdict, dataclass
from multiprocessing import shared_memory
from typing import Iterable, Mapping

import numpy as np

from ..data.records import Corpus
from ..graphs.collab import CollaborationNetwork, combine_networks
from ..graphs.unionfind import UnionFind
from ..model.mixture import MatchMixture
from ..model.scoring import match_scores
from ..similarity.profile import SimilarityComputer
from ..text.embeddings import WordEmbeddings
from ..text.tokenize import corpus_word_frequencies
from .balance import split_prolific_vertices
from .candidates import candidate_pairs_of_name, cannot_link_pairs, sample_training_pairs
from .config import IUADConfig
from .iuad import IUAD, FitReport, run_merge_rounds

Pair = tuple[int, int]


# --------------------------------------------------------------------- #
# plan data model
# --------------------------------------------------------------------- #
@dataclass(slots=True)
class ShardStats:
    """Per-shard counters of one sharded fit (rides in ``FitReport``)."""

    index: int
    n_names: int
    n_vertices: int
    n_halo: int
    n_papers: int
    n_candidate_pairs: int
    n_decision_pairs: int = 0
    n_merges: int = 0
    gamma_seconds: float = 0.0
    decide_seconds: float = 0.0


@dataclass(slots=True)
class Shard:
    """One unit of parallel work: a set of whole (or split) name blocks.

    ``names`` are the shard's pair-bearing names in global ``scn.names``
    order; ``owned_vids`` are *all* their vertices (a name is never split
    across shards); ``halo_vids`` are the extra profile-context vertices
    within radius of the owned set; ``pids`` are the papers of the owned
    vertices.
    """

    index: int
    names: tuple[str, ...]
    owned_vids: tuple[int, ...]
    halo_vids: tuple[int, ...]
    pids: tuple[int, ...]
    n_candidate_pairs: int


@dataclass(slots=True)
class ShardPlan:
    """The full partition: shards + singleton fast path + routing index.

    ``name_to_shard`` covers *every* corpus name: pair-bearing names map
    to their fitted shard, the rest to their component's shard or to a
    fast-path block id (``len(shards) <= id < n_blocks``) when their
    whole component had no Stage-2 work.
    """

    shards: list[Shard]
    fastpath_vids: tuple[int, ...]
    name_to_shard: dict[str, int]
    n_blocks: int
    seconds: float

    @property
    def n_candidate_pairs(self) -> int:
        return sum(s.n_candidate_pairs for s in self.shards)


class ShardIndex:
    """Routes names to their owning shard (streaming inserts, Section V-E).

    The fitted partition seeds the index; papers streamed in later are
    routed to the shard owning their author names.  A new paper whose
    names span several shards *bridges* them — the shards are unioned so
    subsequent routing stays consistent — and a paper carrying only
    unknown names opens a fresh shard id.  The incremental path uses this
    to account every insert to exactly one (canonical) shard.
    """

    def __init__(self, name_to_shard: Mapping[str, int], n_shards: int):
        self._uf: UnionFind = UnionFind(range(n_shards))
        self._name_to_shard: dict[str, int] = dict(name_to_shard)
        self._next_shard = n_shards
        self.n_bridges = 0

    @property
    def n_shards(self) -> int:
        """Number of distinct (canonical) shards currently known."""
        return self._uf.n_components

    def shard_of_name(self, name: str) -> int | None:
        """Canonical shard id owning ``name`` (``None`` if never seen)."""
        sid = self._name_to_shard.get(name)
        return None if sid is None else self._uf.find(sid)

    def route_paper(self, names: Iterable[str]) -> int:
        """Owning shard of a new paper; registers names, bridges shards."""
        names = list(names)
        known = {self._name_to_shard[n] for n in names if n in self._name_to_shard}
        roots = {self._uf.find(sid) for sid in known}
        if roots:
            canonical = roots.pop()
            for other in roots:
                canonical = self._uf.union(canonical, other)
                self.n_bridges += 1
        else:
            canonical = self._next_shard
            self._next_shard += 1
            self._uf.add(canonical)
        for name in names:
            if name not in self._name_to_shard:
                self._name_to_shard[name] = canonical
        return self._uf.find(canonical)

    def route_papers(
        self, author_lists: Iterable[Iterable[str]]
    ) -> list[int]:
        """Bulk routing: one canonical shard id per paper, in order.

        The batched streaming path (:class:`repro.core.streaming.
        StreamingIngestor`) routes a whole burst through here before
        planning its waves.  Routing is applied paper by paper *in input
        order* — bridging is order-sensitive (the shard a paper lands on
        depends on the unions performed so far), and a one-paper-at-a-time
        :meth:`route_paper` loop routes in exactly that order, which is
        what keeps the index state and the per-shard counters in parity.
        Returned ids are canonical at the time each paper was routed; a
        later bridge may merge them further (resolve via
        :meth:`shard_of_name` for the current canonical id).
        """
        return [self.route_paper(names) for names in author_lists]


# --------------------------------------------------------------------- #
# partitioner
# --------------------------------------------------------------------- #
def _pair_count(n_vertices: int) -> int:
    return n_vertices * (n_vertices - 1) // 2


def plan_shards(
    scn: CollaborationNetwork,
    corpus: Corpus,
    max_shard_size: int = 4000,
    halo_radius: int = 2,
) -> ShardPlan:
    """Partition the corpus into independent name-block shards.

    Blocks are connected components of the co-author name graph (two
    names are linked when they appear on one paper), restricted to
    *pair-bearing* names — names with at least two SCN vertices, i.e.
    names with Stage-2 work.  Vertices of all other names take the
    singleton fast path (``fastpath_vids``) straight into the merged
    network.

    ``max_shard_size`` is a per-shard candidate-pair budget: small blocks
    are packed together (first-fit decreasing, deterministic) and a block
    exceeding the budget on its own is split into name chunks.  ``0``
    disables both and yields one shard per block.

    ``halo_radius`` controls the profile context around a block that the
    Phase-B sub-network keeps: every vertex within that many hops of an
    owned vertex (pass ``max(1, config.wl_iterations)``).  Only re-scoring
    rounds (``merge_rounds > 1``) read profiles off that sub-network.
    """
    t0 = time.perf_counter()
    # Name components over shared papers.
    names_uf: UnionFind = UnionFind()
    for paper in corpus:
        first = paper.authors[0]
        names_uf.add(first)
        for other in paper.authors[1:]:
            names_uf.add(other)
            names_uf.union(first, other)

    # Blocks of pair-bearing names, in deterministic scn.names order.
    pair_counts: dict[str, int] = {}
    block_names: dict[str, list[str]] = {}
    block_order: list[str] = []
    for name in scn.names:
        count = _pair_count(len(scn.vertices_of_name(name)))
        if count == 0:
            continue
        pair_counts[name] = count
        root = names_uf.find(name) if name in names_uf else name
        if root not in block_names:
            block_names[root] = []
            block_order.append(root)
        block_names[root].append(name)

    # Split oversized blocks by name (exact for merge_rounds == 1).
    chunks: list[list[str]] = []
    for root in block_order:
        names = block_names[root]
        size = sum(pair_counts[n] for n in names)
        if max_shard_size <= 0 or size <= max_shard_size:
            chunks.append(names)
            continue
        current: list[str] = []
        current_size = 0
        for name in names:
            if current and current_size + pair_counts[name] > max_shard_size:
                chunks.append(current)
                current, current_size = [], 0
            current.append(name)
            current_size += pair_counts[name]
        if current:
            chunks.append(current)

    # Pack chunks into shards (first-fit decreasing, deterministic).
    if max_shard_size > 0:
        sized = sorted(
            enumerate(chunks),
            key=lambda kv: (-sum(pair_counts[n] for n in kv[1]), kv[0]),
        )
        bins: list[list[str]] = []
        bin_sizes: list[int] = []
        for _, chunk in sized:
            size = sum(pair_counts[n] for n in chunk)
            for i, used in enumerate(bin_sizes):
                if used + size <= max_shard_size:
                    bins[i].extend(chunk)
                    bin_sizes[i] += size
                    break
            else:
                bins.append(list(chunk))
                bin_sizes.append(size)
        groups = bins
    else:
        groups = chunks

    # Materialise shards: owned vertices, profile halo, papers.
    name_order = {name: i for i, name in enumerate(scn.names)}
    owned_anywhere: set[int] = set()
    shards: list[Shard] = []
    name_to_shard: dict[str, int] = {}
    for index, group in enumerate(groups):
        group = sorted(group, key=name_order.__getitem__)
        owned: list[int] = []
        for name in group:
            owned.extend(scn.vertices_of_name(name))
            name_to_shard[name] = index
        owned_set = set(owned)
        owned_anywhere.update(owned_set)
        halo: set[int] = set()
        frontier = list(owned_set)
        for _ in range(max(1, halo_radius)):
            next_frontier: list[int] = []
            for vid in frontier:
                for nbr in scn.neighbors(vid):
                    if nbr not in owned_set and nbr not in halo:
                        halo.add(nbr)
                        next_frontier.append(nbr)
            frontier = next_frontier
        pids: set[int] = set()
        for vid in owned_set:
            pids.update(scn.papers_of(vid))
        shards.append(
            Shard(
                index=index,
                names=tuple(group),
                owned_vids=tuple(sorted(owned_set)),
                halo_vids=tuple(sorted(halo)),
                pids=tuple(sorted(pids)),
                n_candidate_pairs=sum(pair_counts[n] for n in group),
            )
        )

    # Every remaining corpus name — singleton names living inside a
    # sharded block, and whole blocks with no pair-bearing name — still
    # belongs to a block: route it to its component's shard, or allocate
    # a fresh fast-path block id.  Streaming inserts by known fast-path
    # authors then route into their real block instead of opening a
    # phantom shard.
    comp_shard: dict[str, int] = {}
    for shard in shards:
        for name in shard.names:
            comp_shard.setdefault(names_uf.find(name), shard.index)
    next_block = len(shards)
    for name in names_uf:
        if name in name_to_shard:
            continue
        root = names_uf.find(name)
        if root not in comp_shard:
            comp_shard[root] = next_block
            next_block += 1
        name_to_shard[name] = comp_shard[root]

    fastpath = tuple(
        sorted(v.vid for v in scn if v.vid not in owned_anywhere)
    )
    return ShardPlan(
        shards=shards,
        fastpath_vids=fastpath,
        name_to_shard=name_to_shard,
        n_blocks=next_block,
        seconds=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------- #
# shared-memory transport
# --------------------------------------------------------------------- #
@dataclass(slots=True)
class _ArrayRef:
    """Reference to a ``(rows, 6)`` float64 result buffer tasks fill.

    Pool runs back the buffer with a :mod:`multiprocessing.shared_memory`
    segment (``shm_name``): γ and split chunks are *written in place* by
    workers and never round-trip through pickle.  In-process runs
    (``n_workers == 0``) and zero-row buffers hold a plain array in
    ``array`` instead of allocating an OS segment.
    """

    rows: int
    shm_name: str | None = None
    array: np.ndarray | None = None


@dataclass(slots=True)
class _ModelRef:
    """Broadcast handle of the fitted mixture for Phase-B workers.

    Pool runs pickle the model *once* into a shared-memory blob; every
    worker deserialises it on first use and caches it process-locally
    (:data:`_MODEL_CACHE`), so each decision task carries a tiny segment
    name instead of its own model copy.  In-process runs
    (``n_workers == 0``) carry the live object in ``model``.
    """

    shm_name: str | None = None
    nbytes: int = 0
    model: MatchMixture | None = None


#: Process-local attached shared-memory views, keyed by segment name.
#: Workers attach each segment once and keep the mapping for the pool's
#: lifetime; the parent closes and unlinks after the pool is joined.
_SHM_VIEWS: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}

#: Process-local deserialised model broadcasts, keyed by segment name.
_MODEL_CACHE: dict[str, MatchMixture] = {}


def _view_of(ref: _ArrayRef) -> np.ndarray:
    """The live ``(rows, 6)`` ndarray behind ``ref`` in this process."""
    if ref.array is not None:
        return ref.array
    assert ref.shm_name is not None, "array ref carries neither array nor shm"
    cached = _SHM_VIEWS.get(ref.shm_name)
    if cached is None:
        shm = shared_memory.SharedMemory(name=ref.shm_name)
        view = np.ndarray((ref.rows, 6), dtype=np.float64, buffer=shm.buf)
        cached = (shm, view)
        _SHM_VIEWS[ref.shm_name] = cached
    return cached[1]


def _resolve_model(ref: _ModelRef) -> MatchMixture:
    """The fitted mixture behind ``ref``, deserialised at most once."""
    if ref.model is not None:
        return ref.model
    assert ref.shm_name is not None, "model ref carries neither model nor shm"
    model = _MODEL_CACHE.get(ref.shm_name)
    if model is None:
        shm = shared_memory.SharedMemory(name=ref.shm_name)
        try:
            model = pickle.loads(bytes(shm.buf[: ref.nbytes]))
        finally:
            shm.close()
        _MODEL_CACHE[ref.shm_name] = model
    return model


# --------------------------------------------------------------------- #
# worker context + tasks
# --------------------------------------------------------------------- #
@dataclass(slots=True)
class _WorkerContext:
    """Heavy shared inputs, shipped once per worker (pool initializer).

    Tasks themselves stay light (name lists, vid tuples, row spans): the
    SCN, the split-balance network, the corpus, the global frequency
    tables and the result-buffer references travel to each worker
    process exactly once instead of once per task, which is what keeps
    pool overhead flat as the number of chunks grows.
    """

    scn: CollaborationNetwork
    corpus: Corpus
    word_frequencies: dict[str, int]
    venue_frequencies: dict[str, int]
    embeddings: WordEmbeddings | None
    wl_iterations: int
    decay_alpha: float
    gamma_ref: _ArrayRef
    split_network: CollaborationNetwork | None
    split_ref: _ArrayRef

    def computer(self, network: CollaborationNetwork) -> SimilarityComputer:
        """A similarity computer over ``network`` with the global tables."""
        return SimilarityComputer(
            network,
            self.corpus,
            embeddings=self.embeddings,
            word_frequencies=self.word_frequencies,
            wl_iterations=self.wl_iterations,
            decay_alpha=self.decay_alpha,
            venue_frequencies=self.venue_frequencies,
        )


#: Per-process context, installed by :meth:`ShardedIUAD._run` in the
#: parent (read by in-process tasks and inherited by fork workers) and by
#: :func:`_boot_pool_worker` in spawn workers; ``fit`` restores the
#: previous value on every exit, raising or not.
_CTX: _WorkerContext | None = None


def _init_worker(ctx: _WorkerContext) -> None:
    global _CTX
    _CTX = ctx


def _boot_pool_worker(ctx: _WorkerContext | None = None) -> None:
    """Pool-worker initializer: install the context, then freeze the heap.

    A worker starts life holding a heavy object graph — the fork-
    inherited parent heap (which may include a whole previously fitted
    estimator, as in the benchmark's single-vs-sharded comparison) or
    the spawn-pickled :class:`_WorkerContext`.  Chunk scoring allocates
    enough to trigger full GC passes, and every pass would re-walk
    those millions of long-lived objects (unsharing their
    copy-on-write pages in the bargain): on a corpus where the fit
    itself takes ~11 s, that repeated traversal alone blew the pooled
    fit up to ~190 s.  ``gc.freeze`` parks everything alive at worker
    start in the permanent generation, so collections scan only
    worker-born garbage.  Workers are short-lived and never need to
    reclaim the context, so freezing costs nothing.
    """
    if ctx is not None:
        _init_worker(ctx)
    gc.freeze()


def _require_ctx() -> _WorkerContext:
    assert _CTX is not None, "worker context not initialised"
    return _CTX


@dataclass(slots=True)
class _GammaChunkTask:
    """Phase-A unit: a contiguous run of names, ≈equal candidate pairs.

    Chunk boundaries depend only on the network and
    :data:`GAMMA_CHUNK_PAIRS` — never on worker count — so in-process
    and pool runs fill byte-identical buffers and a fat shard never
    serialises the phase behind one straggler task.
    """

    index: int
    names: tuple[str, ...]
    offset: int    # first γ-buffer row of this chunk
    n_pairs: int


@dataclass(slots=True)
class _ChunkDone:
    """Tiny pool return of a buffer-writing task: identity + wall-clock."""

    index: int
    seconds: float


#: Split-balance pairs per task.  Both sides of a split pair are fresh
#: vertices of the dense split network, so a pair costs ~100× a
#: candidate pair: small chunks spread the work over the pool instead of
#: serialising the EM midsection behind one task.  Fixed — never derived
#: from the worker count — so in-process and pool runs chunk identically.
SPLIT_CHUNK_PAIRS = 50

#: Candidate pairs per Phase-A γ task.  Chunks tile the global pair
#: order with whole names and are independent of both shard and worker
#: count, so a fat shard never serialises the phase and in-process and
#: pool runs fill byte-identical buffers.
GAMMA_CHUNK_PAIRS = 2048


@dataclass(slots=True)
class _SplitScoreTask:
    index: int
    offset: int    # first split-buffer row of this chunk
    pairs: list[Pair]


@dataclass(slots=True)
class _DecisionTask:
    """Phase-B unit: everything a worker needs that its context lacks.

    Deliberately model- and score-free: the worker re-reads its γ rows
    from the shared buffer (``row_spans``) and scores them against the
    broadcast model it resolves through :func:`_resolve_model`.
    """

    index: int
    names: tuple[str, ...]                    # decision names, shard order
    vids: tuple[int, ...]                     # owned + halo, cut in the worker
    owned_vids: tuple[int, ...]
    row_spans: tuple[tuple[int, int], ...]    # γ-buffer (offset, count) per name
    model: _ModelRef
    config: IUADConfig


@dataclass(slots=True)
class _ShardFit:
    index: int
    network: CollaborationNetwork
    n_merges: int
    per_round_candidate_pairs: list[int]
    per_round_merges: list[int]
    decision_seconds: float
    seconds: float


def _compute_gamma_chunk(task: _GammaChunkTask) -> _ChunkDone:
    """Phase A: γ vectors of the chunk's candidate pairs, written in place.

    Scoring runs against the *full* process-local SCN — the same graph
    the single-process fit scores against, so profiles and γ values are
    identical by construction (no halo bookkeeping on this path).

    Each chunk deliberately starts a fresh computer: profiles are built
    only for pair endpoints, and names never straddle chunks, so chunks'
    profile sets are disjoint — a cross-task cache would buy nothing,
    while sharing the engine's interned column space across
    scheduler-ordered tasks would make float accumulation order depend
    on pool scheduling and break run-to-run determinism.
    """
    t0 = time.perf_counter()
    ctx = _require_ctx()
    flat: list[Pair] = []
    for name in task.names:
        flat.extend(candidate_pairs_of_name(ctx.scn, name))
    assert len(flat) == task.n_pairs, "γ chunk plan drifted from the network"
    if flat:
        out = _view_of(ctx.gamma_ref)[task.offset : task.offset + len(flat)]
        ctx.computer(ctx.scn).pair_matrix(flat, out=out)
    return _ChunkDone(index=task.index, seconds=time.perf_counter() - t0)


def _score_split_chunk(task: _SplitScoreTask) -> _ChunkDone:
    """Score one chunk of split-balance matched pairs (Section V-F2).

    Like a γ chunk, each chunk starts a fresh computer (over the split
    network) and writes its rows in place, so in-process and pool runs
    fill byte-identical buffers.  Building a split vertex's columns allocates
    little — WL labels are interned to ints — so the chunk pays no
    copy-on-write fault storm in a forked worker.
    """
    t0 = time.perf_counter()
    ctx = _require_ctx()
    assert ctx.split_network is not None, "split task without a split network"
    out = _view_of(ctx.split_ref)[task.offset : task.offset + len(task.pairs)]
    ctx.computer(ctx.split_network).pair_matrix(task.pairs, out=out)
    return _ChunkDone(index=task.index, seconds=time.perf_counter() - t0)


def _fit_shard(task: _DecisionTask) -> _ShardFit:
    """Phase B: run the shared decision loop on one block, drop the halo.

    Round-one inputs are rebuilt worker-side: candidate pairs from the
    process-local SCN (deterministic: sorted-vid combinations), γ rows
    from the shared buffer, Eq. 11 scores from the cached broadcast
    model — ``match_scores`` is row-wise, so scoring here instead of in
    the parent is bit-identical.
    """
    t0 = time.perf_counter()
    ctx = _require_ctx()
    model = _resolve_model(task.model)
    gamma = _view_of(ctx.gamma_ref)
    name_pairs: list[tuple[str, list[Pair]]] = []
    blocks: list[np.ndarray] = []
    for name, (offset, count) in zip(task.names, task.row_spans):
        pairs = candidate_pairs_of_name(ctx.scn, name)
        assert len(pairs) == count, "γ row span drifted from the network"
        name_pairs.append((name, pairs))
        blocks.append(gamma[offset : offset + count])
    scores = match_scores(
        model,
        np.concatenate(blocks) if blocks else np.zeros((0, 6), dtype=np.float64),
    )
    network = ctx.scn.subnetwork(task.vids)
    computer = ctx.computer(network)
    outcome = run_merge_rounds(
        network,
        [name for name, _pairs in name_pairs],
        model,
        computer,
        task.config,
        round1=(name_pairs, scores),
    )
    # Same-name merges keep representatives inside the owned set, so the
    # halo survives untouched — strip it before shipping the block back.
    owned = set(task.owned_vids)
    survivors = [v.vid for v in outcome.network if v.vid in owned]
    return _ShardFit(
        index=task.index,
        network=outcome.network.subnetwork(survivors),
        n_merges=outcome.n_merges,
        per_round_candidate_pairs=outcome.per_round_candidate_pairs,
        per_round_merges=outcome.per_round_merges,
        decision_seconds=outcome.decision_seconds,
        seconds=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------- #
# γ layout
# --------------------------------------------------------------------- #
@dataclass(slots=True)
class _GammaPlan:
    """Global γ-buffer layout: canonical row order + pair-count chunks.

    Rows follow the exact candidate order the single-process fit
    enumerates (``scn.names`` order, per-name sorted-vid pairs), so the
    training sample is a plain row slice and per-name spans are
    contiguous.  ``tasks`` tile that order into
    :data:`GAMMA_CHUNK_PAIRS`-sized chunks of whole names.
    """

    ordered_names: list[str]
    name_rows: dict[str, tuple[int, int]]    # name -> (offset, count)
    all_pairs: list[Pair]
    tasks: list[_GammaChunkTask]
    chunk_of_name: dict[str, int]
    chunk_starts: list[int]                  # first row of each chunk
    total_rows: int

    def chunk_of_row(self, row: int) -> int:
        """Index of the chunk that computes γ-buffer row ``row``."""
        return bisect_right(self.chunk_starts, row) - 1


def _plan_gamma(scn: CollaborationNetwork) -> _GammaPlan:
    """Lay out every pair-bearing name's candidates into one flat buffer."""
    ordered_names: list[str] = []
    name_rows: dict[str, tuple[int, int]] = {}
    all_pairs: list[Pair] = []
    offset = 0
    for name in scn.names:
        pairs = candidate_pairs_of_name(scn, name)
        if not pairs:
            continue
        ordered_names.append(name)
        name_rows[name] = (offset, len(pairs))
        all_pairs.extend(pairs)
        offset += len(pairs)

    budget = GAMMA_CHUNK_PAIRS
    tasks: list[_GammaChunkTask] = []
    chunk_of_name: dict[str, int] = {}
    chunk_starts: list[int] = []
    current: list[str] = []
    current_rows = 0
    start = 0
    for name in ordered_names:
        row_offset, count = name_rows[name]
        if current and current_rows + count > budget:
            tasks.append(
                _GammaChunkTask(
                    index=len(tasks),
                    names=tuple(current),
                    offset=start,
                    n_pairs=current_rows,
                )
            )
            chunk_starts.append(start)
            current, current_rows, start = [], 0, row_offset
        current.append(name)
        chunk_of_name[name] = len(tasks)
        current_rows += count
    if current:
        tasks.append(
            _GammaChunkTask(
                index=len(tasks),
                names=tuple(current),
                offset=start,
                n_pairs=current_rows,
            )
        )
        chunk_starts.append(start)
    return _GammaPlan(
        ordered_names=ordered_names,
        name_rows=name_rows,
        all_pairs=all_pairs,
        tasks=tasks,
        chunk_of_name=chunk_of_name,
        chunk_starts=chunk_starts,
        total_rows=offset,
    )


# --------------------------------------------------------------------- #
# execution accounting
# --------------------------------------------------------------------- #
@dataclass(slots=True)
class _PhaseStats:
    """Pipeline phase walls + transport counters of one sharded fit.

    ``*_wall_seconds`` are parent-observed spans (submission of the first
    task of a kind to completion of its last), ``*_task_seconds`` are
    worker-summed compute; on a pool their walls overlap, which is the
    point — ``overlap_seconds`` is the wall-clock the pipelining bought
    versus running γ → EM → decisions as sequential barriers.
    """

    pipeline_seconds: float = 0.0
    gamma_wall_seconds: float = 0.0
    split_wall_seconds: float = 0.0
    em_seconds: float = 0.0
    decide_wall_seconds: float = 0.0
    overlap_seconds: float = 0.0
    gamma_task_seconds: float = 0.0
    split_task_seconds: float = 0.0
    decide_task_seconds: float = 0.0
    n_gamma_chunks: int = 0
    overlap_gamma_chunks: int = 0
    ipc_task_bytes: int = 0
    shm_bytes: int = 0


@dataclass(slots=True)
class _FitOutcome:
    """Everything :meth:`ShardedIUAD._run` hands back to ``fit``."""

    model: MatchMixture
    em_report: object
    n_train: int
    n_split: int
    shard_fits: list[_ShardFit]
    shard_gamma: dict[int, float]
    phase: _PhaseStats


class _InlineExecutor(Executor):
    """Runs each task in the calling process at submission.

    The ``n_workers == 0`` executor of :meth:`ShardedIUAD._run`: every
    future it returns is already complete — holding the task's result,
    or the exception it raised for ``Future.result`` to re-raise — so
    the pooled schedule runs unchanged, one task after another.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


# --------------------------------------------------------------------- #
# orchestrator
# --------------------------------------------------------------------- #
class ShardedIUAD(IUAD):
    """Algorithm 1 executed shard-by-shard over independent name blocks.

    Drop-in replacement for :class:`~repro.core.iuad.IUAD`: same
    constructor, same ``fit`` signature, same fitted-state accessors, and
    — for ``merge_rounds == 1`` — mention clusterings identical to the
    single-process fit.  ``config.n_workers`` picks the executor of the
    one pipelined schedule (:meth:`_run`): a ``ProcessPoolExecutor`` of
    that size, or for ``0`` an in-process executor running each task at
    submission.  Both are deterministic, including under process-pool
    scheduling (results are collected in shard order, never in
    completion order).

    After fitting, ``shard_index_`` routes streaming inserts
    (:class:`~repro.core.streaming.StreamingIngestor`) to their
    owning shard, ``cannot_links_`` holds the re-derived cannot-link
    pairs of the stitched network, and ``report_.shard_stats`` carries
    the per-shard counters.
    """

    def __init__(self, config: IUADConfig | None = None):
        super().__init__(config)
        self.plan_: ShardPlan | None = None
        self.shard_index_: ShardIndex | None = None
        self.cannot_links_: list[Pair] = []

    # ------------------------------------------------------------------ #
    def fit(
        self, corpus: Corpus, names: Iterable[str] | None = None
    ) -> "ShardedIUAD":
        """Run the sharded Algorithm 1 on ``corpus``.

        Identical contract to :meth:`IUAD.fit`; ``names`` restricts the
        merge decisions while the model still trains on candidates from
        every name block.
        """
        global _CTX
        cfg = self.config
        t0 = time.perf_counter()
        scn, scn_report = self._build_scn(corpus)
        stage1 = time.perf_counter() - t0

        t1 = time.perf_counter()
        self.embeddings_ = self._train_embeddings(corpus)
        word_freq = dict(corpus_word_frequencies(p.title for p in corpus))
        venue_freq = dict(corpus.venue_frequencies)

        plan = plan_shards(
            scn,
            corpus,
            max_shard_size=cfg.max_shard_size,
            halo_radius=max(1, cfg.wl_iterations),
        )
        decision_names = list(corpus.names if names is None else names)
        decision_set = set(decision_names)

        gplan = _plan_gamma(scn)
        split_pairs, split_tasks, split_network = self._split_tasks(scn)
        # The training sample is known *before* any γ is computed: the
        # global candidate order is a pure function of the SCN, so the
        # sample (identical to the single-process draw) tells the pool
        # driver exactly which γ chunks the EM midsection must await —
        # the rest keep computing underneath it.
        training = sample_training_pairs(
            gplan.all_pairs, cfg.sample_rate, cfg.min_training_pairs, cfg.seed
        )
        row_of = {pair: i for i, pair in enumerate(gplan.all_pairs)}
        training_rows = [row_of[pair] for pair in training]

        previous_ctx = _CTX
        shm_blocks: list[shared_memory.SharedMemory] = []
        try:
            outcome = self._run(
                scn, corpus, plan, gplan, split_pairs, split_tasks,
                split_network, training, training_rows, decision_set,
                word_freq, venue_freq, shm_blocks,
            )
        finally:
            _CTX = previous_ctx
            # The pool is joined by now (its context manager exits inside
            # ``_run``), so no worker still reads these segments.
            for shm in shm_blocks:
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - a traceback frame
                    pass             # still pins a view; unlink regardless
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        model = outcome.model
        shard_fits = outcome.shard_fits

        # Deterministic merge: shard networks in index order, then the
        # singleton fast path, stitched under one fresh id space.
        t_stitch = time.perf_counter()
        nets = [fit.network for fit in shard_fits]
        if plan.fastpath_vids:
            nets.append(scn.subnetwork(plan.fastpath_vids))
        gcn, _mappings = combine_networks(nets)
        touched = self._recover_relations(gcn, corpus)
        # Re-apply the cannot-link constraints on the stitched id space:
        # the pairs that must never merge (homonymous co-authors) are
        # re-derived from the preserved mention payloads and re-registered
        # — registration itself re-validates that no stitched component
        # already violates one.
        self.cannot_links_ = cannot_link_pairs(gcn)
        guard: UnionFind = UnionFind(v.vid for v in gcn)
        for cl_u, cl_v in self.cannot_links_:
            guard.forbid(cl_u, cl_v)
        stitch_seconds = time.perf_counter() - t_stitch

        computer = SimilarityComputer(
            gcn,
            corpus,
            embeddings=self.embeddings_,
            word_frequencies=word_freq,
            wl_iterations=cfg.wl_iterations,
            decay_alpha=cfg.decay_alpha,
            venue_frequencies=venue_freq,
        )
        computer.invalidate_many(touched)
        stage2 = time.perf_counter() - t1

        self.corpus_ = corpus
        self.scn_ = scn
        self.gcn_ = gcn
        self.model_ = model
        self.computer_ = computer
        self.plan_ = plan
        self.shard_index_ = ShardIndex(plan.name_to_shard, plan.n_blocks)
        self.report_ = self._build_report(
            scn_report, outcome, plan, gcn, stage1, stage2, stitch_seconds,
        )
        return self

    # ------------------------------------------------------------------ #
    # the scheduler
    # ------------------------------------------------------------------ #
    def _run(
        self,
        scn: CollaborationNetwork,
        corpus: Corpus,
        plan: ShardPlan,
        gplan: _GammaPlan,
        split_pairs: list[Pair],
        split_tasks: list[_SplitScoreTask],
        split_network: CollaborationNetwork | None,
        training: list[Pair],
        training_rows: list[int],
        decision_set: set[str],
        word_freq: dict[str, int],
        venue_freq: dict[str, int],
        shm_blocks: list[shared_memory.SharedMemory],
    ) -> _FitOutcome:
        """The A → EM → B pipeline: submit/as_completed, no phase barriers.

        Timeline: all split-balance chunks, then all γ chunks, are
        submitted up front (split chunks first: EM needs every one of
        them, but only the γ chunks holding a sampled row); the EM
        midsection starts once the split buffer and the *sampled* γ rows
        are in; each shard's decision task is dispatched the moment both
        the model and its γ rows exist.

        ``config.n_workers >= 1`` runs the tasks in a process pool over
        shared-memory result blocks, so the γ tail computes underneath
        EM.  ``0`` runs the same schedule through :class:`_InlineExecutor`
        over plain arrays: every task completes at submission, so the
        phases follow one another and their walls tile the pipeline.
        Results are keyed by chunk/shard index, so completion order
        never leaks into the outcome.
        """
        cfg = self.config
        # A fit without candidate pairs has no γ work worth a pool.
        pooled = cfg.n_workers >= 1 and bool(gplan.tasks)
        gamma_ref, gamma_buf = self._result_block(
            gplan.total_rows, shm_blocks, pooled
        )
        split_ref, split_buf = self._result_block(
            len(split_pairs), shm_blocks, pooled
        )
        ctx = self._make_context(
            scn, corpus, word_freq, venue_freq, gamma_ref,
            split_network, split_ref,
        )
        # In-process tasks read the module-level context directly, and
        # fork workers inherit it copy-on-write — setting it before the
        # pool forks ships the SCN/corpus to every worker for free.
        _init_worker(ctx)
        executor = self._process_pool(ctx) if pooled else _InlineExecutor()

        phase = _PhaseStats(
            n_gamma_chunks=len(gplan.tasks),
            shm_bytes=sum(shm.size for shm in shm_blocks),
        )
        chunk_secs: dict[int, float] = {}
        first_submit: dict[str, float] = {}
        finished_at: dict[tuple[str, int], float] = {}

        def submit(kind: str, fn, task) -> Future:
            if pooled:
                phase.ipc_task_bytes += len(
                    pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
                )
            first_submit.setdefault(kind, time.perf_counter())
            fut = executor.submit(fn, task)
            key = (kind, task.index)
            fut.add_done_callback(
                lambda _fut: finished_at.__setitem__(key, time.perf_counter())
            )
            return fut

        with executor:
            t_pipe = time.perf_counter()
            split_futs = [
                submit("split", _score_split_chunk, split_task)
                for split_task in split_tasks
            ]
            gamma_futs = {
                submit("gamma", _compute_gamma_chunk, task): task
                for task in gplan.tasks
            }
            for fut in split_futs:
                phase.split_task_seconds += fut.result().seconds

            # The EM midsection additionally needs exactly the γ chunks
            # carrying a sampled training row — not the whole phase.
            needed = {gplan.chunk_of_row(row) for row in training_rows}
            em_futs = [
                fut for fut, task in gamma_futs.items() if task.index in needed
            ]
            done_chunks: set[int] = set()
            for fut in as_completed(em_futs):
                done = fut.result()
                done_chunks.add(done.index)
                chunk_secs[done.index] = done.seconds
                phase.gamma_task_seconds += done.seconds

            t_em = time.perf_counter()
            model, em_report, n_train, n_split = self._central_section(
                scn, corpus, training, training_rows,
                gamma_buf, split_pairs, split_buf,
            )
            phase.em_seconds = time.perf_counter() - t_em

            if pooled:
                model_ref = self._broadcast_model(model, shm_blocks)
                phase.shm_bytes += model_ref.nbytes
            else:
                model_ref = _ModelRef(model=model)
            tasks, fits = self._decision_tasks(
                plan, gplan, decision_set, model_ref, scn
            )
            pending = {task.index: task for task in tasks}
            rows_needed = {
                task.index: {gplan.chunk_of_name[name] for name in task.names}
                for task in tasks
            }
            decide_futs: list[Future] = []

            def dispatch_ready() -> None:
                ready = [
                    index
                    for index, chunks in rows_needed.items()
                    if index in pending and chunks <= done_chunks
                ]
                for index in ready:
                    decide_futs.append(
                        submit("decide", _fit_shard, pending.pop(index))
                    )

            # Shards whose γ landed before the model go out immediately;
            # the rest dispatch as their tail chunks complete.
            dispatch_ready()
            tail = [
                fut
                for fut, task in gamma_futs.items()
                if task.index not in done_chunks
            ]
            for fut in as_completed(tail):
                done = fut.result()
                done_chunks.add(done.index)
                chunk_secs[done.index] = done.seconds
                phase.gamma_task_seconds += done.seconds
                dispatch_ready()
            assert not pending, "decision dispatch lost a shard"
            for fut in as_completed(decide_futs):
                fit = fut.result()
                phase.decide_task_seconds += fit.seconds
                fits[fit.index] = fit
            t_end = time.perf_counter()

        # The executor is shut down: every done-callback has fired, so
        # the completion stamps are final.
        def wall(kind: str) -> float:
            done = [ts for (k, _), ts in finished_at.items() if k == kind]
            return max(done) - first_submit[kind] if done else 0.0

        phase.gamma_wall_seconds = wall("gamma")
        phase.split_wall_seconds = wall("split")
        phase.decide_wall_seconds = wall("decide")
        phase.pipeline_seconds = t_end - t_pipe
        phase.overlap_gamma_chunks = sum(
            1 for (k, _), ts in finished_at.items() if k == "gamma" and ts > t_em
        )
        # Concurrency won: how much longer the phases would have taken
        # laid end to end.  On a pool, split chunks run alongside the γ
        # chunks and the γ tail runs under EM/decide, so the sum of walls
        # can legitimately exceed the pipeline; inline it never does.
        phase.overlap_seconds = max(
            0.0,
            phase.gamma_wall_seconds
            + phase.split_wall_seconds
            + phase.em_seconds
            + phase.decide_wall_seconds
            - phase.pipeline_seconds,
        )

        shard_gamma = self._attribute_gamma(gplan, plan, chunk_secs)
        return _FitOutcome(
            model=model,
            em_report=em_report,
            n_train=n_train,
            n_split=n_split,
            shard_fits=[fits[shard.index] for shard in plan.shards],
            shard_gamma=shard_gamma,
            phase=phase,
        )

    # ------------------------------------------------------------------ #
    # scheduler helpers
    # ------------------------------------------------------------------ #
    def _make_context(
        self,
        scn: CollaborationNetwork,
        corpus: Corpus,
        word_freq: dict[str, int],
        venue_freq: dict[str, int],
        gamma_ref: _ArrayRef,
        split_network: CollaborationNetwork | None,
        split_ref: _ArrayRef,
    ) -> _WorkerContext:
        cfg = self.config
        return _WorkerContext(
            scn=scn,
            corpus=corpus,
            word_frequencies=word_freq,
            venue_frequencies=venue_freq,
            embeddings=self.embeddings_,
            wl_iterations=cfg.wl_iterations,
            decay_alpha=cfg.decay_alpha,
            gamma_ref=gamma_ref,
            split_network=split_network,
            split_ref=split_ref,
        )

    def _process_pool(self, ctx: _WorkerContext) -> ProcessPoolExecutor:
        """The worker pool of a ``config.n_workers >= 1`` fit.

        Fork workers inherit the context :meth:`_run` installed before
        the pool forks; spawn/forkserver workers receive it pickled once
        through the initializer.  Either way the initializer then
        freezes the worker heap (see :func:`_boot_pool_worker`).
        """
        cfg = self.config
        method = cfg.mp_start_method or (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        return ProcessPoolExecutor(
            max_workers=cfg.n_workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_boot_pool_worker,
            initargs=() if method == "fork" else (ctx,),
        )

    @staticmethod
    def _result_block(
        rows: int, shm_blocks: list[shared_memory.SharedMemory], shared: bool
    ) -> tuple[_ArrayRef, np.ndarray]:
        """A ``(rows, 6)`` float64 result block the tasks fill in place.

        Returns the task-facing reference and the parent's own view.
        ``shared`` blocks are backed by a shared-memory segment that pool
        workers write into; in-process runs hold a plain array, as do
        zero-row blocks (``SharedMemory`` forbids empty segments).
        """
        if not shared or rows == 0:
            array = np.zeros((rows, 6), dtype=np.float64)
            return _ArrayRef(rows=rows, array=array), array
        shm = shared_memory.SharedMemory(create=True, size=rows * 6 * 8)
        shm_blocks.append(shm)
        view = np.ndarray((rows, 6), dtype=np.float64, buffer=shm.buf)
        view[:] = 0.0
        return _ArrayRef(rows=rows, shm_name=shm.name), view

    @staticmethod
    def _broadcast_model(
        model: MatchMixture, shm_blocks: list[shared_memory.SharedMemory]
    ) -> _ModelRef:
        """Publish the fitted mixture once for every Phase-B worker."""
        blob = pickle.dumps(model, pickle.HIGHEST_PROTOCOL)
        shm = shared_memory.SharedMemory(create=True, size=len(blob))
        shm.buf[: len(blob)] = blob
        shm_blocks.append(shm)
        return _ModelRef(shm_name=shm.name, nbytes=len(blob))

    def _split_tasks(
        self, scn: CollaborationNetwork
    ) -> tuple[list[Pair], list[_SplitScoreTask], CollaborationNetwork | None]:
        """Split-balance matched pairs, in chunks of
        :data:`SPLIT_CHUNK_PAIRS` — never sized by the worker count — so
        the layout (and the float accumulation order behind it) is
        identical in-process and on a pool.
        """
        cfg = self.config
        if not cfg.balance_split:
            return [], [], None
        split = split_prolific_vertices(
            scn,
            min_papers=cfg.split_min_papers,
            max_vertices=cfg.max_split_vertices,
            seed=cfg.seed,
        )
        pairs = list(split.matched_pairs)
        if not pairs:
            return [], [], None
        chunk = SPLIT_CHUNK_PAIRS
        tasks = [
            _SplitScoreTask(
                index=i, offset=start, pairs=pairs[start : start + chunk]
            )
            for i, start in enumerate(range(0, len(pairs), chunk))
        ]
        return pairs, tasks, split.network

    def _central_section(
        self,
        scn: CollaborationNetwork,
        corpus: Corpus,
        training: list[Pair],
        training_rows: list[int],
        gamma_buf: np.ndarray,
        split_pairs: list[Pair],
        split_buf: np.ndarray,
    ):
        """The serial middle: sampled training rows + EM fit.

        The γ buffer is already in the exact global order the
        single-process fit enumerates (``scn.names`` order, per-name
        sorted-vid pairs — see :func:`_plan_gamma`), so the sampled rows
        are a plain slice; nothing is re-scored.  Both inputs are
        materialised as copies so no EM state pins the shared-memory
        segments past the pool's lifetime.
        """
        training_gammas = (
            gamma_buf[training_rows]
            if training_rows
            else np.zeros((0, 6), dtype=np.float64)
        )
        split_gammas = np.array(split_buf, dtype=np.float64, copy=True)
        return self._learn_model(
            scn,
            corpus,
            None,
            precomputed=(training, training_gammas),
            precomputed_split=(split_pairs, split_gammas),
        )

    def _decision_tasks(
        self,
        plan: ShardPlan,
        gplan: _GammaPlan,
        decision_set: set[str],
        model_ref: _ModelRef,
        scn: CollaborationNetwork,
    ) -> tuple[list[_DecisionTask], dict[int, _ShardFit]]:
        """Phase-B tasks plus pre-filled pass-through fits, by shard index.

        Tasks carry name lists, vid tuples and γ-row spans only — scores
        are recomputed worker-side from the shared buffer and the cached
        broadcast model, so no score array or model copy rides in any
        task.  A shard whose names all fall outside the decision set
        passes its block through unchanged, like the singleton fast path.
        """
        cfg = self.config
        tasks: list[_DecisionTask] = []
        fits: dict[int, _ShardFit] = {}
        for shard in plan.shards:
            decision_names = tuple(
                name for name in shard.names if name in decision_set
            )
            if not decision_names:
                fits[shard.index] = _ShardFit(
                    index=shard.index,
                    network=scn.subnetwork(shard.owned_vids),
                    n_merges=0,
                    per_round_candidate_pairs=[0],
                    per_round_merges=[0],
                    decision_seconds=0.0,
                    seconds=0.0,
                )
                continue
            tasks.append(
                _DecisionTask(
                    index=shard.index,
                    names=decision_names,
                    vids=shard.owned_vids + shard.halo_vids,
                    owned_vids=shard.owned_vids,
                    row_spans=tuple(
                        gplan.name_rows[name] for name in decision_names
                    ),
                    model=model_ref,
                    config=cfg,
                )
            )
        return tasks, fits

    @staticmethod
    def _attribute_gamma(
        gplan: _GammaPlan, plan: ShardPlan, chunk_secs: dict[int, float]
    ) -> dict[int, float]:
        """Attribute chunk γ seconds to shards by pair share.

        γ chunks tile the global pair order and cut across shard
        boundaries, so per-shard γ time is reconstructed by prorating
        each chunk over its names' candidate pairs.
        """
        per_shard: dict[int, float] = {}
        for task in gplan.tasks:
            seconds = chunk_secs.get(task.index, 0.0)
            total = max(task.n_pairs, 1)
            for name in task.names:
                shard_id = plan.name_to_shard.get(name)
                if shard_id is not None:
                    share = seconds * (gplan.name_rows[name][1] / total)
                    per_shard[shard_id] = per_shard.get(shard_id, 0.0) + share
        return per_shard

    def _build_report(
        self,
        scn_report,
        outcome: _FitOutcome,
        plan: ShardPlan,
        gcn: CollaborationNetwork,
        stage1: float,
        stage2: float,
        stitch_seconds: float,
    ) -> FitReport:
        per_round_pairs: list[int] = []
        per_round_merges: list[int] = []
        shard_stats: list[ShardStats] = []
        n_merges = 0
        # Table V's decision total: γ chunk compute + each shard's loop.
        decision_seconds = outcome.phase.gamma_task_seconds
        for shard, fit in zip(plan.shards, outcome.shard_fits):
            for i, count in enumerate(fit.per_round_candidate_pairs):
                if i >= len(per_round_pairs):
                    per_round_pairs.append(0)
                    per_round_merges.append(0)
                per_round_pairs[i] += count
                per_round_merges[i] += fit.per_round_merges[i]
            n_merges += fit.n_merges
            decision_seconds += fit.decision_seconds
            shard_stats.append(
                ShardStats(
                    index=shard.index,
                    n_names=len(shard.names),
                    n_vertices=len(shard.owned_vids),
                    n_halo=len(shard.halo_vids),
                    n_papers=len(shard.pids),
                    n_candidate_pairs=shard.n_candidate_pairs,
                    n_decision_pairs=(
                        fit.per_round_candidate_pairs[0]
                        if fit.per_round_candidate_pairs
                        else 0
                    ),
                    n_merges=fit.n_merges,
                    gamma_seconds=outcome.shard_gamma.get(shard.index, 0.0),
                    decide_seconds=fit.seconds,
                )
            )
        return FitReport(
            scn=scn_report,
            em=outcome.em_report,
            n_candidate_pairs=per_round_pairs[0] if per_round_pairs else 0,
            n_training_pairs=outcome.n_train,
            n_split_pairs=outcome.n_split,
            n_merges=n_merges,
            gcn_vertices=len(gcn),
            gcn_mentions=gcn.n_mentions,
            gcn_edges=gcn.n_edges,
            stage1_seconds=stage1,
            stage2_seconds=stage2,
            decision_seconds=decision_seconds,
            per_round_candidate_pairs=per_round_pairs,
            per_round_merges=per_round_merges,
            n_shards=len(plan.shards),
            n_fastpath_vertices=len(plan.fastpath_vids),
            partition_seconds=plan.seconds,
            stitch_seconds=stitch_seconds,
            shard_stats=shard_stats,
            **asdict(outcome.phase),
        )
