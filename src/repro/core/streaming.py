"""Streaming ingestion: Section V-E's incremental rule, a burst at a time.

A newly published paper ``p`` carrying name ``a`` is first an isolated
probe vertex ``v_a``.  Its similarity vector against every existing GCN
vertex of name ``a`` is scored with the *already learned* parameters;
the mention attaches to the argmax vertex ``v_k`` iff
``sc_k ≥ incremental_delta``, otherwise ``v_a`` stays a new vertex.  No
retraining happens — the property that makes IUAD incremental (Table VI
measures the cost per paper).

Mention identity is positional: each occurrence on ``p``'s co-author
list is decided separately, and a vertex already owning an occurrence
of ``p`` is barred from its later occurrences, so a paper listing one
name twice always yields two distinct vertices.  Ties on the matching
score go to the *lowest vertex id*, never to enumeration order, so
equal-score candidates attach identically after a shard stitch and
after a whole-corpus fit (whose name-index orders differ).

:class:`StreamingIngestor` has one ingest path,
:meth:`~StreamingIngestor.add_papers`; ``add_paper(p)`` is
``add_papers([p])[0]``.  A burst runs in three steps:

1. **Admission** — duplicates follow ``duplicate_paper_policy``, fresh
   papers are routed through the fitted
   :class:`~repro.core.sharding.ShardIndex` (when present) in batch
   order, and probe vertices are allocated in batch × position order —
   the order a one-at-a-time loop allocates them, so surviving vertices
   keep identical ids.
2. **Snapshot scoring** — the ``(probe, candidate)`` pairs of every
   mention are scored in ONE ``pair_matrix`` / ``match_scores`` call.
   Probes of not-yet-applied papers are hidden from candidate
   enumeration; each mention keeps a zero-copy slice of the scores.
3. **Ordered walk with exact value stains** — papers are applied in
   batch order.  Each application *stains* exactly the vertices whose
   similarity inputs it changed: the attach targets (their keyword/venue
   state is folded into the cache in place by
   ``SimilarityComputer.attach_paper``) and, when collaboration edges
   went in, the vertices whose radius-``h`` WL ball gained a vertex or
   an induced edge (:func:`_value_stain`).  The stain doubles as the
   cache invalidation.  A mention whose candidates are unchanged and
   unstained consumes its snapshot slice; a stale pair is re-scored
   inline against the live network — what a one-at-a-time loop computes
   at that point.  A burst of unrelated papers rides the snapshot
   wholesale; a self-dependent burst degrades toward one-at-a-time cost.

Parity contract: however a stream is cut into bursts, ``add_papers``
produces the same GCN (vertex ids, names, papers, mention payloads,
edges), the same assignments (scores to ≤1e-9) and the same report
counters as the paper-faithful per-mention loop
:func:`repro.core.incremental.sequential_add_paper`, the test oracle —
including same-paper homonyms, shard-bridging papers and duplicates
(``tests/test_streaming_parity.py``).  Every cached column set left
behind equals a fresh build (``tests/test_incremental.py``): the oracle's wider
radius-``h`` drop would only rebuild the same values.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..data.records import Paper
from ..graphs.collab import CollaborationNetwork
from ..graphs.wl import multi_source_ball
from ..model.scoring import match_scores


@dataclass(slots=True)
class Assignment:
    """Outcome of disambiguating one mention of a new paper."""

    name: str
    position: int  # occurrence index into the paper's co-author list
    vid: int
    created: bool  # True when a fresh vertex was created
    score: float   # best Eq. 11 score (−inf when no candidates existed;
                   # nan for an idempotent duplicate replay)


@dataclass(slots=True)
class IncrementalReport:
    """Stream statistics: papers processed and time spent.

    ``n_mentions`` counts occurrences — a paper listing one name twice
    contributes two mentions, matching the per-occurrence model everywhere
    else in the pipeline.

    ``per_shard_papers`` is filled only when the fitted estimator carries
    a shard index (:class:`repro.core.sharding.ShardedIUAD`): it counts
    streamed papers per owning (canonical) shard id, the locality
    evidence that every insert touched exactly one name block.

    Timing is a total, not per-paper samples: ``seconds`` is the summed
    wall-clock of every call that ingested a fresh paper, so the report
    (and every snapshot or delta record carrying it) stays O(1) however
    long the stream runs.  :attr:`avg_ms_per_paper` divides it by
    ``n_papers``.

    ``n_batches`` / ``n_waves`` count ``add_papers`` calls (``add_paper``
    is a one-paper call) and the vectorised snapshot-scoring rounds they
    ran (one per call with a fresh paper).  ``n_duplicates`` counts
    idempotent duplicate replays (``duplicate_paper_policy="return"``).
    """

    n_papers: int = 0
    n_mentions: int = 0
    n_attached: int = 0
    n_created: int = 0
    n_duplicates: int = 0
    n_batches: int = 0
    n_waves: int = 0
    seconds: float = 0.0
    per_shard_papers: dict[int, int] = field(default_factory=dict)

    def count_shards(self, shards: Sequence[int]) -> None:
        """Count one routed paper against each (canonical) shard id."""
        for shard in shards:
            self.per_shard_papers[shard] = (
                self.per_shard_papers.get(shard, 0) + 1
            )

    @property
    def avg_ms_per_paper(self) -> float:
        """Average wall-clock per paper in milliseconds (Table VI row).

        Exact over the whole stream (running sums).  Guarded for the
        empty stream: a report that has processed no papers yet answers
        ``0.0`` instead of dividing by zero.
        """
        if self.n_papers == 0:
            return 0.0
        return 1000.0 * self.seconds / self.n_papers


@dataclass(slots=True)
class BatchStats:
    """Execution counters of one ``add_papers`` burst.

    ``n_scored_pairs`` are pairs scored through the vectorised snapshot
    call; ``n_patched_pairs`` the stale pairs re-scored inline against
    the live network at their paper's turn (``n_patch_calls`` scoring
    calls).  The patched share is the burst's intra-batch dependency
    rate — 0 for a burst of unrelated papers.
    """

    n_papers: int
    n_fresh: int
    n_duplicates: int
    n_scored_pairs: int
    n_patched_pairs: int
    n_patch_calls: int
    plan_seconds: float
    score_seconds: float
    apply_seconds: float
    seconds: float


def _value_stain(
    gcn: CollaborationNetwork, assigned: list[int], radius: int
) -> set[int]:
    """Vertices whose *similarity inputs* the new clique edges changed.

    Exact, not conservative: ``φ⟨h⟩(c)`` (and the triangle set of ``c``)
    reads only the induced subgraph of ``ball(c, h)``, so inserting the
    edge ``(u, v)`` changes ``c``'s profile iff the ball's vertex set
    grew — an endpoint within ``h − 1`` hops of ``c`` pulled the other
    in — or the ball gained an induced edge — both endpoints already
    within ``h`` hops.  Over the clique on ``assigned`` that is::

        ball(assigned, h−1)  ∪  ⋃_{u<v} ball(u, h) ∩ ball(v, h)

    Computed on the live network (the clique edges are already in), so
    chains through this batch's earlier insertions are included.  Every
    vertex outside this set keeps bit-identical columns, which is why
    the walk may keep both its cached columns and its snapshot scores.
    """
    vids = sorted(set(assigned))
    stain = multi_source_ball(gcn, vids, radius - 1)
    balls = {u: multi_source_ball(gcn, (u,), radius) for u in vids}
    for i, u in enumerate(vids):
        for v in vids[i + 1 :]:
            stain |= balls[u] & balls[v]
    return stain


class StreamingIngestor:
    """The writer: streams newly published papers into a fitted IUAD.

    :meth:`add_papers` ingests a burst and returns one assignment list
    per input paper, in input order; :meth:`add_paper` is the one-paper
    burst.  ``last_batch`` holds the :class:`BatchStats` of the most
    recent call; cumulative counters ride on ``report``.  The same class
    is importable as :class:`repro.core.incremental.
    IncrementalDisambiguator`, the paper's name for it.

    Checkpointing: with a ``checkpoint_path`` (and
    ``config.checkpoint_every_n_papers > 0``) the ingestor periodically
    persists the complete fitted state — network, model, corpus,
    counters, shard routing — as an atomic snapshot (:mod:`repro.io`).
    :meth:`resume` warm-starts from such a snapshot in a fresh process
    and **replays nothing**: the restored state already contains every
    checkpointed paper, so the continuation is exactly the uninterrupted
    stream (``tests/test_snapshot_parity.py``).

    Checkpoint *modes* (``config.checkpoint_mode`` or the ``mode=``
    argument): ``"full"`` rewrites the complete snapshot — O(corpus) per
    checkpoint; ``"delta"`` writes the base once, then each checkpoint
    appends an O(burst) replayable record (the papers and assignment
    decisions since the previous checkpoint — journaled as they happen,
    no re-derivation) to a ``<path>.delta`` sibling log
    (:mod:`repro.io.delta`).  :meth:`resume` replays base + chain to the
    byte-identical state, and the chain keeps extending across resumes.
    Every ``config.compact_every_n_deltas`` appends the chain is folded
    back into the base; a *full* checkpoint to the base path does the
    same fold explicitly, while a full checkpoint to any other path is a
    side snapshot that leaves the chain untouched.

    Thread safety: a writer lock serializes :meth:`add_papers` and
    :meth:`checkpoint`, so a checkpoint requested from another thread
    while bursts are running (the serving layer's pattern — requests
    keep queueing while the writer drains) can never observe a
    half-applied burst: it always captures a consistent *post-burst*
    state, and resuming it then replaying the still-queued papers
    reproduces exactly the clustering of draining the queue first and
    checkpointing after (``tests/test_service.py`` pins this).  Queries
    are not serialized — readers are expected to go through an
    immutable :class:`~repro.service.FittedView`, never the live writer.
    """

    def __init__(
        self,
        iuad,
        checkpoint_path: str | Path | None = None,
        checkpoint_backend: str | None = None,
    ) -> None:
        if iuad.gcn_ is None or iuad.model_ is None or iuad.computer_ is None:
            raise ValueError("IUAD must be fitted before incremental use")
        self.iuad = iuad
        self.report = IncrementalReport()
        # A sharded fit exposes its name-block routing; inserts are then
        # accounted to (and structurally confined to) the shard owning
        # the paper's names.  Plain IUAD fits have no index.
        self.shard_index = getattr(iuad, "shard_index_", None)
        self.last_batch: BatchStats | None = None
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_backend = checkpoint_backend
        self._papers_since_checkpoint = 0
        # Re-entrant: add_papers -> _maybe_checkpoint -> checkpoint
        # re-acquires while the burst still holds the write side.
        self._write_lock = threading.RLock()
        # Delta-chain state: the journal collects (paper, decisions)
        # pairs as ingestion happens — a delta checkpoint drains it into
        # one appended record.  Armed up front in delta mode (or by the
        # first explicit delta checkpoint).
        self._journal: list[tuple[Paper, list[tuple[int, bool]]]] = []
        self._journal_armed = iuad.config.checkpoint_mode == "delta"
        self._delta_seq = 0
        self._delta_base_fp: str | None = None
        self._delta_base_path: Path | None = None
        self._delta_chain_len = 0

    @property
    def delta_chain_length(self) -> int:
        """Appended (un-compacted) delta records of the live chain."""
        return self._delta_chain_len

    def set_checkpoint_mode(self, mode: str) -> None:
        """Override ``config.checkpoint_mode`` on the live ingestor.

        Switching to ``"delta"`` arms the journal immediately, so every
        paper from this moment on is replayable; papers ingested before
        the switch are covered by the base the first delta checkpoint
        writes.
        """
        if mode not in ("full", "delta"):
            raise ValueError(
                f"checkpoint mode must be 'full' or 'delta', got {mode!r}"
            )
        with self._write_lock:
            self.iuad.config.checkpoint_mode = mode
            if mode == "delta":
                self._journal_armed = True

    # ------------------------------------------------------------------ #
    # durable checkpoints & warm-start resume
    # ------------------------------------------------------------------ #
    def checkpoint(
        self,
        path: str | Path | None = None,
        backend: str | None = None,
        mode: str | None = None,
    ) -> Path:
        """Write a durable checkpoint of the current state, atomically.

        The checkpoint carries the fitted estimator *and* this ingestor's
        report counters, so a :meth:`resume` continues both.  ``path`` /
        ``backend`` default to the constructor's checkpoint target;
        ``mode`` defaults to ``config.checkpoint_mode``.

        ``mode="full"`` rewrites the whole snapshot (a crash mid-write
        can never corrupt the previous checkpoint: tmp sibling + fsync +
        atomic rename).  To the live chain's base path it doubles as
        **compaction** — the chain is folded in and the log truncated.

        ``mode="delta"`` writes the base on first use, then appends one
        O(changes-since-last-checkpoint) record to ``<path>.delta``
        (durable: write + fsync).  The chain is pinned to one base path;
        auto-compaction folds it after
        ``config.compact_every_n_deltas`` appends.
        """
        target = Path(path) if path is not None else self.checkpoint_path
        if target is None:
            raise ValueError(
                "no checkpoint path: pass one here or to the constructor"
            )
        mode = mode if mode is not None else self.iuad.config.checkpoint_mode
        if mode not in ("full", "delta"):
            raise ValueError(
                f"checkpoint mode must be 'full' or 'delta', got {mode!r}"
            )
        backend = backend or self.checkpoint_backend
        with self._write_lock:
            if mode == "delta":
                self._checkpoint_delta(target, backend)
            else:
                self._checkpoint_full(target, backend)
            self._papers_since_checkpoint = 0
        return target

    def _checkpoint_full(self, target: Path, backend: str | None) -> None:
        from ..io import adapters as io_adapters
        from ..io import delta as delta_chain
        from ..io.snapshot import snapshot_of

        snapshot = snapshot_of(self.iuad, stream=self.report)
        if self._delta_base_path is not None and target == self._delta_base_path:
            # Full write over the chain's base = compaction: the new base
            # subsumes every appended record (watermark delta_seq), lands
            # atomically, and only then is the log truncated — a crash in
            # between leaves a log of records the base already skips.
            snapshot.delta_seq = self._delta_seq
            document = snapshot.to_document()
            io_adapters.write_document(document, target, backend)
            self._delta_base_fp = delta_chain.document_fingerprint(document)
            self._delta_chain_len = 0
            self._journal.clear()
            log_path = delta_chain.delta_log_path(target)
            if log_path.exists():
                delta_chain.truncate_log(log_path)
        else:
            # Side snapshot (or no chain at all): the chain, the journal
            # and the watermark are untouched.
            snapshot.save(target, backend=backend)

    def _checkpoint_delta(self, target: Path, backend: str | None) -> None:
        from ..io import adapters as io_adapters
        from ..io import delta as delta_chain
        from ..io.snapshot import _encode_stream, snapshot_of

        if self._delta_base_path is not None and target != self._delta_base_path:
            raise ValueError(
                f"delta checkpoints extend the chain at "
                f"{self._delta_base_path}; cannot append to {target} "
                "(write a full checkpoint there instead)"
            )
        self._journal_armed = True
        if self._delta_base_fp is None:
            # First delta checkpoint: establish the base (O(corpus), once).
            snapshot = snapshot_of(self.iuad, stream=self.report)
            snapshot.delta_seq = self._delta_seq
            document = snapshot.to_document()
            io_adapters.write_document(document, target, backend)
            self._delta_base_fp = delta_chain.document_fingerprint(document)
            self._delta_base_path = Path(target)
            self._delta_chain_len = 0
            # Everything journaled so far is inside the base; a stale log
            # from an earlier run must not pollute the new chain.
            self._journal.clear()
            log_path = delta_chain.delta_log_path(target)
            if log_path.exists():
                delta_chain.truncate_log(log_path)
            return
        papers, assignments = delta_chain.encode_changes(self._journal)
        self._delta_seq += 1
        record = delta_chain.DeltaRecord(
            seq=self._delta_seq,
            base=self._delta_base_fp,
            papers=papers,
            assignments=assignments,
            stream=_encode_stream(self.report),
        )
        delta_chain.append_record(delta_chain.delta_log_path(target), record)
        self._journal.clear()
        self._delta_chain_len += 1
        every = self.iuad.config.compact_every_n_deltas
        if every > 0 and self._delta_chain_len >= every:
            # In-memory compaction: the live state IS base + chain, so
            # folding costs one full write, no replay.
            self._checkpoint_full(target, backend)

    @classmethod
    def resume(
        cls,
        path: str | Path,
        backend: str | None = None,
        checkpoint_path: str | Path | None = None,
    ) -> "StreamingIngestor":
        """Warm-start an ingestor from a snapshot; re-scores nothing.

        Restores the estimator (plain or sharded — the snapshot decides)
        and, when the snapshot was written by :meth:`checkpoint`, the
        stream counters.  A delta chain riding next to the base
        (``<path>.delta``) is validated and replayed — recorded
        decisions only, no similarity is recomputed — and the resumed
        ingestor keeps extending that same chain.  Future
        auto-checkpoints go back to the same file unless
        ``checkpoint_path`` overrides it.
        """
        from ..io import adapters as io_adapters
        from ..io import delta as delta_chain
        from ..io.snapshot import Snapshot

        document = io_adapters.read_document(path, backend)
        snapshot = Snapshot.from_document(document)
        log_path = delta_chain.delta_log_path(path)
        fingerprint: str | None = None
        records: list[delta_chain.DeltaRecord] = []
        if log_path.exists() or snapshot.config.checkpoint_mode == "delta":
            fingerprint = delta_chain.document_fingerprint(document)
        if log_path.exists():
            records = delta_chain.read_chain(
                log_path, snapshot.delta_seq, fingerprint
            )
            for record in records:
                delta_chain.replay_record(snapshot, record)
        ingestor = cls(
            snapshot.restore(),
            checkpoint_path=checkpoint_path if checkpoint_path is not None else path,
            checkpoint_backend=backend,
        )
        if snapshot.stream is not None:
            ingestor.report = snapshot.stream
        if fingerprint is not None and ingestor.checkpoint_path == Path(path):
            # Continue the chain where it left off: the next append is
            # contiguous with the replayed tail (or the base watermark).
            # A checkpoint_path override starts a fresh chain there
            # instead (its first delta checkpoint writes a new base).
            ingestor._delta_base_fp = fingerprint
            ingestor._delta_base_path = Path(path)
            ingestor._delta_seq = (
                records[-1].seq if records else snapshot.delta_seq
            )
            ingestor._delta_chain_len = len(records)
            ingestor._journal_armed = True
        return ingestor

    # ------------------------------------------------------------------ #
    # ingestion: one path
    # ------------------------------------------------------------------ #
    def add_paper(self, paper: Paper) -> list[Assignment]:
        """Ingest one paper: ``add_papers([paper])[0]``.

        Returns one :class:`Assignment` per occurrence on the paper's
        co-author list.  The call counts as a batch in ``report`` and
        sets ``last_batch``, like any other burst.
        """
        return self.add_papers([paper])[0]

    def add_papers(self, papers: Sequence[Paper]) -> list[list[Assignment]]:
        """Ingest a burst of papers; parity-exact with sequential order.

        Every fresh paper is appended to the fitted corpus, each mention
        is attached to the best-scoring same-name vertex (or becomes a
        new vertex), and the paper's collaborative relations are
        recovered as GCN edges (the incremental analogue of Algorithm 1
        line 16).

        Duplicates (pids already in the corpus, or repeated within the
        batch) follow ``config.duplicate_paper_policy``.  Under
        ``"raise"`` the whole batch is validated up front and rejected
        before anything is mutated; under ``"return"`` a duplicate
        replays the current owners of its mentions, never ingesting the
        paper twice.
        """
        with self._write_lock:
            return self._add_papers_locked(papers)

    def _maybe_checkpoint(self, n_new: int) -> None:
        every = self.iuad.config.checkpoint_every_n_papers
        if every <= 0 or self.checkpoint_path is None or n_new <= 0:
            return
        self._papers_since_checkpoint += n_new
        if self._papers_since_checkpoint >= every:
            self.checkpoint()

    def _add_papers_locked(
        self, papers: Sequence[Paper]
    ) -> list[list[Assignment]]:
        corpus = self.iuad.corpus_
        gcn = self.iuad.gcn_
        computer = self.iuad.computer_
        model = self.iuad.model_
        assert corpus is not None and gcn is not None
        assert computer is not None and model is not None
        if not papers:
            return []

        t0 = time.perf_counter()
        # ---------------- duplicates + admission (atomic validation) --- #
        fresh: list[tuple[int, Paper]] = []  # (batch index, paper)
        duplicates: list[int] = []
        seen_pids: set[int] = set()
        for index, paper in enumerate(papers):
            if paper.pid in corpus or paper.pid in seen_pids:
                if self.iuad.config.duplicate_paper_policy == "raise":
                    raise ValueError(
                        f"paper {paper.pid} is already ingested (or repeated "
                        "within the batch); the batch was rejected before "
                        "any state was touched (set "
                        "duplicate_paper_policy='return' for idempotent "
                        "replay)"
                    )
                duplicates.append(index)
            else:
                seen_pids.add(paper.pid)
                fresh.append((index, paper))

        for _index, paper in fresh:
            corpus.add(paper)
        if self.shard_index is not None and fresh:
            # Bulk routing through the fitted shard partition: identical
            # index state (bridging happens in batch order) and counters
            # as one route_paper call per paper.
            self.report.count_shards(self.shard_index.route_papers(
                paper.authors for _index, paper in fresh
            ))
        # Probe vids for the whole batch, in batch × position order (the
        # one-at-a-time allocation order — vid parity).
        probes: dict[tuple[int, int], int] = {}
        pending_probes: set[int] = set()
        for fresh_pos, (_index, paper) in enumerate(fresh):
            for position, name in enumerate(paper.authors):
                probe = self._make_probe(name, paper.pid, position)
                probes[(fresh_pos, position)] = probe
                pending_probes.add(probe)
        plan_seconds = time.perf_counter() - t0

        # ---------------- snapshot: one vectorised scoring call -------- #
        t_score = time.perf_counter()
        #: (fresh_pos, position) -> (candidates, score slice)
        snapshot: dict[tuple[int, int], tuple[list[int], np.ndarray]] = {}
        pairs: list[tuple[int, int]] = []
        bounds: list[tuple[tuple[int, int], int, int]] = []
        frozen = frozenset(pending_probes)
        for fresh_pos, (_index, paper) in enumerate(fresh):
            for position, name in enumerate(paper.authors):
                key = (fresh_pos, position)
                candidates = self._candidate_vids(
                    name, paper.pid, exclude=frozen
                )
                start = len(pairs)
                pairs.extend((probes[key], vid) for vid in candidates)
                bounds.append((key, start, len(pairs)))
                snapshot[key] = (candidates, _EMPTY)
        if pairs:
            # The probes' columns stay cached on purpose: the walk's
            # inline patching re-scores stale pairs against these same
            # probes; the ordinary attach/create paths clean them up
            # afterwards.
            scores = match_scores(model, computer.pair_matrix(pairs))
            for key, start, end in bounds:
                snapshot[key] = (snapshot[key][0], scores[start:end])
        n_scored_pairs = len(pairs)
        score_seconds = time.perf_counter() - t_score

        # ---------------- ordered walk with inline patching ------------ #
        t_walk = time.perf_counter()
        radius = max(1, computer.wl_iterations)
        results: dict[int, list[Assignment]] = {}
        stained: set[int] = set()
        created_names: set[str] = set()
        n_patched_pairs = 0
        n_patch_calls = 0
        for fresh_pos, (index, paper) in enumerate(fresh):
            # Gather the paper's stale pairs across all its mentions and
            # patch them in ONE call (mention decisions stay positional:
            # scores never depend on sibling mentions, only the
            # candidate filter does, and _apply_assignment re-checks it).
            plan: list[tuple[int, str, list[int], object]] = []
            patch_pairs: list[tuple[int, int]] = []
            patch_slots: list[tuple[int, int]] = []  # (plan row, cand idx)
            for position, name in enumerate(paper.authors):
                key = (fresh_pos, position)
                known_cands, known_scores = snapshot.pop(key)
                if name not in created_names:
                    # No vertex of this name was created since the
                    # snapshot, and none can have vanished (only pending
                    # probes are removable, and those were hidden), so
                    # the enumeration is still current.
                    candidates = known_cands
                else:
                    candidates = self._candidate_vids(
                        name, paper.pid, exclude=pending_probes
                    )
                if candidates is known_cands and stained.isdisjoint(
                    candidates
                ):
                    # Clean mention: the snapshot slice is the score
                    # vector a one-at-a-time loop would compute here.
                    plan.append((position, name, candidates, known_scores))
                    continue
                known = dict(zip(known_cands, known_scores))
                row = len(plan)
                mention_scores = np.empty(len(candidates), dtype=np.float64)
                for i, vid in enumerate(candidates):
                    score = known.get(vid)
                    if score is None or vid in stained:
                        patch_pairs.append((probes[key], vid))
                        patch_slots.append((row, i))
                    else:
                        mention_scores[i] = score
                plan.append((position, name, candidates, mention_scores))
            if patch_pairs:
                # Score against the live network: every cached value
                # the burst changed was dropped or updated in place, so
                # this is what a one-at-a-time loop computes here.
                patch = match_scores(model, computer.pair_matrix(patch_pairs))
                for (row, i), score in zip(patch_slots, patch):
                    plan[row][3][i] = score
                n_patched_pairs += len(patch_pairs)
                n_patch_calls += 1
            assignments: list[Assignment] = []
            for position, name, candidates, mention_scores in plan:
                assignment = self._apply_assignment(
                    name, paper.pid, position,
                    probes[(fresh_pos, position)], candidates,
                    mention_scores,
                )
                pending_probes.discard(probes[(fresh_pos, position)])
                assignments.append(assignment)
                if assignment.created:
                    created_names.add(name)
            edge_touched = self._recover_paper_relations(
                paper.pid, assignments
            )
            if edge_touched:
                # The stain doubles as the cache invalidation — computed
                # once, used for both.  It is the *exact* set of vertices
                # whose profile values the new edges changed (see
                # ``_value_stain``); profiles outside it are kept even
                # though the oracle conservatively drops its whole
                # radius-``h`` ball, because a rebuild would reproduce
                # them bit-identically.
                ball = _value_stain(
                    gcn, [a.vid for a in assignments], radius
                )
                stained |= ball
                computer.invalidate_exact(ball)
            else:
                stained.update(a.vid for a in assignments if not a.created)
            results[index] = assignments
            if self._journal_armed:
                self._journal.append(
                    (paper, [(a.vid, a.created) for a in assignments])
                )
            self.report.n_papers += 1
            self.report.n_mentions += len(assignments)
        apply_seconds = time.perf_counter() - t_walk

        # ---------------- duplicates replay (idempotent) --------------- #
        # Mention ownership is stable once assigned, so replaying after
        # the walk answers exactly what a one-at-a-time loop would have
        # answered at the duplicate's stream position.
        for index in duplicates:
            self.report.n_duplicates += 1
            results[index] = self._prior_assignments(papers[index])

        elapsed = time.perf_counter() - t0
        if fresh:
            self.report.seconds += elapsed
        self.report.n_batches += 1
        self.report.n_waves += 1 if fresh else 0
        self.last_batch = BatchStats(
            n_papers=len(papers),
            n_fresh=len(fresh),
            n_duplicates=len(duplicates),
            n_scored_pairs=n_scored_pairs,
            n_patched_pairs=n_patched_pairs,
            n_patch_calls=n_patch_calls,
            plan_seconds=plan_seconds,
            score_seconds=score_seconds,
            apply_seconds=apply_seconds,
            seconds=elapsed,
        )
        self._maybe_checkpoint(len(fresh))
        return [results[index] for index in sorted(results)]



    # ------------------------------------------------------------------ #
    # the phases of one mention decision (shared with the oracle)
    # ------------------------------------------------------------------ #
    def _prior_assignments(self, paper: Paper) -> list[Assignment]:
        """The current owners of ``paper``'s mentions, as assignments.

        Reconstructed from the GCN's mention payloads rather than stored
        per pid, so idempotent replay costs no memory on long streams and
        also answers for papers that were part of the original fit.  A
        mention nobody owns (possible only for hand-built networks)
        reports ``vid=-1``; scores are ``nan`` — no fresh decision was
        made.
        """
        gcn = self.iuad.gcn_
        assert gcn is not None
        out: list[Assignment] = []
        for position, name in enumerate(paper.authors):
            owner = gcn.owner_of(paper.pid, position, name)
            out.append(
                Assignment(
                    name=name,
                    position=position,
                    vid=-1 if owner is None else owner,
                    created=False,
                    score=float("nan"),
                )
            )
        return out

    def _candidate_vids(
        self, name: str, pid: int, exclude: frozenset[int] = frozenset()
    ) -> list[int]:
        """Admissible attachment candidates for a mention of ``name``.

        One-mention-per-paper invariant as a structural candidate filter:
        a vertex already owning an occurrence of this paper (an earlier
        position of a twice-listed name) is a provably different person,
        and scoring it would let the second mention self-attach on the
        evidence of this very paper.  ``exclude`` additionally drops
        vertices that must not be visible yet — the burst's
        not-yet-applied probes, which a one-at-a-time stream would not
        have created at this point.
        """
        gcn = self.iuad.gcn_
        assert gcn is not None
        return [
            vid
            for vid in gcn.vertices_of_name(name)
            if vid not in exclude and pid not in gcn.papers_of(vid)
        ]

    def _make_probe(self, name: str, pid: int, position: int) -> int:
        """The isolated probe vertex ``v_a`` carrying just this mention."""
        gcn = self.iuad.gcn_
        assert gcn is not None
        return gcn.add_vertex(name, mentions=((pid, position),))

    def _select_candidate(
        self, candidates: list[int], scores: np.ndarray, pid: int
    ) -> tuple[int, float]:
        """Argmax with a deterministic tie-break: lowest vertex id wins.

        Candidates that meanwhile acquired a mention of ``pid`` (an
        earlier position of the same paper attached there) are skipped —
        the structural filter re-checked at apply time.  Returns
        ``(index, score)``; ``(-1, -inf)`` when nothing is admissible.

        Enumeration order deliberately plays no role: ``np.argmax`` would
        return the first maximal entry, making equal-score attachments
        depend on name-index insertion order, which differs between a
        whole-corpus fit and a stitched sharded fit.
        """
        gcn = self.iuad.gcn_
        assert gcn is not None
        best_i = -1
        best_vid = -1
        best_score = float("-inf")
        for i, vid in enumerate(candidates):
            if pid in gcn.papers_of(vid):
                continue
            score = float(scores[i])
            if score > best_score or (
                score == best_score and (best_i < 0 or vid < best_vid)
            ):
                best_i, best_vid, best_score = i, vid, score
        return best_i, best_score

    def _apply_assignment(
        self,
        name: str,
        pid: int,
        position: int,
        probe: int,
        candidates: list[int],
        scores: np.ndarray,
    ) -> Assignment:
        """Decide and mutate: attach to the best candidate or keep the probe.

        ``scores`` is aligned with ``candidates`` (Eq. 11 matching scores
        of the ``(probe, candidate)`` pairs).  Shared verbatim by the walk
        and the oracle — the parity contract forbids letting the two
        decisions drift.
        """
        gcn = self.iuad.gcn_
        computer = self.iuad.computer_
        assert gcn is not None and computer is not None
        best_i, best_score = self._select_candidate(candidates, scores, pid)
        if best_i >= 0 and best_score >= self.iuad.config.incremental_delta:
            target = candidates[best_i]
            gcn.add_mention(target, pid, position)
            gcn.set_mentions(probe, ())
            # The probe never acquired edges; it was scored, so drop its
            # cached state too or the store leaks one entry per attach.
            gcn.remove_isolated_vertex(probe)
            computer.invalidate(probe)
            # Attaching the paper changed target's own keyword/venue
            # columns but no adjacency: fold the paper into the cached
            # columns in place (WL features and triangles stay valid).
            # The structural ball is invalidated later, when the
            # recovered edges go in.
            computer.attach_paper(target, pid)
            self.report.n_attached += 1
            return Assignment(name, position, target, False, best_score)
        if candidates:
            computer.invalidate(probe)
        self.report.n_created += 1
        return Assignment(name, position, probe, True, best_score)

    def _recover_paper_relations(
        self, pid: int, assignments: list[Assignment]
    ) -> set[int]:
        """Insert the paper's collaboration edges; returns touched vids."""
        gcn = self.iuad.gcn_
        assert gcn is not None
        vids = [a.vid for a in assignments]
        touched: set[int] = set()
        for i, u in enumerate(vids):
            for v in vids[i + 1 :]:
                if u != v:
                    gcn.add_edge(u, v, (pid,))
                    touched.add(u)
                    touched.add(v)
        return touched


_EMPTY = np.empty(0, dtype=np.float64)
