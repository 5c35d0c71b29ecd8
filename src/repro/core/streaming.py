"""Batched streaming ingestion: vectorised multi-paper inserts.

Real bibliographic streams arrive in bursty batches, not single records.
The scalar :meth:`~repro.core.incremental.IncrementalDisambiguator.
add_paper` loop pays, per mention, a full candidate-scoring call — with
its per-call dispatch, assembly and ``match_scores`` overhead — plus a
radius-``h`` cache invalidation per paper and the profile rebuilds
earlier invalidations forced.  :class:`StreamingIngestor.add_papers`
ingests a whole burst at once while staying in *exact parity* with the
sequential loop:

1. **Shard-grouped admission** — every paper is bulk-routed through the
   fitted :class:`~repro.core.sharding.ShardIndex` (when present), in
   batch order, so the index state and the per-shard counters match the
   sequential loop.  Papers of different name blocks never interact;
   their scores come straight off the shared snapshot below.

2. **Batched snapshot scoring** — the candidate ``(probe, vertex)``
   pairs of *every* paper in the burst are resolved up front and scored
   in ONE vectorised ``SimilarityComputer.pair_matrix`` /
   ``match_scores`` call, instead of one call per mention.  Probe
   vertices are pre-allocated for the whole batch in batch × position
   order (exactly the order the sequential loop allocates them, so
   surviving vertices keep identical ids), and probes of
   not-yet-applied papers are hidden from candidate enumeration (a
   sequential stream would not have created them yet).  Each mention
   keeps a zero-copy slice of the snapshot's score vector.

3. **Ordered walk with exact value-stain tracking** — papers are then
   applied strictly in batch order.  Each application *stains* exactly
   the vertices whose similarity inputs it changed: the attach targets
   (their own keyword/venue profiles grew) and, when collaboration
   edges went in, the vertices whose radius-``h`` WL ball gained a
   vertex or an induced edge (:func:`_value_stain` — a strict subset of
   the conservative radius-``h`` ball the sequential loop drops,
   because profiles outside it would rebuild bit-identically).  The
   stain doubles as the cache invalidation, so dependency tracking and
   cache hygiene share one BFS.  At each paper's turn, a mention whose
   candidate list is unchanged and untouched by stains consumes its
   snapshot slice outright; any stale pair — a stained or newly created
   candidate — is re-scored *inline against the live network*, which is
   literally what the sequential loop computes at that point.
   Intra-batch dependencies therefore cost exactly what they cost
   sequentially and are resolved in dependency (= batch) order, while
   every untouched pair rides the vectorised snapshot.  A burst of
   unrelated papers consumes the snapshot wholesale; a pathologically
   self-dependent burst degrades gracefully toward the sequential loop,
   never below it by more than the snapshot overhead.

4. **Incremental attach updates** — attachments fold the new paper into
   the target's cached profile and cached columns in place
   (``SimilarityComputer.attach_paper``): WL features and triangles
   depend only on adjacency, which an attachment never changes, so the
   full rebuild that drop-and-rebuild invalidation used to force on
   every later read of a hot vertex disappears — from the batched and
   the sequential path alike.

Honest throughput accounting: the end-to-end gain of ``add_papers`` is
bounded by two costs both paths share — the per-vertex WL/triangle
gather for every distinct uncached candidate (the paper-derived columns
are built in one vectorised pass per scoring call) and the genuinely
dependent pairs, which exact parity *requires* re-scoring at sequential
cost.  The
vectorised snapshot itself scores pairs several times faster than the
per-pair scalar loop; ``benchmarks/test_table6_streaming.py`` records
both that scoring throughput and the end-to-end papers/second.

Parity contract
---------------

``add_papers(batch)`` produces the same GCN (identical vertex ids,
names, papers, mention payloads and edges), the same assignments
(vid/created; scores to batch-engine precision, ≤1e-9 — stale pairs are
re-scored on the sequential code path itself) and the same report
counters as looping ``add_paper`` over the batch in order — including
same-paper homonyms and papers bridging shards
(``tests/test_streaming_parity.py`` pins this).  Cache hygiene is
value-identical: the walk drops (or in-place-updates) every cached
profile whose value the batch changed, so a stale profile can never
serve an inline re-score; profiles the sequential loop would drop *and
rebuild to the same values* are simply kept.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..data.records import Paper
from ..graphs.collab import CollaborationNetwork
from ..graphs.wl import multi_source_ball
from ..model.scoring import match_scores
from .incremental import Assignment, IncrementalDisambiguator


@dataclass(slots=True)
class BatchStats:
    """Execution counters of one ``add_papers`` burst.

    ``n_scored_pairs`` are pairs scored through the vectorised snapshot
    call; ``n_patched_pairs`` the stale pairs re-scored inline on the
    sequential path at their paper's turn (``n_patch_calls`` scoring
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
    vertex outside this set keeps a bit-identical profile, which is why
    the streaming walk may keep both its cached profile and its snapshot
    scores — the sequential loop's wider radius-``h`` invalidation would
    merely rebuild the same values.
    """
    vids = sorted(set(assigned))
    stain = multi_source_ball(gcn, vids, radius - 1)
    balls = {u: multi_source_ball(gcn, (u,), radius) for u in vids}
    for i, u in enumerate(vids):
        for v in vids[i + 1 :]:
            stain |= balls[u] & balls[v]
    return stain


class StreamingIngestor(IncrementalDisambiguator):
    """Batched streaming front-end over the incremental disambiguator.

    Drop-in extension of
    :class:`~repro.core.incremental.IncrementalDisambiguator`: single
    papers still go through :meth:`add_paper`; bursts go through
    :meth:`add_papers`, which returns one assignment list per input
    paper, in input order, exactly as the sequential loop would.
    ``last_batch`` holds the :class:`BatchStats` of the most recent
    burst; cumulative batch counters ride on ``report``.

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

    Thread safety: a writer lock serializes :meth:`add_paper`,
    :meth:`add_papers` and :meth:`checkpoint`, so a checkpoint requested
    from another thread while bursts are running (the serving layer's
    pattern — requests keep queueing while the writer drains) can never
    observe a half-applied burst: it always captures a consistent
    *post-burst* state, and resuming it then replaying the still-queued
    papers reproduces exactly the clustering of draining the queue first
    and checkpointing after (``tests/test_service.py`` pins this).
    Queries are not serialized — readers are expected to go through an
    immutable :class:`~repro.service.FittedView`, never the live writer.
    """

    def __init__(
        self,
        iuad,
        checkpoint_path: str | Path | None = None,
        checkpoint_backend: str | None = None,
    ) -> None:
        super().__init__(iuad)
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

    def add_paper(self, paper: Paper):  # inherits the full docstring
        with self._write_lock:
            before = self.report.n_papers
            assignments = super().add_paper(paper)
            if self._journal_armed and self.report.n_papers > before:
                # Duplicates (policy "return") mutate nothing — only a
                # genuinely ingested paper becomes a replayable decision.
                self._journal.append(
                    (paper, [(a.vid, a.created) for a in assignments])
                )
            self._maybe_checkpoint(self.report.n_papers - before)
        return assignments

    def _maybe_checkpoint(self, n_new: int) -> None:
        every = self.iuad.config.checkpoint_every_n_papers
        if every <= 0 or self.checkpoint_path is None or n_new <= 0:
            return
        self._papers_since_checkpoint += n_new
        if self._papers_since_checkpoint >= every:
            self.checkpoint()

    # ------------------------------------------------------------------ #
    def add_papers(self, papers: Sequence[Paper]) -> list[list[Assignment]]:
        """Ingest a burst of papers; parity-exact with sequential order.

        Duplicates (pids already in the corpus, or repeated within the
        batch) follow ``config.duplicate_paper_policy``.  Under
        ``"raise"`` the whole batch is validated up front and rejected
        before anything is mutated — unlike the sequential loop, which
        would fail midway; under ``"return"`` duplicates replay the
        current owners of their mentions, exactly as sequentially.
        """
        with self._write_lock:
            return self._add_papers_locked(papers)

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
            # as one route_paper call per sequential insert.
            shards = self.shard_index.route_papers(
                paper.authors for _index, paper in fresh
            )
            for shard in shards:
                self.report.per_shard_papers[shard] = (
                    self.report.per_shard_papers.get(shard, 0) + 1
                )
        # Probe vids for the whole batch, in batch × position order (the
        # sequential allocation order — vid parity).
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
            # Probes are NOT marked transient here on purpose: the walk's
            # inline patching re-scores stale pairs against these same
            # probes, so their cached profiles are read again; the
            # ordinary attach/create paths clean them up afterwards.
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
                    # vector the sequential loop would compute here.
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
                # The sequential code path, verbatim: score against the
                # live network (caches were dropped exactly as add_paper
                # drops them, so values are current).
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
                # though ``add_paper`` would conservatively drop its
                # whole radius-``h`` ball, because a rebuild would
                # reproduce them bit-identically.
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
        # the walk answers exactly what the sequential loop would have
        # answered at the duplicate's stream position.
        for index in duplicates:
            self.report.n_duplicates += 1
            results[index] = self._prior_assignments(papers[index])

        elapsed = time.perf_counter() - t0
        if fresh:
            # Amortised per-paper accounting: the exact batch wall-clock
            # lands in the running sum, one share per paper in the window.
            share = elapsed / len(fresh)
            for _ in fresh:
                self.report.record_paper_seconds(share)
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


_EMPTY = np.empty(0, dtype=np.float64)
