"""Configuration of the IUAD pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.exponential_family import DEFAULT_FAMILIES


@dataclass(slots=True)
class IUADConfig:
    """All knobs of Algorithm 1 in one place.

    Attributes:
        eta: Support threshold of η-stable collaborative relations
            (Definition 2; η = 2 throughout the paper's examples).
        delta: Decision threshold δ on the Eq. 11 matching score for the
            *first* merge round; pairs scoring at or above it are merged.
            Batch merging is transitive (union-find), which amplifies
            single-pair errors, so the default is calibrated well above the
            natural posterior-odds point.
        later_delta: Threshold for merge rounds after the first.  Round-two
            vertices are consolidated clusters carrying much more
            venue/keyword evidence, so a lower bar is safe there and buys
            the recall the first strict round withheld.
        incremental_delta: Threshold for the *single-paper* incremental
            decision (Section V-E).  Attaching one new mention is an
            argmax-plus-threshold choice with no transitive amplification,
            and a one-paper probe carries far less evidence mass, so the
            natural odds threshold (0 = posterior odds 1:1) is the default.
        merge_rounds: Number of score-and-merge passes in Stage 2.  The
            default single pass is the paper's Algorithm 1.  A second pass
            re-scores on the merged network, where vertices carry richer
            venue/keyword profiles, letting one-paper vertices attach to the
            consolidated clusters they could not match in round one — it
            buys extra recall at some precision (ablation
            ``test_ablations.py`` quantifies the trade).
        wl_iterations: ``h`` of the WL sub-graph kernel (Eq. 3).
        decay_alpha: α of the time-consistency similarity (Eq. 7; 0.62 in
            the paper, borrowed from FutureRank).
        sample_rate: Fraction of candidate pairs used to *train* the
            generative model (Section V-F: 10 %); all pairs are still scored
            for the merge decision.
        min_training_pairs: Train on at least this many pairs even when 10 %
            of the candidates is fewer.
        balance_split: Enable the vertex-splitting rebalance strategy
            (Section V-F2).
        split_min_papers: Minimum papers a vertex needs to be splittable.
        max_split_vertices: Cap on how many vertices are split for balance.
        families: Exponential-family assignment per similarity function.
        use_embeddings: Train PPMI-SVD title embeddings for γ3 (falls back
            to keyword-multiset cosine when off or when the corpus is too
            small to train on).
        embedding_dim: Dimensionality of the title embeddings.
        certify_triangles: Stage-1 triangle certification (ablation switch).
        require_triangle_instance: Require a co-occurring paper for each
            certifying triangle (see :class:`repro.graphs.scn.SCNBuilder`).
        em_max_iterations: EM iteration cap.
        em_tolerance: EM convergence tolerance on the log-likelihood.
        seed: Seed for candidate sampling and vertex splitting.
        n_workers: Worker processes of a sharded fit
            (:class:`repro.core.sharding.ShardedIUAD`).  ``>= 1`` runs
            its pipelined schedule in a ``ProcessPoolExecutor`` of that
            size; ``0`` runs the same schedule through an in-process
            executor that completes each task at submission (same
            partition, same tasks, same merge — no pool, no shared
            memory).  Ignored by the single-process :meth:`IUAD.fit`.
        max_shard_size: Work budget of one shard, measured in candidate
            pairs.  Name blocks (connected components of the co-author
            name graph) are packed into shards up to this budget;
            blocks exceeding it are split by name.  ``0`` disables both
            packing and splitting (one shard per block).  Splitting a
            block is exact for ``merge_rounds == 1`` (names never
            influence each other within a round); with more rounds it
            can miss cross-shard profile updates between rounds — keep
            blocks whole (``0``) when that matters.
        gamma_chunk_pairs: Candidate pairs per Phase-A γ task of a
            sharded fit.  Chunks tile the global pair order with whole
            names and are independent of both shard and worker count —
            a fat shard never serialises the phase, and serial/pool runs
            fill byte-identical result buffers.
        mp_start_method: Start method of the sharded fit's process pool
            (``"fork"``, ``"spawn"`` or ``"forkserver"``).  ``None``
            (default) picks ``"fork"`` where the platform offers it —
            workers then inherit the SCN/corpus copy-on-write — and
            ``"spawn"`` elsewhere.  Pinned explicitly via
            ``multiprocessing.get_context`` so a host application
            changing the *global* start method cannot silently flip the
            shipping path.
        duplicate_paper_policy: What the incremental path does when a
            streamed paper's pid is already in the fitted corpus.
            ``"raise"`` (default) rejects the re-ingest with a
            ``ValueError`` before any state is touched; ``"return"``
            makes re-ingest idempotent — the current owners of the
            paper's mentions are looked up and returned as assignments
            (``created=False``, ``score=nan``) and nothing is mutated.
            Either way a duplicate can no longer corrupt the
            one-mention-per-paper invariant by being attached twice.
        incremental_timing_window: How many recent per-paper wall-clock
            samples :class:`repro.core.streaming.IncrementalReport`
            retains (a bounded rolling window).  The Table-VI average
            stays exact via running sums regardless of the window size;
            the window only bounds memory on long streams.
        checkpoint_every_n_papers: Automatic durable checkpointing of the
            streaming path: after at least this many freshly ingested
            papers, :class:`repro.core.streaming.StreamingIngestor`
            writes a snapshot to its configured checkpoint path
            (atomic tmp+fsync+rename, see :mod:`repro.io`).  ``0``
            (default) disables auto-checkpointing; explicit
            ``checkpoint()`` calls work either way.
        checkpoint_mode: What a streaming checkpoint writes.  ``"full"``
            (default) rewrites the complete snapshot every time —
            O(corpus) per checkpoint.  ``"delta"`` writes the base
            snapshot once and then appends O(burst) replayable records
            to a ``<path>.delta`` sibling log (see
            :mod:`repro.io.delta`); restore replays base + chain to the
            byte-identical state.
        compact_every_n_deltas: In delta mode, fold the chain back into
            the base after this many appended records (bounding restore
            cost and log growth).  ``0`` disables automatic compaction;
            ``tools/snapshot.py compact`` is always available.  Default
            64.
    """

    eta: int = 2
    delta: float = 80.0
    later_delta: float = 80.0
    incremental_delta: float = 0.0
    merge_rounds: int = 1
    wl_iterations: int = 2
    decay_alpha: float = 0.62
    sample_rate: float = 0.10
    min_training_pairs: int = 200
    balance_split: bool = True
    split_min_papers: int = 6
    max_split_vertices: int = 400
    families: tuple[str, ...] = field(default=DEFAULT_FAMILIES)
    use_embeddings: bool = True
    embedding_dim: int = 64
    certify_triangles: bool = True
    require_triangle_instance: bool = True
    em_max_iterations: int = 200
    em_tolerance: float = 1e-6
    seed: int = 29
    n_workers: int = 0
    max_shard_size: int = 4000
    gamma_chunk_pairs: int = 2048
    mp_start_method: str | None = None
    duplicate_paper_policy: str = "raise"
    incremental_timing_window: int = 4096
    checkpoint_every_n_papers: int = 0
    checkpoint_mode: str = "full"
    compact_every_n_deltas: int = 64

    def __post_init__(self) -> None:
        if self.eta < 1:
            raise ValueError(f"eta must be >= 1, got {self.eta}")
        if self.n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.duplicate_paper_policy not in ("raise", "return"):
            raise ValueError(
                "duplicate_paper_policy must be 'raise' or 'return', got "
                f"{self.duplicate_paper_policy!r}"
            )
        if self.incremental_timing_window < 1:
            raise ValueError(
                "incremental_timing_window must be >= 1, got "
                f"{self.incremental_timing_window}"
            )
        if self.checkpoint_every_n_papers < 0:
            raise ValueError(
                "checkpoint_every_n_papers must be >= 0, got "
                f"{self.checkpoint_every_n_papers}"
            )
        if self.checkpoint_mode not in ("full", "delta"):
            raise ValueError(
                "checkpoint_mode must be 'full' or 'delta', got "
                f"{self.checkpoint_mode!r}"
            )
        if self.compact_every_n_deltas < 0:
            raise ValueError(
                "compact_every_n_deltas must be >= 0, got "
                f"{self.compact_every_n_deltas}"
            )
        if self.max_shard_size < 0:
            raise ValueError(
                f"max_shard_size must be >= 0, got {self.max_shard_size}"
            )
        if self.gamma_chunk_pairs < 1:
            raise ValueError(
                f"gamma_chunk_pairs must be >= 1, got {self.gamma_chunk_pairs}"
            )
        if self.mp_start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(
                "mp_start_method must be None, 'fork', 'spawn' or "
                f"'forkserver', got {self.mp_start_method!r}"
            )
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in (0, 1], got {self.sample_rate}"
            )
        if len(self.families) != 6:
            raise ValueError("families must assign one family per γ1..γ6")
        if self.split_min_papers < 2:
            raise ValueError("split_min_papers must be >= 2")
