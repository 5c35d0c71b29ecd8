"""IUAD — the full Algorithm 1 pipeline.

Stage 1 builds the stable collaboration network (high precision, per-
occurrence mention assignment — see :mod:`repro.graphs.scn`); Stage 2
learns the matched/unmatched mixture on a 10 % candidate sample (balanced
by vertex splitting, Section V-F2), scores every same-name vertex pair
with the six-dimensional similarity vector γ1–γ6 (γ1 WL kernel Eq. 3, γ2
clique coincidence Eq. 5, γ3 interest cosine Eq. 6, γ4 time consistency
Eq. 7, γ5 representative community Eq. 8, γ6 research community Eq. 9)
combined into the Eq. 11 matching score, and merges pairs clearing δ into
the global collaboration network.  After fitting, newly published papers
are disambiguated incrementally (see :mod:`repro.core.incremental`)
without retraining.

Mention identity: every decision operates on occurrence-level mentions
(``(paper, name, position)``).  Two same-name vertices owning mentions of
one paper are two homonymous co-authors — such pairs are registered as
:meth:`~repro.graphs.unionfind.UnionFind.forbid` cannot-links before each
merge round, and :meth:`~repro.graphs.collab.CollaborationNetwork.merged`
re-asserts that no component ever carries two mentions of one paper.

Stage 2 performance: each merge round gathers *all* names' candidate pairs
and scores them in one call to the batched similarity engine
(:mod:`repro.similarity.batch`), and a single
:class:`~repro.similarity.profile.SimilarityComputer` serves every round —
merged networks preserve vertex ids, so only the columns a merge actually
stained are invalidated (``SimilarityComputer.rebind``) rather than the
whole store being rebuilt per round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..data.records import Corpus
from ..graphs.collab import CollaborationNetwork
from ..graphs.scn import SCNBuilder, SCNBuildReport
from ..graphs.unionfind import UnionFind
from ..model.mixture import EMReport, MatchMixture
from ..model.scoring import match_scores
from ..similarity.profile import SimilarityComputer
from ..text.embeddings import WordEmbeddings, train_title_embeddings
from .balance import split_prolific_vertices
from .candidates import (
    candidate_pairs_of_name,
    cannot_link_pairs,
    sample_training_pairs,
)
from .config import IUADConfig

Pair = tuple[int, int]

#: Precomputed first-round decision input: the per-name candidate pairs
#: (in decision-name order) and the Eq. 11 scores of the flattened pair
#: list.  :func:`run_merge_rounds` accepts this so a sharded fit can score
#: round one centrally (see :mod:`repro.core.sharding`) while the decision
#: loop itself stays byte-for-byte the single-process code path.
Round1Scores = tuple[list[tuple[str, list[Pair]]], np.ndarray]


@dataclass(slots=True)
class MergeRoundsOutcome:
    """What the Stage-2 decision loop did to a network.

    ``network`` is the merged result (the input network is never mutated —
    the first ``merged()`` call copies).  ``decision_seconds`` is the
    wall-clock of every round's candidate collection, scoring and
    decision loop, the decision total ``eval/timing.py`` (Table V)
    reports.
    """

    network: CollaborationNetwork
    n_merges: int
    per_round_candidate_pairs: list[int]
    per_round_merges: list[int]
    decision_seconds: float


def run_merge_rounds(
    network: CollaborationNetwork,
    names: Sequence[str],
    model: MatchMixture,
    computer: SimilarityComputer,
    config: IUADConfig,
    round1: Round1Scores | None = None,
) -> MergeRoundsOutcome:
    """Run the Stage-2 score-and-merge rounds of Algorithm 1.

    This is the decision stage shared by :meth:`IUAD.fit` (whole corpus)
    and the shard workers of :class:`repro.core.sharding.ShardedIUAD`
    (one name block at a time): candidate pairs of every name in
    ``names`` are scored with the Eq. 11 matching score, pairs clearing
    the round's δ are merged transitively under the cannot-link
    constraints, and the network is re-materialised between rounds with
    preserved vertex ids so ``computer``'s column cache survives.

    Args:
        network: The network to consolidate (an SCN, or a shard of one).
            Never mutated.
        names: Decision names, in order.  Only their candidate pairs are
            scored; other vertices pass through untouched.
        model: The fitted matched/unmatched mixture.
        computer: A similarity computer bound to ``network``; it is
            rebound to each round's merged network.
        config: Decision thresholds and round count.
        round1: Optional precomputed ``(name_pairs, scores)`` for the
            first round (same names, same per-name pair order).  Later
            rounds always re-score through ``computer``.
    """
    cfg = config
    gcn = network
    n_merges = 0
    decision_seconds = 0.0
    per_round_pairs: list[int] = []
    per_round_merges: list[int] = []
    for round_index in range(cfg.merge_rounds):
        round_delta = cfg.delta if round_index == 0 else cfg.later_delta
        union = UnionFind(v.vid for v in gcn)
        # Cannot-link constraints from the mention model: same-name
        # vertices owning mentions of one paper are two homonymous
        # co-authors — provably distinct, however similar their profiles
        # look.  Registering them up front keeps the constraint
        # component-aware through transitive union chains.
        for cl_u, cl_v in cannot_link_pairs(gcn):
            union.forbid(cl_u, cl_v)
        round_merges = 0

        # Gather every name's candidates, then score the whole round in
        # one batched call so the engine amortises its sparse assembly
        # over all names instead of paying it per name.
        t_round = time.perf_counter()
        if round_index == 0 and round1 is not None:
            name_pairs, scores = round1
            all_pairs = [pair for _name, pairs in name_pairs for pair in pairs]
        else:
            name_pairs = []
            all_pairs = []
            for name in names:
                pairs = candidate_pairs_of_name(gcn, name)
                name_pairs.append((name, pairs))
                all_pairs.extend(pairs)
            if all_pairs:
                scores = match_scores(model, computer.pair_matrix(all_pairs))
            else:
                scores = np.empty(0, dtype=np.float64)
        per_round_pairs.append(len(all_pairs))

        merged_vids: list[int] = []
        offset = 0
        for name, pairs in name_pairs:
            for (u, v), score in zip(
                pairs, scores[offset : offset + len(pairs)]
            ):
                if score >= round_delta:
                    if union.connected(u, v):
                        # Already joined transitively — counting this
                        # as a merge would overstate merge activity
                        # and could defeat the convergence break.
                        continue
                    if not union.allowed(u, v):
                        # Cannot-link: the components own mentions of
                        # one paper (homonymous co-authors).
                        continue
                    union.union(u, v)
                    merged_vids.append(u)
                    merged_vids.append(v)
                    round_merges += 1
            offset += len(pairs)
        decision_seconds += time.perf_counter() - t_round
        n_merges += round_merges
        per_round_merges.append(round_merges)
        if round_merges == 0 and gcn is not network:
            # Converged on an already-copied network: a further
            # merged() pass would rebuild an identical graph.  (The
            # first round always copies, so callers' later mutations
            # never touch the pristine input network.)
            break
        touched = {union.find(vid) for vid in merged_vids}
        gcn = gcn.merged(union, preserve_ids=True)
        computer.rebind(gcn, touched=touched)
        if round_merges == 0:
            break
    return MergeRoundsOutcome(
        network=gcn,
        n_merges=n_merges,
        per_round_candidate_pairs=per_round_pairs,
        per_round_merges=per_round_merges,
        decision_seconds=decision_seconds,
    )


@dataclass(slots=True)
class FitReport:
    """Everything a run of Algorithm 1 learned about itself.

    ``n_candidate_pairs`` counts the *unique first-round* candidate pairs
    (``R_a`` summed over names, Section V-A); later merge rounds re-score
    the consolidated network, and those re-scored pairs are reported per
    round in ``per_round_candidate_pairs`` rather than inflating the total.

    ``decision_seconds`` is the scoring-and-decision total Table V
    reports: every merge round's candidate collection, γ scoring and
    decision loop.  A sharded fit sums its γ chunks' compute and its
    shards' decision loops.

    ``gcn_mentions`` counts author occurrences attributed across the final
    network (per-occurrence mention model): it equals the corpus's
    author–paper-pair total and ``scn.n_mentions`` — merging never loses a
    mention.

    Sharded fits (:class:`repro.core.sharding.ShardedIUAD`) additionally
    fill the shard counters: ``n_shards`` name blocks were fitted
    (``shard_stats`` holds one :class:`repro.core.sharding.ShardStats`
    each), ``n_fastpath_vertices`` vertices took the singleton fast path
    (no same-name candidate, hence no Stage-2 work), and
    ``partition_seconds`` / ``stitch_seconds`` time the orchestration
    around the parallel region.  Single-process fits leave them at their
    zero defaults.

    The pipeline block describes the sharded executor's overlapped
    schedule: ``pipeline_seconds`` spans first task submission to last
    decision result; ``gamma_wall_seconds`` / ``split_wall_seconds`` /
    ``decide_wall_seconds`` are parent-observed phase walls, each from
    the first submission of its kind of task to the completion of the
    last one (on a pool they overlap each other and ``em_seconds`` —
    that is the point; with ``n_workers=0`` they tile the pipeline);
    ``overlap_seconds`` is the wall-clock saved versus running
    γ → EM → decisions as sequential barriers, with
    ``overlap_gamma_chunks`` counting the γ chunks that completed under
    the EM midsection or later.  ``*_task_seconds`` are worker-summed
    compute, ``ipc_task_bytes`` the pickled bytes of every submitted
    task (pool runs only) and ``shm_bytes`` the shared-memory result
    transport replacing what used to round-trip through pickle.
    """

    scn: SCNBuildReport
    em: EMReport
    n_candidate_pairs: int
    n_training_pairs: int
    n_split_pairs: int
    n_merges: int
    gcn_vertices: int
    gcn_mentions: int
    gcn_edges: int
    stage1_seconds: float
    stage2_seconds: float
    decision_seconds: float = 0.0
    per_round_candidate_pairs: list[int] = field(default_factory=list)
    per_round_merges: list[int] = field(default_factory=list)
    n_shards: int = 0
    n_fastpath_vertices: int = 0
    partition_seconds: float = 0.0
    stitch_seconds: float = 0.0
    shard_stats: list = field(default_factory=list)
    em_seconds: float = 0.0
    pipeline_seconds: float = 0.0
    gamma_wall_seconds: float = 0.0
    split_wall_seconds: float = 0.0
    decide_wall_seconds: float = 0.0
    overlap_seconds: float = 0.0
    gamma_task_seconds: float = 0.0
    split_task_seconds: float = 0.0
    decide_task_seconds: float = 0.0
    n_gamma_chunks: int = 0
    overlap_gamma_chunks: int = 0
    ipc_task_bytes: int = 0
    shm_bytes: int = 0


class IUAD:
    """Incremental & Unsupervised Author Disambiguation.

    Typical use::

        iuad = IUAD()
        iuad.fit(corpus)
        clusters = iuad.clusters_of_name("Wei Wang")   # vid -> paper ids
        # stream new papers without retraining, through one ingest path
        # (add_paper(p) is add_papers([p])[0]):
        from repro.core import StreamingIngestor
        StreamingIngestor(iuad).add_papers(new_papers)

    After :meth:`fit`, the fitted state lives in ``scn_``, ``gcn_``,
    ``model_``, ``computer_`` and ``report_``.
    """

    def __init__(self, config: IUADConfig | None = None):
        self.config = config or IUADConfig()
        self.corpus_: Corpus | None = None
        self.scn_: CollaborationNetwork | None = None
        self.gcn_: CollaborationNetwork | None = None
        self.model_: MatchMixture | None = None
        self.computer_: SimilarityComputer | None = None
        self.embeddings_: WordEmbeddings | None = None
        self.report_: FitReport | None = None

    # ------------------------------------------------------------------ #
    # Stage 1 + Stage 2
    # ------------------------------------------------------------------ #
    def fit(self, corpus: Corpus, names: Iterable[str] | None = None) -> "IUAD":
        """Run Algorithm 1 on ``corpus``.

        Args:
            corpus: The paper database.
            names: Optional restriction of the Stage-2 merge decisions to a
                subset of names (the model is still trained on candidates
                from every name).  ``None`` processes all names.
        """
        cfg = self.config
        t0 = time.perf_counter()
        scn, scn_report = self._build_scn(corpus)
        stage1 = time.perf_counter() - t0

        t1 = time.perf_counter()
        self.embeddings_ = self._train_embeddings(corpus)
        computer = SimilarityComputer(
            scn,
            corpus,
            embeddings=self.embeddings_,
            wl_iterations=cfg.wl_iterations,
            decay_alpha=cfg.decay_alpha,
        )
        model, em_report, n_train, n_split = self._learn_model(
            scn, corpus, computer
        )

        decision_names = list(corpus.names if names is None else names)
        # One SimilarityComputer serves every merge round: the merged
        # network is built with preserve_ids=True, so only vertices whose
        # neighbourhood a merge (or a recovered relation) actually changed
        # lose their cached columns (see SimilarityComputer.rebind).
        outcome = run_merge_rounds(scn, decision_names, model, computer, cfg)
        gcn = outcome.network
        touched = self._recover_relations(gcn, corpus)
        computer.rebind(gcn, touched=touched)
        stage2 = time.perf_counter() - t1

        self.corpus_ = corpus
        self.scn_ = scn
        self.gcn_ = gcn
        self.model_ = model
        self.computer_ = computer
        self.report_ = FitReport(
            scn=scn_report,
            em=em_report,
            n_candidate_pairs=(
                outcome.per_round_candidate_pairs[0]
                if outcome.per_round_candidate_pairs
                else 0
            ),
            n_training_pairs=n_train,
            n_split_pairs=n_split,
            n_merges=outcome.n_merges,
            gcn_vertices=len(gcn),
            gcn_mentions=gcn.n_mentions,
            gcn_edges=gcn.n_edges,
            stage1_seconds=stage1,
            stage2_seconds=stage2,
            decision_seconds=outcome.decision_seconds,
            per_round_candidate_pairs=outcome.per_round_candidate_pairs,
            per_round_merges=outcome.per_round_merges,
        )
        return self

    # ------------------------------------------------------------------ #
    def _build_scn(
        self, corpus: Corpus
    ) -> tuple[CollaborationNetwork, SCNBuildReport]:
        """Stage 1: build the stable collaboration network."""
        cfg = self.config
        return SCNBuilder(
            corpus,
            cfg.eta,
            cfg.certify_triangles,
            cfg.require_triangle_instance,
        ).build()

    def _train_embeddings(self, corpus: Corpus) -> WordEmbeddings | None:
        if not self.config.use_embeddings:
            return None
        try:
            return train_title_embeddings(
                (p.title for p in corpus), dim=self.config.embedding_dim
            )
        except ValueError:
            # Corpus too small to train on; γ3 falls back to multiset cosine.
            return None

    def _learn_model(
        self,
        scn: CollaborationNetwork,
        corpus: Corpus,
        computer: SimilarityComputer | None,
        precomputed: tuple[list[Pair], np.ndarray] | None = None,
        precomputed_split: tuple[list[Pair], np.ndarray] | None = None,
    ) -> tuple[MatchMixture, EMReport, int, int]:
        """Train the mixture on sampled candidates + split-balance pairs.

        ``precomputed`` short-circuits the candidate γ computation with an
        already-scored ``(training_pairs, gamma_matrix)`` — the sharded
        orchestrator computes every candidate γ in parallel name-block
        workers and slices the training sample out of those results, so
        the serial section of a sharded fit never re-scores pairs
        (``computer`` may then be ``None``).  ``precomputed_split``
        likewise injects already-scored split-balance pairs (the sharded
        orchestrator scores them in pool workers too — on dense networks
        the split vertices' WL profiles are the single most expensive
        serial item).
        """
        cfg = self.config
        if precomputed is None:
            assert computer is not None
            all_pairs: list[Pair] = []
            for name in scn.names:
                all_pairs.extend(candidate_pairs_of_name(scn, name))
            training = sample_training_pairs(
                all_pairs, cfg.sample_rate, cfg.min_training_pairs, cfg.seed
            )
            gammas = [computer.pair_matrix(training)] if training else []
        else:
            training, training_gammas = precomputed
            gammas = [training_gammas] if training else []
        seeds: list[np.ndarray] = []
        n_split = 0
        if cfg.balance_split:
            if precomputed_split is not None:
                split_pairs, split_gammas = precomputed_split
                if split_pairs:
                    gammas.append(split_gammas)
                    n_split = len(split_pairs)
            else:
                split = split_prolific_vertices(
                    scn,
                    min_papers=cfg.split_min_papers,
                    max_vertices=cfg.max_split_vertices,
                    seed=cfg.seed,
                )
                if split.matched_pairs:
                    split_computer = SimilarityComputer(
                        split.network,
                        corpus,
                        embeddings=self.embeddings_,
                        wl_iterations=cfg.wl_iterations,
                        decay_alpha=cfg.decay_alpha,
                    )
                    gammas.append(
                        split_computer.pair_matrix(split.matched_pairs)
                    )
                    n_split = len(split.matched_pairs)
        if not gammas:
            raise ValueError(
                "no candidate pairs to train on — every name has a single "
                "vertex (is the corpus trivially unambiguous?)"
            )
        stacked = np.vstack(gammas)
        if training:
            seeds.append(np.full(len(training), 0.1))
        if n_split:
            seeds.append(np.full(n_split, 0.95))
        model = MatchMixture(cfg.families)
        em_report = model.fit(
            stacked,
            max_iterations=cfg.em_max_iterations,
            tolerance=cfg.em_tolerance,
            initial_responsibilities=np.concatenate(seeds),
        )
        return model, em_report, len(training), n_split

    @staticmethod
    def _recover_relations(
        gcn: CollaborationNetwork, corpus: Corpus
    ) -> set[int]:
        """Algorithm 1 line 16: add back the non-stable co-author edges.

        Every paper's co-author list induces edges between the vertices that
        own its mentions; Stage 1 materialised only the stable ones, the
        rest are recovered here so the GCN is the *complete* collaboration
        network of Definition 1.  Ownership is looked up per occurrence —
        ``(pid, position) -> vid`` — so a paper listing one name twice
        contributes edges for *both* homonymous co-authors.  Returns the
        vertices that gained an edge, so the caller can invalidate exactly
        their profile neighbourhoods.
        """
        touched: set[int] = set()
        owner: dict[tuple[int, int], int] = {}
        for vertex in gcn:
            for pid, position in vertex.mentions.items():
                owner[(pid, position)] = vertex.vid
        for paper in corpus:
            vids = [
                vid
                for position in range(len(paper.authors))
                if (vid := owner.get((paper.pid, position))) is not None
            ]
            for i, u in enumerate(vids):
                for v in vids[i + 1 :]:
                    if u != v and not (
                        paper.pid in gcn.edge_papers(u, v)
                    ):
                        gcn.add_edge(u, v, (paper.pid,))
                        touched.add(u)
                        touched.add(v)
        return touched

    # ------------------------------------------------------------------ #
    # persistence (durable snapshots, warm-start resume)
    # ------------------------------------------------------------------ #
    def save(self, path, backend: str | None = None):
        """Persist the complete fitted state as a durable snapshot.

        ``backend`` selects ``"jsonl"`` (human-diffable, streaming-
        friendly) or ``"sqlite"`` (queryable single file); when omitted
        it is inferred from an existing file's bytes or the path suffix
        (``.sqlite``/``.sqlite3``/``.db`` → SQLite, else JSONL).  The
        write is atomic (tmp + fsync + rename).  Fit diagnostics
        (``report_``) are not part of the snapshot.  Returns the path.
        """
        from ..io.snapshot import snapshot_of

        self._require_fitted()
        return snapshot_of(self).save(path, backend=backend)

    @classmethod
    def load(cls, path, backend: str | None = None) -> "IUAD":
        """Restore a fitted estimator from :meth:`save` output.

        The loaded estimator serves queries and absorbs streamed papers
        exactly as the saved one would — same vertex ids, same
        ``next_vid`` watermark, same name-index order, same learned
        parameters and fit-time frequency tables (resume parity is
        pinned by ``tests/test_snapshot_parity.py``).  A snapshot of a
        :class:`~repro.core.sharding.ShardedIUAD` restores that class,
        shard index and all; loading it through a class it does not
        satisfy raises ``TypeError``.
        """
        from ..io.snapshot import Snapshot

        estimator = Snapshot.load(path, backend=backend).restore()
        if not isinstance(estimator, cls):
            raise TypeError(
                f"snapshot at {path} holds a "
                f"{type(estimator).__name__}, not a {cls.__name__}"
            )
        return estimator

    # ------------------------------------------------------------------ #
    # fitted-state accessors
    # ------------------------------------------------------------------ #
    def _require_fitted(self) -> None:
        if self.gcn_ is None:
            raise RuntimeError("IUAD is not fitted; call fit() first")

    def clusters_of_name(self, name: str) -> dict[int, set[int]]:
        """Predicted clustering of ``name``'s papers (vertex -> paper ids)."""
        self._require_fitted()
        assert self.gcn_ is not None
        return self.gcn_.clusters_of_name(name)

    def mention_clusters_of_name(self, name: str) -> dict[int, set[tuple[int, int]]]:
        """Predicted clustering at mention granularity.

        Vertex id -> set of ``(pid, position)`` units — the view the
        positional evaluation protocol pairs against ground truth.
        """
        self._require_fitted()
        assert self.gcn_ is not None
        return self.gcn_.mention_clusters_of_name(name)

    def scn_clusters_of_name(self, name: str) -> dict[int, set[int]]:
        """Stage-1-only clustering (for the Table IV stage ablation)."""
        if self.scn_ is None:
            raise RuntimeError("IUAD is not fitted; call fit() first")
        return self.scn_.clusters_of_name(name)

    def scn_mention_clusters_of_name(
        self, name: str
    ) -> dict[int, set[tuple[int, int]]]:
        """Stage-1-only clustering at mention granularity."""
        if self.scn_ is None:
            raise RuntimeError("IUAD is not fitted; call fit() first")
        return self.scn_.mention_clusters_of_name(name)


def disambiguate(
    corpus: Corpus,
    config: IUADConfig | None = None,
    names: Iterable[str] | None = None,
) -> IUAD:
    """One-call convenience: fit IUAD on ``corpus`` and return it."""
    return IUAD(config).fit(corpus, names=names)
