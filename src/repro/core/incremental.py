"""Incremental disambiguation (Section V-E) and its one-at-a-time oracle.

Production ingestion has one path: :class:`~repro.core.streaming.
StreamingIngestor`, whose module documents the rule and the batched
walk.  :data:`IncrementalDisambiguator` is the same class under the
paper's name, and its ``add_paper(p)`` is ``add_papers([p])[0]``.

This module keeps the paper-faithful per-mention loop,
:func:`sequential_add_paper`, as the parity oracle that the tests and the
Table VI streaming benchmark compare ``add_papers`` against.  No
production module calls it.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.records import Paper
from ..model.scoring import match_scores
from .streaming import Assignment, StreamingIngestor

IncrementalDisambiguator = StreamingIngestor


def sequential_add_paper(
    ingestor: StreamingIngestor, paper: Paper
) -> list[Assignment]:
    """Section V-E one mention at a time: the oracle of ``add_papers``.

    Each mention gets its own ``pair_matrix`` call against the live
    network, and every recovered edge drops the whole radius-``h`` ball
    of its endpoints (``SimilarityComputer.invalidate_many``) instead of
    the exact value stain.  The decision phases are the ingestor's own.
    Report counters move as ``add_papers`` moves them, except
    ``n_batches``/``n_waves``; the writer lock, the delta journal and
    auto-checkpoints are bypassed.
    """
    iuad = ingestor.iuad
    corpus, computer = iuad.corpus_, iuad.computer_
    report = ingestor.report
    if paper.pid in corpus:
        if iuad.config.duplicate_paper_policy == "raise":
            raise ValueError(f"paper {paper.pid} is already ingested")
        report.n_duplicates += 1
        return ingestor._prior_assignments(paper)
    t0 = time.perf_counter()
    corpus.add(paper)
    if ingestor.shard_index is not None:
        report.count_shards((ingestor.shard_index.route_paper(paper.authors),))
    assignments: list[Assignment] = []
    for position, name in enumerate(paper.authors):
        candidates = ingestor._candidate_vids(name, paper.pid)
        probe = ingestor._make_probe(name, paper.pid, position)
        scores = np.empty(0, dtype=np.float64)
        if candidates:
            pairs = [(probe, vid) for vid in candidates]
            scores = match_scores(iuad.model_, computer.pair_matrix(pairs))
        assignments.append(ingestor._apply_assignment(
            name, paper.pid, position, probe, candidates, scores
        ))
    touched = ingestor._recover_paper_relations(paper.pid, assignments)
    if touched:
        computer.invalidate_many(touched)
    report.n_papers += 1
    report.n_mentions += len(assignments)
    report.seconds += time.perf_counter() - t0
    return assignments
