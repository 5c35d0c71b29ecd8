"""Streaming ingestion benchmark — batched bursts vs the scalar loop.

Extends the Table-VI story (incremental cost per paper) to bursty
streams: a 1k-paper burst is ingested through
``StreamingIngestor.add_papers`` and compared against the sequential
loop — the per-mention test oracle ``sequential_add_paper`` — and
against the pure *scalar* loop (the same oracle with ``pair_matrix``
bound to the per-pair oracle ``pair_matrix_perpair``, i.e. one
``similarity_vector`` call per candidate pair — the pre-batching code
path the motivation describes).

What the record claims, and how honestly it can claim it:

* **Parity** is asserted always, in every mode: the batched burst must
  produce the identical GCN and assignments as the sequential loop.
* **Scoring throughput**: the burst's probe-vs-existing candidate pairs
  are scored through the vectorised snapshot call and through the
  scalar per-pair path on equally warm caches (the batched path's
  columns and the scalar path's profiles are both built before timing);
  the ≥5× floor applies here (full mode only) — this is the slice of
  the hot path that batching can speed up without bound.
* **End-to-end papers/second** is recorded for all three paths.  It is
  bounded well below the scoring ratio by the genuinely order-dependent
  pairs, which *exact parity* requires re-scoring at sequential cost
  (``n_patched_pairs`` in the record), and by per-candidate state
  construction.  The batched path builds the paper-derived columns of
  all uncached candidates in one vectorised pass per scoring call, as
  does the sequential loop per paper, WL labels and triangles included
  (one ``ego_features`` pass over a local int CSR); the scalar loop
  builds a fresh profile of every vertex of every scoring call, since
  the oracle caches none.  The ``column_build`` stage is the
  wall time spent inside ``SimilarityComputer._build_columns`` during
  the recorded ``stream_batched`` run, and ``column_build_share`` its
  share of that run, so a faster column build shows as a smaller layer
  share next to a smaller burst time.
  The full-mode floor for the end-to-end number is therefore
  "meaningfully faster than the sequential loop", not 5×.

Quick mode (``BENCH_QUICK=1``) shrinks the world, asserts parity only,
and records to the untracked ``BENCH_streaming.quick.json``.
"""

import copy
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core import IUAD, IUADConfig, StreamingIngestor
from repro.core.incremental import sequential_add_paper
from repro.data import Corpus
from repro.data.synthetic import SyntheticConfig, SyntheticDBLP
from repro.eval.timing import StageTimer, streaming_summary, write_benchmark_json
from repro.model.scoring import match_scores
from repro.similarity import SimilarityComputer

QUICK = os.environ.get("BENCH_QUICK", "") == "1"
MIN_SCORING_SPEEDUP = 5.0
MIN_END_TO_END_SPEEDUP = 1.05
#: End-to-end trials per path; the best wall-clock wins (the paths are
#: deterministic, so repeated trials only shed scheduler noise).
N_TRIALS = 2
OUT_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_streaming.quick.json" if QUICK else "BENCH_streaming.json"
)


def _stream_world():
    """A streaming-shaped world: ambiguous names, small labs, cheap
    profiles.  The burst then carries large same-name candidate lists
    (the regime where per-pair scalar scoring hurts) while collaboration
    stays lab-local (so intra-batch dependencies don't serialise the
    whole burst)."""
    if QUICK:
        cfg = SyntheticConfig(
            n_authors=1200, n_papers=2300, name_pool_size=90,
            name_popularity_exponent=0.0, productivity_cap=4,
            productivity_exponent=3.0, n_communities=300, lab_size=3,
            max_coauthors=2, coauthor_weight_exponent=0.3,
            external_coauthor_prob=0.0, transient_author_prob=0.3,
            seed=7,
        )
        n_burst = 150
    else:
        cfg = SyntheticConfig(
            n_authors=5000, n_papers=9000, name_pool_size=250,
            name_popularity_exponent=0.0, productivity_cap=4,
            productivity_exponent=3.0, n_communities=1200, lab_size=3,
            max_coauthors=2, coauthor_weight_exponent=0.3,
            external_coauthor_prob=0.0, transient_author_prob=0.3,
            seed=7,
        )
        n_burst = 1000
    corpus = SyntheticDBLP(cfg).generate()
    pids = sorted(p.pid for p in corpus)
    burst_pids = random.Random(13).sample(pids, n_burst)
    base = Corpus(p for p in corpus if p.pid not in set(burst_pids))
    burst = [corpus[pid] for pid in burst_pids]
    return base, burst


def _network_state(gcn):
    return (
        sorted(
            (v.vid, v.name, tuple(sorted(v.papers)),
             tuple(sorted(v.mentions.items())))
            for v in gcn
        ),
        sorted((u, v, tuple(sorted(p))) for u, v, p in gcn.edges()),
    )


def _probe_pairs(fitted, burst):
    """The burst's probe-vs-existing pair list, as the snapshot sees it.

    Built on a scratch copy: burst papers enter the corpus, one isolated
    probe per mention enters the network, and every (probe, same-name
    vertex) pair is collected.
    """
    scratch = copy.deepcopy(fitted)
    gcn, corpus = scratch.gcn_, scratch.corpus_
    probe_of: dict[tuple[int, int], int] = {}
    for paper in burst:
        corpus.add(paper)
        for position, name in enumerate(paper.authors):
            probe_of[(paper.pid, position)] = gcn.add_vertex(
                name, mentions=((paper.pid, position),)
            )
    probes = set(probe_of.values())
    pairs = []
    for paper in burst:
        for position, name in enumerate(paper.authors):
            probe = probe_of[(paper.pid, position)]
            # Candidates exactly as the snapshot enumerates them: probes
            # of not-yet-applied papers are hidden, pid owners barred.
            pairs.extend(
                (probe, vid)
                for vid in gcn.vertices_of_name(name)
                if vid not in probes and paper.pid not in gcn.papers_of(vid)
            )
    return scratch, pairs


@contextmanager
def _column_build_seconds():
    """Wall time spent in ``SimilarityComputer._build_columns`` (the
    per-call column build of uncached vertices) while the block runs."""
    spent = [0.0]
    build = SimilarityComputer._build_columns

    def timed(self, vids):
        t0 = time.perf_counter()
        try:
            return build(self, vids)
        finally:
            spent[0] += time.perf_counter() - t0

    SimilarityComputer._build_columns = timed
    try:
        yield spent
    finally:
        SimilarityComputer._build_columns = build


def test_streaming_burst(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    timer = StageTimer()
    with timer.stage("corpus"):
        base, burst = _stream_world()
    with timer.stage("fit"):
        # WL radius 1: the streaming-serving configuration — profile
        # (re)builds stay cheap and stains stay lab-local.  Both paths
        # run the same config, so the comparison is apples-to-apples.
        fitted = IUAD(IUADConfig(wl_iterations=1)).fit(base)

    # ---------------- end-to-end: batched vs sequential vs scalar ----- #
    # Each path runs N_TRIALS times on fresh copies; the best wall-clock
    # is recorded (deterministic work, so extra trials only shed noise).
    bat = seq = sca = None
    bat_assignments = seq_assignments = None
    ingestor = None
    best = {"stream_batched": [], "stream_sequential": [],
            "stream_scalar_loop": []}
    column_build = []
    for _trial in range(N_TRIALS):
        bat = copy.deepcopy(fitted)
        ingestor = StreamingIngestor(bat)
        with _column_build_seconds() as spent:
            t0 = time.perf_counter()
            bat_assignments = ingestor.add_papers(burst)
            best["stream_batched"].append(time.perf_counter() - t0)
        column_build.append(spent[0])

        seq = copy.deepcopy(fitted)
        seq_stream = StreamingIngestor(seq)
        t0 = time.perf_counter()
        seq_assignments = [sequential_add_paper(seq_stream, p) for p in burst]
        best["stream_sequential"].append(time.perf_counter() - t0)

        sca = copy.deepcopy(fitted)
        # the pure scalar loop: every list through the per-pair oracle
        sca.computer_.pair_matrix = sca.computer_.pair_matrix_perpair
        sca_stream = StreamingIngestor(sca)
        t0 = time.perf_counter()
        for paper in burst:
            sequential_add_paper(sca_stream, paper)
        best["stream_scalar_loop"].append(time.perf_counter() - t0)
    for stage, seconds in best.items():
        timer.record(stage, min(seconds))
    # The column build of the recorded (fastest) batched run.
    fastest = best["stream_batched"].index(min(best["stream_batched"]))
    timer.record("column_build", column_build[fastest])

    # Parity gates every claim (asserted in quick mode too).
    assert _network_state(bat.gcn_) == _network_state(seq.gcn_)
    assert _network_state(bat.gcn_) == _network_state(sca.gcn_)
    assert [
        [(a.vid, a.created) for a in batch] for batch in bat_assignments
    ] == [[(a.vid, a.created) for a in batch] for batch in seq_assignments]

    # ---------------- scoring path: vectorised vs per-pair scalar ----- #
    scratch, pairs = _probe_pairs(fitted, burst)
    computer, model = scratch.computer_, scratch.model_
    computer.pair_matrix_batched(pairs)  # warm the columnar arrays ...
    profiles = {  # ... and build the scalar oracle's profiles
        vid: computer.profile(vid)
        for vid in sorted({vid for pair in pairs for vid in pair})
    }
    t0 = time.perf_counter()
    vec_scores = match_scores(model, computer.pair_matrix_batched(pairs))
    vectorised_seconds = time.perf_counter() - t0
    timer.record("score_vectorised", vectorised_seconds)
    t0 = time.perf_counter()
    scalar_scores = match_scores(
        model, computer.pair_matrix_perpair(pairs, profiles)
    )
    scalar_seconds = time.perf_counter() - t0
    timer.record("score_scalar", scalar_seconds)
    np.testing.assert_allclose(vec_scores, scalar_scores, rtol=0.0, atol=1e-9)
    scoring_speedup = scalar_seconds / max(vectorised_seconds, 1e-9)

    stages = timer.as_dict()
    end_to_end_vs_sequential = (
        stages["stream_sequential"] / stages["stream_batched"]
    )
    end_to_end_vs_scalar = (
        stages["stream_scalar_loop"] / stages["stream_batched"]
    )
    stats = ingestor.last_batch
    payload = write_benchmark_json(
        OUT_PATH,
        "streaming_ingestion",
        stages,
        quick=QUICK,
        n_burst_papers=len(burst),
        n_base_papers=len(base),
        n_candidate_pairs=len(pairs),
        papers_per_second_batched=round(
            len(burst) / stages["stream_batched"], 2
        ),
        papers_per_second_sequential=round(
            len(burst) / stages["stream_sequential"], 2
        ),
        scoring_speedup_vs_scalar=round(scoring_speedup, 3),
        column_build_share=round(
            stages["column_build"] / stages["stream_batched"], 3
        ),
        end_to_end_speedup_vs_sequential=round(end_to_end_vs_sequential, 3),
        end_to_end_speedup_vs_scalar_loop=round(end_to_end_vs_scalar, 3),
        parity="identical GCN + assignments (batched vs sequential vs scalar)",
        patched_pair_share=round(
            stats.n_patched_pairs / max(stats.n_scored_pairs, 1), 3
        ),
        streaming=streaming_summary(ingestor.report),
    )
    assert payload["streaming"]["n_papers"] == len(burst)

    if not QUICK:
        # The ≥5× claim lives where batching can honestly earn it: the
        # vectorised scoring of the burst's candidate pairs.
        assert scoring_speedup >= MIN_SCORING_SPEEDUP, (
            f"vectorised scoring only {scoring_speedup:.2f}x over the "
            f"scalar path (floor {MIN_SCORING_SPEEDUP}x)"
        )
        # End-to-end is bounded by shared profile builds + genuinely
        # dependent pairs (re-scored at sequential cost, by design);
        # the floor guards against the batched path regressing.
        assert end_to_end_vs_sequential >= MIN_END_TO_END_SPEEDUP, (
            f"batched burst only {end_to_end_vs_sequential:.2f}x over "
            f"the sequential loop (floor {MIN_END_TO_END_SPEEDUP}x)"
        )
    else:
        # Smoke: the batched path must stay within bounded overhead.
        assert stages["stream_batched"] <= 3.0 * max(
            stages["stream_sequential"], 0.05
        ), "batched streaming overhead exploded"
