"""Bench: batched similarity engine vs the scalar per-pair loop.

Scores every same-name candidate pair of a ~2k-paper synthetic corpus both
ways, asserts the γ matrices agree to 1e-9 and that the batched engine is
≥5× faster, and records per-stage wall-clock to ``BENCH_similarity.json``
at the repo root (via :mod:`repro.eval.timing`) so the speedup stays
comparable across PRs.

``BENCH_QUICK=1`` switches to the CI smoke mode: a much smaller corpus and
a relaxed speedup floor (small pair lists under-amortise the engine's fixed
assembly cost, which is exactly why ``pair_matrix`` dispatches them to the
scalar path in production).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.core.candidates import candidate_pairs_of_name
from repro.data.synthetic import SyntheticConfig, SyntheticDBLP
from repro.eval.timing import StageTimer, write_benchmark_json
from repro.graphs import build_scn
from repro.similarity import SimilarityComputer
from repro.text.embeddings import train_title_embeddings

QUICK = os.environ.get("BENCH_QUICK", "") == "1"
MIN_SPEEDUP = 2.0 if QUICK else 5.0
# Quick mode records to a separate (untracked) file so smoke runs never
# clobber the committed full-mode record that PRs are compared against.
OUT_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_similarity.quick.json" if QUICK else "BENCH_similarity.json"
)


def _bench_corpus():
    # The small name pool concentrates homonymy: candidate blocks get big
    # enough that pair scoring (not per-vertex profile work) dominates,
    # which is the regime the batched engine exists for.
    if QUICK:
        cfg = SyntheticConfig(
            n_authors=400,
            n_papers=800,
            name_pool_size=160,
            n_communities=40,
            seed=13,
        )
    else:
        cfg = SyntheticConfig(
            n_authors=1100,
            n_papers=2100,
            name_pool_size=420,
            n_communities=80,
            seed=13,
        )
    return SyntheticDBLP(cfg).generate()


def test_batched_pair_matrix_speedup(benchmark):
    timer = StageTimer()
    with timer.stage("corpus"):
        corpus = _bench_corpus()
    with timer.stage("scn_build"):
        net, _ = build_scn(corpus, eta=2)
    with timer.stage("embeddings"):
        embeddings = train_title_embeddings(p.title for p in corpus)
    computer = SimilarityComputer(net, corpus, embeddings=embeddings)

    pairs = []
    for name in net.names:
        pairs.extend(candidate_pairs_of_name(net, name))
    assert pairs, "bench corpus produced no candidate pairs"

    # Warm the scalar path's per-vertex profiles first so the comparison
    # isolates pair scoring (the batched path builds its own columns).
    with timer.stage("profile_warm"):
        for u, v in pairs:
            computer.profile(u)
            computer.profile(v)

    def best_of(fn, repeats=3):
        result, best = None, float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        return result, best

    # First batched call includes building every vertex's columns (paid
    # once per network); the steady-state stage re-scores on the warm
    # store, which is what every merge round after the first sees.
    with timer.stage("batched_cold"):
        batched = computer.pair_matrix_batched(pairs)
    reference, perpair_seconds = best_of(
        lambda: computer.pair_matrix_perpair(pairs)
    )
    timer.record("perpair", perpair_seconds)
    batched_warm, batched_seconds = best_of(
        lambda: computer.pair_matrix_batched(pairs), repeats=5
    )
    timer.record("batched", batched_seconds)

    np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(batched_warm, reference, rtol=0.0, atol=1e-9)

    stages = timer.as_dict()
    speedup = stages["perpair"] / max(stages["batched"], 1e-12)
    speedup_cold = stages["perpair"] / max(stages["batched_cold"], 1e-12)
    write_benchmark_json(
        OUT_PATH,
        "similarity_batch",
        stages,
        quick=QUICK,
        n_papers=len(corpus),
        n_vertices=len(net),
        n_pairs=len(pairs),
        speedup=round(speedup, 2),
        speedup_cold=round(speedup_cold, 2),
        min_speedup=MIN_SPEEDUP,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert speedup >= MIN_SPEEDUP, (
        f"batched pair_matrix only {speedup:.1f}x faster than the per-pair "
        f"loop over {len(pairs)} pairs (floor {MIN_SPEEDUP}x); see {OUT_PATH}"
    )
