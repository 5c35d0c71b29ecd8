#!/usr/bin/env python3
"""Sharded fitting: γ scoring in a process pool, one global decision.

Fits the same synthetic corpus twice — once with the single-process
``IUAD`` and once with ``ShardedIUAD`` (process pool) — verifies the
two global collaboration networks are identical, and prints the shard
plan plus the per-shard counters.  On a multi-core machine the sharded
fit is the faster one; on a single core it shows the pooled pipeline at
a modest overhead.

Run:  python examples/sharded_fit.py
"""

import os
import time

from repro.core import IUAD, IUADConfig, IncrementalDisambiguator, ShardedIUAD
from repro.data import Paper, generate_corpus
from repro.eval import shard_summary


def clusterings(est, names):
    return {
        n: sorted(
            sorted(units)
            for units in est.mention_clusters_of_name(n).values()
        )
        for n in names
    }


def main() -> None:
    corpus = generate_corpus(
        n_authors=1200, n_papers=2600, name_pool_size=500, n_communities=60
    )
    names = corpus.names
    print(f"corpus: {len(corpus)} papers, {len(names)} names")

    t0 = time.perf_counter()
    single = IUAD(IUADConfig()).fit(corpus)
    t_single = time.perf_counter() - t0
    print(f"single-process fit: {t_single:.2f}s")

    workers = min(4, os.cpu_count() or 1)
    t0 = time.perf_counter()
    sharded = ShardedIUAD(IUADConfig(n_workers=workers)).fit(corpus)
    t_sharded = time.perf_counter() - t0
    report = sharded.report_
    print(
        f"sharded fit ({workers} workers): {t_sharded:.2f}s — "
        f"{report.n_shards} shards, "
        f"{report.n_fastpath_vertices} fast-path vertices, "
        f"decision {report.decision_seconds * 1000:.0f}ms"
    )
    print("per-shard counters:", shard_summary(report))

    same = (
        clusterings(single, names) == clusterings(sharded, names)
        and single.gcn_.export_parts() == sharded.gcn_.export_parts()
    )
    print(f"shard-vs-global parity: {'identical' if same else 'DIFFERENT!'}")

    # Streaming inserts route through the shard index.
    stream = IncrementalDisambiguator(sharded)
    next_pid = max(p.pid for p in corpus) + 1
    stream.add_paper(
        Paper(next_pid, (names[0], "A New Student"), "fresh result", "V", 2021)
    )
    print(
        "streamed one paper; per-shard insert counts:",
        dict(stream.report.per_shard_papers),
    )


if __name__ == "__main__":
    main()
