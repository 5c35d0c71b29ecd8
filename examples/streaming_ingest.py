#!/usr/bin/env python3
"""Batched streaming ingestion: vectorised multi-paper bursts.

Builds the GCN on older papers, then ingests the most recent papers as
one burst through ``StreamingIngestor.add_papers`` — scored by a single
vectorised snapshot call, applied in batch order with exact stain
tracking — and cross-checks the result against the paper-faithful
one-mention-at-a-time oracle, ``repro.core.incremental.
sequential_add_paper`` (the parity contract; ``add_paper`` itself is a
one-paper ``add_papers`` call, the same path as the burst).

Run:  python examples/streaming_ingest.py
"""

import copy
import time

from repro.core import IUAD, IUADConfig, StreamingIngestor
from repro.core.incremental import sequential_add_paper
from repro.data import Corpus, build_testing_dataset, generate_world
from repro.data.testing import split_for_incremental


def main() -> None:
    world = generate_world()
    corpus = world.corpus
    testing = build_testing_dataset(corpus)

    # hold out the 300 most recent testing papers as one "daily burst"
    _base_pids, new_pids = split_for_incremental(testing, 300)
    new_set = set(new_pids)
    base_corpus = Corpus(p for p in corpus if p.pid not in new_set)
    burst = [corpus[pid] for pid in new_pids]
    print(f"base corpus: {len(base_corpus)} papers; burst: {len(burst)} papers")

    iuad = IUAD(IUADConfig()).fit(base_corpus, names=testing.names)
    # streaming mutates the fitted corpus/network: keep a pristine copy
    # for the oracle cross-check below
    seq_iuad = copy.deepcopy(iuad)

    # --- batched: the whole burst in one call -------------------------- #
    batched = StreamingIngestor(iuad)
    t0 = time.perf_counter()
    assignments = batched.add_papers(burst)
    batched_seconds = time.perf_counter() - t0

    report = batched.report
    stats = batched.last_batch
    attached = sum(1 for batch in assignments for a in batch if not a.created)
    print(
        f"batched ingest: {report.n_papers} papers / {report.n_mentions} "
        f"mentions in {batched_seconds:.2f}s "
        f"({1000 * batched_seconds / len(burst):.1f} ms/paper)"
    )
    print(
        f"  one snapshot scored {stats.n_scored_pairs} candidate pairs; "
        f"{stats.n_patched_pairs} intra-burst-dependent pairs were "
        f"re-scored inline ({attached} mentions attached)"
    )

    # --- parity: the per-mention oracle produces the identical network - #
    sequential = StreamingIngestor(seq_iuad)
    t0 = time.perf_counter()
    for paper in burst:
        sequential_add_paper(sequential, paper)
    sequential_seconds = time.perf_counter() - t0

    def state(gcn):
        return sorted(
            (v.vid, v.name, tuple(sorted(v.mentions.items()))) for v in gcn
        )

    identical = state(iuad.gcn_) == state(seq_iuad.gcn_)
    print(
        f"sequential oracle (sequential_add_paper): "
        f"{sequential_seconds:.2f}s "
        f"({1000 * sequential_seconds / len(burst):.1f} ms/paper) — "
        f"identical GCN: {identical}"
    )
    assert identical, "parity violation: batched != sequential oracle"

    # re-ingesting the same burst is governed by duplicate_paper_policy
    # ("raise" by default; "return" replays the mentions' current owners)
    try:
        batched.add_papers(burst[:1])
    except ValueError as err:
        print(f"duplicate re-ingest rejected as configured: {err}")


if __name__ == "__main__":
    main()
