"""Subprocess driver for the sharded-fit benchmark.

``test_sharded_fit_speedup`` runs the single-process and the sharded
fit in *separate interpreter processes* (one ``python -m``-style
invocation each) instead of inline in the pytest process.  Inline
measurement is systematically biased on the pool path: the executor
forks its workers from whatever heap the preceding benchmarks left
behind, and every transient allocation in a worker then lands on a
copy-on-write page inherited from that dirty heap — the measured
"sharded" wall grows with the number of tests that happened to run
first.  A fresh process per fit makes the comparison a function of the
executor alone, reproducible standalone and under the full suite.

Output: one JSON document on stdout — timings, corpus size, the full
mention clusterings and a digest of the global collaboration network
(vertex ids, names, mentions, edges with their papers; the parity gate
compares both across the two driver runs), and, for the sharded mode,
the flattened ``shard_summary`` pipeline counters.
"""

import argparse
import hashlib
import json
import sys
import time

from repro.core import IUAD, IUADConfig, ShardedIUAD
from repro.data.synthetic import SyntheticConfig, SyntheticDBLP
from repro.eval.timing import shard_summary


def bench_corpus(quick: bool):
    """The scalability sweep's largest corpus (shrunk in quick mode).

    Name pool concentrated so candidate blocks are big and pair scoring
    (the shardable work) dominates the fit — the regime sharding exists
    for.  Must stay in lockstep for both driver invocations: the parity
    gate compares their clusterings.
    """
    if quick:
        cfg = SyntheticConfig(
            n_authors=900, n_papers=2000, name_pool_size=300,
            n_communities=70, seed=7,
        )
    else:
        cfg = SyntheticConfig(
            n_authors=3500, n_papers=8000, name_pool_size=420, seed=7,
        )
    return SyntheticDBLP(cfg).generate()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["single", "sharded"])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    corpus = bench_corpus(args.quick)
    corpus_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    if args.mode == "single":
        est = IUAD(IUADConfig()).fit(corpus)
    else:
        est = ShardedIUAD(IUADConfig(n_workers=args.workers)).fit(corpus)
    fit_seconds = time.perf_counter() - t0

    out = {
        "mode": args.mode,
        "corpus_seconds": corpus_seconds,
        "fit_seconds": fit_seconds,
        "n_papers": len(corpus),
        "clusterings": {
            name: sorted(
                sorted(units)
                for units in est.mention_clusters_of_name(name).values()
            )
            for name in corpus.names
        },
        "gcn_digest": hashlib.sha256(
            json.dumps(est.gcn_.export_parts()).encode("utf-8")
        ).hexdigest(),
    }
    if args.mode == "sharded":
        out["shards"] = shard_summary(est.report_)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
