"""Shared pieces of the repository benchmark: paths, inputs, statistics.

Nothing here imports the program under test at module load; the
``repro`` package is reached through :func:`use_source_tree`, which puts
the checkout's ``src/`` on ``sys.path`` and fails loudly when it is not
there (a directory holding only the benchmark must not produce a result).
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SERVE_TOOL = ROOT / "tools" / "serve.py"
#: Scratch space for snapshots, delta logs and server logs; every run
#: makes its own sub-directory and removes it when done.
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("fit-scalefree", "stream-arrival", "serve-mixed")

#: The gated end-to-end metrics: every workload measures every one of
#: them (BENCHMARK.json lists the same names, units and directions).
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "micro_f1": ("F1", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: The workload-specific end-to-end record.  A workload reports exactly
#: the names listed for it here, each backed by its own measurement.
NAMED_METRICS: dict[str, tuple[str, frozenset[str]]] = {
    "setup_s": ("s", frozenset(WORKLOADS)),
    "fit_s": ("s", frozenset({"fit-scalefree"})),
    "micro_f1": ("F1", frozenset(WORKLOADS)),
    "peak_rss_mb": ("MB", frozenset(WORKLOADS)),
    "failed_op_share": ("ratio", frozenset(WORKLOADS)),
    "ingest_papers_per_s": ("1/s", frozenset({"stream-arrival"})),
    "burst_p50_ms": ("ms", frozenset({"stream-arrival"})),
    "burst_p90_ms": ("ms", frozenset({"stream-arrival"})),
    "resume_s": ("s", frozenset({"stream-arrival"})),
    "read_p50_ms": ("ms", frozenset({"serve-mixed"})),
    "read_p99_ms": ("ms", frozenset({"serve-mixed"})),
    "ingest_visible_p50_ms": ("ms", frozenset({"serve-mixed"})),
    "ingest_visible_p90_ms": ("ms", frozenset({"serve-mixed"})),
}

#: Which named metric is a workload's unit operation, reported again as
#: the gated ``op_p50_ms`` (a fit; a streamed burst; a single-paper
#: ingest made visible).
OP_METRIC = {
    "fit-scalefree": "fit_s",
    "stream-arrival": "burst_p50_ms",
    "serve-mixed": "ingest_visible_p50_ms",
}

#: The per-layer metrics of the traced run (``--trace 1``), with units.
#: Every workload reports all of them: a layer that did no work on a
#: workload reports 0 (no time, no count; a ratio or percentile with no
#: samples is 0 too).  Times are outermost spans over the whole workload
#: process (both processes for serve-mixed); ``share.*`` is each layer's
#: self time over the workload's wall.
LAYER_ROUTES = ("who-is", "resolve", "cluster-of", "ingest", "checkpoint")
PER_LAYER: dict[str, str] = {
    "data.generate_s": "s",
    "graphs.scn_build_s": "s",
    "text.embed_train_s": "s",
    "similarity.pair_matrix_s": "s",
    "similarity.pairs_scored": "count",
    "similarity.batched_call_share": "ratio",
    "similarity.profile_builds": "count",
    "similarity.profile_hit_ratio": "ratio",
    "model.em_s": "s",
    "model.em_iterations": "count",
    "model.match_scores_s": "s",
    "core.iuad_fit_s": "s",
    "core.merge_rounds_s": "s",
    "core.merges": "count",
    "core.split_balance_s": "s",
    "core.sharded_fit_s": "s",
    "core.route_s": "s",
    "core.add_papers_s": "s",
    "core.patched_pair_share": "ratio",
    "core.papers_per_burst": "count",
    "core.checkpoint_s": "s",
    "core.resume_s": "s",
    "io.snapshot_save_s": "s",
    "io.snapshot_load_s": "s",
    "io.restore_s": "s",
    "io.delta_append_s": "s",
    "io.delta_bytes": "B",
    "io.chain_replay_s": "s",
    "io.chain_records": "count",
    "service.publish_s": "s",
    "service.swaps": "count",
    "service.query_s": "s",
    "service.warm_start_s": "s",
    **{f"service.route.{route}.p50_ms": "ms" for route in LAYER_ROUTES},
    **{f"share.{layer}": "ratio" for layer in (
        "data", "graphs", "text", "similarity", "model", "core", "io",
        "service", "eval", "unattributed",
    )},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

#: Set-up repetitions per run; ``setup_s`` is their median.
N_SETUPS = 3

#: stream-arrival and serve-mixed use one fixed world, the generator's
#: default seed, and one fixed set of held-out papers; ``--seed`` orders
#: their arrival (and draws serve-mixed's reads).  Burst cost differs by
#: ±25 % between generated worlds (how much each world's hub names
#: merge), and ingest cost and F1 by which papers arrive, which would
#: swamp any bound.
WORLD_SEED = 7

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_TAIL_SAMPLES = 10


def use_source_tree() -> None:
    """Make the checkout's ``repro`` package importable, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source at {SRC}; run from the root of "
            "a checkout\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 ≤ q ≤ 1) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-quantile."""
    return int(math.floor(n * (1.0 - q) + 1e-9))


def tail_metric(values: Sequence[float], q: float, scale: float = 1.0):
    """``(value, n)`` of a tail percentile, refusing thin tails."""
    if samples_beyond(len(values), q) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{round(q * 100)} of {len(values)} samples has fewer than "
            f"{MIN_TAIL_SAMPLES} samples beyond it"
        )
    return percentile(values, q) * scale, len(values)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def record_setups(run, setups: list[float]) -> None:
    """``setup_s`` is the median of the run's repeated set-ups."""
    run.metric("setup_s", median(setups), n=len(setups))
    run.info["setup_samples_s"] = setups


# --------------------------------------------------------------------- #
# run environment
# --------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_probe_ms() -> float:
    """A short fixed pure-Python loop; a diagnostic of host speed only.

    It is recorded at the start and end of every run to help attribute
    spread between runs.  It never rescales or discards a measurement.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def source_digest() -> str:
    """sha256 prefix over the program source the run measured."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [SERVE_TOOL]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    """The checkout's commit, or ``None`` when it is not a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def provenance() -> dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
#: Distinct names the generator can make (3 spellings × family × given).
MAX_NAME_POOL = 7320


def scalefree_config(seed: int, n_papers: int):
    """A ``SyntheticDBLP`` world of ``n_papers`` with default Zipf names.

    Authors, communities and the name pool grow with the paper count
    from the default 6.5k-paper world (the pool is capped by the
    generator's name combinations), so the corpus keeps the default's
    shape while the hub names grow with it.
    """
    from repro.data.synthetic import SyntheticConfig

    default = SyntheticConfig()
    scale = n_papers / default.n_papers
    return SyntheticConfig(
        n_papers=n_papers,
        n_authors=round(default.n_authors * scale),
        n_communities=round(default.n_communities * scale),
        name_pool_size=min(
            round(default.name_pool_size * scale), MAX_NAME_POOL
        ),
        seed=seed,
    )


def corpus_digest(papers: Iterable) -> str:
    """Order-sensitive digest of a paper sequence (determinism check)."""
    digest = hashlib.sha256()
    for paper in papers:
        digest.update(repr(
            (paper.pid, paper.authors, paper.title, paper.venue,
             paper.year, paper.author_ids)
        ).encode())
    return digest.hexdigest()[:16]


def split_most_recent(corpus, n_recent: int, seed: int):
    """``(base_corpus, recent_papers)``: the ``n_recent`` latest papers
    are held out of the base; they arrive by year, and within a year in
    a seeded random order."""
    from repro.data import Corpus

    recent = sorted(corpus, key=lambda p: (p.year, p.pid))[-n_recent:]
    rng = random.Random(seed)
    keys = {p.pid: rng.random() for p in recent}
    recent.sort(key=lambda p: (p.year, keys[p.pid]))
    held = set(keys)
    return Corpus(p for p in corpus if p.pid not in held), recent


def split_held_out(corpus, n_held: int, seed: int):
    """``(base_corpus, held_papers)``: a fixed random sample of
    ``n_held`` papers is held out of the base; ``seed`` orders it."""
    from repro.data import Corpus

    held = random.Random(WORLD_SEED).sample(
        sorted(p.pid for p in corpus), n_held
    )
    random.Random(seed).shuffle(held)
    held_set = set(held)
    return (
        Corpus(p for p in corpus if p.pid not in held_set),
        [corpus[pid] for pid in held],
    )


def testing_truth(corpus):
    """Table III protocol: the ``build_testing_dataset`` names and their
    per-mention ground truth."""
    from repro.data.testing import build_testing_dataset, per_name_truth

    testing = build_testing_dataset(corpus)
    return list(testing.names), per_name_truth(testing)


def micro_f1(corpus, clusters_of) -> tuple[float, int]:
    """``(F1, names)``: pairwise micro-F1 of ``clusters_of(name) ->
    {cluster: mentions}`` over the corpus's testing names."""
    from repro.eval.metrics import micro_metrics

    names, truth = testing_truth(corpus)
    counts = micro_metrics({name: clusters_of(name) for name in names}, truth)
    return counts.f1, len(names)
