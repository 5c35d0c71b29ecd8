"""Timing harnesses: Table V scalability accounting + benchmark recording.

Table V reports the *average time cost per name disambiguation* of each
unsupervised method at 20/40/60/80/100 % of the corpus.  For the top-down
baselines this is simply the per-name clustering time; for IUAD — which
builds one global network rather than one ego-network per name — the
per-name cost is its Stage-2 decision time per name plus the per-name share
of the global construction, matching the paper's accounting (IUAD's
reported numbers include its full pipeline amortised over names).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..data.records import Corpus


@dataclass(slots=True)
class StageTimer:
    """Accumulates named wall-clock stages for a benchmark run.

    Use as ``with timer.stage("score"): ...``; repeated stages accumulate.
    ``as_dict`` returns seconds per stage, ready for
    :func:`write_benchmark_json`.
    """

    stages: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + (
                time.perf_counter() - t0
            )

    def record(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to stage ``name`` without running code."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def as_dict(self) -> dict[str, float]:
        return dict(self.stages)


def write_benchmark_json(
    path: str | Path,
    benchmark: str,
    stages: Mapping[str, float],
    **extra: Any,
) -> dict[str, Any]:
    """Persist a benchmark record (stage seconds + free-form metadata).

    The file is a single JSON object::

        {"benchmark": ..., "stages": {name: seconds, ...}, ...extra}

    Benchmarks commit these files (e.g. ``BENCH_similarity.json`` at the
    repo root) so speedups remain comparable across PRs.  Returns the
    written payload.

    Provenance guard: the record's ``quick`` flag (when present) must
    agree with the path convention — quick-mode records live in
    ``*.quick.json``, full-mode records anywhere else.  A full-mode
    payload aimed at a quick path (or vice versa) raises instead of
    committing a record that lies about how it was produced.
    """
    path = Path(path)
    quick = extra.get("quick")
    if quick is not None:
        quick_path = path.name.endswith(".quick.json")
        if bool(quick) != quick_path:
            mode = "quick" if quick else "full"
            raise ValueError(
                f"refusing to write a {mode}-mode record to {path.name}: "
                f"quick={bool(quick)} does not match the "
                f"{'*.quick.json' if quick_path else 'non-quick'} path "
                "convention"
            )
    payload: dict[str, Any] = {
        "benchmark": benchmark,
        "stages": {k: round(v, 6) for k, v in stages.items()},
    }
    payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def shard_summary(report: Any) -> dict[str, float]:
    """Aggregate the per-shard counters of a sharded :class:`FitReport`.

    Duck-typed over ``report.shard_stats``
    (:class:`repro.core.sharding.ShardStats` entries) so this evaluation
    helper needs no import from ``core``.  The returned dict is flat and
    JSON-ready — the sharding benchmark embeds it into
    ``BENCH_sharding.json`` next to the stage seconds.  ``imbalance`` is
    the largest shard's share of all candidate pairs divided by the ideal
    equal share: 1.0 means perfectly balanced shards, ``n_shards`` means
    one shard holds all the work.
    """
    stats = list(getattr(report, "shard_stats", ()) or ())
    pairs = [s.n_candidate_pairs for s in stats]
    total_pairs = sum(pairs)
    n = len(stats)
    ideal = total_pairs / n if n else 0.0
    summary = {
        "n_shards": n,
        "n_fastpath_vertices": getattr(report, "n_fastpath_vertices", 0),
        "total_candidate_pairs": total_pairs,
        "max_shard_pairs": max(pairs, default=0),
        "imbalance": (max(pairs, default=0) / ideal) if ideal else 0.0,
        "gamma_seconds": round(sum(s.gamma_seconds for s in stats), 6),
        "decide_seconds": round(sum(s.decide_seconds for s in stats), 6),
        "partition_seconds": round(getattr(report, "partition_seconds", 0.0), 6),
        "stitch_seconds": round(getattr(report, "stitch_seconds", 0.0), 6),
        "total_merges": sum(s.n_merges for s in stats),
    }
    # Pipeline phase walls + transport counters of the overlapped sharded
    # executor (zero on single-process reports) — committed with the
    # benchmark record so a scheduling or IPC regression is visible in
    # the diff, not in a profiler.
    for key in (
        "pipeline_seconds",
        "gamma_wall_seconds",
        "split_wall_seconds",
        "em_seconds",
        "decide_wall_seconds",
        "overlap_seconds",
        "gamma_task_seconds",
        "split_task_seconds",
        "decide_task_seconds",
    ):
        summary[key] = round(float(getattr(report, key, 0.0)), 6)
    for key in (
        "n_gamma_chunks",
        "overlap_gamma_chunks",
        "ipc_task_bytes",
        "shm_bytes",
    ):
        summary[key] = int(getattr(report, key, 0))
    return summary


def streaming_summary(report: Any) -> dict[str, float]:
    """Flatten an incremental/streaming report for benchmark records.

    Duck-typed over :class:`repro.core.streaming.IncrementalReport`
    (filled by :class:`repro.core.streaming.StreamingIngestor`) so this
    evaluation helper needs no import from ``core``.  The returned dict
    is flat and JSON-ready — the streaming benchmark embeds it into
    ``BENCH_streaming.json`` next to the stage seconds.
    ``papers_per_wave`` is the batching yield: how many papers each
    dependency wave carried on average (1.0 means the burst degenerated
    to the sequential loop).
    """
    n_papers = getattr(report, "n_papers", 0)
    n_waves = getattr(report, "n_waves", 0)
    return {
        "n_papers": n_papers,
        "n_mentions": getattr(report, "n_mentions", 0),
        "n_attached": getattr(report, "n_attached", 0),
        "n_created": getattr(report, "n_created", 0),
        "n_duplicates": getattr(report, "n_duplicates", 0),
        "n_batches": getattr(report, "n_batches", 0),
        "n_waves": n_waves,
        "papers_per_wave": round(n_papers / n_waves, 3) if n_waves else 0.0,
        "n_shards_touched": len(getattr(report, "per_shard_papers", {}) or {}),
        "avg_ms_per_paper": round(getattr(report, "avg_ms_per_paper", 0.0), 6),
    }


def latency_percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Plain-python so the serving harness needs no numpy in its client
    threads; 0.0 for an empty sample set.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def latency_summary(seconds: Iterable[float]) -> dict[str, float]:
    """p50/p90/p99/mean of latency samples, in milliseconds."""
    samples = list(seconds)
    return {
        "n": len(samples),
        "mean_ms": round(
            1000.0 * sum(samples) / len(samples), 3
        ) if samples else 0.0,
        "p50_ms": round(1000.0 * latency_percentile(samples, 50), 3),
        "p90_ms": round(1000.0 * latency_percentile(samples, 90), 3),
        "p99_ms": round(1000.0 * latency_percentile(samples, 99), 3),
    }


def serving_summary(
    idle_read_seconds: Iterable[float],
    loaded_read_seconds: Iterable[float],
    *,
    read_wall_seconds: float,
    n_ingested_papers: int,
    ingest_wall_seconds: float,
    n_swaps: int,
) -> dict[str, Any]:
    """Flatten one serving load-test run for benchmark records.

    ``idle_read_seconds`` are read latencies against a quiet server,
    ``loaded_read_seconds`` the same reads with the continuous ingest
    stream running — their p99 ratio is the record's headline: how much
    ingest is allowed to hurt readers (the atomic-swap design bounds it;
    ``benchmarks/test_serving.py`` asserts the ≤5× acceptance floor in
    full mode).  ``read_wall_seconds`` / ``ingest_wall_seconds`` are the
    wall-clock of the loaded phase (reads and ingest overlap, so
    reads/sec and papers/sec are both against their own wall), and
    ``n_swaps`` counts the view generations the run published.
    """
    idle = latency_summary(idle_read_seconds)
    loaded = latency_summary(loaded_read_seconds)
    out: dict[str, Any] = {"n_swaps": int(n_swaps)}
    for prefix, summary in (("idle_read", idle), ("loaded_read", loaded)):
        out[f"n_{prefix}s"] = summary["n"]
        for key in ("mean_ms", "p50_ms", "p90_ms", "p99_ms"):
            out[f"{prefix}_{key}"] = summary[key]
    out["reads_per_sec"] = round(
        loaded["n"] / read_wall_seconds, 1
    ) if read_wall_seconds > 0 else 0.0
    out["papers_per_sec"] = round(
        n_ingested_papers / ingest_wall_seconds, 2
    ) if ingest_wall_seconds > 0 else 0.0
    out["n_ingested_papers"] = int(n_ingested_papers)
    idle_p99 = idle["p99_ms"]
    out["read_p99_ratio_loaded_vs_idle"] = round(
        loaded["p99_ms"] / idle_p99, 3
    ) if idle_p99 > 0 else 0.0
    return out


def snapshot_summary(
    stages: Mapping[str, float], n_papers: int, sizes: Mapping[str, int]
) -> dict[str, Any]:
    """Flatten snapshot-I/O measurements for benchmark records.

    ``stages`` maps ``save_<backend>`` / ``load_<backend>`` to seconds
    (cf. :class:`StageTimer`), ``sizes`` maps backend name to on-disk
    bytes.  Emits papers-per-second per direction and backend — the
    headline of ``BENCH_snapshot.json`` — next to the raw inputs, all
    flat and JSON-ready for :func:`write_benchmark_json`.
    """
    out: dict[str, Any] = {"n_papers": n_papers}
    for stage, seconds in stages.items():
        direction, _, backend = stage.partition("_")
        if direction in ("save", "load") and backend and seconds > 0:
            out[f"{backend}_{direction}_papers_per_sec"] = round(
                n_papers / seconds, 1
            )
    for backend, size in sizes.items():
        out[f"{backend}_bytes"] = int(size)
    return out


@dataclass(frozen=True, slots=True)
class TimingResult:
    """Per-name average wall-clock of one method at one data scale."""

    method: str
    fraction: float
    n_names: int
    total_seconds: float

    @property
    def avg_seconds_per_name(self) -> float:
        return self.total_seconds / self.n_names if self.n_names else 0.0


def time_per_name(
    method_name: str,
    cluster_name: Callable[[Corpus, str], dict],
    corpus: Corpus,
    names: Iterable[str],
    fraction: float = 1.0,
) -> TimingResult:
    """Average per-name time of a top-down baseline."""
    names = list(names)
    t0 = time.perf_counter()
    for name in names:
        cluster_name(corpus, name)
    return TimingResult(
        method=method_name,
        fraction=fraction,
        n_names=len(names),
        total_seconds=time.perf_counter() - t0,
    )


def time_iuad(
    iuad_factory: Callable[[], object],
    corpus: Corpus,
    names: Iterable[str],
    fraction: float = 1.0,
) -> TimingResult:
    """Per-name time of IUAD under the paper's amortised accounting.

    IUAD builds *one* global network and trains *one* model shared by every
    name in the corpus — that is exactly why it avoids the top-down methods'
    repeated per-name work (Section V-F1).  Its per-name cost is therefore
    the Stage-2 decision time (``FitReport.decision_seconds``) plus the
    global phases (SCN build, embeddings, EM) amortised over **all**
    corpus names, not just the evaluated subset.
    """
    names = list(names)
    iuad = iuad_factory()
    t0 = time.perf_counter()
    iuad.fit(corpus, names=names)  # type: ignore[attr-defined]
    total = time.perf_counter() - t0
    report = iuad.report_  # type: ignore[attr-defined]
    decision_time = report.decision_seconds
    global_time = max(total - decision_time, 0.0)
    n_all_names = max(len(corpus.names), 1)
    amortised = decision_time + global_time * len(names) / n_all_names
    return TimingResult(
        method="IUAD",
        fraction=fraction,
        n_names=len(names),
        total_seconds=amortised,
    )
