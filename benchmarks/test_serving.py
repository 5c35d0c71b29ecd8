"""Serving load test: reads must not block on ingest.

The acceptance claim of the serving layer (``repro.service``): because
reads answer from an immutable, atomically-swapped
:class:`~repro.service.view.FittedView`, a continuous ingest stream is
not allowed to wreck read latency.  The harness
(``benchmarks/_serving_driver.py``) starts ``tools/serve.py`` as a real
subprocess on a snapshot, measures read latency against the quiet
server (idle baseline), then re-measures with a writer client streaming
papers the whole time, and finally pulls ``GET /clusters`` to check the
served clustering against a **serial** replay of the exact same ingest
sequence on a local restore of the same snapshot.

Asserted in every mode:

* liveness — reads keep answering (zero transport/5xx errors) while
  ingest runs, and at least one swap was published;
* parity — the post-run clustering equals the serial replay exactly
  (vids included): burst coalescing changed nothing.

Asserted in full mode only (the 1-core CI box is too noisy for a quick
latency floor): loaded read p99 ≤ 5× idle read p99.  The ratio is
recorded in every mode.

Quick mode (``BENCH_QUICK=1``) serves the committed fixture snapshot
and records to the untracked ``BENCH_serving.quick.json``; full mode
fits a synthetic world first and commits ``BENCH_serving.json``.
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _serving_driver import drive, serial_replay_clusters  # noqa: E402

from repro.core import IUAD, IUADConfig
from repro.data import Corpus
from repro.data.synthetic import SyntheticConfig, SyntheticDBLP
from repro.eval.timing import serving_summary, write_benchmark_json
from repro.io import Snapshot, snapshot_of
from repro.io.schema import encode_paper

QUICK = os.environ.get("BENCH_QUICK", "") == "1"
MAX_P99_RATIO = 5.0
OUT_PATH = REPO_ROOT / (
    "BENCH_serving.quick.json" if QUICK else "BENCH_serving.json"
)
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "snapshot_v1.jsonl"


def _mentions_of(snapshot_path: Path) -> list[tuple[str, int, int]]:
    """Every (name, pid, position) the snapshot's view can answer."""
    snapshot = Snapshot.load(snapshot_path)
    return sorted(
        (vertex.name, pid, position)
        for vertex in snapshot.gcn
        for pid, position in vertex.mentions.items()
    )


def _quick_world(tmp_path: Path):
    """Serve the committed fixture; ingest synthetic probes at fresh pids.

    The probes reuse fixture names, so attach-vs-create decisions are
    real, and sit at pids far above the fixture's (0–8) so nothing
    collides with the warm-started corpus.
    """
    names = ["X Y", "P A", "Q B", "R C", "S D"]
    rng = random.Random(11)
    papers = [
        {
            "pid": 100 + i,
            "authors": rng.sample(names, rng.randint(1, 2)),
            "title": f"probe paper {i} on snapshot serving",
            "venue": rng.choice(["VLDB", "CVPR"]),
            "year": 2015 + (i % 8),
        }
        for i in range(24)
    ]
    return dict(
        snapshot=FIXTURE, papers=papers, n_clients=2, burst_size=6,
        idle_duration=1.5, min_load_duration=1.5, pacing=0.3,
    )


def _full_world(tmp_path: Path):
    """Fit a synthetic world, snapshot it, hold out an ingest stream."""
    cfg = SyntheticConfig(
        n_authors=1200, n_papers=2300, name_pool_size=90,
        name_popularity_exponent=0.0, productivity_cap=4,
        productivity_exponent=3.0, n_communities=300, lab_size=3,
        max_coauthors=2, coauthor_weight_exponent=0.3,
        external_coauthor_prob=0.0, transient_author_prob=0.3,
        seed=7,
    )
    corpus = SyntheticDBLP(cfg).generate()
    pids = sorted(p.pid for p in corpus)
    burst_pids = random.Random(13).sample(pids, 150)
    base = Corpus(p for p in corpus if p.pid not in set(burst_pids))
    burst = [corpus[pid] for pid in burst_pids]
    estimator = IUAD(IUADConfig(wl_iterations=1)).fit(base)
    snapshot_path = tmp_path / "serving_world.jsonl"
    snapshot_of(estimator).save(snapshot_path)
    return dict(
        snapshot=snapshot_path,
        papers=[encode_paper(p) for p in burst],
        n_clients=4, burst_size=10,
        idle_duration=4.0, min_load_duration=6.0, pacing=0.35,
    )


def test_serving_load(tmp_path):
    world = _quick_world(tmp_path) if QUICK else _full_world(tmp_path)
    snapshot_path = world["snapshot"]
    results = drive(
        snapshot_path,
        _mentions_of(snapshot_path),
        world["papers"],
        n_clients=world["n_clients"],
        burst_size=world["burst_size"],
        idle_duration=world["idle_duration"],
        min_load_duration=world["min_load_duration"],
        pacing=world["pacing"],
    )
    idle = results["idle_reads"]
    loaded = results["loaded_reads"]
    ingest = results["ingest"]

    # ---- liveness: reads kept flowing, errorless, while ingest ran ---- #
    assert idle.latencies, "idle phase produced no read samples"
    assert loaded.latencies, "loaded phase produced no read samples"
    assert idle.n_errors == 0, f"{idle.n_errors} idle read errors"
    assert loaded.n_errors == 0, f"{loaded.n_errors} loaded read errors"
    assert ingest.n_errors == 0, f"{ingest.n_errors} ingest errors"
    assert ingest.n_papers == len(world["papers"])
    assert results["n_swaps"] >= 1, "ingest published no view swaps"

    # ---- parity: served clustering == serial replay, exactly ---------- #
    replay = serial_replay_clusters(snapshot_path, world["papers"])
    assert results["server_clusters"] == replay, (
        "served clustering diverged from the serial oracle replay of "
        "the same ingest sequence"
    )

    summary = serving_summary(
        idle.latencies,
        loaded.latencies,
        read_wall_seconds=results["load_wall"],
        n_ingested_papers=ingest.n_papers,
        ingest_wall_seconds=ingest.wall_seconds,
        n_swaps=results["n_swaps"],
    )
    payload = write_benchmark_json(
        OUT_PATH,
        "serving_load",
        {
            "idle_read_phase": results["idle_wall"],
            "loaded_read_phase": results["load_wall"],
            "ingest_stream": ingest.wall_seconds,
        },
        quick=QUICK,
        n_clients=world["n_clients"],
        burst_size=world["burst_size"],
        n_ingest_papers=len(world["papers"]),
        # papers/sec over burst time alone (the wall-clock figure in
        # `serving` includes the pacing think-time between bursts)
        papers_per_sec_applied=round(
            ingest.n_papers / max(sum(ingest.burst_latencies), 1e-9), 2
        ),
        final_generation=results["final_generation"],
        server_stats=results["server_stats"],
        parity="served /clusters identical to serial oracle replay",
        serving=summary,
    )
    assert payload["serving"]["n_swaps"] == results["n_swaps"]

    if not QUICK:
        ratio = summary["read_p99_ratio_loaded_vs_idle"]
        assert ratio <= MAX_P99_RATIO, (
            f"read p99 degraded {ratio:.2f}x under continuous ingest "
            f"(floor {MAX_P99_RATIO}x): loaded "
            f"{summary['loaded_read_p99_ms']}ms vs idle "
            f"{summary['idle_read_p99_ms']}ms"
        )
