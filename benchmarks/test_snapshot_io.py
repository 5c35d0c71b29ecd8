"""Snapshot I/O throughput: save/load papers-per-second, both backends.

Fits one synthetic corpus, then measures, for the JSONL and the SQLite
backend: serialize+write (``save``), read+decode+rebuild (``load``), and
the on-disk size.  Round-trip *exactness* is asserted in every mode —
the restored network, model parameters and name-index order must be
identical to the fitted ones (the resume-parity contract of
``tests/test_snapshot_parity.py``, re-checked here at bench scale).

The delta sweep measures the point of the append-only checkpoint format
(:mod:`repro.io.delta`): a delta append after a fixed-size burst must
stay **flat** as the corpus grows — the recorded latencies pin append at
the largest corpus within 2× of the smallest — while a full-snapshot
write at the same moments grows with the corpus.  ``who_is`` straight
from the indexed SQLite file (:mod:`repro.io.query`) is timed next to
the full-materialisation load it avoids.  The first and last records'
byte lengths at the largest corpus show that records stay flat along
the chain.

The record lands in ``BENCH_snapshot.json`` at the repo root (tracked;
full-mode runs refresh it — commit the refresh together with io/
changes).  ``BENCH_QUICK=1`` smoke runs shrink the corpus and record to
the untracked ``BENCH_snapshot.quick.json`` instead.  Both tests merge
into the same record, so either can run alone.  Throughput floors are
deliberately loose (I/O on shared runners is noisy); the headline
numbers are the recorded ones.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core import IUAD, IUADConfig, StreamingIngestor
from repro.data.records import Corpus
from repro.data.synthetic import SyntheticConfig, SyntheticDBLP
from repro.eval.timing import snapshot_summary, write_benchmark_json
from repro.io import Snapshot, SnapshotQuery, delta_log_path, snapshot_of

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

OUT_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_snapshot.quick.json" if QUICK else "BENCH_snapshot.json"
)

BACKENDS = ("jsonl", "sqlite")


@pytest.fixture(scope="module")
def fitted():
    if QUICK:
        cfg = SyntheticConfig(
            n_authors=300, n_papers=700, name_pool_size=200,
            n_communities=30, seed=5,
        )
    else:
        cfg = SyntheticConfig(
            n_authors=1200, n_papers=3000, name_pool_size=500,
            n_communities=80, seed=5,
        )
    corpus = SyntheticDBLP(cfg).generate()
    return IUAD(IUADConfig()).fit(corpus)


def _roundtrip(fitted, backend, path):
    t0 = time.perf_counter()
    fitted.save(path, backend=backend)
    save_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    loaded = IUAD.load(path)
    load_seconds = time.perf_counter() - t1

    # exactness at bench scale, both directions of the boundary
    assert loaded.gcn_.export_parts() == fitted.gcn_.export_parts()
    assert loaded.scn_.export_parts() == fitted.scn_.export_parts()
    assert loaded.model_.state_dict() == fitted.model_.state_dict()
    return save_seconds, load_seconds, path.stat().st_size


def test_snapshot_io_throughput(benchmark, fitted, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    n_papers = len(fitted.corpus_)
    stages: dict[str, float] = {}
    sizes: dict[str, int] = {}
    for backend in BACKENDS:
        suffix = "sqlite" if backend == "sqlite" else "jsonl"
        save_s, load_s, size = _roundtrip(
            fitted, backend, tmp_path / f"bench.{suffix}"
        )
        stages[f"save_{backend}"] = save_s
        stages[f"load_{backend}"] = load_s
        sizes[backend] = size
        # loose sanity floor: persistence must stay orders of magnitude
        # cheaper than the fit it makes resumable
        assert save_s < 60 and load_s < 60
    payload = _merge_record(
        stages, **snapshot_summary(stages, n_papers, sizes)
    )
    print("\nsnapshot i/o:", payload)


DELTA_SIZES = (200, 400, 800) if QUICK else (750, 1500, 3000)
BURST = 16          # papers per delta append — fixed across corpus sizes
APPEND_REPEATS = 3  # appends per size; min damps fsync jitter


def _merge_record(stages, **extra):
    """Fold new measurements into the existing record on disk, so the
    throughput test and the delta sweep can refresh it independently."""
    previous = (
        json.loads(OUT_PATH.read_text(encoding="utf-8"))
        if OUT_PATH.exists()
        else {}
    )
    merged_stages = {**previous.get("stages", {}), **stages}
    merged_extra = {
        key: value
        for key, value in previous.items()
        if key not in ("benchmark", "stages")
    }
    merged_extra.update(extra)
    merged_extra["quick"] = QUICK
    return write_benchmark_json(
        OUT_PATH, "snapshot_io", merged_stages, **merged_extra
    )


def test_delta_append_flat_while_full_save_grows(tmp_path):
    """The O(burst) durability claim, measured: delta-append latency is
    corpus-size independent; the full save it replaces is O(corpus)."""
    append_best: dict[int, float] = {}
    full_save: dict[int, float] = {}
    log_bytes: dict[int, int] = {}
    record_bytes: dict[int, list[int]] = {}
    largest = DELTA_SIZES[-1]
    who_is_per_query = full_load_seconds = None
    for n in DELTA_SIZES:
        cfg = SyntheticConfig(
            n_authors=max(120, n // 2),
            n_papers=n + BURST * APPEND_REPEATS,
            name_pool_size=max(80, n // 3),
            n_communities=max(12, n // 25),
            seed=5,
        )
        papers = list(SyntheticDBLP(cfg).generate())
        assert len(papers) == n + BURST * APPEND_REPEATS  # non-empty bursts
        estimator = IUAD(IUADConfig(checkpoint_mode="delta")).fit(
            Corpus(papers[:n])
        )
        base = tmp_path / f"delta_{n}.sqlite"
        ingestor = StreamingIngestor(
            estimator, checkpoint_path=base, checkpoint_backend="sqlite"
        )
        ingestor.checkpoint()  # the base write — O(corpus), not timed here
        times = []
        for i in range(APPEND_REPEATS):
            ingestor.add_papers(papers[n + i * BURST: n + (i + 1) * BURST])
            t0 = time.perf_counter()
            ingestor.checkpoint()  # one O(burst) delta append
            times.append(time.perf_counter() - t0)
        append_best[n] = min(times)
        log_bytes[n] = delta_log_path(base).stat().st_size
        record_bytes[n] = [
            len(line)
            for line in delta_log_path(base).read_bytes().splitlines()
        ]
        t0 = time.perf_counter()
        snapshot_of(ingestor.iuad, stream=ingestor.report).save(
            tmp_path / f"full_{n}.jsonl"
        )
        full_save[n] = time.perf_counter() - t0

        if n == largest:
            # who-is straight off the indexed file vs materialising
            names = sorted({p.authors[0] for p in papers})[:25]
            t0 = time.perf_counter()
            with SnapshotQuery(base) as query:
                for name in names:
                    query.who_is(name)
            who_is_per_query = (time.perf_counter() - t0) / len(names)
            from repro.service.view import FittedView

            t0 = time.perf_counter()
            FittedView.from_snapshot(base)
            full_load_seconds = time.perf_counter() - t0

    smallest = DELTA_SIZES[0]
    # the format's contract: append cost does not follow the corpus
    assert append_best[largest] <= max(2 * append_best[smallest], 0.02), (
        append_best
    )
    # …while the full save it replaces does
    assert full_save[largest] > full_save[smallest], full_save
    assert who_is_per_query < full_load_seconds

    stages = {f"delta_append_{n}": append_best[n] for n in DELTA_SIZES}
    stages.update({f"full_save_{n}": full_save[n] for n in DELTA_SIZES})
    stages["who_is_sql_per_query"] = who_is_per_query
    stages["full_view_load"] = full_load_seconds
    payload = _merge_record(
        stages,
        delta_corpus_sizes=list(DELTA_SIZES),
        delta_burst_papers=BURST,
        delta_append_ratio_largest_vs_smallest=round(
            append_best[largest] / max(append_best[smallest], 1e-9), 2
        ),
        delta_log_bytes_largest=log_bytes[largest],
        # every burst holds BURST papers; with O(1) stream counters the
        # last record is about as long as the first
        delta_record_bytes_first=record_bytes[largest][0],
        delta_record_bytes_last=record_bytes[largest][-1],
    )
    print("\ndelta append:", payload)


def test_checkpoint_overhead_is_bounded(fitted, tmp_path):
    """An auto-checkpoint (the streaming path's unit of durability) costs
    one save; it must not dwarf the ingest it protects."""
    snapshot = snapshot_of(fitted)
    t0 = time.perf_counter()
    snapshot.save(tmp_path / "ck.jsonl")
    seconds = time.perf_counter() - t0
    reloaded = Snapshot.load(tmp_path / "ck.jsonl")
    assert len(reloaded.gcn) == len(fitted.gcn_)
    assert seconds < 30
