"""Delta-chain checkpoints (``repro.io.delta``): parity and crash windows.

Pins the central contract of the append-only checkpoint format: a base
snapshot plus replayed delta chain is **byte-identical** (canonical
document encoding) to a full snapshot taken at the same moment — next
vid watermark, name-index order, stream counters, shard routing and all
— in-process, across :meth:`StreamingIngestor.resume`, and in a fresh
interpreter (``tests/_delta_worker.py``).  Every damage mode of the
append crash window (torn tail, checksum failure, seq gap, foreign
base) must raise a one-line error, never replay silently; records a
crashed compaction left behind must be skipped as stale.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core import IUAD, IUADConfig, ShardedIUAD, StreamingIngestor
from repro.data.records import Corpus, Paper
from repro.io import Snapshot, delta_log_path, snapshot_of
from repro.io.delta import document_fingerprint

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("_delta_worker.py")

BACKENDS = ("jsonl", "sqlite")
SUFFIX = {"jsonl": ".jsonl", "sqlite": ".sqlite"}

FIT_PAPERS = [
    Paper(0, ("X Y", "P A"), "query index join", "VLDB", 2001, (100, 1)),
    Paper(1, ("X Y", "P A"), "index storage btree", "VLDB", 2002, (100, 1)),
    Paper(2, ("X Y", "Q B"), "query optimization", "VLDB", 2003, (100, 2)),
    Paper(3, ("X Y", "P A", "Q B"), "transaction recovery", "VLDB", 2004,
          (100, 1, 2)),
    Paper(4, ("X Y", "R C"), "image segmentation", "CVPR", 2001, (200, 3)),
    Paper(5, ("X Y", "R C"), "object detection scene", "CVPR", 2002,
          (200, 3)),
]
STREAM_PAPERS = [
    Paper(6, ("X Y", "S D"), "stereo depth tracking", "CVPR", 2003, (200, 4)),
    Paper(7, ("X Y", "R C", "S D"), "pose recognition", "CVPR", 2005,
          (200, 3, 4)),
    Paper(8, ("X Y", "P A"), "join ordering", "VLDB", 2006, (100, 1)),
    Paper(9, ("T E", "Q B"), "graph mining", "KDD", 2007, (300, 2)),
]


@pytest.fixture(scope="module")
def fitted():
    config = IUADConfig(checkpoint_mode="delta", use_embeddings=False)
    return IUAD(config).fit(Corpus(FIT_PAPERS))


@pytest.fixture()
def cli():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    import importlib

    module = importlib.import_module("snapshot")
    yield module
    sys.path.remove(str(REPO_ROOT / "tools"))


def make_ingestor(fitted, tmp_path, backend, **config_overrides):
    estimator = copy.deepcopy(fitted)
    for key, value in config_overrides.items():
        setattr(estimator.config, key, value)
    base = tmp_path / ("ckpt" + SUFFIX[backend])
    ingestor = StreamingIngestor(
        estimator, checkpoint_path=base, checkpoint_backend=backend
    )
    return ingestor, base


def live_fingerprint(ingestor, delta_seq=0):
    snapshot = snapshot_of(ingestor.iuad, stream=ingestor.report)
    snapshot.delta_seq = delta_seq  # a compacted base carries a watermark
    return document_fingerprint(snapshot.to_document())


def chained(base, backend=None):
    return Snapshot.load_chain(base, backend=backend)


# --------------------------------------------------------------------- #
# byte parity: base + chain == full snapshot of the same moment
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_delta_restore_byte_parity(fitted, backend, tmp_path):
    ingestor, base = make_ingestor(fitted, tmp_path, backend)
    ingestor.checkpoint()  # writes the base
    assert ingestor.delta_chain_length == 0
    ingestor.add_papers(STREAM_PAPERS[:2])
    ingestor.checkpoint()  # delta 1
    ingestor.add_paper(STREAM_PAPERS[2])
    ingestor.add_paper(STREAM_PAPERS[3])
    ingestor.checkpoint()  # delta 2
    assert ingestor.delta_chain_length == 2

    restored, info = chained(base, backend)
    assert info["chain_length"] == 2 and info["n_papers"] == 4
    live = snapshot_of(ingestor.iuad, stream=ingestor.report)
    # exact network state, including next_vid and name-index order
    assert restored.gcn.export_parts() == live.gcn.export_parts()
    assert [p.pid for p in restored.corpus] == [p.pid for p in live.corpus]
    assert restored.model.state_dict() == live.model.state_dict()
    assert restored.stream is not None
    assert restored.stream.n_papers == live.stream.n_papers
    assert restored.stream.seconds == live.stream.seconds
    # …and canonical-document byte parity against a real full snapshot
    full = tmp_path / ("full" + SUFFIX[backend])
    live.save(full, backend=backend)
    assert document_fingerprint(restored.to_document()) == (
        document_fingerprint(Snapshot.load(full, backend=backend).to_document())
    )


#: The whole ``stream`` section of a record: counters and one time total.
STREAM_KEYS = {
    "n_papers", "n_mentions", "n_attached", "n_created", "n_duplicates",
    "n_batches", "n_waves", "seconds", "per_shard_papers",
}


def test_delta_records_stay_flat_along_the_chain(fitted, tmp_path):
    """A record carries its burst plus O(1) stream counters: same-sized
    bursts append same-sized records however long the chain grows (a
    per-paper timing history would make each record longer than the
    last, and the log quadratic)."""
    ingestor, base = make_ingestor(
        fitted, tmp_path, "jsonl", compact_every_n_deltas=0
    )
    ingestor.checkpoint()
    for i in range(48):
        ingestor.add_papers(
            [Paper(100 + i, ("X Y", "P A"), "join ordering", "VLDB", 2006)]
        )
        ingestor.checkpoint()
    lines = delta_log_path(base).read_bytes().splitlines()
    assert len(lines) == 48
    # slack for digit growth in pids, vids, counters and the float total
    assert len(lines[-1]) - len(lines[0]) <= 64
    for line in (lines[0], lines[-1]):
        assert set(json.loads(line)["delta"]["stream"]) == STREAM_KEYS
    restored, _info = chained(base)
    assert restored.stream.n_papers == 48
    assert restored.stream.seconds == ingestor.report.seconds


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_continues_the_chain(fitted, backend, tmp_path):
    ingestor, base = make_ingestor(fitted, tmp_path, backend)
    ingestor.checkpoint()
    ingestor.add_papers(STREAM_PAPERS[:2])
    ingestor.checkpoint()

    resumed = StreamingIngestor.resume(base, backend=backend)
    assert resumed.delta_chain_length == 1
    resumed.add_paper(STREAM_PAPERS[2])
    resumed.checkpoint()
    assert resumed.delta_chain_length == 2
    restored, info = chained(base, backend)
    assert info["chain_length"] == 2 and info["last_seq"] == 2
    assert document_fingerprint(restored.to_document()) == (
        live_fingerprint(resumed)
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ("batch", "scalar"))
def test_resume_replay_parity_in_subprocess(
    fitted, backend, mode, tmp_path
):
    """A fresh interpreter resumes base + chain, streams and appends."""
    ingestor, base = make_ingestor(fitted, tmp_path, backend)
    ingestor.checkpoint()
    ingestor.add_papers(STREAM_PAPERS[:2])
    ingestor.checkpoint()  # the worker starts from a 1-record chain

    burst = STREAM_PAPERS[2:]
    papers_file = tmp_path / "burst.jsonl"
    papers_file.write_text(
        "".join(p.to_json() + "\n" for p in burst), encoding="utf-8"
    )
    document_out = tmp_path / "final.json"
    assignments_out = tmp_path / "assignments.json"
    result = subprocess.run(
        [sys.executable, str(WORKER), str(base), str(papers_file), mode,
         str(document_out), str(assignments_out)],
        capture_output=True, text=True, timeout=240,
    )
    assert result.returncode == 0, result.stderr

    # the continuation in this process is the reference
    if mode == "batch":
        expected = ingestor.add_papers(burst)
    else:
        expected = [ingestor.add_paper(p) for p in burst]
    got = json.loads(assignments_out.read_text(encoding="utf-8"))
    assert [
        [(n, p, v, c) for n, p, v, c in batch] for batch in got
    ] == [
        [(a.name, a.position, a.vid, a.created) for a in batch]
        for batch in expected
    ]
    # the chain the worker extended replays to the worker's exact state
    restored, info = chained(base, backend)
    assert info["chain_length"] == 2
    assert json.dumps(restored.to_document(), sort_keys=True) == (
        document_out.read_text(encoding="utf-8")
    )
    # …which is also this process's state, up to wall-clock stream
    # timing (seconds are facts of whichever process ingested)
    def structural(document):
        document = json.loads(json.dumps(document))
        document["sections"].pop("stream", None)
        return document_fingerprint(document)

    assert structural(restored.to_document()) == structural(
        snapshot_of(ingestor.iuad, stream=ingestor.report).to_document()
    )


def test_sharded_delta_chain_parity(tmp_path):
    """Replay routes chain papers through the shard index too."""
    config = IUADConfig(
        max_shard_size=50, use_embeddings=False, checkpoint_mode="delta"
    )
    estimator = ShardedIUAD(config).fit(Corpus(FIT_PAPERS))
    base = tmp_path / "sharded.jsonl"
    ingestor = StreamingIngestor(estimator, checkpoint_path=base)
    ingestor.checkpoint()
    ingestor.add_papers(STREAM_PAPERS)
    ingestor.checkpoint()

    restored, info = chained(base)
    assert info["chain_length"] == 1
    live = snapshot_of(ingestor.iuad, stream=ingestor.report)
    assert restored.sharding is not None and live.sharding is not None
    assert restored.sharding.index._name_to_shard == (
        live.sharding.index._name_to_shard
    )
    assert restored.sharding.index.n_bridges == live.sharding.index.n_bridges
    assert restored.sharding.cannot_links == live.sharding.cannot_links
    assert document_fingerprint(restored.to_document()) == (
        document_fingerprint(live.to_document())
    )


# --------------------------------------------------------------------- #
# crash windows: every damage mode is a loud one-line refusal
# --------------------------------------------------------------------- #
def damaged_chain(fitted, tmp_path, backend="jsonl"):
    ingestor, base = make_ingestor(fitted, tmp_path, backend)
    ingestor.checkpoint()
    ingestor.add_papers(STREAM_PAPERS[:2])
    ingestor.checkpoint()
    ingestor.add_paper(STREAM_PAPERS[2])
    ingestor.checkpoint()
    return base, delta_log_path(base)


def test_torn_tail_is_detected(fitted, tmp_path, cli, capsys):
    base, log = damaged_chain(fitted, tmp_path)
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    # the crash window of an append: the last record half-written
    log.write_text(
        "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2],
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="torn or truncated"):
        chained(base)
    assert cli.main(["verify", str(base)]) == 1
    err = capsys.readouterr().err
    assert "torn or truncated" in err and "Traceback" not in err
    # inspection refuses too — a damaged chain is never summarised away
    assert cli.main(["inspect", str(base)]) == 1


def test_checksum_corruption_is_detected(fitted, tmp_path):
    base, log = damaged_chain(fitted, tmp_path)
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    # valid JSON, wrong bytes: flip a title character inside record 1
    lines[0] = lines[0].replace("stereo", "sterio", 1)
    log.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="checksum"):
        chained(base)


def test_seq_gap_is_detected(fitted, tmp_path):
    base, log = damaged_chain(fitted, tmp_path)
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    log.write_text(lines[1], encoding="utf-8")  # record 1 lost, 2 kept
    with pytest.raises(ValueError, match="gap"):
        chained(base)


def test_foreign_base_is_detected(fitted, tmp_path):
    base, log = damaged_chain(fitted, tmp_path)
    # overwrite the base with a different (chainless) snapshot: the log
    # now extends a fingerprint that no longer exists
    other = copy.deepcopy(fitted)
    StreamingIngestor(other).add_paper(STREAM_PAPERS[3])
    snapshot_of(other).save(base)
    with pytest.raises(ValueError, match="mismatched chain"):
        chained(base)


def test_stale_records_skipped_after_compaction_crash(fitted, tmp_path):
    """Crash between the compacted base landing and the log truncate:
    every log record is already folded in and must be skipped."""
    ingestor, base = make_ingestor(fitted, tmp_path, "jsonl")
    ingestor.checkpoint()
    ingestor.add_papers(STREAM_PAPERS[:2])
    ingestor.checkpoint()
    log = delta_log_path(base)
    stale = log.read_bytes()
    ingestor.checkpoint(mode="full")  # compaction truncates the log…
    log.write_bytes(stale)  # …but "the crash" resurrects the old log
    restored, info = chained(base)
    assert info["chain_length"] == 0 and restored.delta_seq == 1
    assert document_fingerprint(restored.to_document()) == (
        live_fingerprint(ingestor, delta_seq=1)
    )


# --------------------------------------------------------------------- #
# compaction & mode interplay
# --------------------------------------------------------------------- #
def test_auto_compaction_folds_the_chain(fitted, tmp_path):
    ingestor, base = make_ingestor(
        fitted, tmp_path, "jsonl", compact_every_n_deltas=2
    )
    ingestor.checkpoint()
    ingestor.add_paper(STREAM_PAPERS[0])
    ingestor.checkpoint()
    assert ingestor.delta_chain_length == 1
    ingestor.add_paper(STREAM_PAPERS[1])
    ingestor.checkpoint()  # second append trips the compaction
    assert ingestor.delta_chain_length == 0
    assert delta_log_path(base).stat().st_size == 0
    restored, info = chained(base)
    assert info["chain_length"] == 0 and restored.delta_seq == 2
    assert document_fingerprint(restored.to_document()) == (
        live_fingerprint(ingestor, delta_seq=2)
    )


def test_full_checkpoint_compacts_side_snapshot_does_not(fitted, tmp_path):
    ingestor, base = make_ingestor(fitted, tmp_path, "jsonl")
    ingestor.checkpoint()
    ingestor.add_papers(STREAM_PAPERS[:2])
    ingestor.checkpoint()
    # a full checkpoint to a *different* path is a side snapshot: the
    # live chain is untouched
    side = tmp_path / "side.jsonl"
    ingestor.checkpoint(side, mode="full")
    assert ingestor.delta_chain_length == 1
    assert not delta_log_path(side).exists()
    assert document_fingerprint(Snapshot.load(side).to_document()) == (
        live_fingerprint(ingestor)
    )
    # a full checkpoint to the *base* path is an explicit compaction
    ingestor.checkpoint(mode="full")
    assert ingestor.delta_chain_length == 0
    assert delta_log_path(base).stat().st_size == 0
    restored, info = chained(base)
    assert info["chain_length"] == 0 and restored.delta_seq == 1
    # …and the chain keeps extending afterwards
    ingestor.add_paper(STREAM_PAPERS[2])
    ingestor.checkpoint()
    restored, info = chained(base)
    assert info["chain_length"] == 1 and info["last_seq"] == 2
    assert document_fingerprint(restored.to_document()) == (
        live_fingerprint(ingestor, delta_seq=1)
    )


def test_delta_checkpoint_is_pinned_to_the_base_path(fitted, tmp_path):
    ingestor, base = make_ingestor(fitted, tmp_path, "jsonl")
    ingestor.checkpoint()
    ingestor.add_paper(STREAM_PAPERS[0])
    with pytest.raises(ValueError, match="cannot append"):
        ingestor.checkpoint(tmp_path / "elsewhere.jsonl", mode="delta")


def test_duplicates_are_not_journaled(fitted, tmp_path):
    ingestor, base = make_ingestor(
        fitted, tmp_path, "jsonl", duplicate_paper_policy="return"
    )
    ingestor.checkpoint()
    ingestor.add_paper(STREAM_PAPERS[0])
    ingestor.add_paper(FIT_PAPERS[0])  # duplicate: mutates nothing
    ingestor.checkpoint()
    restored, info = chained(base)
    assert info["chain_length"] == 1 and info["n_papers"] == 1
    assert document_fingerprint(restored.to_document()) == (
        live_fingerprint(ingestor)
    )


# --------------------------------------------------------------------- #
# checkpoint_every_n_papers × writer lock, in delta mode
# --------------------------------------------------------------------- #
def test_auto_checkpoints_append_deltas_on_burst_boundaries(
    fitted, tmp_path
):
    ingestor, base = make_ingestor(
        fitted, tmp_path, "jsonl", checkpoint_every_n_papers=2
    )
    ingestor.add_paper(STREAM_PAPERS[0])
    assert not base.exists()  # below the threshold
    ingestor.add_paper(STREAM_PAPERS[1])
    assert base.exists()  # first auto-checkpoint writes the base
    assert ingestor.delta_chain_length == 0
    # a whole burst past the threshold → exactly one post-burst delta
    ingestor.add_papers(STREAM_PAPERS[2:])
    assert ingestor.delta_chain_length == 1
    restored, info = chained(base)
    assert info["chain_length"] == 1 and info["n_papers"] == 2
    assert restored.stream.n_papers == 4
    assert document_fingerprint(restored.to_document()) == (
        live_fingerprint(ingestor)
    )


def test_checkpoint_thread_never_sees_a_half_applied_burst(fitted, tmp_path):
    """Delta checkpoints requested from another thread while bursts run
    land on whole-burst boundaries: every intermediate chain replays to
    a consistent prefix, and the final chain replays to the final state."""
    ingestor, base = make_ingestor(fitted, tmp_path, "jsonl")
    ingestor.checkpoint()
    stop = threading.Event()
    errors: list[BaseException] = []

    def keep_checkpointing():
        try:
            while not stop.is_set():
                ingestor.checkpoint()
                restored, _info = chained(base)
                n = restored.stream.n_papers
                # always a whole-burst prefix of the scalar stream
                assert n in range(len(STREAM_PAPERS) + 1)
                assert [p.pid for p in restored.corpus][6:] == [
                    p.pid for p in STREAM_PAPERS[:n]
                ]
        except BaseException as exc:  # surface into the main thread
            errors.append(exc)

    thread = threading.Thread(target=keep_checkpointing)
    thread.start()
    try:
        for paper in STREAM_PAPERS:
            ingestor.add_paper(paper)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not errors, errors
    ingestor.checkpoint()
    restored, _info = chained(base)
    assert document_fingerprint(restored.to_document()) == (
        live_fingerprint(ingestor)
    )


# --------------------------------------------------------------------- #
# the CLI: compact + chain-aware inspect
# --------------------------------------------------------------------- #
def test_cli_compact_and_chain_aware_inspect(fitted, tmp_path, cli, capsys):
    ingestor, base = make_ingestor(fitted, tmp_path, "jsonl")
    ingestor.checkpoint()
    ingestor.add_papers(STREAM_PAPERS[:2])
    ingestor.checkpoint()

    assert cli.main(["inspect", str(base)]) == 0
    out = capsys.readouterr().out
    assert "delta" in out and "1 records" in out
    assert cli.main(["inspect", str(base), "--json"]) == 0
    header = json.loads(capsys.readouterr().out)
    assert header["adapter"] == "jsonl"
    assert header["delta"]["chain_length"] == 1
    assert header["delta"]["base_fingerprint"]

    assert cli.main(["verify", str(base)]) == 0
    assert "+1 delta records" in capsys.readouterr().out

    assert cli.main(["compact", str(base)]) == 0
    assert "folded 1" in capsys.readouterr().out
    assert delta_log_path(base).stat().st_size == 0
    restored, info = chained(base)
    assert info["chain_length"] == 0 and restored.delta_seq == 1
    assert document_fingerprint(restored.to_document()) == (
        live_fingerprint(ingestor, delta_seq=1)
    )
    # compacting an absent chain is a loud no-op
    assert cli.main(["compact", str(tmp_path / "nochain.jsonl")]) == 1
    assert "no delta chain log" in capsys.readouterr().err
