"""The two snapshot formats (``repro.io.adapters``).

Pins the resolution order (explicit name > SQLite magic bytes > path
suffix > jsonl default), lossless conversion across both formats —
including a riding delta-chain log, whose base fingerprint is canonical
and therefore format-independent — and the v1 fixture still loading
unchanged.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

from repro.core import IUAD, IUADConfig, StreamingIngestor
from repro.io import (
    Snapshot,
    read_document,
    resolve_adapter,
    snapshot_of,
    verify_snapshot,
    write_document,
)
from repro.io.delta import document_fingerprint

from test_delta_checkpoint import FIT_PAPERS, STREAM_PAPERS

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).with_name("fixtures") / "snapshot_v1.jsonl"

BACKENDS = ("jsonl", "sqlite")
SUFFIX = {"jsonl": ".jsonl", "sqlite": ".sqlite"}


@pytest.fixture(scope="module")
def fitted():
    from repro.data.records import Corpus

    config = IUADConfig(checkpoint_mode="delta", use_embeddings=False)
    return IUAD(config).fit(Corpus(FIT_PAPERS))


@pytest.fixture()
def cli():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    import importlib

    module = importlib.import_module("snapshot")
    yield module
    sys.path.remove(str(REPO_ROOT / "tools"))


# --------------------------------------------------------------------- #
# resolution
# --------------------------------------------------------------------- #
def test_resolution_order(fitted, tmp_path):
    jsonl_file = tmp_path / "data.weird"
    jsonl_file.write_text('{"k": 1}\n', encoding="utf-8")
    sqlite_file = tmp_path / "mislabelled.jsonl"
    snapshot_of(fitted).save(sqlite_file, backend="sqlite")

    # an explicit name beats the file's bytes
    assert resolve_adapter(sqlite_file, "jsonl").name == "jsonl"
    # the SQLite magic beats the (jsonl) suffix
    assert resolve_adapter(sqlite_file).name == "sqlite"
    assert Snapshot.load(sqlite_file).delta_seq == 0
    # a missing file goes by its suffix…
    assert resolve_adapter(tmp_path / "missing.sqlite").name == "sqlite"
    # …and everything else falls back to the jsonl default
    assert resolve_adapter(jsonl_file).name == "jsonl"
    assert resolve_adapter(tmp_path / "missing.weird").name == "jsonl"
    with pytest.raises(ValueError, match="unknown"):
        resolve_adapter(jsonl_file, "no-such-adapter")


def test_v1_fixture_loads_through_the_registry():
    assert resolve_adapter(FIXTURE).name == "jsonl"
    snapshot = Snapshot.load(FIXTURE)
    assert verify_snapshot(snapshot) == []
    assert snapshot.delta_seq == 0  # pre-delta snapshots have no watermark


# --------------------------------------------------------------------- #
# conversion across the two formats
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("src_backend", BACKENDS)
@pytest.mark.parametrize("dst_backend", BACKENDS)
def test_convert_round_trip_parity(
    fitted, src_backend, dst_backend, tmp_path, cli
):
    if src_backend == dst_backend:
        pytest.skip("identity conversion")
    src = tmp_path / ("src" + SUFFIX[src_backend])
    dst = tmp_path / ("dst" + SUFFIX[dst_backend])
    back = tmp_path / ("back" + SUFFIX[src_backend])
    snapshot_of(fitted).save(src, backend=src_backend)

    assert cli.main(["convert", str(src), str(dst)]) == 0
    assert resolve_adapter(dst).name == dst_backend
    assert document_fingerprint(read_document(src)) == (
        document_fingerprint(read_document(dst))
    )
    # …and back, bit-for-bit in canonical form
    assert cli.main(["convert", str(dst), str(back)]) == 0
    assert document_fingerprint(read_document(back)) == (
        document_fingerprint(read_document(src))
    )


@pytest.mark.parametrize("dst_backend", ("sqlite", "jsonl"))
def test_convert_carries_the_delta_chain(
    fitted, dst_backend, tmp_path, cli, capsys
):
    """The chain log rides along and stays valid: the base fingerprint
    is computed over the canonical document, not the stored bytes."""
    src_backend = "jsonl" if dst_backend == "sqlite" else "sqlite"
    base = tmp_path / ("chained" + SUFFIX[src_backend])
    ingestor = StreamingIngestor(
        copy.deepcopy(fitted), checkpoint_path=base,
        checkpoint_backend=src_backend,
    )
    ingestor.checkpoint()
    ingestor.add_papers(STREAM_PAPERS[:2])
    ingestor.checkpoint()

    dst = tmp_path / ("converted" + SUFFIX[dst_backend])
    assert cli.main(["convert", str(base), str(dst)]) == 0
    assert "+ delta chain log" in capsys.readouterr().out
    restored, info = Snapshot.load_chain(dst)
    assert info["chain_length"] == 1
    original, _ = Snapshot.load_chain(base)
    assert document_fingerprint(restored.to_document()) == (
        document_fingerprint(original.to_document())
    )
    assert cli.main(["verify", str(dst)]) == 0


def test_write_document_rejects_unknown_adapter(fitted, tmp_path):
    document = snapshot_of(fitted).to_document()
    with pytest.raises(ValueError, match="unknown"):
        write_document(document, tmp_path / "x.jsonl", "no-such-adapter")


def test_cli_list_backends(cli, capsys):
    assert cli.main(["--list-backends"]) == 0
    out = capsys.readouterr().out
    lines = {line.split()[0]: line for line in out.splitlines()}
    assert set(lines) == {"jsonl", "sqlite"}
    assert ".jsonl" in lines["jsonl"] and ".sqlite" in lines["sqlite"]
    assert "indexed-query" in lines["sqlite"]  # only sqlite has the cursor
    assert "indexed-query" not in lines["jsonl"]
