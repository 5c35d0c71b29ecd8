"""In-place snapshot queries (``repro.io.query``).

Pins the no-full-decode query path against the fully materialised
reference: ``SnapshotQuery.who_is`` / ``owner_of`` — indexed SQL on a
SQLite snapshot, filtered row scans on JSONL, pre-index SQLite files
falling back to payload scans — must return exactly what a full
:class:`~repro.service.FittedView` returns, delta-chain overlay
included.  These are the two readers of a snapshot file; the CLI's
``who-is`` with and without ``--no-full-load`` must agree.
"""

from __future__ import annotations

import copy
import json
import shutil
import sqlite3
import sys
from pathlib import Path

import pytest

from repro.core import IUAD, IUADConfig, StreamingIngestor
from repro.data.records import Corpus
from repro.io import SnapshotQuery
from repro.io.query import owner_of as owner_of_oneshot
from repro.io.query import who_is as who_is_oneshot
from repro.service.view import FittedView

from test_delta_checkpoint import FIT_PAPERS, STREAM_PAPERS

REPO_ROOT = Path(__file__).resolve().parents[1]

BACKENDS = ("jsonl", "sqlite")
SUFFIX = {"jsonl": ".jsonl", "sqlite": ".sqlite"}

ALL_PAPERS = FIT_PAPERS + STREAM_PAPERS
ALL_NAMES = sorted({name for p in ALL_PAPERS for name in p.authors})


@pytest.fixture(scope="module", params=BACKENDS)
def chained_snapshot(request, tmp_path_factory):
    """One snapshot per backend with a 1-record delta chain riding on
    it: pids 0–7 live in the base, 8–9 only in the chain log."""
    backend = request.param
    tmp = tmp_path_factory.mktemp(f"query_{backend}")
    config = IUADConfig(checkpoint_mode="delta", use_embeddings=False)
    estimator = IUAD(config).fit(Corpus(FIT_PAPERS))
    base = tmp / ("fitted" + SUFFIX[backend])
    ingestor = StreamingIngestor(
        estimator, checkpoint_path=base, checkpoint_backend=backend
    )
    ingestor.add_papers(STREAM_PAPERS[:2])
    ingestor.checkpoint()  # base covers pids 0–7
    ingestor.add_papers(STREAM_PAPERS[2:])
    ingestor.checkpoint()  # pids 8–9 exist only as a delta record
    return backend, base


@pytest.fixture(scope="module")
def reference(chained_snapshot):
    backend, base = chained_snapshot
    return FittedView.from_snapshot(base, backend=backend)


@pytest.fixture()
def cli():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    import importlib

    module = importlib.import_module("snapshot")
    yield module
    sys.path.remove(str(REPO_ROOT / "tools"))


def normalised(clusters):
    return {vid: sorted(map(tuple, m)) for vid, m in clusters.items()}


# --------------------------------------------------------------------- #
# SnapshotQuery vs the fully materialised view
# --------------------------------------------------------------------- #
def test_owner_of_matches_full_view(chained_snapshot, reference):
    backend, base = chained_snapshot
    with SnapshotQuery(base, backend=backend) as query:
        for paper in ALL_PAPERS:
            for position, name in enumerate(paper.authors):
                owner = query.owner_of(paper.pid, position)
                hit = reference.who_is(name, paper.pid, position)
                assert hit is not None
                assert owner == (hit["vid"], name), (paper.pid, position)


def test_who_is_matches_full_view(chained_snapshot, reference):
    backend, base = chained_snapshot
    with SnapshotQuery(base, backend=backend) as query:
        for name in ALL_NAMES:
            assert normalised(query.who_is(name)) == normalised(
                reference.cluster_of(name)
            ), name


def test_chain_only_papers_are_visible(chained_snapshot):
    """Pids 8–9 never made it into the base — the overlay answers."""
    backend, base = chained_snapshot
    with SnapshotQuery(base, backend=backend) as query:
        owner = query.owner_of(9, 0)
        assert owner is not None and owner[1] == "T E"
        assert any(
            (9, 0) in [tuple(m) for m in mentions]
            for mentions in query.who_is("T E").values()
        )


def test_unknowns_answer_empty(chained_snapshot):
    backend, base = chained_snapshot
    with SnapshotQuery(base, backend=backend) as query:
        assert query.who_is("nobody at all") == {}
        assert query.owner_of(9999, 0) is None


def test_oneshot_helpers(chained_snapshot, reference):
    backend, base = chained_snapshot
    hit = reference.who_is("X Y", 0, 0)
    assert owner_of_oneshot(base, 0, 0, backend=backend) == (
        hit["vid"], "X Y"
    )
    assert normalised(who_is_oneshot(base, "X Y", backend=backend)) == (
        normalised(reference.cluster_of("X Y"))
    )


def test_sqlite_pre_index_fallback(chained_snapshot, reference, tmp_path):
    """Snapshots written before the mentions table existed still answer
    (payload scan), just without the index."""
    backend, base = chained_snapshot
    if backend != "sqlite":
        pytest.skip("sqlite-only fallback")
    legacy = tmp_path / "legacy.sqlite"
    shutil.copy(base, legacy)
    shutil.copy(
        base.with_name(base.name + ".delta"),
        legacy.with_name(legacy.name + ".delta"),
    )
    with sqlite3.connect(legacy) as conn:
        conn.execute("DROP TABLE mentions")
    with SnapshotQuery(legacy) as query:
        for name in ALL_NAMES:
            assert normalised(query.who_is(name)) == normalised(
                reference.cluster_of(name)
            ), name
        hit = reference.who_is("X Y", 0, 0)
        assert query.owner_of(0, 0) == (hit["vid"], "X Y")


# --------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------- #
def test_cli_who_is_full_and_lite_agree(
    chained_snapshot, cli, capsys
):
    backend, base = chained_snapshot
    assert cli.main(["who-is", str(base), "X Y"]) == 0
    full_out = json.loads(capsys.readouterr().out)
    assert cli.main(["who-is", str(base), "X Y", "--no-full-load"]) == 0
    lite_out = json.loads(capsys.readouterr().out)
    assert full_out == lite_out
    assert full_out["name"] == "X Y" and full_out["clusters"]

    assert cli.main(["who-is", str(base), "T E", "--pid", "9"]) == 0
    full_owner = json.loads(capsys.readouterr().out)
    assert cli.main(
        ["who-is", str(base), "T E", "--pid", "9", "--no-full-load"]
    ) == 0
    lite_owner = json.loads(capsys.readouterr().out)
    assert full_owner == lite_owner
    assert full_owner["owner"] is not None


def test_cli_who_is_missing_file_is_one_line(cli, capsys, tmp_path):
    assert cli.main(["who-is", str(tmp_path / "gone.jsonl"), "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("who-is:") and "Traceback" not in err
