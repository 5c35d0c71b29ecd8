"""Structural round-trips of the persistence layer (``repro.io``).

Pins the id-space survival contract (a restored network never re-issues
a live vertex id, even across explicit-vid gaps), the exact name-index
order across a save/load boundary (incremental candidate enumeration
walks it), bit-exact model/embedding parameters, shard-index state, the
v1 fixture backward-compat load, and the ``tools/snapshot.py`` CLI.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import IUAD, IUADConfig, StreamingIngestor
from repro.graphs.collab import CollaborationNetwork, combine_networks
from repro.io import (
    Snapshot,
    read_document,
    snapshot_header,
    snapshot_of,
    verify_snapshot,
)
from repro.io.snapshot import _encode_stream as encode_stream
from repro.io.schema import (
    decode_config,
    decode_network,
    encode_config,
    encode_network,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).with_name("fixtures") / "snapshot_v1.jsonl"
#: Stream keys of the retired per-paper timing window (v1 files carry them).
LEGACY_STREAM_KEYS = {"timing_window", "recent_seconds"}


def fixture_section(name):
    """One section payload of the committed v1 fixture, as stored."""
    for line in FIXTURE.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        if obj.get("section") == name:
            return obj["payload"]
    raise KeyError(name)

BACKENDS = ("jsonl", "sqlite")


@pytest.fixture(scope="module")
def fitted(labelled_corpus_module):
    return IUAD(IUADConfig()).fit(labelled_corpus_module)


@pytest.fixture(scope="module")
def labelled_corpus_module():
    # module-scoped twin of conftest's function-scoped labelled_corpus
    from repro.data.records import Corpus, Paper

    papers = [
        Paper(0, ("X Y", "P A"), "query index join", "VLDB", 2001, (100, 1)),
        Paper(1, ("X Y", "P A"), "index storage btree", "VLDB", 2002, (100, 1)),
        Paper(2, ("X Y", "Q B"), "query optimization", "VLDB", 2003, (100, 2)),
        Paper(3, ("X Y", "P A", "Q B"), "transaction recovery", "VLDB", 2004,
              (100, 1, 2)),
        Paper(4, ("X Y", "R C"), "image segmentation", "CVPR", 2001, (200, 3)),
        Paper(5, ("X Y", "R C"), "object detection scene", "CVPR", 2002,
              (200, 3)),
        Paper(6, ("X Y", "S D"), "stereo depth tracking", "CVPR", 2003,
              (200, 4)),
        Paper(7, ("X Y", "R C", "S D"), "pose recognition", "CVPR", 2005,
              (200, 3, 4)),
    ]
    return Corpus(papers)


# --------------------------------------------------------------------- #
# id-space survival (satellite: _next_vid restoration audit)
# --------------------------------------------------------------------- #
def gapped_network() -> CollaborationNetwork:
    """A network whose id space has an explicit-vid gap (0, 7) and whose
    name index order cannot be reproduced by insertion replay."""
    net = CollaborationNetwork()
    net.add_vertex("a", vid=0, mentions=((10, 0),))
    net.add_vertex("b", vid=7, mentions=((10, 1),))
    net.add_edge(0, 7, (10,))
    return net


@pytest.mark.parametrize("backend", BACKENDS)
def test_next_vid_survives_gap(backend, tmp_path):
    net = gapped_network()
    assert net._next_vid == 8
    vertices, edges, meta = encode_network(net)
    restored = decode_network(vertices, edges, meta)
    assert restored._next_vid == 8
    # The restored network must never re-issue a live id: the next fresh
    # vertex lands above the gap, not inside it.
    assert restored.add_vertex("c") == 8
    assert sorted(v.vid for v in restored) == [0, 7, 8]


def test_from_parts_rejects_duplicate_name_index_keys():
    """A name listed twice in the index would shadow the first entry's
    vertices — candidate enumeration would silently skip them."""
    with pytest.raises(ValueError, match="twice"):
        CollaborationNetwork.from_parts(
            [(0, "a", [], []), (1, "a", [], [])],
            [],
            [("a", [0]), ("a", [1])],
            2,
        )


def test_from_parts_rejects_id_reissue():
    """A snapshot claiming a watermark at or below a live id is corrupt —
    loading it must fail loudly, not re-issue ids later."""
    vertices, edges, name_index, _next_vid = gapped_network().export_parts()
    with pytest.raises(ValueError, match="re-issue"):
        CollaborationNetwork.from_parts(vertices, edges, name_index, 7)


def test_name_index_order_survives_reload():
    """A lost-and-regained name sits at the *end* of the name index; a
    reload must preserve that order, not replay insertion order."""
    net = CollaborationNetwork()
    net.add_vertex("a", vid=0)          # name index: [a]
    net.add_vertex("b", vid=1)          # name index: [a, b]
    net.remove_isolated_vertex(0)       # name index: [b]
    net.add_vertex("a", vid=2)          # name index: [b, a] — not [a, b]!
    assert net.names == ["b", "a"]
    vertices, edges, meta = encode_network(net)
    restored = decode_network(vertices, edges, meta)
    assert restored.names == ["b", "a"]
    assert restored.vertices_of_name("a") == [2]
    assert restored._next_vid == 3


def test_combine_networks_and_subnetwork_keep_watermark():
    """The other two reconstruction paths of the audit: extraction keeps
    explicit ids (watermark above the kept maximum), stitching re-issues
    a dense fresh id space with a consistent watermark."""
    net = gapped_network()
    sub = net.subnetwork([0, 7])
    assert sub._next_vid == 8
    assert sub.add_vertex("fresh") == 8

    combined, mappings = combine_networks([gapped_network()])
    assert sorted(v.vid for v in combined) == [0, 1]
    assert combined._next_vid == 2
    assert combined.add_vertex("fresh") == 2
    assert mappings == [{0: 0, 7: 1}]


# --------------------------------------------------------------------- #
# exactness of the payload sections
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_full_roundtrip_is_bit_exact(fitted, backend, tmp_path):
    path = tmp_path / f"snap.{'sqlite' if backend == 'sqlite' else 'jsonl'}"
    fitted.save(path, backend=backend)
    loaded = IUAD.load(path)
    assert loaded.gcn_.export_parts() == fitted.gcn_.export_parts()
    assert loaded.scn_.export_parts() == fitted.scn_.export_parts()
    assert loaded.model_.state_dict() == fitted.model_.state_dict()
    assert loaded.config == fitted.config
    assert loaded.computer_.word_frequencies == dict(
        fitted.computer_.word_frequencies
    )
    assert loaded.computer_.venue_frequencies == dict(
        fitted.computer_.venue_frequencies
    )
    # papers + insertion order
    assert [p.pid for p in loaded.corpus_] == [p.pid for p in fitted.corpus_]
    assert all(
        loaded.corpus_[p.pid] == p for p in fitted.corpus_
    )
    # embeddings: identical bits, no re-normalization drift
    if fitted.embeddings_ is not None:
        assert loaded.embeddings_ is not None
        assert loaded.embeddings_.vocabulary == fitted.embeddings_.vocabulary
        assert np.array_equal(
            loaded.embeddings_._matrix, fitted.embeddings_._matrix
        )
    assert verify_snapshot(Snapshot.load(path)) == []


def test_frequency_tables_are_fit_time_not_corpus_derived(fitted, tmp_path):
    """Streamed papers grow the corpus past the fit-time frequency
    tables; a snapshot must restore the *fit-time* tables (γ4/γ6 inputs),
    not re-derive them from the grown corpus."""
    from repro.data.records import Paper

    estimator = copy.deepcopy(fitted)
    StreamingIngestor(estimator).add_papers(
        [Paper(900, ("X Y", "P A"), "novel topic words", "NEWVENUE", 2010)]
    )
    path = tmp_path / "grown.jsonl"
    estimator.save(path)
    loaded = IUAD.load(path)
    # the fit-time tables do not know the streamed venue/words…
    assert "NEWVENUE" not in loaded.computer_.venue_frequencies
    assert loaded.computer_.venue_frequencies == dict(
        estimator.computer_.venue_frequencies
    )
    # …while the corpus (and its own live tables) do.
    assert loaded.corpus_.venue_frequency("NEWVENUE") == 1


def test_config_roundtrip_tolerates_drift():
    config = IUADConfig(eta=3, merge_rounds=2, seed=7)
    payload = encode_config(config)
    assert decode_config(payload) == config
    # unknown keys from a newer build, or retired ones an older build
    # wrote, are ignored; missing keys default
    payload["knob_from_the_future"] = 42
    payload["gamma_chunk_pairs"] = 64
    del payload["seed"]
    decoded = decode_config(payload)
    assert decoded.eta == 3 and decoded.seed == IUADConfig().seed


def test_stream_counters_roundtrip(fitted, tmp_path):
    from repro.data.records import Paper

    estimator = copy.deepcopy(fitted)
    stream = StreamingIngestor(estimator, checkpoint_path=tmp_path / "c.jsonl")
    stream.add_papers(
        [Paper(901, ("X Y", "Q B"), "resumable streams", "VLDB", 2011)]
    )
    stream.checkpoint()
    resumed = StreamingIngestor.resume(tmp_path / "c.jsonl")
    assert resumed.report.n_papers == stream.report.n_papers == 1
    assert resumed.report.n_mentions == stream.report.n_mentions
    assert resumed.report.n_attached == stream.report.n_attached
    assert resumed.report.n_created == stream.report.n_created
    assert resumed.report.seconds == stream.report.seconds
    assert resumed.report.avg_ms_per_paper == stream.report.avg_ms_per_paper


def test_auto_checkpoint_every_n_papers(labelled_corpus_module, tmp_path):
    from repro.data.records import Paper

    estimator = IUAD(
        IUADConfig(checkpoint_every_n_papers=2)
    ).fit(labelled_corpus_module)
    path = tmp_path / "auto.jsonl"
    stream = StreamingIngestor(estimator, checkpoint_path=path)
    stream.add_paper(Paper(910, ("X Y", "P A"), "one", "VLDB", 2012))
    assert not path.exists()  # below the threshold
    stream.add_paper(Paper(911, ("X Y", "P A"), "two", "VLDB", 2012))
    assert path.exists()      # threshold reached → auto-checkpoint
    first = Snapshot.load(path)
    assert first.stream is not None and first.stream.n_papers == 2
    stream.add_papers(
        [
            Paper(912, ("X Y", "Q B"), "three", "VLDB", 2013),
            Paper(913, ("X Y", "Q B"), "four", "VLDB", 2013),
        ]
    )
    assert Snapshot.load(path).stream.n_papers == 4


def test_snapshot_rejects_unfitted():
    with pytest.raises(ValueError, match="unfitted"):
        snapshot_of(IUAD())


def test_load_rejects_non_snapshot_files(tmp_path):
    bogus = tmp_path / "not_a_snapshot.jsonl"
    bogus.write_text('{"hello": "world"}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        Snapshot.load(bogus)


@pytest.mark.parametrize(
    "meta, reason",
    [
        ({"format": "repro-snapshot", "version": 1}, "missing table 'papers'"),
        (["repro-snapshot", 1], "lacks meta/sections/tables"),
    ],
    ids=["meta-only", "non-mapping-meta"],
)
def test_truncated_snapshot_fails_alike_at_every_entry_point(
    meta, reason, tmp_path
):
    # One validator behind every reader: a parseable but truncated
    # document raises the same one-line ValueError from the header
    # inspection, the full decode, the chain load and the stream resume
    # — never a bare KeyError or AttributeError from deep in the decode.
    path = tmp_path / "truncated.jsonl"
    path.write_text(json.dumps({"meta": meta}) + "\n", encoding="utf-8")
    entry_points = {
        "snapshot_header": snapshot_header,
        "Snapshot.load": Snapshot.load,
        "Snapshot.load_chain": Snapshot.load_chain,
        "StreamingIngestor.resume": StreamingIngestor.resume,
        "Snapshot.from_document": lambda p: Snapshot.from_document(
            {"meta": meta, "sections": {}, "tables": {}}
        ),
    }
    for label, read in entry_points.items():
        with pytest.raises(ValueError) as excinfo:
            read(path)
        message = str(excinfo.value)
        assert message.endswith(reason), (label, message)
        assert "\n" not in message, label


# --------------------------------------------------------------------- #
# backward compatibility: the committed v1 fixture
# --------------------------------------------------------------------- #
def test_v1_fixture_still_loads_and_serves(tmp_path):
    """The committed v1 snapshot (see ``fixtures/make_snapshot_fixture.py``)
    must keep loading verbatim in every future build.  Its retired
    ``computer.batch_threshold`` key and empty
    ``computer.frequent_keywords`` list are ignored on read and not
    written back when the resumed state is saved."""
    from repro.data.records import Paper

    snapshot = Snapshot.load(FIXTURE)
    assert snapshot.version == 1
    assert verify_snapshot(snapshot) == []
    resumed = StreamingIngestor.resume(FIXTURE)
    assert resumed.report.n_papers >= 1
    # The fixture's stream section still carries the retired per-paper
    # timing window; the counters and the time total survive without it.
    stored = fixture_section("stream")
    assert "recent_seconds" in stored and "timing_window" in stored
    assert encode_stream(resumed.report) == {
        key: value for key, value in stored.items()
        if key not in LEGACY_STREAM_KEYS
    }
    before = len(resumed.iuad.gcn_)
    pid = max(p.pid for p in resumed.iuad.corpus_) + 1
    assignments = resumed.add_paper(
        Paper(pid, ("X Y", "Someone New"), "compat continuation", "VLDB", 2020)
    )
    assert len(assignments) == 2
    assert len(resumed.iuad.gcn_) >= before

    resaved = snapshot_of(resumed.iuad, stream=resumed.report).save(
        tmp_path / "resaved.jsonl"
    )
    sections = read_document(resaved)["sections"]
    assert fixture_section("computer")["frequent_keywords"] == []
    assert set(sections["computer"]) == {
        "word_frequencies", "venue_frequencies"
    }
    assert not LEGACY_STREAM_KEYS & set(sections["stream"])
    assert "incremental_timing_window" not in sections["config"]
    assert verify_snapshot(Snapshot.load(resaved)) == []


def test_legacy_nonempty_frequent_keywords_is_refused():
    """A keyword blocklist would change γ, and this build has none to
    honour: a snapshot carrying a non-empty one is refused, not served
    with silently different scores."""
    document = read_document(FIXTURE)
    document["sections"]["computer"]["frequent_keywords"] = ["query"]
    with pytest.raises(ValueError) as excinfo:
        Snapshot.from_document(document)
    message = str(excinfo.value)
    assert "frequent_keywords" in message and "\n" not in message


def test_delta_record_with_legacy_stream_keys_replays(tmp_path):
    """A chain written before the timing window was retired carries
    ``timing_window`` / ``recent_seconds`` in every record's stream
    section; replay ignores them and restores the counters."""
    import shutil

    from repro.data.records import Paper
    from repro.io import delta_log_path
    from repro.io.delta import _record_checksum

    base = tmp_path / "legacy.jsonl"
    shutil.copy(FIXTURE, base)
    resumed = StreamingIngestor.resume(base)
    resumed.checkpoint(base, mode="delta")  # re-bases the chain here
    pid = max(p.pid for p in resumed.iuad.corpus_) + 1
    resumed.add_paper(Paper(pid, ("X Y", "P A"), "legacy chain", "VLDB", 2020))
    resumed.checkpoint(base, mode="delta")
    log = delta_log_path(base)
    (line,) = log.read_text(encoding="utf-8").splitlines()
    payload = json.loads(line)["delta"]
    payload["stream"]["timing_window"] = 4096
    payload["stream"]["recent_seconds"] = [0.001, 0.002]
    log.write_text(
        json.dumps({"delta": payload, "crc": _record_checksum(payload)}) + "\n",
        encoding="utf-8",
    )
    restored, info = Snapshot.load_chain(base)
    assert info["chain_length"] == 1
    assert encode_stream(restored.stream) == encode_stream(resumed.report)


# --------------------------------------------------------------------- #
# the CLI (tools/snapshot.py)
# --------------------------------------------------------------------- #
@pytest.fixture()
def cli(monkeypatch):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    import importlib

    module = importlib.import_module("snapshot")
    yield module
    sys.path.remove(str(REPO_ROOT / "tools"))


def test_cli_inspect_convert_verify(fitted, tmp_path, cli, capsys):
    src = tmp_path / "cli.jsonl"
    fitted.save(src)
    assert cli.main(["inspect", str(src)]) == 0
    out = capsys.readouterr().out
    assert "repro-snapshot v1" in out and "papers" in out

    dst = tmp_path / "cli.sqlite"
    assert cli.main(["convert", str(src), str(dst)]) == 0
    assert cli.main(["verify", str(dst)]) == 0
    assert "OK" in capsys.readouterr().out
    # lossless: converting back reproduces the exact JSONL document
    back = tmp_path / "back.jsonl"
    assert cli.main(["convert", str(dst), str(back)]) == 0
    from repro.io import read_document

    assert read_document(back) == read_document(src)


def test_cli_inspect_rejects_foreign_files(tmp_path, cli, capsys):
    foreign = tmp_path / "other_tool.jsonl"
    foreign.write_text('{"meta": {"foo": 1}}\n', encoding="utf-8")
    assert cli.main(["inspect", str(foreign)]) == 1
    assert "not a repro snapshot" in capsys.readouterr().err


def test_cli_verify_flags_corruption(fitted, tmp_path, cli, capsys):
    path = tmp_path / "corrupt.jsonl"
    fitted.save(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    # double-assign one mention: give a second vertex the first one's
    # (pid, position) — the verify sweep must flag the double ownership.
    doctored: list[str] = []
    stolen = None
    planted = False
    for line in lines:
        obj = json.loads(line)
        if obj.get("table") == "gcn_vertices":
            if stolen is None and obj["row"]["mentions"]:
                stolen = obj["row"]["mentions"][0]
            elif stolen is not None and not planted:
                obj["row"]["mentions"] = [stolen]
                obj["row"]["papers"] = [stolen[0]]
                planted = True
                doctored.append(json.dumps(obj) + "\n")
                continue
        doctored.append(line)
    assert planted
    path.write_text("".join(doctored), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 1
    assert "owned by" in capsys.readouterr().err
