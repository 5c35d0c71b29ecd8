"""Crash recovery: a kill mid-checkpoint never corrupts the last snapshot.

The atomicity contract of :mod:`repro.io.adapters`: checkpoints are
written to a ``.tmp`` sibling, fsynced, then renamed over the
destination.  These tests simulate the two crash windows — a truncated
tmp file (killed mid-write) and an interrupt *before* the rename — and
assert, for both backends, that the previous snapshot stays loadable and
that resuming from it reproduces the uninterrupted run exactly (at worst
the papers since the last checkpoint are re-streamed, never lost state).
"""

from __future__ import annotations

import copy
import os

import pytest

from repro.core import IUAD, IUADConfig, StreamingIngestor
from repro.data.records import Corpus, Paper
from repro.io import Snapshot
from repro.io import adapters as io_adapters

BACKENDS = ("jsonl", "sqlite")


@pytest.fixture(scope="module")
def fitted():
    papers = [
        Paper(0, ("X Y", "P A"), "query index join", "VLDB", 2001),
        Paper(1, ("X Y", "P A"), "index storage btree", "VLDB", 2002),
        Paper(2, ("X Y", "Q B"), "query optimization", "VLDB", 2003),
        Paper(3, ("X Y", "P A", "Q B"), "transaction recovery", "VLDB", 2004),
        Paper(4, ("X Y", "R C"), "image segmentation", "CVPR", 2001),
        Paper(5, ("X Y", "R C"), "object detection scene", "CVPR", 2002),
        Paper(6, ("X Y", "S D"), "stereo depth tracking", "CVPR", 2003),
        Paper(7, ("X Y", "R C", "S D"), "pose recognition", "CVPR", 2005),
    ]
    return IUAD(IUADConfig()).fit(Corpus(papers))


PAPER_A = Paper(100, ("X Y", "P A"), "first streamed paper", "VLDB", 2006)
PAPER_B = Paper(101, ("X Y", "Q B"), "second streamed paper", "VLDB", 2007)


def checkpoint_path(tmp_path, backend):
    return tmp_path / ("ck.sqlite" if backend == "sqlite" else "ck.jsonl")


def exact_state(net):
    vertices, edges, name_index, next_vid = net.export_parts()
    return vertices, sorted(edges), name_index, next_vid


def uninterrupted_reference(fitted):
    reference = copy.deepcopy(fitted)
    stream = StreamingIngestor(reference)
    stream.add_paper(PAPER_A)
    stream.add_paper(PAPER_B)
    return reference, stream


@pytest.mark.parametrize("backend", BACKENDS)
def test_truncated_tmp_leaves_previous_snapshot_loadable(
    fitted, backend, tmp_path
):
    """Killed mid-write: a partial ``.tmp`` exists next to the snapshot."""
    path = checkpoint_path(tmp_path, backend)
    stream = StreamingIngestor(
        copy.deepcopy(fitted), checkpoint_path=path, checkpoint_backend=backend
    )
    stream.add_paper(PAPER_A)
    stream.checkpoint()
    good_bytes = path.read_bytes()

    # simulate the next checkpoint dying mid-write: a truncated tmp file
    tmp_file = path.with_name(path.name + ".tmp")
    tmp_file.write_bytes(good_bytes[: len(good_bytes) // 3])

    # the previous snapshot is untouched and fully loadable
    assert path.read_bytes() == good_bytes
    resumed = StreamingIngestor.resume(path)
    assert resumed.report.n_papers == 1

    # resume parity from the surviving snapshot: re-streaming the lost
    # paper reproduces the uninterrupted run exactly
    resumed.add_paper(PAPER_B)
    reference, reference_stream = uninterrupted_reference(fitted)
    assert exact_state(resumed.iuad.gcn_) == exact_state(reference.gcn_)
    assert resumed.report.n_papers == reference_stream.report.n_papers

    # and the next successful checkpoint cleanly replaces the garbage tmp
    resumed.checkpoint()
    assert not tmp_file.exists()
    assert Snapshot.load(path).stream.n_papers == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_interrupt_before_rename_keeps_previous_snapshot(
    fitted, backend, tmp_path, monkeypatch
):
    """Killed after the tmp write but before ``os.replace``."""
    path = checkpoint_path(tmp_path, backend)
    stream = StreamingIngestor(
        copy.deepcopy(fitted), checkpoint_path=path, checkpoint_backend=backend
    )
    stream.add_paper(PAPER_A)
    stream.checkpoint()
    good_bytes = path.read_bytes()

    stream.add_paper(PAPER_B)
    real_replace = os.replace

    def crash_on_replace(src, dst, *args, **kwargs):
        if str(dst) == str(path):
            raise OSError("simulated crash before rename")
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(io_adapters.os, "replace", crash_on_replace)
    with pytest.raises(OSError, match="simulated crash"):
        stream.checkpoint()
    monkeypatch.undo()

    # the crash window left the previous snapshot byte-identical
    assert path.read_bytes() == good_bytes
    resumed = StreamingIngestor.resume(path)
    assert resumed.report.n_papers == 1
    resumed.add_paper(PAPER_B)
    reference, reference_stream = uninterrupted_reference(fitted)
    assert exact_state(resumed.iuad.gcn_) == exact_state(reference.gcn_)
    assert resumed.report.n_papers == reference_stream.report.n_papers
