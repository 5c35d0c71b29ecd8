"""Provenance of committed benchmark records.

``BENCH_sharding.quick.json`` was once committed carrying
``"quick": false`` — a full-mode stamp inside the quick-mode file, so the
recorded 0.36× slowdown masqueraded as the honest full-mode measurement.
:func:`repro.eval.timing.write_benchmark_json` now refuses any record
whose ``quick`` flag disagrees with the path convention (quick records
live in ``*.quick.json``), and this suite pins the guard in both
directions plus scans every committed record for consistency.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.eval.timing import write_benchmark_json

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestQuickPathGuard:
    def test_full_mode_record_refused_on_quick_path(self, tmp_path):
        with pytest.raises(ValueError, match="full-mode record"):
            write_benchmark_json(
                tmp_path / "BENCH_x.quick.json", "x", {"fit": 1.0}, quick=False
            )

    def test_quick_mode_record_refused_on_full_path(self, tmp_path):
        with pytest.raises(ValueError, match="quick-mode record"):
            write_benchmark_json(
                tmp_path / "BENCH_x.json", "x", {"fit": 1.0}, quick=True
            )

    def test_matching_stamps_write_fine(self, tmp_path):
        quick = write_benchmark_json(
            tmp_path / "BENCH_x.quick.json", "x", {"fit": 1.0}, quick=True
        )
        full = write_benchmark_json(
            tmp_path / "BENCH_x.json", "x", {"fit": 1.0}, quick=False
        )
        assert quick["quick"] is True and full["quick"] is False
        assert json.loads(
            (tmp_path / "BENCH_x.quick.json").read_text()
        )["quick"] is True

    def test_records_without_quick_stamp_are_untouched(self, tmp_path):
        # Benchmarks that have no quick mode (similarity, snapshot, ...)
        # keep writing stamp-free records to any path.
        payload = write_benchmark_json(
            tmp_path / "BENCH_y.quick.json", "y", {"fit": 1.0}
        )
        assert "quick" not in payload

    def test_refusal_leaves_no_file_behind(self, tmp_path):
        target = tmp_path / "BENCH_z.quick.json"
        with pytest.raises(ValueError):
            write_benchmark_json(target, "z", {"fit": 1.0}, quick=False)
        assert not target.exists()


class TestCommittedRecords:
    def test_committed_records_stamp_their_mode_honestly(self):
        records = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert records, "no committed benchmark records found"
        for path in records:
            payload = json.loads(path.read_text())
            quick = payload.get("quick")
            if quick is None:
                continue
            assert quick == path.name.endswith(".quick.json"), (
                f"{path.name} stamps quick={quick}, contradicting its path"
            )

    def test_sharding_record_carries_pipeline_counters(self):
        paths = sorted(REPO_ROOT.glob("BENCH_sharding*.json"))
        assert paths, "no sharding benchmark record committed"
        for path in paths:
            shards = json.loads(path.read_text())["shards"]
            for key in (
                "pipeline_seconds",
                "gamma_wall_seconds",
                "em_seconds",
                "overlap_seconds",
                "n_gamma_chunks",
                "ipc_task_bytes",
                "shm_bytes",
            ):
                assert key in shards, f"{path.name} lacks {key}"
