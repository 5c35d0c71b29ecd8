"""Self-tests of the repository benchmark (``perfbench/``).

The smoke runs shrink every workload's inputs so the whole file runs in
well under a minute; they exercise the same code paths, subprocesses and
output checks as a real run.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402  (benchmark-local modules)
import run as bench_run  # noqa: E402
import serve_mixed  # noqa: E402
from workloads import Run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Tiny inputs per workload; the rates keep serve-mixed's tails at
#: 100 ingests and 1200 reads while its loop lasts about four seconds.
SMOKE = {
    "fit-scalefree": {"n_papers": 700},
    "stream-arrival": {
        "corpus_overrides": {
            "n_authors": 500, "n_papers": 1200, "name_pool_size": 700,
            "n_communities": 40,
        },
        "burst_size": 2,
    },
    "serve-mixed": {"n_papers": 700, "read_rate": 300.0,
                    "ingest_rate": 25.0},
}


def smoke(workload: str, seed: int = 3) -> dict:
    deadline = time.monotonic() + 150
    return bench_run.spawn(
        workload, seed, 0.1, False, deadline, sizes=SMOKE[workload]
    )


@pytest.fixture(scope="module")
def smoke_runs() -> dict[str, dict]:
    return {workload: smoke(workload) for workload in common.WORKLOADS}


def measured_by(workload: str) -> set[str]:
    return {
        name for name, (_unit, workloads) in common.NAMED_METRICS.items()
        if workload in workloads
    }


def test_metric_names_are_well_formed():
    names = (
        list(common.END_TO_END) + list(common.NAMED_METRICS)
        + list(common.PER_LAYER)
    )
    assert all(NAME.fullmatch(name) for name in names), names
    assert all(len(name) <= 64 for name in names)


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(common.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]
    } == common.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == (
        common.PER_LAYER
    )
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_a_workload_cannot_record_a_metric_it_does_not_measure(tmp_path):
    run = Run.__new__(Run)
    run.workload, run.metrics = "fit-scalefree", {}
    with pytest.raises(ValueError, match="does not measure"):
        run.metric("burst_p50_ms", 1.0, n=100)
    run.metric("fit_s", 1.0, n=3)
    with pytest.raises(ValueError, match="twice"):
        run.metric("fit_s", 2.0, n=3)


def test_thin_tails_are_refused():
    assert common.samples_beyond(100, 0.90) == 10
    assert common.samples_beyond(99, 0.90) == 9
    with pytest.raises(ValueError, match="fewer than"):
        common.tail_metric([1.0] * 99, 0.90)
    assert common.tail_metric(list(range(1000)), 0.99) == (
        pytest.approx(989.01), 1000
    )


def test_each_workload_reports_exactly_what_it_measures(smoke_runs):
    for workload, result in smoke_runs.items():
        metrics = result["metrics"]
        assert set(metrics) == measured_by(workload), workload
        # No metric is a copy of another one.
        values = [m["value"] for name, m in metrics.items()
                  if name != "failed_op_share"]
        assert len(values) == len(set(values)), (workload, metrics)
        assert all(result["checks"].values()), (workload, result["checks"])
        assert result["failed"] == 0, result["failures"]
        gated = bench_run.end_to_end(result)
        assert set(gated) == set(common.END_TO_END)
        assert all(m["value"] > 0 for m in gated.values()), gated


def test_percentiles_state_their_sample_counts(smoke_runs):
    for result in smoke_runs.values():
        for name, metric in result["metrics"].items():
            if metric["unit"] in ("s", "ms", "1/s"):
                assert metric.get("n", 0) >= 1, name
            tail = re.search(r"_p(\d\d)_", name)
            if tail and tail.group(1) != "50":
                q = int(tail.group(1)) / 100
                assert common.samples_beyond(metric["n"], q) >= 10, name


@pytest.mark.parametrize("workload", ["fit-scalefree", "stream-arrival"])
def test_another_seed_changes_inputs_not_metric_names(smoke_runs, workload):
    first = smoke_runs[workload]
    other = smoke(workload, seed=4)
    assert other["info"]["input_digest"] != first["info"]["input_digest"]
    assert set(other["metrics"]) == set(first["metrics"])


def test_tampered_clusters_fail_the_serve_check(tmp_path):
    common.use_source_tree()
    from repro.core import IUAD
    from repro.data.synthetic import SyntheticDBLP
    from repro.service import FittedView

    corpus = SyntheticDBLP(common.scalefree_config(5, 500)).generate()
    iuad = IUAD().fit(corpus)
    iuad.save(tmp_path / "base.jsonl")
    served = FittedView.of(iuad).as_clusters_dict()
    replay = serve_mixed.serial_replay(tmp_path / "base.jsonl", [])
    assert serve_mixed.clusters_match(served, replay)

    tampered = json.loads(json.dumps(served))
    name = next(n for n, vids in tampered.items() if len(vids) >= 2)
    first, second = list(tampered[name])[:2]
    tampered[name][second].append(tampered[name][first].pop())
    assert not serve_mixed.clusters_match(tampered, replay)
