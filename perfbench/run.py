"""The repository benchmark: one workload, measured in a fresh process.

    python3 perfbench/run.py --workload fit-scalefree --seed 1 \\
        --seconds 40 --trace 0

Workloads (see ``perfbench/NOTES.md``): ``fit-scalefree`` and
``stream-arrival``, which ``BENCHMARK.json`` gates, and ``serve-mixed``.

``--trace 0`` runs the workload once, untraced, in a fresh interpreter.
``--trace 1`` runs it twice in fresh interpreters, untraced and then with
span wrappers around the program's entry points (:mod:`tracing`), and
reports per-layer metrics, each layer's self-time share of the wall and
the tracing overhead (traced minus untraced wall).

Standard output ends with two lines: ``RECORD {...}``, the full record
(provenance, every named metric with unit and sample count, checks,
failed operations, diagnostics), then the result object
``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (benchmark-local module)

#: A run must end within 180 s; leave room to report.
RUN_BUDGET_S = 170.0


def spawn(
    workload: str, seed: int, seconds: float, trace: bool, deadline: float,
    sizes: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one workload in a fresh interpreter; its result document."""
    cmd = [
        sys.executable, str(common.BENCH_DIR / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if sizes:
        cmd += ["--sizes", json.dumps(sizes)]
    # Own process group: on a timeout the workload and any server it
    # started are killed together, and both are waited for.
    proc = subprocess.Popen(
        cmd, cwd=common.ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    results = [
        line[len("RESULT "):] for line in stdout.splitlines()
        if line.startswith("RESULT ")
    ]
    if proc.returncode != 0 or not results:
        raise RuntimeError(
            f"{workload} exited with code {proc.returncode} and no result"
        )
    return json.loads(results[-1])


def end_to_end(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The gated metrics, each taken from the workload's own record."""
    named = result["metrics"]
    op = named[common.OP_METRIC[result["workload"]]]
    op_ms = op["value"] * (1000.0 if op["unit"] == "s" else 1.0)
    values = {
        "setup_s": named["setup_s"]["value"],
        "op_p50_ms": op_ms,
        "micro_f1": named["micro_f1"]["value"],
        "peak_rss_mb": named["peak_rss_mb"]["value"],
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _better) in common.END_TO_END.items()
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    traced: dict[str, Any], untraced: dict[str, Any],
) -> dict[str, dict[str, Any]]:
    """Per-layer metrics from the traced run's span report."""
    report = traced["trace"]
    groups, counters, spans = (
        report["groups"], report["counters"], report["spans"]
    )
    info = traced["info"]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    values: dict[str, float] = {
        name: groups.get(name, 0.0)
        for name, unit in common.PER_LAYER.items()
        if unit == "s" and name in groups
    }
    batched = calls("SimilarityComputer.pair_matrix_batched")
    profile_calls = counters.get("similarity.profile_calls", 0)
    profile_hits = counters.get("similarity.profile_hits", 0)
    scored = counters.get("core.scored_pairs", 0)
    patched = counters.get("core.patched_pairs", 0)
    values.update({
        "similarity.pairs_scored": counters.get(
            "similarity.pairs_scored", 0),
        "similarity.batched_call_share": _ratio(
            batched,
            batched + calls("SimilarityComputer.pair_matrix_perpair"),
        ),
        "similarity.profile_builds": profile_calls - profile_hits,
        "similarity.profile_hit_ratio": _ratio(profile_hits, profile_calls),
        "model.em_iterations": counters.get("model.em_iterations", 0),
        "core.merges": counters.get("core.merges", 0),
        "core.patched_pair_share": _ratio(patched, scored + patched),
        "core.papers_per_burst": _ratio(
            counters.get("core.burst_papers", 0),
            counters.get("core.bursts", 0),
        ),
        "io.delta_bytes": counters.get("io.delta_bytes", 0),
        "io.chain_records": counters.get("io.chain_records", 0),
        "service.swaps": counters.get("service.swaps", 0),
        "service.warm_start_s": info.get("warm_start_s", 0.0),
    })
    routes = info.get("route_p50_ms", {})
    for route in common.LAYER_ROUTES:
        values[f"service.route.{route}.p50_ms"] = routes.get(route, 0.0)
    wall = traced["wall_s"]
    attributed = 0.0
    for layer, self_s in report["layer_self_s"].items():
        values[f"share.{layer}"] = self_s / wall
        attributed += self_s
    values["share.unattributed"] = 1.0 - attributed / wall
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    values["trace.overhead_s"] = wall - untraced["wall_s"]
    values["trace.overhead_share"] = (
        (wall - untraced["wall_s"]) / untraced["wall_s"]
    )
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in common.PER_LAYER.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.use_source_tree()
    deadline = time.monotonic() + RUN_BUDGET_S

    runs = [spawn(args.workload, args.seed, args.seconds, False, deadline)]
    if args.trace:
        runs.append(
            spawn(args.workload, args.seed, args.seconds, True, deadline)
        )
    last = runs[-1]
    correct = all(all(r["checks"].values()) for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = per_layer(last, runs[0]) if args.trace else end_to_end(last)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": common.provenance(),
        "runs": [
            {key: value for key, value in run.items() if key != "trace"}
            for run in runs
        ],
    }
    if args.trace:
        record["spans"] = last["trace"]["spans"]
    print("RECORD " + json.dumps(record), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
