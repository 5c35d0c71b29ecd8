"""The benchmark's workloads, each run in a fresh interpreter by ``run.py``.

    python3 perfbench/workloads.py --workload stream-arrival --seed 1 \\
        --seconds 40 --trace 0

prints one ``RESULT {...}`` line: the workload's named metrics with
units and sample counts, its output checks, every failed operation with
its kind, and (``--trace 1``) the span report of :mod:`tracing`.

* ``fit-scalefree`` — Algorithm 1 as a batch job: ``IUAD.fit`` on a
  scale-free (default Zipf name popularity) corpus, repeated on fresh
  estimators over one shared ``Corpus``.
* ``stream-arrival`` — one writer, no readers: a ``ShardedIUAD`` base
  (``n_workers=0``) fitted without the corpus's most recent papers, which
  then arrive in year order through ``StreamingIngestor.add_papers`` in
  fixed-size bursts, with a delta checkpoint after each burst, and one
  ``StreamingIngestor.resume`` at the end.
* ``serve-mixed`` — an open loop against ``tools/serve.py``; see
  :mod:`serve_mixed`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (benchmark-local module)
from common import (  # noqa: E402
    N_SETUPS, NAMED_METRICS, median, record_setups, tail_metric,
)


class Run:
    """What one workload run measured, checked and saw fail."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failures: list[dict[str, str]] = []
        self.checks: dict[str, bool] = {}
        self.metrics: dict[str, dict[str, Any]] = {}
        self.info: dict[str, Any] = {}
        self.work_dir = Path(tempfile.mkdtemp(
            prefix=f"{workload}-", dir=_work_root()
        ))

    def op(self, kind: str, fn: Callable, *args, **kwargs):
        """Attempt one operation; ``(ok, result)``; failures are logged."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # every failed operation is recorded
            self.fail(kind, exc)
            return False, None

    def fail(self, kind: str, exc: BaseException | str) -> None:
        detail = (
            exc if isinstance(exc, str) else f"{type(exc).__name__}: {exc}"
        )
        entry = {"kind": kind, "error": detail}
        if isinstance(exc, BaseException):
            entry["traceback"] = "".join(traceback.format_exception(exc))
        self.failures.append(entry)
        print(f"perfbench: failed {kind}: {detail}", file=sys.stderr)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        if not ok:
            print(f"perfbench: output check {name} FAILED", file=sys.stderr)

    def metric(self, name: str, value: float, n: int | None = None) -> None:
        """Record a named metric this workload measured itself."""
        unit, workloads = NAMED_METRICS[name]
        if self.workload not in workloads:
            raise ValueError(f"{self.workload} does not measure {name}")
        if name in self.metrics:
            raise ValueError(f"{name} recorded twice")
        entry: dict[str, Any] = {"value": float(value), "unit": unit}
        if n is not None:
            entry["n"] = int(n)
        self.metrics[name] = entry

    def finish(self, wall_s: float) -> dict[str, Any]:
        self.metric(
            "failed_op_share", len(self.failures) / max(self.attempted, 1),
            n=self.attempted,
        )
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "wall_s": wall_s,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "checks": self.checks,
            "metrics": self.metrics,
            "info": self.info,
        }


def _work_root() -> Path:
    common.WORK_ROOT.mkdir(exist_ok=True)
    return common.WORK_ROOT


# --------------------------------------------------------------------- #
# fit-scalefree
# --------------------------------------------------------------------- #
FIT_PAPERS = 10_000
MIN_FITS = 3


def fit_scalefree(run: Run, n_papers: int = FIT_PAPERS) -> None:
    from repro.core import IUAD, IUADConfig
    from repro.data.synthetic import SyntheticDBLP
    from repro.service import FittedView

    config = common.scalefree_config(run.seed, n_papers)
    setups, digests = [], []
    corpus = None
    for _ in range(N_SETUPS):
        corpus = None
        gc.collect()
        t0 = time.perf_counter()
        corpus = SyntheticDBLP(config).generate()
        setups.append(time.perf_counter() - t0)
        digests.append(common.corpus_digest(corpus))
    record_setups(run, setups)
    run.check("corpus_deterministic", len(set(digests)) == 1)
    run.info["input_digest"] = digests[-1]
    run.info["corpus"] = {"papers": len(corpus), "names": len(corpus.names)}

    # Fresh estimator per fit over the one shared Corpus.  The previous
    # estimator is dropped and collected outside the timed region.
    fits: list[float] = []
    faults: list[int] = []  # minor page faults per fit: heap growth
    fingerprints: list[str] = []
    f1 = None
    # At least MIN_FITS, then more while one more fits in --seconds.
    t_phase = time.perf_counter()
    while len(fits) < MIN_FITS or (
        time.perf_counter() - t_phase + median(fits) <= run.seconds
    ):
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        ok, iuad = run.op("fit", IUAD(IUADConfig()).fit, corpus)
        elapsed = time.perf_counter() - t0
        if ok:
            fits.append(elapsed)
            faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
            )
            fingerprints.append(FittedView.of(iuad).fingerprint)
            if f1 is None:
                # Identical fingerprints (checked below) mean every fit
                # made the clustering scored here.
                f1 = common.micro_f1(corpus, iuad.mention_clusters_of_name)
        iuad = None
        gc.collect()
        if not ok and len(run.failures) >= MIN_FITS:
            break
    run.check("fits_identical", bool(fits) and len(set(fingerprints)) == 1)
    if not fits:
        return
    run.metric("fit_s", median(fits), n=len(fits))
    run.metric("micro_f1", *f1)
    run.info["fit_samples_s"] = fits
    run.info["fit_minor_faults"] = faults
    later = fits[1:]
    run.info["first_fit_vs_later"] = {
        "first_s": fits[0],
        "later_median_s": median(later) if later else None,
        "ratio": fits[0] / median(later) if later else None,
        "first_faults": faults[0],
        "later_median_faults": median(faults[1:]) if later else None,
    }


# --------------------------------------------------------------------- #
# stream-arrival
# --------------------------------------------------------------------- #
BURST_SIZE = 10
BURSTS_PER_SECOND = 5.0
MIN_BURSTS = 100


def stream_bursts(seconds: float) -> int:
    """Burst count: sized from ``--seconds`` alone, never from speed, so
    the streamed papers (and the final clustering) depend only on the
    seed and the run length."""
    return max(MIN_BURSTS, round(BURSTS_PER_SECOND * seconds))


def stream_arrival(
    run: Run,
    corpus_overrides: dict[str, Any] | None = None,
    burst_size: int = BURST_SIZE,
) -> None:
    from repro.core import IUADConfig, ShardedIUAD, StreamingIngestor
    from repro.data.synthetic import SyntheticConfig, SyntheticDBLP
    from repro.service import FittedView

    n_bursts = stream_bursts(run.seconds)
    config = SyntheticConfig(
        seed=common.WORLD_SEED, **(corpus_overrides or {})
    )
    iuad_config = IUADConfig(
        n_workers=0, checkpoint_mode="delta", compact_every_n_deltas=0,
    )
    setups, base_fps = [], []
    corpus = recent = ingestor = base_path = None
    for rep in range(N_SETUPS):
        corpus = recent = ingestor = None
        gc.collect()
        base_path = run.work_dir / f"stream-{rep}" / "base.jsonl"
        base_path.parent.mkdir()
        t0 = time.perf_counter()
        corpus = SyntheticDBLP(config).generate()
        base, recent = common.split_most_recent(
            corpus, n_bursts * burst_size, run.seed
        )
        estimator = ShardedIUAD(iuad_config).fit(base)
        ingestor = StreamingIngestor(estimator, checkpoint_path=base_path)
        ingestor.checkpoint(mode="delta")  # the chain's base
        setups.append(time.perf_counter() - t0)
        base_fps.append(FittedView.of(estimator).fingerprint)
    record_setups(run, setups)
    run.check("base_fits_identical", len(set(base_fps)) == 1)
    run.info["input_digest"] = common.corpus_digest(recent)

    latencies: list[float] = []
    n_streamed = 0
    t_loop = time.perf_counter()
    for i in range(0, len(recent), burst_size):
        burst = recent[i: i + burst_size]
        t0 = time.perf_counter()
        ok, _ = run.op("burst", ingestor.add_papers, burst)
        if ok:
            latencies.append(time.perf_counter() - t0)
            n_streamed += len(burst)
        run.op("checkpoint", ingestor.checkpoint)
    loop_s = time.perf_counter() - t_loop
    run.metric("ingest_papers_per_s", n_streamed / loop_s, n=n_streamed)
    run.metric("burst_p50_ms", median(latencies) * 1000, n=len(latencies))
    run.metric("burst_p90_ms", *tail_metric(latencies, 0.90, 1000))
    run.info["stream"] = {
        "bursts": n_bursts, "burst_size": burst_size,
        "base_papers": len(corpus) - len(recent), "loop_s": loop_s,
        "delta_chain_length": ingestor.delta_chain_length,
    }

    live_fp = FittedView.of(ingestor.iuad).fingerprint
    t0 = time.perf_counter()
    ok, resumed = run.op("resume", StreamingIngestor.resume, base_path)
    if ok:
        run.metric("resume_s", time.perf_counter() - t0, n=1)
    run.check(
        "resume_matches_live",
        ok and FittedView.of(resumed.iuad).fingerprint == live_fp,
    )
    resumed = None
    run.metric("micro_f1", *common.micro_f1(
        corpus, ingestor.iuad.mention_clusters_of_name
    ))


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #
def run_workload(
    workload: str, seed: int, seconds: float, trace: bool,
    sizes: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one workload in this process; the result document."""
    common.use_source_tree()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    probe_start = common.host_probe_ms()
    run = Run(workload, seed, seconds)
    t0 = time.perf_counter()
    try:
        if workload == "fit-scalefree":
            fit_scalefree(run, **(sizes or {}))
        elif workload == "stream-arrival":
            stream_arrival(run, **(sizes or {}))
        elif workload == "serve-mixed":
            import serve_mixed

            serve_mixed.serve_mixed(run, tracer is not None, **(sizes or {}))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        wall_s = time.perf_counter() - t0
        # Peak of this process; serve-mixed reports the server's instead.
        if "peak_rss_mb" not in run.metrics:
            run.metric("peak_rss_mb", common.peak_rss_mb())
    finally:
        shutil.rmtree(run.work_dir, ignore_errors=True)
    result = run.finish(wall_s)
    result["host_probe_ms"] = {
        "start": probe_start, "end": common.host_probe_ms(),
    }
    if tracer is not None:
        report = tracer.report()
        server = run.info.pop("server_trace", None)
        if server is not None:
            report = tracing.merge_reports(report, server)
        result["trace"] = report
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", default=None,
                        help="JSON keyword overrides of the workload's "
                             "input sizes (self-tests shrink the inputs)")
    args = parser.parse_args(argv)
    sizes = json.loads(args.sizes) if args.sizes else None
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
