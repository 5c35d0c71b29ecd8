"""``serve-mixed``: an open loop against a ``tools/serve.py`` subprocess.

Set-up fits a base corpus in this process, writes its snapshot and
launches the server, which warm-starts from it.  One asyncio client then
sends, over two keep-alive connections and with no thread per request:

* reads at a fixed rate on one connection — ``who-is``, ``resolve`` and
  ``cluster-of`` over names drawn with probability proportional to their
  paper count (the corpus's Zipf popularity);
* single-paper ``POST /ingest`` (``wait=true``) of shuffled held-out
  papers at a fixed rate on the other, with a delta ``POST /checkpoint``
  after every ``CHECKPOINT_EVERY`` ingests.

Every request has a due time on a fixed schedule.  Its latency runs from
when it was due, so a stall also delays the requests queued behind it;
how late each was actually sent is recorded too.  After the loop the
server's ``/clusters`` must equal a serial in-process replay of the
accepted ingests on the same snapshot.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from urllib.parse import quote

import common
from common import median, tail_metric

READ_RATE = 60.0     # reads per second
INGEST_RATE = 5.0    # single-paper ingests per second
MIN_INGESTS = 100    # p90 of the ingest latencies keeps 10 samples beyond
CHECKPOINT_EVERY = 20
READ_MIX = (("who-is", 0.4), ("resolve", 0.4), ("cluster-of", 0.2))
REQUEST_TIMEOUT_S = 30.0
SERVER_START_TIMEOUT_S = 90.0
#: Corpus size: smaller than the default world, so that three full
#: set-ups (generate, fit, snapshot, warm start) and the loop fit in a run.
SERVE_PAPERS = 3000
START_LEAD_S = 0.25


@dataclass(slots=True)
class Sample:
    route: str
    due: float
    sent: float
    done: float
    error: str | None


# --------------------------------------------------------------------- #
# server process
# --------------------------------------------------------------------- #
class Server:
    """The server under test, on an ephemeral port."""

    def __init__(self, snapshot: Path, log: Path, trace_out: Path | None):
        serve_args = [
            "--snapshot", str(snapshot), "--port", "0",
            "--checkpoint", str(snapshot), "--checkpoint-mode", "delta",
        ]
        if trace_out is None:
            cmd = [sys.executable, str(common.SERVE_TOOL), *serve_args]
        else:
            cmd = [
                sys.executable, str(common.BENCH_DIR / "serve_launcher.py"),
                "--trace-out", str(trace_out), "--", *serve_args,
            ]
        self.log = log
        self._log_file = open(log, "w", encoding="utf-8")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=self._log_file, stderr=subprocess.STDOUT,
            cwd=common.ROOT,
        )
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self) -> float:
        """Seconds from launch until ``/healthz`` answered ok."""
        deadline = self.launched + SERVER_START_TIMEOUT_S
        while self.port == 0:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.tail()}")
            for line in self.log.read_text(encoding="utf-8").splitlines():
                if line.startswith("SERVING "):
                    self.port = int(line.split()[1].rsplit(":", 1)[1])
            if time.perf_counter() > deadline:
                raise TimeoutError("server never announced SERVING")
            time.sleep(0.01)
        while True:
            try:
                status, payload = self.get("/healthz")
                if status == 200 and payload.get("status") == "ok":
                    return time.perf_counter() - self.launched
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise TimeoutError("/healthz never turned ok")
            time.sleep(0.01)

    def get(self, path: str) -> tuple[int, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return common.vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), SIGKILL if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=10)
        finally:
            self._log_file.close()

    def tail(self) -> str:
        return self.log.read_text(encoding="utf-8")[-2000:]


# --------------------------------------------------------------------- #
# the open-loop client
# --------------------------------------------------------------------- #
async def http_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    target: str,
    body: Any = None,
) -> tuple[int, bytes]:
    """One HTTP/1.1 exchange on a keep-alive connection."""
    data = json.dumps(body).encode() if body is not None else b""
    writer.write(
        f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n\r\n".encode("latin-1") + data
    )
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def open_loop(
    host: str, port: int, plans: list[list[tuple]],
) -> list[Sample]:
    """Send each plan on its own connection; every request on time."""
    loop = asyncio.get_running_loop()
    start = loop.time() + START_LEAD_S
    samples: list[Sample] = []

    async def sender(plan: list[tuple]) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for offset, route, method, target, body in plan:
                due = start + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = loop.time()
                error = None
                try:
                    status, payload = await asyncio.wait_for(
                        http_request(reader, writer, method, target, body),
                        REQUEST_TIMEOUT_S,
                    )
                    if not 200 <= status < 300:
                        error = f"HTTP {status}: {payload[:300]!r}"
                except (OSError, ValueError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    writer.close()
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                samples.append(Sample(
                    route, due - start, sent - start, loop.time() - start,
                    error,
                ))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    await asyncio.gather(*(sender(plan) for plan in plans))
    return samples


def read_plan(base, n_reads: int, rate: float, seed: int) -> list[tuple]:
    """Reads over base names drawn by paper count (Zipf popularity)."""
    rng = random.Random(seed)
    names = sorted(base.names)
    weights = [len(base.papers_of_name(n)) for n in names]
    routes = [route for route, _ in READ_MIX]
    mix = [share for _, share in READ_MIX]
    plan = []
    for i, name in enumerate(rng.choices(names, weights, k=n_reads)):
        route = rng.choices(routes, mix)[0]
        pid = rng.choice(base.papers_of_name(name))
        if route == "who-is":
            position = rng.choice(base[pid].positions_of(name))
            target = (f"/who-is?name={quote(name)}&pid={pid}"
                      f"&position={position}")
        elif route == "resolve":
            target = f"/resolve?name={quote(name)}&pid={pid}"
        else:
            target = f"/cluster-of?name={quote(name)}"
        plan.append((i / rate, route, "GET", target, None))
    return plan


def write_plan(held: list, rate: float) -> list[tuple]:
    from repro.io.schema import encode_paper

    plan = []
    for i, paper in enumerate(held):
        offset = (i + 0.5) / rate
        plan.append((offset, "ingest", "POST", "/ingest",
                     {"papers": [encode_paper(paper)], "wait": True}))
        if (i + 1) % CHECKPOINT_EVERY == 0:
            plan.append((offset, "checkpoint", "POST", "/checkpoint",
                         {"mode": "delta"}))
    return plan


# --------------------------------------------------------------------- #
# output check
# --------------------------------------------------------------------- #
def canonical_clusters(dump: dict) -> dict[str, dict[int, tuple]]:
    """``/clusters`` payload (or ``FittedView.as_clusters_dict``) in a
    comparable form: name -> vid -> sorted mention tuples."""
    return {
        name: {
            int(vid): tuple(sorted(map(tuple, mentions)))
            for vid, mentions in vid_map.items()
        }
        for name, vid_map in dump.items()
    }


def serial_replay(snapshot: Path, papers: list) -> dict:
    """The same snapshot, restored here, fed the accepted ingests one
    ``add_paper`` at a time."""
    from repro.core import IncrementalDisambiguator
    from repro.io import Snapshot
    from repro.service import FittedView

    estimator = Snapshot.load(snapshot).restore()
    stream = IncrementalDisambiguator(estimator)
    for paper in papers:
        stream.add_paper(paper)
    return canonical_clusters(FittedView.of(estimator).as_clusters_dict())


def clusters_match(served: dict, replayed: dict) -> bool:
    return canonical_clusters(served) == replayed


# --------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------- #
def serve_mixed(
    run,
    traced: bool = False,
    n_papers: int = SERVE_PAPERS,
    read_rate: float = READ_RATE,
    ingest_rate: float = INGEST_RATE,
) -> None:
    from repro.core import IUAD, IUADConfig
    from repro.data.synthetic import SyntheticDBLP
    from repro.service import FittedView

    n_ingests = max(MIN_INGESTS, round(ingest_rate * run.seconds))
    phase_s = n_ingests / ingest_rate
    config = common.scalefree_config(common.WORLD_SEED, n_papers)
    iuad_config = IUADConfig(checkpoint_mode="delta", compact_every_n_deltas=0)
    setups, warm_starts, base_fps = [], [], []
    server = None
    try:
        # Three full set-ups; the last one's server takes the load.
        for rep in range(common.N_SETUPS):
            if server is not None:
                server.stop()
            server = corpus = base = held = None
            gc.collect()
            work = run.work_dir / f"serve-{rep}"
            work.mkdir()
            snapshot = work / "base.jsonl"
            last = rep == common.N_SETUPS - 1
            t0 = time.perf_counter()
            corpus = SyntheticDBLP(config).generate()
            base, held = common.split_held_out(corpus, n_ingests, run.seed)
            estimator = IUAD(iuad_config).fit(base)
            estimator.save(snapshot)
            server = Server(
                snapshot, work / "server.log",
                work / "server-trace.json" if traced and last else None,
            )
            warm_starts.append(server.wait_ready())
            setups.append(time.perf_counter() - t0)
            base_fps.append(FittedView.of(estimator).fingerprint)
            estimator = None
        common.record_setups(run, setups)
        run.check("base_fits_identical", len(set(base_fps)) == 1)
        run.info["input_digest"] = common.corpus_digest(held)
        run.info["warm_start_s"] = median(warm_starts)
        run.info["warm_start_samples_s"] = warm_starts

        plans = [
            read_plan(base, round(read_rate * phase_s), read_rate, run.seed),
            write_plan(held, ingest_rate),
        ]
        samples = asyncio.run(open_loop(server.host, server.port, plans))
        ok_dump, dump = run.op("clusters", _get_ok, server, "/clusters")
        run.metric("peak_rss_mb", server.peak_rss_mb())
    finally:
        if server is not None:
            server.stop()
    if traced:
        run.info["server_trace"] = json.loads(
            (work / "server-trace.json").read_text()
        )
    run.attempted += len(samples)
    for sample in samples:
        if sample.error is not None:
            run.fail(sample.route, sample.error)
    _record_latencies(run, samples, read_rate, ingest_rate, phase_s)

    ingests = [s for s in samples if s.route == "ingest"]
    accepted = [
        paper for paper, sample in zip(held, ingests) if sample.error is None
    ]
    run.info["ingests_accepted"] = len(accepted)
    if not ok_dump:
        run.check("clusters_match_serial_replay", False)
        return
    served = dump["clusters"]
    run.check("clusters_match_serial_replay", clusters_match(
        served, serial_replay(snapshot, accepted)
    ))
    run.metric("micro_f1", *common.micro_f1(corpus, lambda name: {
        vid: {tuple(m) for m in mentions}
        for vid, mentions in served.get(name, {}).items()
    }))


def _get_ok(server: Server, path: str) -> Any:
    status, payload = server.get(path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return payload


def _record_latencies(run, samples, read_rate, ingest_rate, phase_s):
    ok = [s for s in samples if s.error is None]
    reads = [s.done - s.due for s in ok if s.route in dict(READ_MIX)]
    ingests = [s.done - s.due for s in ok if s.route == "ingest"]
    run.metric("read_p50_ms", median(reads) * 1000, n=len(reads))
    run.metric("read_p99_ms", *tail_metric(reads, 0.99, 1000))
    run.metric("ingest_visible_p50_ms", median(ingests) * 1000,
               n=len(ingests))
    run.metric("ingest_visible_p90_ms", *tail_metric(ingests, 0.90, 1000))
    routes = sorted({s.route for s in ok})
    run.info["route_p50_ms"] = {
        route: median([s.done - s.due for s in ok if s.route == route])
        * 1000
        for route in routes
    }
    run.info["route_counts"] = {
        route: sum(1 for s in samples if s.route == route)
        for route in routes
    }
    late = {}
    for side, kinds in (("reads", dict(READ_MIX)),
                        ("writes", ("ingest", "checkpoint"))):
        lags = [s.sent - s.due for s in samples if s.route in kinds]
        late[side] = {
            "p50_ms": median(lags) * 1000,
            "p90_ms": common.percentile(lags, 0.90) * 1000,
            "max_ms": max(lags) * 1000,
        }
    run.info["generator_late"] = late
    run.info["load"] = {
        "loop": "open", "connections": 2, "phase_s": phase_s,
        "read_rate_per_s": read_rate, "ingest_rate_per_s": ingest_rate,
        "read_mix": dict(READ_MIX), "checkpoint_every": CHECKPOINT_EVERY,
    }
