"""Load-generation harness for the disambiguation service.

Drives a ``tools/serve.py`` **subprocess** (own interpreter, own GIL —
the measurement is honest about process isolation) with a mixed
read/ingest workload:

1. **Server** — started on an ephemeral port, warm-started from a
   snapshot; readiness is the ``SERVING <url> ...`` stdout line plus a
   ``/healthz`` poll.
2. **Idle read phase** — N concurrent reader threads hammer
   ``GET /who-is`` / ``GET /resolve`` over keep-alive connections
   against the quiet server; per-request latencies are the idle
   baseline.
3. **Loaded read phase** — the same readers run again while one ingest
   client streams papers in fixed-order bursts (``POST /ingest`` with
   ``wait=true``, so the stream is continuous and backpressured).  The
   acceptance claim lives here: read p99 must stay within 5× the idle
   p99, because reads only ever touch the immutable published view.
4. **Parity** — after the load, ``GET /clusters`` dumps the server's
   clustering, which must match a *serial* one-mention-at-a-time
   oracle replay (``sequential_add_paper``) of the same ingest sequence on a local restore of the same
   snapshot, exactly (vids included).

Used by ``benchmarks/test_serving.py`` (which owns quick/full mode and
the ``BENCH_serving.json`` record) and runnable standalone::

    PYTHONPATH=src python benchmarks/_serving_driver.py \\
        tests/fixtures/snapshot_v1.jsonl
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence
from urllib.parse import quote

REPO_ROOT = Path(__file__).resolve().parents[1]
SERVE = REPO_ROOT / "tools" / "serve.py"


# --------------------------------------------------------------------- #
# server subprocess
# --------------------------------------------------------------------- #
class ServerProcess:
    """A ``tools/serve.py`` child on an ephemeral port."""

    def __init__(self, snapshot: str | Path, extra_args: Sequence[str] = ()):
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVE), "--snapshot", str(snapshot),
             "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.url: str | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> str:
        """Block until the SERVING line appears and /healthz answers."""
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited early (rc={self.proc.poll()})"
                )
            if line.startswith("SERVING "):
                self.url = line.split()[1]
                break
        if self.url is None:
            raise TimeoutError("server never announced SERVING")
        _scheme, _, hostport = self.url.partition("://")
        self.host, _, port = hostport.partition(":")
        self.port = int(port)
        while time.monotonic() < deadline:
            try:
                status, payload = self.get("/healthz")
            except OSError:
                time.sleep(0.05)
                continue
            if status == 200 and payload.get("status") == "ok":
                return self.url
            time.sleep(0.05)
        raise TimeoutError("/healthz never turned ok")

    def get(self, path: str) -> tuple[int, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def post(self, path: str, payload: Any) -> tuple[int, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(
                "POST", path, body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def stop(self) -> str:
        """Terminate and return the child's remaining output (for debug)."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        out = self.proc.stdout.read() if self.proc.stdout else ""
        return out or ""


# --------------------------------------------------------------------- #
# client threads
# --------------------------------------------------------------------- #
@dataclass(slots=True)
class ReadStats:
    latencies: list[float] = field(default_factory=list)
    n_errors: int = 0
    n_not_found: int = 0


def _read_worker(
    host: str,
    port: int,
    mentions: Sequence[tuple[str, int, int]],
    stop: threading.Event,
    stats: ReadStats,
    seed: int,
) -> None:
    """One reader: alternating who-is / resolve over a keep-alive conn."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    i = seed
    latencies: list[float] = []
    try:
        while not stop.is_set():
            name, pid, position = mentions[i % len(mentions)]
            if i % 2 == 0:
                path = (
                    f"/who-is?name={quote(name)}&pid={pid}"
                    f"&position={position}"
                )
            else:
                path = f"/resolve?name={quote(name)}&pid={pid}"
            i += 1
            t0 = time.perf_counter()
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException):
                stats.n_errors += 1
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
                continue
            latencies.append(time.perf_counter() - t0)
            if response.status == 404:
                stats.n_not_found += 1
            elif response.status != 200 or not body:
                stats.n_errors += 1
    finally:
        conn.close()
        stats.latencies.extend(latencies)


def run_read_phase(
    server: ServerProcess,
    mentions: Sequence[tuple[str, int, int]],
    n_clients: int,
    duration: float,
) -> tuple[ReadStats, float]:
    """Run N readers for ``duration`` seconds; returns stats + wall."""
    stop = threading.Event()
    stats = ReadStats()
    threads = [
        threading.Thread(
            target=_read_worker,
            args=(server.host, server.port, mentions, stop, stats, k * 7919),
            daemon=True,
        )
        for k in range(n_clients)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    return stats, time.perf_counter() - t0


@dataclass(slots=True)
class IngestStats:
    burst_latencies: list[float] = field(default_factory=list)
    n_papers: int = 0
    n_errors: int = 0
    wall_seconds: float = 0.0


def _ingest_worker(
    server: ServerProcess,
    papers: Sequence[dict],
    burst_size: int,
    stats: IngestStats,
    done: threading.Event,
    pacing: float = 0.0,
) -> None:
    """The single writer client: fixed-order bursts, wait=true each.

    ``pacing`` seconds of think time between bursts spreads the stream
    over the whole measurement window — the "continuous ingest" regime —
    instead of front-loading every burst into the first instants.

    One client, sequential posts — the ingest sequence observed by the
    server is exactly ``papers`` in order, which is what the parity
    replay reproduces serially.
    """
    t0 = time.perf_counter()
    try:
        for start in range(0, len(papers), burst_size):
            burst = list(papers[start: start + burst_size])
            t1 = time.perf_counter()
            try:
                status, _payload = server.post(
                    "/ingest", {"papers": burst, "wait": True}
                )
            except (OSError, http.client.HTTPException):
                stats.n_errors += 1
                continue
            stats.burst_latencies.append(time.perf_counter() - t1)
            if status == 200:
                stats.n_papers += len(burst)
            else:
                stats.n_errors += 1
            if pacing and start + burst_size < len(papers):
                time.sleep(pacing)
    finally:
        stats.wall_seconds = time.perf_counter() - t0
        done.set()


def run_load_phase(
    server: ServerProcess,
    mentions: Sequence[tuple[str, int, int]],
    papers: Sequence[dict],
    n_clients: int,
    burst_size: int,
    min_duration: float = 0.0,
    pacing: float = 0.0,
) -> tuple[ReadStats, IngestStats, float]:
    """Readers + the continuous ingest stream, concurrently.

    Readers run until the whole ingest sequence is applied (and at least
    ``min_duration`` seconds); ``pacing`` spreads the bursts across the
    window so the read samples overlap an *active* writer — bursts
    applying, views swapping — for the whole phase, not just its start.
    """
    stop = threading.Event()
    read_stats = ReadStats()
    ingest_stats = IngestStats()
    ingest_done = threading.Event()
    readers = [
        threading.Thread(
            target=_read_worker,
            args=(server.host, server.port, mentions, stop, read_stats,
                  k * 104729),
            daemon=True,
        )
        for k in range(n_clients)
    ]
    writer = threading.Thread(
        target=_ingest_worker,
        args=(server, papers, burst_size, ingest_stats, ingest_done,
              pacing),
        daemon=True,
    )
    t0 = time.perf_counter()
    for thread in readers:
        thread.start()
    writer.start()
    ingest_done.wait(timeout=600)
    remaining = min_duration - (time.perf_counter() - t0)
    if remaining > 0:
        time.sleep(remaining)
    stop.set()
    writer.join(timeout=30)
    for thread in readers:
        thread.join(timeout=30)
    return read_stats, ingest_stats, time.perf_counter() - t0


# --------------------------------------------------------------------- #
# parity
# --------------------------------------------------------------------- #
def canonical_clusters(dump: dict) -> dict[str, dict[int, tuple]]:
    """Server ``/clusters`` payload -> comparable canonical form."""
    return {
        name: {
            int(vid): tuple(sorted(map(tuple, mentions)))
            for vid, mentions in vid_map.items()
        }
        for name, vid_map in dump.items()
    }


def serial_replay_clusters(
    snapshot_path: str | Path, papers: Sequence[dict]
) -> dict[str, dict[int, tuple]]:
    """Restore the snapshot locally and replay the ingest serially.

    Uses the per-mention oracle ``sequential_add_paper`` — the
    reference the ``add_papers`` parity contract is stated against — so
    an exact match proves the server's burst coalescing changed nothing.
    """
    from repro.core import StreamingIngestor
    from repro.core.incremental import sequential_add_paper
    from repro.io import Snapshot
    from repro.io.schema import decode_paper
    from repro.service import FittedView

    estimator = Snapshot.load(snapshot_path).restore()
    stream = StreamingIngestor(estimator)
    for record in papers:
        sequential_add_paper(stream, decode_paper(record))
    view = FittedView.of(estimator)
    return canonical_clusters(view.as_clusters_dict())


# --------------------------------------------------------------------- #
# one full run
# --------------------------------------------------------------------- #
def drive(
    snapshot_path: str | Path,
    mentions: Sequence[tuple[str, int, int]],
    papers: Sequence[dict],
    *,
    n_clients: int = 4,
    burst_size: int = 10,
    idle_duration: float = 3.0,
    min_load_duration: float = 0.0,
    pacing: float = 0.0,
    server_args: Sequence[str] = (),
) -> dict[str, Any]:
    """Full protocol: start, idle phase, loaded phase, parity, stop."""
    server = ServerProcess(snapshot_path, extra_args=server_args)
    try:
        server.wait_ready()
        status, health = server.get("/healthz")
        assert status == 200 and health["status"] == "ok", health

        idle_stats, idle_wall = run_read_phase(
            server, mentions, n_clients, idle_duration
        )
        swaps_before = server.get("/stats")[1]["n_swaps"]
        read_stats, ingest_stats, load_wall = run_load_phase(
            server, mentions, papers, n_clients, burst_size,
            min_duration=min_load_duration, pacing=pacing,
        )
        stats = server.get("/stats")[1]
        dump_status, dump = server.get("/clusters")
        assert dump_status == 200
        server_clusters = canonical_clusters(dump["clusters"])
        return {
            "idle_reads": idle_stats,
            "idle_wall": idle_wall,
            "loaded_reads": read_stats,
            "ingest": ingest_stats,
            "load_wall": load_wall,
            "n_swaps": stats["n_swaps"] - swaps_before,
            "server_stats": stats,
            "server_clusters": server_clusters,
            "final_generation": dump["generation"],
        }
    finally:
        tail = server.stop()
        if tail.strip():
            print(f"--- server output ---\n{tail}", file=sys.stderr)


def _main(argv: Sequence[str]) -> int:
    """Standalone smoke run against a snapshot (fixture by default)."""
    from repro.io import Snapshot

    snapshot_path = Path(
        argv[0] if argv
        else REPO_ROOT / "tests" / "fixtures" / "snapshot_v1.jsonl"
    )
    snapshot = Snapshot.load(snapshot_path)
    mentions = [
        (vertex.name, pid, position)
        for vertex in snapshot.gcn
        for pid, position in vertex.mentions.items()
    ]
    papers = [
        {"pid": 9000 + i, "authors": ["X Y", "P A"],
         "title": f"probe paper {i}", "venue": "VLDB", "year": 2010 + i}
        for i in range(20)
    ]
    results = drive(
        snapshot_path, mentions, papers,
        n_clients=2, burst_size=5, idle_duration=1.0,
    )
    replay = serial_replay_clusters(snapshot_path, papers)
    parity = results["server_clusters"] == replay
    print(
        json.dumps(
            {
                "n_idle_reads": len(results["idle_reads"].latencies),
                "n_loaded_reads": len(results["loaded_reads"].latencies),
                "read_errors": results["loaded_reads"].n_errors,
                "n_swaps": results["n_swaps"],
                "papers_ingested": results["ingest"].n_papers,
                "parity": parity,
            },
            indent=2,
        )
    )
    return 0 if parity and not results["loaded_reads"].n_errors else 1


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(_main(sys.argv[1:]))
