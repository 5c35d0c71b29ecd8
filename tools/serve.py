#!/usr/bin/env python3
"""Serve a fitted disambiguation snapshot over async HTTP.

Warm-starts from a durable ``repro.io`` snapshot and exposes the
reader/writer-split service (:mod:`repro.service`)::

    python tools/serve.py --snapshot fitted.jsonl --port 8080

    curl 'http://127.0.0.1:8080/healthz'
    curl 'http://127.0.0.1:8080/who-is?name=X%20Y&pid=4&position=0'
    curl 'http://127.0.0.1:8080/resolve?name=X%20Y&pid=4'
    curl -X POST 'http://127.0.0.1:8080/ingest' \\
         -d '{"papers": [{"pid": 99, "authors": ["X Y"], \\
              "title": "new paper", "venue": "VLDB", "year": 2024}]}'

Reads are answered from an immutable :class:`~repro.service.FittedView`
inside the event loop; ingest bursts run in a writer thread and publish
a fresh view via one atomic swap — readers never block on ingest.  With
``--port 0`` an ephemeral port is chosen and announced on stdout as::

    SERVING http://127.0.0.1:<port> generation=0 papers=<n>

which the load harness (``benchmarks/_serving_driver.py``) parses.
``--checkpoint`` enables durable checkpoints (``POST /checkpoint`` and,
when the snapshot's config sets ``checkpoint_every_n_papers``, automatic
post-burst checkpoints) — taken between bursts, never mid-burst.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import StreamingIngestor  # noqa: E402 (path setup above)
from repro.io import snapshot_header  # noqa: E402
from repro.service import Engine, ServiceServer  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serve.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--snapshot", required=True,
        help="durable snapshot to warm-start from (jsonl or sqlite)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 = ephemeral; the chosen port is announced)",
    )
    from repro.io import ADAPTER_NAMES

    parser.add_argument(
        "--backend", choices=ADAPTER_NAMES, default=None,
        help="force the snapshot adapter (default: sniffed)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="max queued ingest requests coalesced into one burst",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="enable durable checkpoints to PATH (between bursts only)",
    )
    parser.add_argument(
        "--checkpoint-mode", choices=("full", "delta"), default=None,
        help="override the snapshot config's checkpoint_mode: full "
             "rewrites the snapshot, delta appends O(burst) records to "
             "PATH.delta (see repro.io.delta)",
    )
    parser.add_argument(
        "--switch-interval", type=float, default=0.001,
        help="sys.setswitchinterval for the process (bounds how long the "
             "GIL-holding writer thread can stall an event-loop read)",
    )
    return parser


async def run(args: argparse.Namespace) -> int:
    ingestor = StreamingIngestor.resume(
        args.snapshot,
        backend=args.backend,
        checkpoint_path=args.checkpoint,
    )
    if args.checkpoint is None:
        # resume() points auto-checkpoints back at the source snapshot;
        # a serve-only process must never overwrite its warm-start file.
        ingestor.checkpoint_path = None
    if args.checkpoint_mode is not None:
        ingestor.set_checkpoint_mode(args.checkpoint_mode)
    engine = Engine(ingestor, max_batch=args.max_batch)
    await engine.start()
    server = ServiceServer(engine, host=args.host, port=args.port)
    await server.start()
    view = engine.view
    print(
        f"SERVING {server.url} generation={view.generation} "
        f"papers={view.n_papers}",
        flush=True,
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("shutting down (draining the ingest queue)", flush=True)
    await server.stop()
    await engine.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Validate the header before the (much more expensive) full decode:
    # a corrupt snapshot is a one-line error and exit 2, not a traceback.
    try:
        header = snapshot_header(args.snapshot, backend=args.backend)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(
        f"warm-starting from {header['path']} "
        f"({header['adapter']}, schema v{header['version']}, "
        f"{header['n_papers']} papers, {header['n_vertices']} vertices)",
        flush=True,
    )
    sys.setswitchinterval(args.switch_interval)
    try:
        return asyncio.run(run(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
