"""Engine — one writer, many readers, atomic view swaps.

The coordinator of the serving layer's reader/writer split:

* **Reads** come from :attr:`Engine.view`, the current immutable
  :class:`~repro.service.view.FittedView`.  Reading the attribute is a
  single reference load — readers never wait on the writer, no matter
  how long a burst takes.

* **Writes** go through one asyncio queue into ONE
  :class:`~repro.core.streaming.StreamingIngestor`.  A single worker
  task drains the queue, coalesces queued ingest requests into
  ``add_papers`` bursts (run in a worker thread so the event loop keeps
  serving reads), then publishes a freshly projected view with a single
  atomic reference swap.  The generation counter bumps once per swap and
  the swap timestamp rides on the view, so staleness-aware clients can
  see exactly how old their answers are.

* **Checkpoints** ride the same queue: a checkpoint request enqueued
  between ingest requests flushes everything enqueued before it as a
  burst first, then snapshots — so the durable state is always a
  consistent post-burst state even while later requests keep queueing
  (the :meth:`StreamingIngestor.checkpoint
  <repro.core.streaming.StreamingIngestor.checkpoint>` writer lock backs
  the same guarantee for out-of-band callers).

Ordering contract: requests are applied in enqueue order, and the
parity contract of ``add_papers`` guarantees the resulting clustering is
identical to a serial one-paper-at-a-time replay of the accepted
requests — burst boundaries (which depend on queue timing) can never
change the outcome.  A request rejected by ``duplicate_paper_policy=
"raise"`` fails alone; the requests coalesced with it still apply.  The
load harness (``benchmarks/test_serving.py``) asserts the parity against
a live server.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from ..core.streaming import StreamingIngestor
from ..data.records import Paper
from .view import FittedView


@dataclass(slots=True)
class IngestResult:
    """What one ingest request observed once its burst was published."""

    generation: int  #: generation of the view carrying these papers
    n_papers: int
    n_attached: int
    n_created: int
    n_duplicates: int
    #: per input paper: one (vid, created) pair per co-author position
    assignments: list[list[tuple[int, bool]]]


@dataclass(slots=True)
class _IngestRequest:
    papers: tuple[Paper, ...]
    future: asyncio.Future


@dataclass(slots=True)
class _CheckpointRequest:
    path: Path | None
    backend: str | None
    mode: str | None
    future: asyncio.Future


_STOP = object()


@dataclass(slots=True)
class EngineStats:
    """Flat counters for ``GET /stats`` and the load harness."""

    generation: int
    swapped_at: float
    n_swaps: int
    n_requests: int
    n_papers_ingested: int
    n_checkpoints: int
    delta_chain_length: int
    queue_depth: int
    n_papers: int
    n_vertices: int
    n_mentions: int
    uptime_seconds: float
    last_burst_seconds: float
    last_publish_seconds: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "swapped_at": self.swapped_at,
            "n_swaps": self.n_swaps,
            "n_requests": self.n_requests,
            "n_papers_ingested": self.n_papers_ingested,
            "n_checkpoints": self.n_checkpoints,
            "delta_chain_length": self.delta_chain_length,
            "queue_depth": self.queue_depth,
            "n_papers": self.n_papers,
            "n_vertices": self.n_vertices,
            "n_mentions": self.n_mentions,
            "uptime_seconds": round(self.uptime_seconds, 3),
            "last_burst_seconds": round(self.last_burst_seconds, 6),
            "last_publish_seconds": round(self.last_publish_seconds, 6),
        }


class Engine:
    """Owns the single writer and publishes immutable views to readers.

    ``max_batch`` caps how many queued ingest requests one burst
    coalesces — larger bursts amortise the vectorised snapshot scoring
    better but delay the next swap.  ``record_bursts=True`` keeps the
    pid list of every published burst (tests replay them serially to
    pin that every published generation matched a serial fit).
    """

    def __init__(
        self,
        ingestor: StreamingIngestor,
        max_batch: int = 64,
        record_bursts: bool = False,
    ) -> None:
        self.ingestor = ingestor
        self.max_batch = max_batch
        self._view = FittedView.of(ingestor.iuad, generation=0)
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self.n_swaps = 0
        self.n_requests = 0
        self.n_papers_ingested = 0
        self.n_checkpoints = 0
        self.started_at = time.time()
        self.last_burst_seconds = 0.0
        self.last_publish_seconds = 0.0
        self.burst_log: list[list[int]] | None = [] if record_bursts else None

    # ------------------------------------------------------------------ #
    # reader side
    # ------------------------------------------------------------------ #
    @property
    def view(self) -> FittedView:
        """The current immutable view — one atomic reference read."""
        return self._view

    def stats(self) -> EngineStats:
        view = self._view
        return EngineStats(
            generation=view.generation,
            swapped_at=view.swapped_at,
            n_swaps=self.n_swaps,
            n_requests=self.n_requests,
            n_papers_ingested=self.n_papers_ingested,
            n_checkpoints=self.n_checkpoints,
            delta_chain_length=self.ingestor.delta_chain_length,
            queue_depth=self._queue.qsize() if self._queue else 0,
            n_papers=view.n_papers,
            n_vertices=view.n_vertices,
            n_mentions=view.n_mentions,
            uptime_seconds=time.time() - self.started_at,
            last_burst_seconds=self.last_burst_seconds,
            last_publish_seconds=self.last_publish_seconds,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "Engine":
        if self._worker is not None:
            raise RuntimeError("engine already started")
        self._queue = asyncio.Queue()
        self._worker = asyncio.create_task(self._run(), name="engine-writer")
        return self

    async def stop(self) -> None:
        """Drain everything already enqueued, then stop the worker."""
        if self._queue is None or self._worker is None:
            return
        await self._queue.put(_STOP)
        await self._worker
        self._worker = None

    async def __aenter__(self) -> "Engine":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # writer side
    # ------------------------------------------------------------------ #
    async def ingest(
        self, papers: Sequence[Paper], wait: bool = True
    ) -> IngestResult | asyncio.Future:
        """Enqueue papers for the writer; optionally await publication.

        With ``wait=True`` returns the :class:`IngestResult` once the
        burst carrying these papers has been applied *and its view
        published* — the caller's next read is guaranteed to see them.
        With ``wait=False`` returns the pending future immediately.
        """
        if self._queue is None:
            raise RuntimeError("engine not started")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put(_IngestRequest(tuple(papers), future))
        self.n_requests += 1
        if wait:
            return await future
        return future

    async def checkpoint(
        self,
        path: str | Path | None = None,
        backend: str | None = None,
        mode: str | None = None,
    ) -> Path:
        """Enqueue a checkpoint; resolves once it is durably on disk.

        Serialized with bursts by the queue: everything enqueued before
        this call is applied and published first, so the snapshot always
        captures a consistent post-burst state even while later ingest
        requests keep queueing behind it.  ``mode`` picks full vs delta
        (see :meth:`repro.core.streaming.StreamingIngestor.checkpoint`);
        ``None`` follows ``config.checkpoint_mode``.
        """
        if self._queue is None:
            raise RuntimeError("engine not started")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put(
            _CheckpointRequest(
                Path(path) if path is not None else None, backend, mode,
                future,
            )
        )
        return await future

    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        assert self._queue is not None
        stopping = False
        while not stopping:
            item = await self._queue.get()
            drained: list[Any] = []
            while True:
                if item is _STOP:
                    stopping = True
                    break
                drained.append(item)
                if (
                    len(drained) >= self.max_batch
                    or self._queue.empty()
                ):
                    break
                item = self._queue.get_nowait()
            pending: list[_IngestRequest] = []
            for request in drained:
                if isinstance(request, _IngestRequest):
                    pending.append(request)
                else:
                    # Checkpoint: flush everything enqueued before it so
                    # the snapshot is a consistent post-burst state.
                    await self._flush(pending)
                    pending = []
                    await self._checkpoint(request)
            await self._flush(pending)

    async def _flush(self, requests: list[_IngestRequest]) -> None:
        if not requests:
            return
        try:
            outcomes, view, burst_s, publish_s = await asyncio.to_thread(
                self._apply_and_project, requests
            )
        except Exception as exc:  # reject the burst, keep serving
            outcomes, view = [exc] * len(requests), None
        if view is not None:
            # THE swap: readers holding the old reference keep a
            # consistent pre-burst world; every new read sees the
            # post-burst world.
            self._view = view
            self.n_swaps += 1
            self.last_burst_seconds = burst_s
            self.last_publish_seconds = publish_s
            applied = [
                p.pid
                for request, outcome in zip(requests, outcomes)
                if not isinstance(outcome, Exception)
                for p in request.papers
            ]
            self.n_papers_ingested += len(applied)
            if self.burst_log is not None:
                self.burst_log.append(applied)
        for request, per_paper in zip(requests, outcomes):
            if request.future.done():
                continue
            if isinstance(per_paper, Exception):
                request.future.set_exception(per_paper)
                continue
            mentions = [a for batch in per_paper for a in batch]
            request.future.set_result(
                IngestResult(
                    generation=self._view.generation,
                    n_papers=len(request.papers),
                    n_attached=sum(not a.created for a in mentions),
                    n_created=sum(a.created for a in mentions),
                    n_duplicates=sum(a.score != a.score for a in mentions),
                    assignments=[
                        [(a.vid, a.created) for a in batch]
                        for batch in per_paper
                    ],
                )
            )

    def _apply(self, requests: list[_IngestRequest]) -> list[Any]:
        """One burst; per request, its assignments or its exception.

        A duplicate under ``duplicate_paper_policy="raise"`` rejects the
        whole burst before any state is touched; the requests are then
        applied one at a time, in queue order, so that only the request
        carrying the duplicate fails.
        """
        corpus = self.ingestor.iuad.corpus_
        n_before = len(corpus)
        try:
            assignments = iter(self.ingestor.add_papers(
                [p for request in requests for p in request.papers]
            ))
        except ValueError:
            if len(requests) == 1 or len(corpus) != n_before:
                raise
            outcomes: list[Any] = []
            for request in requests:
                try:
                    outcomes.append(self.ingestor.add_papers(request.papers))
                except Exception as exc:
                    outcomes.append(exc)
            return outcomes
        return [[next(assignments) for _ in r.papers] for r in requests]

    def _apply_and_project(self, requests: list[_IngestRequest]):
        """Worker-thread body: one burst + one view projection (none
        when every request was rejected)."""
        t0 = time.perf_counter()
        outcomes = self._apply(requests)
        t1 = time.perf_counter()
        view = None
        if not all(isinstance(o, Exception) for o in outcomes):
            view = FittedView.of(
                self.ingestor.iuad,
                generation=self._view.generation + 1,
                swapped_at=time.time(),
            )
        return outcomes, view, t1 - t0, time.perf_counter() - t1

    async def _checkpoint(self, request: _CheckpointRequest) -> None:
        try:
            target = await asyncio.to_thread(
                self.ingestor.checkpoint,
                request.path,
                request.backend,
                request.mode,
            )
        except Exception as exc:
            if not request.future.done():
                request.future.set_exception(exc)
            return
        self.n_checkpoints += 1
        if not request.future.done():
            request.future.set_result(target)
