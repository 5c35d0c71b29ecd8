"""Serving layer: FittedView, Engine swaps, HTTP API, checkpoint safety.

Four contracts are pinned here:

* **Frozen views** — a :class:`~repro.service.FittedView` is an
  immutable, content-hashable projection; its queries agree with the
  live network (:meth:`CollaborationNetwork.owner_of
  <repro.graphs.collab.CollaborationNetwork.owner_of>`) and with the
  incremental duplicate replay, and never see later writes.
* **Atomic swaps** — readers hammering ``Engine.view`` from other
  threads while the writer publishes ≥10 generations observe a monotone
  generation sequence and only views that exactly match a serial replay
  at some burst boundary — never a torn state.
* **Checkpoint between bursts** — ``StreamingIngestor.checkpoint`` is
  safe while ingest requests are queued (engine queue or plain
  threads): it captures a consistent post-burst state, and resuming it
  then replaying the still-pending papers lands on exactly the
  drain-then-checkpoint clustering.
* **HTTP surface** — every endpooint of the async server answers JSON
  with correct status codes, and malformed input gets 400/404/405,
  never a dropped connection.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core import (
    IUAD,
    IUADConfig,
    IncrementalDisambiguator,
    StreamingIngestor,
)
from repro.core.incremental import sequential_add_paper
from repro.data import Corpus, Paper
from repro.io import Snapshot, snapshot_header, snapshot_of, verify_snapshot
from repro.service import (
    Engine,
    FittedView,
    ServiceServer,
    prior_assignments_in,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "snapshot_v1.jsonl"

#: Names the fixture snapshot knows (see make_snapshot_fixture.py).
FIXTURE_NAMES = ("X Y", "P A", "Q B", "R C", "S D")


def probe_papers(n, start_pid=100, seed=3):
    """Fresh papers reusing fixture names (real attach-vs-create work)."""
    import random

    rng = random.Random(seed)
    return [
        Paper(
            pid=start_pid + i,
            authors=tuple(rng.sample(FIXTURE_NAMES, rng.randint(1, 2))),
            title=f"probe {i} streaming serving index",
            venue=rng.choice(("VLDB", "CVPR")),
            year=2010 + (i % 10),
        )
        for i in range(n)
    ]


def restored_ingestor() -> StreamingIngestor:
    """Warm-start from the fixture; never auto-checkpoint over it."""
    ingestor = StreamingIngestor.resume(FIXTURE)
    ingestor.checkpoint_path = None
    return ingestor


def serial_view(papers) -> FittedView:
    """The reference: the one-at-a-time oracle over a fresh restore."""
    estimator = Snapshot.load(FIXTURE).restore()
    stream = StreamingIngestor(estimator)
    for paper in papers:
        sequential_add_paper(stream, paper)
    return FittedView.of(estimator)


# ===================================================================== #
# FittedView
# ===================================================================== #
class TestFittedView:
    def test_queries_against_fixture(self):
        view = FittedView.from_snapshot(FIXTURE)
        assert view.check_consistency() == []
        hit = view.who_is("X Y", 0, 0)
        assert hit is not None and hit["name"] == "X Y"
        assert hit["vid"] in view.cluster_of("X Y")
        # wrong position / unknown pid / name mismatch -> None
        assert view.who_is("X Y", 0, 7) is None
        assert view.who_is("X Y", 424242, 0) is None
        assert view.who_is("P A", 0, 0) is None
        matches = view.resolve("X Y", 0)
        assert len(matches) == 1 and matches[0]["vid"] == hit["vid"]
        assert view.resolve("X Y", 424242) == ()
        assert view.cluster_of("No Such Name") == {}
        assert set(view.names()) == set(FIXTURE_NAMES)
        assert view.n_vertices == sum(
            len(v) for v in view.clusters.values()
        )

    def test_matches_live_network_owner_of(self):
        snapshot = Snapshot.load(FIXTURE)
        view = FittedView.from_snapshot(FIXTURE)
        for vertex in snapshot.gcn:
            for pid, position in vertex.mentions.items():
                assert (
                    snapshot.gcn.owner_of(pid, position, vertex.name)
                    == vertex.vid
                )
                hit = view.who_is(vertex.name, pid, position)
                assert hit is not None and hit["vid"] == vertex.vid
        assert snapshot.gcn.owner_of(424242, 0) is None

    def test_prior_assignments_match_duplicate_replay(self):
        estimator = Snapshot.load(FIXTURE).restore()
        estimator.config.duplicate_paper_policy = "return"
        stream = IncrementalDisambiguator(estimator)
        view = FittedView.of(estimator)
        for paper in estimator.corpus_:
            replay = [a.vid for a in stream.add_paper(paper)]
            assert (
                prior_assignments_in(view, paper.authors, paper.pid)
                == replay
            )

    def test_content_equality_and_hash(self):
        one = FittedView.from_snapshot(FIXTURE, generation=0)
        two = FittedView.from_snapshot(FIXTURE, generation=9)
        # generation and timestamps are excluded from identity
        assert one == two and hash(one) == hash(two)
        assert one.fingerprint == two.fingerprint

        ingestor = restored_ingestor()
        ingestor.add_papers(probe_papers(3))
        three = FittedView.of(ingestor.iuad)
        assert three != one and three.fingerprint != one.fingerprint

    def test_views_are_frozen(self):
        view = FittedView.from_snapshot(FIXTURE)
        with pytest.raises(TypeError):
            view.clusters["X Y"] = {}
        with pytest.raises(TypeError):
            view.clusters["X Y"][0] = ()

    def test_view_never_sees_later_writes(self):
        ingestor = restored_ingestor()
        before = FittedView.of(ingestor.iuad)
        fingerprint = before.fingerprint
        n_mentions = before.n_mentions
        ingestor.add_papers(probe_papers(5))
        assert before.fingerprint == fingerprint
        assert before.n_mentions == n_mentions
        assert before.who_is("X Y", 100, 0) is None or True  # no KeyError
        after = FittedView.of(ingestor.iuad)
        assert after != before

    def test_of_unfitted_raises(self):
        with pytest.raises(ValueError, match="unfitted"):
            FittedView.of(IUAD(IUADConfig()))


# ===================================================================== #
# Engine: the writer + atomic swaps
# ===================================================================== #
class TestEngine:
    def test_ingest_publishes_new_generation(self):
        async def scenario():
            ingestor = restored_ingestor()
            async with Engine(ingestor) as engine:
                base = engine.view
                assert base.generation == 0
                papers = probe_papers(4)
                result = await engine.ingest(papers)
                view = engine.view
                assert result.generation == view.generation == 1
                assert result.n_papers == 4
                assert result.n_attached + result.n_created == sum(
                    len(p.authors) for p in papers
                )
                assert len(result.assignments) == 4
                # the published view answers for the new papers...
                for paper, batch in zip(papers, result.assignments):
                    for position, (vid, _created) in enumerate(batch):
                        hit = view.who_is(
                            paper.authors[position], paper.pid, position
                        )
                        assert hit is not None and hit["vid"] == vid
                # ...while the pre-burst view still does not
                assert base.who_is(
                    papers[0].authors[0], papers[0].pid, 0
                ) is None
            stats = engine.stats()
            assert stats.n_swaps == 1 and stats.n_papers_ingested == 4

        asyncio.run(scenario())

    def test_coalesced_bursts_match_serial_replay(self):
        papers = probe_papers(12)

        async def scenario():
            ingestor = restored_ingestor()
            async with Engine(ingestor, max_batch=64) as engine:
                futures = [
                    await engine.ingest([paper], wait=False)
                    for paper in papers
                ]
                results = await asyncio.gather(*futures)
            return engine, results

        engine, results = asyncio.run(scenario())
        # every request resolved, in order, each with its own slice
        assert all(r.n_papers == 1 for r in results)
        generations = [r.generation for r in results]
        assert generations == sorted(generations)
        # coalescing happened (12 requests, fewer swaps) yet the outcome
        # is exactly the serial replay — burst boundaries don't matter
        assert engine.n_swaps <= len(papers)
        assert engine.view == serial_view(papers)

    def test_failed_burst_keeps_serving(self):
        async def scenario():
            ingestor = restored_ingestor()
            # default duplicate policy is "raise": re-ingesting pid 0
            # must reject the burst but leave the engine alive
            assert ingestor.iuad.config.duplicate_paper_policy == "raise"
            duplicate = ingestor.iuad.corpus_[0]
            async with Engine(ingestor) as engine:
                before = engine.view
                with pytest.raises(ValueError, match="duplicate"):
                    await engine.ingest([duplicate])
                assert engine.view is before  # no swap published
                result = await engine.ingest(probe_papers(2))
                assert result.generation == 1

        asyncio.run(scenario())

    def test_duplicate_fails_only_its_own_request(self):
        """Regression: one client's duplicate pid rejected every request
        coalesced into its burst.  Queued ``[A]``, ``[duplicate]``,
        ``[B]`` drain as one burst: A and B apply, only the duplicate's
        request raises, and the view is the oracle replay of A and B."""
        papers = probe_papers(6)
        a, b = papers[:3], papers[3:]

        async def scenario():
            ingestor = restored_ingestor()
            duplicate = ingestor.iuad.corpus_[0]
            async with Engine(ingestor, max_batch=64) as engine:
                futures = [
                    await engine.ingest(batch, wait=False)
                    for batch in (a, [duplicate], b)
                ]
                outcomes = await asyncio.gather(
                    *futures, return_exceptions=True
                )
            return engine, outcomes

        engine, (got_a, got_dup, got_b) = asyncio.run(scenario())
        assert isinstance(got_dup, ValueError)
        assert "already" in str(got_dup)
        assert got_a.n_papers == 3 and got_b.n_papers == 3
        assert got_a.generation <= got_b.generation
        assert engine.n_papers_ingested == 6
        assert engine.view == serial_view(a + b)

    def test_checkpoint_mid_queue_equals_drain_then_checkpoint(
        self, tmp_path
    ):
        """The satellite regression: checkpoint with requests queued.

        Five writer-queue items are enqueued back-to-back — two bursts,
        a checkpoint, two more bursts — so the checkpoint runs while the
        tail bursts are already queued behind it.  The checkpoint must
        capture exactly the post-A state, and resuming it + replaying
        the tail must equal draining everything first (which itself
        equals the serial replay).
        """
        papers = probe_papers(12)
        batch_a = [papers[0:3], papers[3:6]]
        batch_b = [papers[6:9], papers[9:12]]
        mid_ck = tmp_path / "mid_queue.jsonl"
        drain_ck = tmp_path / "drained.jsonl"

        async def scenario():
            ingestor = restored_ingestor()
            async with Engine(ingestor, max_batch=64) as engine:
                tasks = [
                    *(asyncio.create_task(engine.ingest(b))
                      for b in batch_a),
                    asyncio.create_task(engine.checkpoint(mid_ck)),
                    *(asyncio.create_task(engine.ingest(b))
                      for b in batch_b),
                ]
                await asyncio.gather(*tasks)
                await engine.checkpoint(drain_ck)
            return FittedView.of(engine.ingestor.iuad)

        final = asyncio.run(scenario())

        mid = Snapshot.load(mid_ck)
        # the mid-queue checkpoint holds exactly the A-prefix...
        assert len(mid.corpus) == 9 + sum(len(b) for b in batch_a)
        assert verify_snapshot(mid) == []
        expected_mid = serial_view(papers[:6])
        assert FittedView._from_network(
            mid.gcn, n_papers=len(mid.corpus)
        ) == expected_mid
        # ...and replaying the still-queued tail from it reproduces the
        # drain-then-checkpoint clustering exactly
        resumed = StreamingIngestor.resume(mid_ck)
        resumed.checkpoint_path = None
        for burst in batch_b:
            resumed.add_papers(burst)
        replayed = FittedView.of(resumed.iuad)
        drained = Snapshot.load(drain_ck)
        assert verify_snapshot(drained) == []
        drained_view = FittedView._from_network(
            drained.gcn, n_papers=len(drained.corpus)
        )
        assert replayed == drained_view == final == serial_view(papers)
        assert resumed.iuad.gcn_.n_edges == drained.gcn.n_edges

    def test_out_of_band_checkpoint_is_post_burst(self, tmp_path):
        """A thread checkpointing against live bursts never tears state.

        The writer loops ``add_papers`` bursts of 3 while another thread
        checkpoints out-of-band (no engine queue — the raw writer-lock
        path).  Every captured snapshot must hold a whole number of
        bursts, pass the invariant sweep, and replaying the remaining
        bursts from it must land on the final clustering.
        """
        papers = probe_papers(18, seed=5)
        bursts = [papers[i: i + 3] for i in range(0, len(papers), 3)]
        ingestor = restored_ingestor()
        base_papers = ingestor.report.n_papers
        started = threading.Event()
        targets = [tmp_path / f"oob_{k}.jsonl" for k in range(3)]

        def writer():
            for burst in bursts:
                ingestor.add_papers(burst)
                started.set()

        thread = threading.Thread(target=writer)
        thread.start()
        started.wait(timeout=30)
        for target in targets:
            ingestor.checkpoint(target)
        thread.join(timeout=60)
        assert not thread.is_alive()

        final = FittedView.of(ingestor.iuad)
        for target in targets:
            snapshot = Snapshot.load(target)
            ingested = snapshot.stream.n_papers - base_papers
            assert ingested % 3 == 0, (
                f"checkpoint {target.name} caught a mid-burst state "
                f"({ingested} papers past the base)"
            )
            assert verify_snapshot(snapshot) == []
            resumed = StreamingIngestor.resume(target)
            resumed.checkpoint_path = None
            for burst in bursts[ingested // 3:]:
                resumed.add_papers(burst)
            assert FittedView.of(resumed.iuad) == final


# ===================================================================== #
# concurrent readers during swaps
# ===================================================================== #
def test_readers_never_observe_torn_views():
    """Reader threads sample ``engine.view`` across ≥10 generations.

    Asserted per reader: the generation sequence is monotone
    non-decreasing, every sampled view passes its internal consistency
    sweep, and every (generation, fingerprint) pair matches the serial
    replay of exactly the bursts published up to that generation — i.e.
    each observed view IS a pre-/post-burst fit, nothing in between.
    """
    n_generations = 12
    papers = probe_papers(n_generations, seed=9)
    ingestor = restored_ingestor()
    engine = Engine(ingestor, max_batch=1, record_bursts=True)
    stop = threading.Event()
    observed: list[list[tuple[int, str]]] = [[] for _ in range(3)]
    violations: list[str] = []

    def reader(slot: int):
        mentions = [("X Y", 0, 0), ("P A", 0, 1), ("R C", 4, 1)]
        i = 0
        while not stop.is_set():
            view = engine.view  # the atomic read under test
            violations.extend(view.check_consistency())
            hit = view.who_is(*mentions[i % len(mentions)])
            if hit is not None and hit["generation"] != view.generation:
                violations.append("answer from a different view")
            observed[slot].append((view.generation, view.fingerprint))
            i += 1

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(len(observed))
    ]

    async def scenario():
        async with engine:
            for thread in threads:
                thread.start()
            for paper in papers:  # max_batch=1 -> one swap per paper
                await engine.ingest([paper])

    asyncio.run(scenario())
    stop.set()
    for thread in threads:
        thread.join(timeout=30)

    assert engine.n_swaps >= 10
    assert violations == []
    # expected fingerprint at every burst boundary, by serial replay
    estimator = Snapshot.load(FIXTURE).restore()
    stream = StreamingIngestor(estimator)
    boundary = {0: FittedView.of(estimator).fingerprint}
    by_pid = {p.pid: p for p in papers}
    for generation, pids in enumerate(engine.burst_log, start=1):
        for pid in pids:
            sequential_add_paper(stream, by_pid[pid])
        boundary[generation] = FittedView.of(estimator).fingerprint
    for samples in observed:
        assert samples, "a reader thread recorded nothing"
        generations = [g for g, _ in samples]
        assert generations == sorted(generations), "generation went back"
        for generation, fingerprint in samples:
            assert boundary[generation] == fingerprint, (
                f"generation {generation} showed a fingerprint matching "
                "no pre-/post-burst fit (torn view)"
            )
    assert max(g for s in observed for g, _ in s) >= 1


# ===================================================================== #
# HTTP surface
# ===================================================================== #
class _Service:
    """Engine + ServiceServer on a background event loop thread."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()

        async def boot():
            self.engine = Engine(restored_ingestor())
            await self.engine.start()
            self.server = ServiceServer(self.engine)
            await self.server.start()
            return self.server.port

        self.port = asyncio.run_coroutine_threadsafe(
            boot(), self.loop
        ).result(timeout=60)

    def close(self) -> None:
        async def teardown():
            await self.server.stop()
            await self.engine.stop()

        asyncio.run_coroutine_threadsafe(
            teardown(), self.loop
        ).result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)

    def request(self, method, path, body=None, raw: bytes | None = None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            payload = raw if raw is not None else (
                json.dumps(body).encode() if body is not None else None
            )
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()


@pytest.fixture()
def service():
    harness = _Service()
    yield harness
    harness.close()


class TestHTTP:
    def test_read_endpoints(self, service):
        status, health = service.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["generation"] == 0

        status, stats = service.request("GET", "/stats")
        assert status == 200 and stats["n_swaps"] == 0
        assert stats["n_papers"] == 9

        status, hit = service.request(
            "GET", "/who-is?name=X%20Y&pid=0&position=0"
        )
        assert status == 200 and hit["name"] == "X Y"
        status, miss = service.request(
            "GET", "/who-is?name=X%20Y&pid=424242"
        )
        assert status == 404 and "error" in miss

        status, resolved = service.request(
            "GET", "/resolve?name=X%20Y&pid=0"
        )
        assert status == 200 and len(resolved["matches"]) == 1

        status, cluster = service.request(
            "GET", "/cluster-of?name=P%20A"
        )
        assert status == 200 and cluster["clusters"]
        status, _ = service.request("GET", "/cluster-of?name=Nobody")
        assert status == 404

        status, dump = service.request("GET", "/clusters")
        assert status == 200
        assert dump["fingerprint"] == service.engine.view.fingerprint

    def test_ingest_roundtrip(self, service):
        from repro.io.schema import encode_paper

        papers = [encode_paper(p) for p in probe_papers(3)]
        status, summary = service.request(
            "POST", "/ingest", {"papers": papers}
        )
        assert status == 200 and summary["generation"] == 1
        assert summary["n_papers"] == 3
        # the ingested mention is immediately readable
        record = papers[0]
        status, hit = service.request(
            "GET",
            f"/who-is?name={record['authors'][0].replace(' ', '%20')}"
            f"&pid={record['pid']}&position=0",
        )
        assert status == 200 and hit["generation"] >= 1

        # wait=false is accepted, not yet necessarily published
        more = [encode_paper(p) for p in probe_papers(2, start_pid=300)]
        status, queued = service.request(
            "POST", "/ingest", {"papers": more, "wait": False}
        )
        assert status == 202 and queued["queued"] == 2

    def test_checkpoint_endpoint(self, service, tmp_path):
        target = tmp_path / "http_ck.jsonl"
        status, answer = service.request(
            "POST", "/checkpoint", {"path": str(target)}
        )
        assert status == 200 and answer["path"] == str(target)
        snapshot = Snapshot.load(target)
        assert verify_snapshot(snapshot) == []

    def test_checkpoint_endpoint_delta_mode(self, service, tmp_path):
        """The delta wiring: mode rides the request, the chain length
        rides /stats and the checkpoint response."""
        target = tmp_path / "http_delta.jsonl"
        status, answer = service.request(
            "POST", "/checkpoint", {"path": str(target), "mode": "delta"}
        )
        # first delta checkpoint writes the base
        assert status == 200 and answer["delta_chain_length"] == 0
        status, answer = service.request(
            "POST", "/checkpoint", {"path": str(target), "mode": "delta"}
        )
        assert status == 200 and answer["delta_chain_length"] == 1
        status, stats = service.request("GET", "/stats")
        assert status == 200 and stats["delta_chain_length"] == 1
        restored, info = Snapshot.load_chain(target)
        assert info["chain_length"] == 1
        assert verify_snapshot(restored) == []
        # a bogus mode is a request error, not a dead writer
        status, error = service.request(
            "POST", "/checkpoint", {"path": str(target), "mode": "nope"}
        )
        assert status == 400 and "mode" in error["error"]

    def test_handler_exception_logs_its_traceback(
        self, service, caplog, monkeypatch
    ):
        def broken_stats():
            raise RuntimeError("stats exploded")

        monkeypatch.setattr(service.engine, "stats", broken_stats)
        with caplog.at_level(logging.ERROR, logger="repro.service"):
            status, error = service.request("GET", "/stats")
        assert status == 500
        assert error == {"error": "RuntimeError: stats exploded"}
        (record,) = [
            r for r in caplog.records if r.name == "repro.service"
        ]
        assert "GET /stats" in record.getMessage()
        assert record.exc_info is not None
        assert "Traceback" in caplog.text
        assert "stats exploded" in caplog.text

    def test_error_surfaces(self, service):
        status, error = service.request("GET", "/who-is?pid=0")
        assert status == 400 and "name" in error["error"]
        status, error = service.request(
            "GET", "/who-is?name=X%20Y&pid=abc"
        )
        assert status == 400 and "integer" in error["error"]
        status, _ = service.request(
            "POST", "/ingest", raw=b"this is not json"
        )
        assert status == 400
        status, _ = service.request("POST", "/ingest", {"nope": 1})
        assert status == 400
        status, _ = service.request(
            "POST", "/ingest", {"papers": [{"pid": 1}]}
        )
        assert status == 400
        status, _ = service.request("POST", "/healthz")
        assert status == 405
        status, _ = service.request("GET", "/no-such-route")
        assert status == 404
        # the server is still alive after every one of those
        status, health = service.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"


# ===================================================================== #
# snapshot_header + CLI surfaces
# ===================================================================== #
class TestSnapshotHeader:
    def test_fixture_header(self):
        header = snapshot_header(FIXTURE)
        assert header["format"] == "repro-snapshot"
        assert header["kind"] == "sharded"
        assert header["n_papers"] == 9
        assert header["n_vertices"] == 10
        assert header["adapter"] == "jsonl"
        assert header["sharding"]["n_shards"] == 1
        assert header["stream"]["n_papers"] == 1
        json.dumps(header)  # machine-readable by contract

    def test_round_trips_a_fresh_snapshot(self, tmp_path, figure2_corpus):
        estimator = IUAD(IUADConfig(wl_iterations=1)).fit(figure2_corpus)
        target = tmp_path / "fresh.jsonl"
        snapshot_of(estimator).save(target)
        header = snapshot_header(target)
        assert header["n_papers"] == len(figure2_corpus)
        assert header["sharding"] is None and header["stream"] is None

    @pytest.mark.parametrize(
        "content",
        [
            b"",
            b"garbage, not json\n",
            b'{"valid": "json", "wrong": "shape"}\n',
        ],
        ids=["empty", "garbage", "wrong-shape"],
    )
    def test_corrupt_files_raise_value_error(self, tmp_path, content):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(content)
        with pytest.raises(ValueError):
            snapshot_header(bad)

    def test_missing_file_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="no such"):
            snapshot_header(tmp_path / "nope.jsonl")

    def test_truncated_table_raises(self, tmp_path):
        from repro.io import read_document, write_document

        document = read_document(FIXTURE)
        document["meta"]["n_papers"] = 99  # declared != stored
        bad = tmp_path / "truncated.jsonl"
        write_document(document, bad)
        with pytest.raises(ValueError, match="claims 99"):
            snapshot_header(bad)


class TestCLI:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
        )

    def test_inspect_json(self):
        proc = self._run("tools/snapshot.py", "inspect", str(FIXTURE),
                         "--json")
        assert proc.returncode == 0, proc.stderr
        header = json.loads(proc.stdout)
        assert header["format"] == "repro-snapshot"
        assert header["n_papers"] == 9

    def test_inspect_corrupt_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a snapshot\n")
        for extra in ([], ["--json"]):
            proc = self._run(
                "tools/snapshot.py", "inspect", str(bad), *extra
            )
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            assert proc.stderr.strip().startswith("inspect:")

    def test_verify_corrupt_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a snapshot\n")
        proc = self._run("tools/snapshot.py", "verify", str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    def test_serve_corrupt_snapshot_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a snapshot\n")
        proc = self._run("tools/serve.py", "--snapshot", str(bad))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().startswith("serve:")
