"""Shard-vs-global parity: the pinning suite of the sharded executor.

The contract of :class:`repro.core.sharding.ShardedIUAD` is that sharding
is an *execution strategy*, not a model change: on the paper's Algorithm 1
(``merge_rounds == 1``) the sharded fit — serial or under a process pool —
produces mention clusterings identical to the whole-corpus
:meth:`IUAD.fit`, and identical across repeated runs regardless of pool
scheduling; with whole blocks (``max_shard_size=0``) the same holds for
two merge rounds.  These tests pin that contract on a synthetic
duplicate-name corpus, plus the partition/stitch building blocks around
it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import IUAD, IUADConfig, IncrementalDisambiguator, ShardedIUAD
from repro.core import sharding
from repro.core.sharding import ShardIndex, plan_shards
from repro.data.records import Corpus, Paper
from repro.data.synthetic import ambiguous_names
from repro.graphs import CollaborationNetwork, combine_networks
from repro.graphs.wl import multi_source_ball


def mention_clusterings(est, names):
    """Id-free view of the predicted partitions: name -> sorted clusters."""
    return {
        name: sorted(
            sorted(units)
            for units in est.mention_clusters_of_name(name).values()
        )
        for name in names
    }


@pytest.fixture(scope="module")
def reference(small_corpus):
    """Whole-corpus single-process fit — the parity baseline."""
    iuad = IUAD(IUADConfig()).fit(small_corpus)
    return mention_clusterings(iuad, small_corpus.names)


class TestShardVsGlobalParity:
    def test_corpus_is_genuinely_ambiguous(self, small_corpus):
        # The parity claim is only interesting on a corpus where many
        # names are shared by several authors (duplicate names).
        assert len(ambiguous_names(small_corpus)) >= 20

    def test_serial_sharded_fit_matches_global_fit(
        self, small_corpus, reference
    ):
        sharded = ShardedIUAD(IUADConfig(n_workers=0)).fit(small_corpus)
        assert mention_clusterings(sharded, small_corpus.names) == reference

    def test_process_pool_fit_matches_global_fit(
        self, small_corpus, reference
    ):
        sharded = ShardedIUAD(IUADConfig(n_workers=2)).fit(small_corpus)
        assert mention_clusterings(sharded, small_corpus.names) == reference

    def test_split_blocks_still_match_global_fit(
        self, small_corpus, reference
    ):
        # A tiny shard budget forces the giant name block to be split and
        # packs many shards — decisions must not change.
        sharded = ShardedIUAD(
            IUADConfig(n_workers=0, max_shard_size=300)
        ).fit(small_corpus)
        assert sharded.report_.n_shards > 3
        assert mention_clusterings(sharded, small_corpus.names) == reference

    def test_pool_runs_are_deterministic(self, small_corpus):
        a = ShardedIUAD(IUADConfig(n_workers=2, max_shard_size=300)).fit(
            small_corpus
        )
        b = ShardedIUAD(IUADConfig(n_workers=2, max_shard_size=300)).fit(
            small_corpus
        )
        names = small_corpus.names
        assert mention_clusterings(a, names) == mention_clusterings(b, names)
        assert a.report_.n_merges == b.report_.n_merges

    def test_decision_name_restriction_matches_global(self, small_corpus):
        names = ambiguous_names(small_corpus)[:10]
        base = IUAD(IUADConfig()).fit(small_corpus, names=names)
        sharded = ShardedIUAD(IUADConfig()).fit(small_corpus, names=names)
        assert mention_clusterings(sharded, names) == mention_clusterings(
            base, names
        )

    def test_spawn_pool_fit_matches_global_fit(self, small_corpus, reference):
        # Pinned start method: workers receive the context pickled through
        # the pool initializer instead of fork's copy-on-write, and the
        # model through the shared-memory broadcast — the shipping path a
        # host application forcing "spawn" would get.
        sharded = ShardedIUAD(
            IUADConfig(n_workers=2, mp_start_method="spawn")
        ).fit(small_corpus)
        assert mention_clusterings(sharded, small_corpus.names) == reference

    def test_gamma_chunk_size_does_not_change_decisions(
        self, small_corpus, reference, monkeypatch
    ):
        # Chunk granularity is a scheduling constant, not a model knob: a
        # tiny chunk budget (many Phase-A tasks, maximum pipelining
        # surface) must reproduce the same clusterings.
        monkeypatch.setattr(sharding, "GAMMA_CHUNK_PAIRS", 64)
        sharded = ShardedIUAD(IUADConfig(n_workers=0)).fit(small_corpus)
        assert sharded.report_.n_gamma_chunks > 5
        assert mention_clusterings(sharded, small_corpus.names) == reference

    def test_multi_round_whole_blocks_match_global_fit(self, small_corpus):
        # With merge_rounds > 1, exactness needs whole blocks: a later
        # round re-scores on profiles merged in the round before.  δ is
        # lowered so that round two has merges to make (at the default
        # δ this corpus merges nothing and the test would be vacuous).
        config = IUADConfig(
            merge_rounds=2, delta=20.0, later_delta=0.0, max_shard_size=0
        )
        single = IUAD(config).fit(small_corpus)
        sharded = ShardedIUAD(replace(config, n_workers=0)).fit(small_corpus)
        assert single.report_.per_round_merges[1] > 0
        # Round two re-scores on the shards' sub-networks: they keep a halo.
        assert any(s.n_halo for s in sharded.report_.shard_stats)
        assert (
            sharded.report_.per_round_merges
            == single.report_.per_round_merges
        )
        names = small_corpus.names
        assert mention_clusterings(sharded, names) == mention_clusterings(
            single, names
        )


class TestShardReporting:
    def test_report_carries_shard_counters(self, small_corpus):
        sharded = ShardedIUAD(IUADConfig(max_shard_size=300)).fit(small_corpus)
        report = sharded.report_
        assert report.n_shards == len(report.shard_stats) > 0
        assert report.n_fastpath_vertices > 0
        # Decision pairs of round one equal the per-shard sum.
        assert report.n_candidate_pairs == sum(
            s.n_decision_pairs for s in report.shard_stats
        )
        # Every shard did measurable gamma work and owns vertices.
        for stats in report.shard_stats:
            assert stats.n_vertices > 0
            assert stats.n_candidate_pairs > 0
            assert stats.gamma_seconds >= 0.0
        assert (
            report.gcn_mentions == small_corpus.num_author_paper_pairs
        )

    def test_one_round_fit_plans_no_halo(self, small_corpus):
        sharded = ShardedIUAD(IUADConfig(max_shard_size=300)).fit(small_corpus)
        assert sharded.report_.shard_stats
        assert all(s.n_halo == 0 for s in sharded.report_.shard_stats)
        assert all(not s.halo_vids for s in sharded.plan_.shards)

    def test_halo_radius_counts_hops(self, small_corpus):
        scn, _ = IUAD(IUADConfig())._build_scn(small_corpus)
        for radius in (0, 1, 2):
            plan = plan_shards(
                scn, small_corpus, max_shard_size=300, halo_radius=radius
            )
            for shard in plan.shards:
                reach = multi_source_ball(scn, shard.owned_vids, radius)
                assert set(shard.halo_vids) == reach - set(shard.owned_vids)

    def test_partition_covers_every_pair_bearing_name_once(
        self, small_corpus
    ):
        scn, _ = IUAD(IUADConfig())._build_scn(small_corpus)
        plan = plan_shards(scn, small_corpus, max_shard_size=300)
        seen: set[str] = set()
        owned: set[int] = set()
        for shard in plan.shards:
            for name in shard.names:
                assert name not in seen, "name owned by two shards"
                seen.add(name)
                # a name's vertices are never split across shards
                assert set(scn.vertices_of_name(name)) <= set(shard.owned_vids)
            assert owned.isdisjoint(shard.owned_vids)
            owned.update(shard.owned_vids)
        pair_bearing = {
            name
            for name in scn.names
            if len(scn.vertices_of_name(name)) > 1
        }
        assert seen == pair_bearing
        # fast path is exactly the complement of the owned vertices
        assert owned.isdisjoint(plan.fastpath_vids)
        assert owned | set(plan.fastpath_vids) == {v.vid for v in scn}


class TestPipelineAccounting:
    """Per-stage accounting invariants of the overlapped executor.

    The report's phase walls, worker-summed task seconds and overlap
    counters must be internally consistent with the pipeline wall-clock —
    no double-counted time, no time lost to an untimed lazy stage.
    """

    @pytest.fixture(scope="class")
    def serial_report(self, small_corpus):
        return (
            ShardedIUAD(IUADConfig(n_workers=0, max_shard_size=300))
            .fit(small_corpus)
            .report_
        )

    @pytest.fixture(scope="class")
    def pool_report(self, small_corpus):
        return (
            ShardedIUAD(IUADConfig(n_workers=2, max_shard_size=300))
            .fit(small_corpus)
            .report_
        )

    def test_serial_stages_partition_the_pipeline(self, serial_report):
        # Serial execution has no overlap by construction: the four
        # stage walls tile the pipeline span.  This is exactly the
        # invariant lazy generators used to break — split scoring that
        # executes inside the EM stage's timer shifts wall-clock between
        # stages and the sum stops matching.
        r = serial_report
        walls = (
            r.gamma_wall_seconds
            + r.split_wall_seconds
            + r.em_seconds
            + r.decide_wall_seconds
        )
        assert r.overlap_seconds == 0.0
        assert r.overlap_gamma_chunks == 0
        assert abs(r.pipeline_seconds - walls) <= 0.05 + 0.1 * r.pipeline_seconds

    def test_serial_stage_timers_bound_their_task_sums(self, serial_report):
        # Each stage's wall is measured *around* its eagerly-executed
        # tasks, so it can only exceed the worker-summed task seconds.
        r = serial_report
        assert r.gamma_wall_seconds >= r.gamma_task_seconds > 0.0
        assert r.split_wall_seconds >= r.split_task_seconds
        assert r.decide_wall_seconds >= r.decide_task_seconds > 0.0

    def test_task_seconds_match_shard_attribution(self, serial_report):
        # The per-shard γ/decide attribution is a *redistribution* of the
        # worker-summed totals, never an inflation or a loss.
        r = serial_report
        assert sum(
            s.gamma_seconds for s in r.shard_stats
        ) == pytest.approx(r.gamma_task_seconds, abs=1e-6)
        assert sum(
            s.decide_seconds for s in r.shard_stats
        ) == pytest.approx(r.decide_task_seconds, abs=1e-6)

    def test_serial_runs_ship_no_ipc(self, serial_report):
        assert serial_report.ipc_task_bytes == 0
        assert serial_report.shm_bytes == 0
        assert serial_report.n_gamma_chunks > 0

    def test_pool_walls_fit_inside_the_pipeline(self, pool_report):
        # Every phase wall is a sub-span of the pipeline span; overlap is
        # by definition the wall-clock saved versus running the three
        # serialisable phases as barriers.
        r = pool_report
        eps = 0.05
        assert 0.0 <= r.gamma_wall_seconds <= r.pipeline_seconds + eps
        assert 0.0 <= r.split_wall_seconds <= r.pipeline_seconds + eps
        assert 0.0 <= r.decide_wall_seconds <= r.pipeline_seconds + eps
        assert r.em_seconds <= r.pipeline_seconds + eps
        assert r.overlap_seconds >= 0.0
        assert r.overlap_seconds == pytest.approx(
            max(
                0.0,
                r.gamma_wall_seconds
                + r.split_wall_seconds
                + r.em_seconds
                + r.decide_wall_seconds
                - r.pipeline_seconds,
            ),
            abs=1e-6,
        )
        assert 0 <= r.overlap_gamma_chunks <= r.n_gamma_chunks

    def test_pool_accounts_every_task_and_transport(self, pool_report):
        r = pool_report
        # Worker-summed compute exists and redistributes exactly.
        assert r.gamma_task_seconds > 0.0
        assert sum(
            s.gamma_seconds for s in r.shard_stats
        ) == pytest.approx(r.gamma_task_seconds, abs=1e-6)
        assert sum(
            s.decide_seconds for s in r.shard_stats
        ) == pytest.approx(r.decide_task_seconds, abs=1e-6)
        # Tasks travelled by pickle (tiny), results by shared memory.
        assert r.ipc_task_bytes > 0
        assert r.shm_bytes > 0
        # Stage 2 wraps the whole pipeline plus stitch/model bookkeeping.
        assert r.stage2_seconds >= r.pipeline_seconds


_REAL_GAMMA_CHUNK = sharding._compute_gamma_chunk


def _kill_worker_on_chunk_one(task):
    """γ-chunk stand-in that SIGKILLs the pool worker handed chunk 1.

    Module-level so a forked worker unpickles it by name; it never kills
    the test process itself, which has no parent process.
    """
    if task.index == 1 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_GAMMA_CHUNK(task)


def _shm_segments() -> set[str]:
    """Names of the live POSIX shared-memory segments ``SharedMemory`` made."""
    root = Path("/dev/shm")
    return {p.name for p in root.glob("psm_*")} if root.is_dir() else set()


class TestSchedulerFailurePaths:
    """A failing task ends the one scheduler cleanly on either executor:
    the error surfaces from ``fit``, the module context is restored and
    no shared-memory segment outlives the fit."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_killed_pool_worker_breaks_the_fit_cleanly(
        self, small_corpus, monkeypatch
    ):
        monkeypatch.setattr(
            sharding, "_compute_gamma_chunk", _kill_worker_on_chunk_one
        )
        ctx_before = sharding._CTX
        segments_before = _shm_segments()
        monkeypatch.setattr(sharding, "GAMMA_CHUNK_PAIRS", 64)
        config = IUADConfig(n_workers=2, mp_start_method="fork")
        with pytest.raises(BrokenProcessPool):
            ShardedIUAD(config).fit(small_corpus)
        assert _shm_segments() - segments_before == set()
        assert sharding._CTX is ctx_before

    @pytest.mark.parametrize("task_fn", ["_compute_gamma_chunk", "_fit_shard"])
    def test_inline_task_error_propagates_unchanged(
        self, small_corpus, monkeypatch, task_fn
    ):
        real = getattr(sharding, task_fn)
        raised: list[Exception] = []

        def fail_on_second_task(task):
            if task.index == 1:
                raised.append(RuntimeError(f"{task_fn} failed on task 1"))
                raise raised[-1]
            return real(task)

        monkeypatch.setattr(sharding, task_fn, fail_on_second_task)
        ctx_before = sharding._CTX
        monkeypatch.setattr(sharding, "GAMMA_CHUNK_PAIRS", 64)
        config = IUADConfig(n_workers=0, max_shard_size=300)
        with pytest.raises(RuntimeError) as excinfo:
            ShardedIUAD(config).fit(small_corpus)
        assert len(raised) == 1 and excinfo.value is raised[0]
        assert sharding._CTX is ctx_before


class TestShardedIncrementalRouting:
    def test_streaming_counts_per_owning_shard(self, small_corpus):
        # add_paper mutates the fitted corpus — work on a copy so the
        # session-scoped fixture stays pristine for other test modules.
        corpus_copy = Corpus(list(small_corpus))
        fitted_names = list(corpus_copy.names)
        sharded = ShardedIUAD(IUADConfig(max_shard_size=300)).fit(corpus_copy)
        stream = IncrementalDisambiguator(sharded)
        assert stream.shard_index is sharded.shard_index_
        known = ambiguous_names(small_corpus)[0]
        next_pid = max(p.pid for p in small_corpus) + 1
        stream.add_paper(
            Paper(next_pid, (known, "Brand New Author"), "new paper", "V", 2021)
        )
        stream.add_paper(
            Paper(
                next_pid + 1,
                ("Totally Unknown A", "Totally Unknown B"),
                "another",
                "V",
                2021,
            )
        )
        report = stream.report
        assert sum(report.per_shard_papers.values()) == report.n_papers == 2
        # the known name routed into its fitted shard...
        owning = sharded.shard_index_.shard_of_name(known)
        assert owning is not None and report.per_shard_papers[owning] >= 1
        # ...and the all-new paper opened a fresh shard id
        fresh = sharded.shard_index_.shard_of_name("Totally Unknown A")
        assert fresh is not None and fresh != owning
        # every fitted corpus name — including singleton and fast-path
        # names — routes to an existing block, never a phantom shard
        # (streamed-in new names legitimately get fresh ids >= n_blocks)
        plan = sharded.plan_
        for name in fitted_names:
            block = sharded.shard_index_.shard_of_name(name)
            assert block is not None and block < plan.n_blocks

    def test_bridging_paper_unions_shards(self):
        index = ShardIndex({"a": 0, "b": 1, "c": 2}, n_shards=3)
        assert index.n_shards == 3
        sid = index.route_paper(["a", "b"])
        assert index.n_bridges == 1
        assert index.shard_of_name("a") == index.shard_of_name("b") == sid
        assert index.shard_of_name("c") != sid
        assert index.n_shards == 2


class TestCombineNetworks:
    def _block(self, name, pid, position=0):
        net = CollaborationNetwork()
        net.add_vertex(name, mentions=((pid, position),), vid=7)
        return net

    def test_remapping_is_dense_and_deterministic(self):
        a = CollaborationNetwork()
        a1 = a.add_vertex("x", mentions=((0, 0),), vid=5)
        a2 = a.add_vertex("y", mentions=((0, 1),), vid=9)
        a.add_edge(a1, a2, {0})
        b = self._block("z", 1)
        combined, mappings = combine_networks([a, b])
        again, mappings2 = combine_networks([a, b])
        assert mappings == mappings2 == [{5: 0, 9: 1}, {7: 2}]
        assert len(combined) == 3
        assert combined.has_edge(0, 1)
        assert combined.mentions_of(0) == {0: 0}
        assert sorted(v.name for v in combined) == sorted(
            v.name for v in again
        )

    def test_double_owned_mention_is_rejected(self):
        a = self._block("x", 3, position=1)
        b = self._block("x", 3, position=1)
        with pytest.raises(ValueError, match="owned by two shards"):
            combine_networks([a, b])

    def test_edge_papers_do_not_leak_into_attribution(self):
        net = CollaborationNetwork()
        u = net.add_vertex("x", mentions=((0, 0),))
        v = net.add_vertex("y", mentions=((1, 0),))
        # edge carries a support paper attributed to neither mention set
        net.add_edge(u, v, {5})
        net.set_papers(u, {0})
        net.set_papers(v, {1})
        combined, (mapping,) = combine_networks([net])
        assert combined.papers_of(mapping[u]) == {0}
        assert combined.papers_of(mapping[v]) == {1}
        assert combined.edge_papers(mapping[u], mapping[v]) == {5}
