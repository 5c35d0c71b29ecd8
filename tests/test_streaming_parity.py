"""Burst-vs-oracle streaming parity (``StreamingIngestor.add_papers``).

The contract pinned here: ingesting a stream through
:meth:`repro.core.streaming.StreamingIngestor.add_papers`, however it is
cut into bursts, produces the same GCN (vertex ids, names, paper
attributions, mention payloads, edges), the same assignments and the
same report counters as the paper-faithful per-mention loop
:func:`repro.core.incremental.sequential_add_paper` over the stream in
the same order — over shuffled and randomly split bursts, including
same-paper homonyms, cross-shard bridging papers, and duplicate pids.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IUAD,
    IUADConfig,
    ShardedIUAD,
    StreamingIngestor,
)
from repro.core.incremental import sequential_add_paper
from repro.data import Corpus, Paper, build_testing_dataset
from repro.data.testing import split_for_incremental


def network_state(gcn):
    """A fully comparable snapshot of a collaboration network."""
    vertices = sorted(
        (
            v.vid,
            v.name,
            tuple(sorted(v.papers)),
            tuple(sorted(v.mentions.items())),
        )
        for v in gcn
    )
    edges = sorted(
        (u, v, tuple(sorted(papers))) for u, v, papers in gcn.edges()
    )
    return vertices, edges


def assignment_keys(batches):
    """Assignments minus the float scores (compared separately)."""
    return [
        [(a.name, a.position, a.vid, a.created) for a in batch]
        for batch in batches
    ]


def flat_scores(batches):
    return np.array([a.score for batch in batches for a in batch])


def counter_state(report):
    return (
        report.n_papers,
        report.n_mentions,
        report.n_attached,
        report.n_created,
        report.n_duplicates,
        dict(report.per_shard_papers),
    )


def assert_burst_parity(fitted, burst):
    """Run the burst and the oracle on deep copies; compare everything."""
    seq = copy.deepcopy(fitted)
    seq_stream = StreamingIngestor(seq)
    seq_assignments = [sequential_add_paper(seq_stream, p) for p in burst]

    bat = copy.deepcopy(fitted)
    ingestor = StreamingIngestor(bat)
    bat_assignments = ingestor.add_papers(burst)

    assert network_state(seq.gcn_) == network_state(bat.gcn_)
    assert assignment_keys(seq_assignments) == assignment_keys(bat_assignments)
    seq_scores = flat_scores(seq_assignments)
    bat_scores = flat_scores(bat_assignments)
    assert np.array_equal(np.isfinite(seq_scores), np.isfinite(bat_scores))
    finite = np.isfinite(seq_scores)
    assert np.allclose(seq_scores[finite], bat_scores[finite], atol=1e-9)
    assert counter_state(seq_stream.report) == counter_state(ingestor.report)
    # One-mention-per-paper invariant and unique occurrence ownership.
    owners: dict[tuple[int, int], int] = {}
    for vertex in bat.gcn_:
        for pid, position in vertex.mentions.items():
            key = (pid, position)
            assert key not in owners, f"mention {key} owned twice"
            owners[key] = vertex.vid
    return seq_stream, ingestor


@pytest.fixture(scope="module")
def fitted_and_burst(small_corpus):
    td = build_testing_dataset(small_corpus, n_names=12)
    _base_pids, new_pids = split_for_incremental(td, 60)
    new_set = set(new_pids)
    base = Corpus(p for p in small_corpus if p.pid not in new_set)
    iuad = IUAD(IUADConfig()).fit(base, names=td.names)
    burst = [small_corpus[pid] for pid in new_pids]
    return iuad, burst


class TestBurstParity:
    def test_burst_matches_sequential_loop(self, fitted_and_burst):
        fitted, burst = fitted_and_burst
        _seq, ingestor = assert_burst_parity(fitted, burst)
        stats = ingestor.last_batch
        assert stats is not None
        assert stats.n_fresh == len(burst)
        assert stats.n_scored_pairs >= stats.n_patched_pairs >= 0
        assert ingestor.report.n_batches == 1
        assert ingestor.report.n_waves == 1

    @pytest.mark.parametrize("seed", [3, 17])
    def test_shuffled_bursts(self, fitted_and_burst, seed):
        fitted, burst = fitted_and_burst
        shuffled = list(burst)
        random.Random(seed).shuffle(shuffled)
        assert_burst_parity(fitted, shuffled)

    def test_homonym_and_new_name_papers(self, fitted_and_burst):
        """Same-paper homonyms and brand-new names inside a burst."""
        fitted, burst = fitted_and_burst
        known = next(
            name
            for name in fitted.corpus_.names
            if len(fitted.gcn_.vertices_of_name(name)) >= 2
        )
        next_pid = max(p.pid for p in fitted.corpus_) + 10**6
        extras = [
            # one name listed twice: two homonymous co-authors
            Paper(next_pid, (known, known), "twin homonym graphs", "V-X", 2021),
            # a brand-new collaboration pair
            Paper(next_pid + 1, ("Aa New", "Bb New"), "fresh pair", "V-Y", 2021),
            # a follow-up touching both worlds
            Paper(next_pid + 2, ("Aa New", known), "bridge work", "V-X", 2022),
        ]
        mixed = burst[:10] + extras + burst[10:20]
        assert_burst_parity(fitted, mixed)

    def test_empty_batch(self, fitted_and_burst):
        fitted, _burst = fitted_and_burst
        bat = copy.deepcopy(fitted)
        ingestor = StreamingIngestor(bat)
        before = network_state(bat.gcn_)
        assert ingestor.add_papers([]) == []
        assert ingestor.report.n_papers == 0
        assert ingestor.report.n_batches == 0
        assert network_state(bat.gcn_) == before

    def test_multiple_batches_accumulate(self, fitted_and_burst):
        fitted, burst = fitted_and_burst
        bat = copy.deepcopy(fitted)
        ingestor = StreamingIngestor(bat)
        ingestor.add_papers(burst[:20])
        ingestor.add_papers(burst[20:40])
        seq = copy.deepcopy(fitted)
        stream = StreamingIngestor(seq)
        for paper in burst[:40]:
            sequential_add_paper(stream, paper)
        assert network_state(seq.gcn_) == network_state(bat.gcn_)
        assert ingestor.report.n_batches == 2
        assert ingestor.report.n_papers == 40


class TestDuplicatesInBatch:
    def test_raise_policy_rejects_before_mutating(self, fitted_and_burst):
        fitted, burst = fitted_and_burst
        bat = copy.deepcopy(fitted)
        ingestor = StreamingIngestor(bat)
        before = network_state(bat.gcn_)
        known_pid = next(iter(bat.corpus_)).pid
        with pytest.raises(ValueError, match="already ingested"):
            ingestor.add_papers(
                [burst[0], bat.corpus_[known_pid], burst[1]]
            )
        # Atomic validation: nothing was ingested, not even burst[0].
        assert network_state(bat.gcn_) == before
        assert ingestor.report.n_papers == 0

    def test_return_policy_replays_duplicates(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=8)
        _base, new_pids = split_for_incremental(td, 20)
        new_set = set(new_pids)
        base = Corpus(p for p in small_corpus if p.pid not in new_set)
        iuad = IUAD(
            IUADConfig(duplicate_paper_policy="return")
        ).fit(base, names=td.names)
        burst = [small_corpus[pid] for pid in new_pids]
        # the same paper twice within one batch
        doubled = burst + [burst[0]]
        seq_stream, ingestor = assert_burst_parity(iuad, doubled)
        assert ingestor.report.n_duplicates == 1
        replay = ingestor.add_papers([burst[0]])[0]
        assert all(not a.created for a in replay)
        assert all(np.isnan(a.score) for a in replay)


class TestDuplicatesAcrossRestart:
    """``duplicate_paper_policy="return"`` must replay identically when
    the duplicate arrives *after* a checkpoint restore — the owners are
    then reconstructed from deserialized mention payloads, not from any
    in-memory state of the process that ingested the paper."""

    @pytest.fixture()
    def fitted_return_policy(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=8)
        _base, new_pids = split_for_incremental(td, 20)
        new_set = set(new_pids)
        base = Corpus(p for p in small_corpus if p.pid not in new_set)
        iuad = IUAD(
            IUADConfig(duplicate_paper_policy="return")
        ).fit(base, names=td.names)
        return iuad, [small_corpus[pid] for pid in new_pids]

    def test_duplicate_replay_survives_restart(
        self, fitted_return_policy, tmp_path
    ):
        from repro.core import StreamingIngestor as Ingestor

        fitted, burst = fitted_return_policy
        # live reference: ingest, then replay a duplicate (no restart)
        live = Ingestor(copy.deepcopy(fitted))
        live.add_papers(burst)
        expected = live.add_papers([burst[0]])[0]
        assert all(np.isnan(a.score) for a in expected)

        # restart path: ingest, checkpoint, resume from disk, replay
        saver = Ingestor(copy.deepcopy(fitted), checkpoint_path=tmp_path / "ck.jsonl")
        saver.add_papers(burst)
        saver.checkpoint()
        resumed = Ingestor.resume(tmp_path / "ck.jsonl")
        replay = resumed.add_papers([burst[0]])[0]
        assert [(a.name, a.position, a.vid, a.created) for a in replay] == [
            (a.name, a.position, a.vid, a.created) for a in expected
        ]
        assert all(np.isnan(a.score) for a in replay)
        assert resumed.report.n_duplicates == live.report.n_duplicates == 1
        # the oracle agrees after the restore too
        scalar = sequential_add_paper(resumed, burst[1])
        assert [(a.name, a.position, a.vid, a.created) for a in scalar] == [
            (a.name, a.position, a.vid, a.created)
            for a in live.add_paper(burst[1])
        ]
        # nothing was mutated by either replay
        assert network_state(resumed.iuad.gcn_) == network_state(
            live.iuad.gcn_
        )


class TestShardedStreamingParity:
    def test_cross_shard_bridging_burst(self, small_corpus):
        """Sharded fit: bursts route, bridge and stay in parity."""
        td = build_testing_dataset(small_corpus, n_names=10)
        _base, new_pids = split_for_incremental(td, 30)
        new_set = set(new_pids)
        base = Corpus(p for p in small_corpus if p.pid not in new_set)
        sharded = ShardedIUAD(IUADConfig(max_shard_size=300)).fit(
            base, names=td.names
        )
        burst = [small_corpus[pid] for pid in new_pids]
        # A paper spanning two different shards bridges them; a paper of
        # unknown names opens a fresh block.
        index = sharded.shard_index_
        by_shard: dict[int, str] = {}
        for name in base.names:
            sid = index.shard_of_name(name)
            if sid is not None and sid not in by_shard:
                by_shard[sid] = name
            if len(by_shard) >= 2:
                break
        name_a, name_b = list(by_shard.values())[:2]
        next_pid = max(p.pid for p in small_corpus) + 10**6
        burst = burst[:15] + [
            Paper(next_pid, (name_a, name_b), "bridging work", "V-B", 2021),
            Paper(
                next_pid + 1,
                ("Unknown Zz One", "Unknown Zz Two"),
                "new block",
                "V-C",
                2021,
            ),
        ] + burst[15:]
        seq_stream, ingestor = assert_burst_parity(sharded, burst)
        assert sum(ingestor.report.per_shard_papers.values()) == len(burst)
        assert ingestor.shard_index.n_bridges >= 1

    def test_bulk_routing_matches_scalar_routing(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=10)
        _base, new_pids = split_for_incremental(td, 20)
        new_set = set(new_pids)
        base = Corpus(p for p in small_corpus if p.pid not in new_set)
        sharded = ShardedIUAD(IUADConfig(max_shard_size=300)).fit(base)
        burst = [small_corpus[pid] for pid in new_pids]
        a = copy.deepcopy(sharded.shard_index_)
        b = copy.deepcopy(sharded.shard_index_)
        bulk = a.route_papers(p.authors for p in burst)
        scalar = [b.route_paper(p.authors) for p in burst]
        assert bulk == scalar
        assert a.n_shards == b.n_shards
        assert a.n_bridges == b.n_bridges


# --------------------------------------------------------------------- #
# property: any cut of a stream into bursts matches the oracle
# --------------------------------------------------------------------- #
MAX_BURST = 8


@pytest.fixture(scope="module")
def oracle_streams(small_corpus):
    """A held-out stream with duplicates under ``"return"``, and the
    oracle's outcome on a plain and on a sharded fit (computed once: it
    does not depend on how the stream is cut)."""
    td = build_testing_dataset(small_corpus, n_names=8)
    _base, new_pids = split_for_incremental(td, 24)
    new_set = set(new_pids)
    base = Corpus(p for p in small_corpus if p.pid not in new_set)
    held = [small_corpus[pid] for pid in new_pids]
    known = next(iter(base))
    twin = next(n for n in base.names if len(base.papers_of_name(n)) >= 3)
    next_pid = max(p.pid for p in small_corpus) + 10**6
    # Duplicates a few papers apart (in-burst or cross-burst depending
    # on the cut), an immediate repeat, a base paper, and a homonym twin.
    stream = (
        held[:6] + [held[3]] + held[6:9] + [held[8], known]
        + [Paper(next_pid, (twin, twin), "twin homonyms", "V-T", 2021)]
        + held[9:] + [held[0], next(iter(base))]
    )
    fits = {
        "plain": IUAD(IUADConfig(duplicate_paper_policy="return")).fit(
            base, names=td.names
        ),
        "sharded": ShardedIUAD(IUADConfig(
            duplicate_paper_policy="return", max_shard_size=300
        )).fit(base, names=td.names),
    }
    outcomes = {}
    for kind, fitted in fits.items():
        oracle = StreamingIngestor(copy.deepcopy(fitted))
        assignments = [sequential_add_paper(oracle, p) for p in stream]
        outcomes[kind] = (
            network_state(oracle.iuad.gcn_),
            assignment_keys(assignments),
            counter_state(oracle.report),
        )
    return stream, fits, outcomes


@pytest.mark.parametrize("kind", ["plain", "sharded"])
@settings(max_examples=10, deadline=None)
@given(sizes=st.lists(
    st.integers(1, MAX_BURST), min_size=1, max_size=40
))
def test_random_burst_splits_match_oracle(oracle_streams, kind, sizes):
    stream, fits, outcomes = oracle_streams
    ingestor = StreamingIngestor(copy.deepcopy(fits[kind]))
    got: list = []
    start = 0
    for size in sizes:
        got.extend(ingestor.add_papers(stream[start: start + size]))
        start += size
    got.extend(ingestor.add_papers(stream[start:]))
    assert (
        network_state(ingestor.iuad.gcn_),
        assignment_keys(got),
        counter_state(ingestor.report),
    ) == outcomes[kind]
    assert ingestor.report.n_duplicates == 5
