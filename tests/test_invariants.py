"""Cross-module invariants: determinism, kernel bounds, merge algebra,
and the seed-swept shard-merge structural guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IUAD, IUADConfig, ShardedIUAD
from repro.data import build_testing_dataset
from repro.data.records import Corpus, Paper
from repro.data.synthetic import SyntheticConfig, SyntheticDBLP, ambiguous_names
from repro.graphs import CollaborationNetwork, UnionFind, wl_feature_map, wl_kernel
from repro.model import MatchMixture, match_scores


class TestDeterminism:
    def test_iuad_is_deterministic(self, small_corpus):
        td = build_testing_dataset(small_corpus, n_names=5)
        a = IUAD(IUADConfig()).fit(small_corpus, names=td.names)
        b = IUAD(IUADConfig()).fit(small_corpus, names=td.names)
        for name in td.names:
            clusters_a = sorted(map(sorted, a.clusters_of_name(name).values()))
            clusters_b = sorted(map(sorted, b.clusters_of_name(name).values()))
            assert clusters_a == clusters_b


@st.composite
def random_networks(draw):
    n = draw(st.integers(2, 10))
    net = CollaborationNetwork()
    names = [f"n{draw(st.integers(0, 4))}" for _ in range(n)]
    for name in names:
        net.add_vertex(name)
    n_edges = draw(st.integers(0, 2 * n))
    pid = 0
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            net.add_edge(u, v, {pid})
            pid += 1
    return net


class TestWLKernelProperties:
    @given(net=random_networks(), h=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_cauchy_schwarz(self, net, h):
        """K(u,v)^2 <= K(u,u) * K(v,v) for every vertex pair."""
        phis = {v.vid: wl_feature_map(net, v.vid, h) for v in net}
        vids = list(phis)
        for u in vids[:4]:
            for v in vids[:4]:
                kuv = wl_kernel(phis[u], phis[v])
                assert kuv**2 <= wl_kernel(phis[u], phis[u]) * wl_kernel(
                    phis[v], phis[v]
                ) + 1e-9

    @given(net=random_networks())
    @settings(max_examples=30, deadline=None)
    def test_kernel_symmetry(self, net):
        phis = {v.vid: wl_feature_map(net, v.vid, 2) for v in net}
        vids = list(phis)[:5]
        for u in vids:
            for v in vids:
                assert wl_kernel(phis[u], phis[v]) == wl_kernel(phis[v], phis[u])


class TestMergeAlgebra:
    def test_merged_with_identity_union_preserves_structure(self):
        net = CollaborationNetwork()
        a = net.add_vertex("a", mentions=((0, 0),))
        b = net.add_vertex("b", mentions=((0, 1),))
        net.add_edge(a, b, {0})
        out = net.merged(UnionFind([a, b]))
        assert len(out) == 2
        assert out.n_edges == 1
        assert out.papers_of(0) == {0}

    def test_merged_is_idempotent(self):
        net = CollaborationNetwork()
        x1 = net.add_vertex("x", mentions=((0, 0),))
        x2 = net.add_vertex("x", mentions=((1, 0),))
        y = net.add_vertex("y", mentions=((0, 1), (1, 1)))
        net.add_edge(x1, y, {0})
        net.add_edge(x2, y, {1})
        uf = UnionFind([x1, x2, y])
        uf.union(x1, x2)
        once = net.merged(uf)
        twice = once.merged(UnionFind(v.vid for v in once))
        assert len(once) == len(twice)
        assert once.n_edges == twice.n_edges


def _homonym_world(seed: int) -> Corpus:
    """A small ambiguous corpus with two injected duplicate-name papers.

    The synthetic generator never emits a paper listing one name twice
    (real data almost never does), so the cannot-link machinery is
    exercised by appending hand-made homonym papers: an ambiguous name
    appears at two positions of one co-author list — two provably
    distinct people.
    """
    corpus = SyntheticDBLP(
        SyntheticConfig(
            n_authors=120,
            n_papers=260,
            name_pool_size=90,
            n_communities=12,
            seed=seed,
        )
    ).generate()
    names = ambiguous_names(corpus)
    assert names, "sweep corpus must contain duplicate names"
    next_pid = max(p.pid for p in corpus) + 1
    fresh_aid = 10_000_000
    papers = list(corpus)
    for offset, name in enumerate(names[:2]):
        papers.append(
            Paper(
                pid=next_pid + offset,
                authors=(name, name, names[-1]),
                title="homonym collision paper",
                venue="GEN-0",
                year=2019,
                author_ids=(
                    fresh_aid + 3 * offset,
                    fresh_aid + 3 * offset + 1,
                    fresh_aid + 3 * offset + 2,
                ),
            )
        )
    return Corpus(papers)


@pytest.mark.parametrize("seed", range(20))
class TestShardMergeInvariants:
    """Seed-swept structural guarantees of the sharded fit.

    Fitting is sharded aggressively (tiny pair budget, so blocks split
    and pack) and every invariant is checked on the fitted network.
    """

    CONFIG = dict(
        use_embeddings=False,
        min_training_pairs=40,
        max_shard_size=60,
    )

    @pytest.fixture()
    def fitted(self, seed):
        corpus = _homonym_world(seed)
        sharded = ShardedIUAD(IUADConfig(**self.CONFIG)).fit(corpus)
        return corpus, sharded

    def test_one_mention_per_paper_per_vertex(self, seed, fitted):
        corpus, sharded = fitted
        gcn = sharded.gcn_
        for vertex in gcn:
            # the payload is one position per paper, and the attribution
            # view agrees with it exactly
            assert set(vertex.papers) == set(vertex.mentions)
            for pid, position in vertex.mentions.items():
                assert corpus[pid].authors[position] == vertex.name

    def test_cannot_links_survive_remapping(self, seed, fitted):
        corpus, sharded = fitted
        gcn = sharded.gcn_
        assert sharded.cannot_links_, "homonym papers must induce links"
        for u, v in sharded.cannot_links_:
            assert u != v  # the pair was never merged
            assert gcn.name_of(u) == gcn.name_of(v)
            shared = gcn.papers_of(u) & gcn.papers_of(v)
            assert shared  # still anchored on a shared paper
            for pid in shared:
                assert gcn.mentions_of(u)[pid] != gcn.mentions_of(v)[pid]
        # and the homonym papers' occurrences really sit in different
        # clusters of their name
        for paper in corpus:
            for name in set(paper.authors):
                positions = paper.positions_of(name)
                if len(positions) < 2:
                    continue
                clusters = sharded.mention_clusters_of_name(name)
                owners = [
                    vid
                    for position in positions
                    for vid, units in clusters.items()
                    if (paper.pid, position) in units
                ]
                assert len(owners) == len(positions)
                assert len(set(owners)) == len(positions)

    def test_mention_clusters_partition_corpus_occurrences(
        self, seed, fitted
    ):
        corpus, sharded = fitted
        assert sharded.gcn_.n_mentions == corpus.num_author_paper_pairs
        for name in corpus.names:
            expected = {
                (pid, position)
                for pid in set(corpus.papers_of_name(name))
                for position in corpus[pid].positions_of(name)
            }
            clusters = sharded.mention_clusters_of_name(name)
            units = [u for us in clusters.values() for u in us]
            assert len(units) == len(set(units))  # pairwise disjoint
            assert set(units) == expected  # exactly the occurrences


class TestScoreProperties:
    def test_scores_shift_with_prior(self):
        rng = np.random.default_rng(0)
        X = np.abs(rng.normal(0.3, 0.2, (50, 6)))
        model = MatchMixture()
        model.fit(X, max_iterations=5)
        base = match_scores(model, X)
        model.prior_match = min(model.prior_match * 2, 0.99)
        higher = match_scores(model, X)
        assert np.all(higher >= base - 1e-9)

    def test_scores_finite_on_extreme_inputs(self):
        rng = np.random.default_rng(1)
        X = np.abs(rng.normal(0.3, 0.2, (50, 6)))
        model = MatchMixture()
        model.fit(X, max_iterations=5)
        extreme = np.array(
            [[0.0] * 6, [1e6] * 6, [0.0, 1e6, -1.0, 0.0, 1e6, 0.0]]
        )
        scores = match_scores(model, extreme)
        assert np.all(np.isfinite(scores))
