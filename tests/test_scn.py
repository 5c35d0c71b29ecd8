"""Tests for Stage 1 — SCN construction (the Figure 2/4 running example)."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import Corpus, Paper
from repro.graphs.scn import (
    SCNBuilder,
    build_scn,
    independence_tail_probability,
    mine_scrs,
)


class TestIndependenceTail:
    def test_paper_equation_2(self):
        """Eq. 2: Pr(X >= 3) = 2.3389e-3 with the paper's numbers."""
        p = independence_tail_probability(500, 500, 500_000, 3)
        assert p == pytest.approx(2.3389e-3, rel=1e-3)

    def test_monotone_in_x(self):
        p2 = independence_tail_probability(500, 500, 500_000, 2)
        p3 = independence_tail_probability(500, 500, 500_000, 3)
        p5 = independence_tail_probability(500, 500, 500_000, 5)
        assert p2 > p3 > p5

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            independence_tail_probability(-1, 5, 100, 2)
        with pytest.raises(ValueError):
            independence_tail_probability(1, 5, 0, 2)


def corpus_of(rows) -> Corpus:
    return Corpus(
        Paper(pid=pid, authors=tuple(authors), title="t", venue="V", year=2000)
        for pid, authors in enumerate(rows, start=1)
    )


def brute_force_scrs(corpus: Corpus, eta: int) -> dict[tuple[str, str], set[int]]:
    """Oracle: for every pair of distinct corpus names, the papers listing both."""
    out = {}
    for a, b in combinations(sorted(corpus.names), 2):
        support = {p.pid for p in corpus if a in p.authors and b in p.authors}
        if len(support) >= eta:
            out[(a, b)] = support
    return out


#: Names built from quote, backslash and space characters as well as
#: letters: their ``repr`` order differs from their natural order.
quoted_names = st.text(alphabet="ab'\"\\ ", min_size=1, max_size=3)


@st.composite
def quoted_corpora(draw) -> Corpus:
    pool = draw(st.lists(quoted_names, min_size=2, max_size=6, unique=True))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=1, max_size=5),
            min_size=1,
            max_size=20,
        )
    )
    return corpus_of(rows)


class TestMineSCRs:
    def test_supports_carry_paper_ids(self, figure2_corpus):
        scrs = mine_scrs(figure2_corpus, 2)
        assert scrs[("a", "c")] == {0, 1, 2, 3}
        assert scrs[("b", "e")] == {4, 5}
        assert ("b", "f") not in scrs

    def test_pairs_match_figure2(self, figure2_corpus):
        """Figure 2's frequent 2-itemsets, verbatim, as support sizes."""
        scrs = mine_scrs(figure2_corpus, 2)
        assert {pair: len(pids) for pair, pids in scrs.items()} == {
            ("a", "b"): 3,
            ("a", "c"): 4,
            ("a", "d"): 2,
            ("b", "c"): 3,
            ("b", "e"): 2,
            ("c", "d"): 2,
        }

    def test_duplicates_in_paper_counted_once(self):
        assert mine_scrs(corpus_of([("a", "b", "a")]), 1) == {("a", "b"): {1}}

    def test_support_threshold(self, figure2_corpus):
        assert mine_scrs(figure2_corpus, 5) == {}
        assert set(mine_scrs(figure2_corpus, 4)) == {("a", "c")}

    def test_quoted_names_keep_their_supports(self):
        """``repr("O'Brien")`` starts with a double quote, so ordering pairs
        by ``repr`` disagrees with the natural order every SCN lookup uses."""
        corpus = corpus_of([("Adams", "O'Brien", "Chen")] * 3)
        assert mine_scrs(corpus, 2) == {
            ("Adams", "Chen"): {1, 2, 3},
            ("Adams", "O'Brien"): {1, 2, 3},
            ("Chen", "O'Brien"): {1, 2, 3},
        }
        net, report = build_scn(corpus)
        assert report.n_vertices == 3 and report.n_isolated == 0
        assert all(vertex.papers == {1, 2, 3} for vertex in net)

    @given(corpus=quoted_corpora(), eta=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_count(self, corpus, eta):
        assert mine_scrs(corpus, eta) == brute_force_scrs(corpus, eta)
        net, report = build_scn(corpus, eta=eta)
        assert all(vertex.mentions for vertex in net)
        assert report.n_mentions == corpus.num_author_paper_pairs


class TestFigure2Construction:
    """The full running example: expected vertices, edges, papers."""

    @pytest.fixture()
    def scn(self, figure2_corpus):
        net, report = build_scn(figure2_corpus, eta=2)
        return net, report

    def test_report_counts(self, scn):
        _net, report = scn
        assert report.eta == 2
        assert report.n_scrs == 6
        assert report.n_vertices == 10
        assert report.n_isolated == 4

    def test_cluster_abcd(self, scn):
        net, _ = scn
        # one vertex per name in the stable cluster
        for name, papers in [
            ("a", {0, 1, 2, 3}),
            ("c", {0, 1, 2, 3}),
            ("d", {0, 1}),
        ]:
            (vid,) = [
                v for v in net.vertices_of_name(name) if len(net.papers_of(v)) > 1
            ]
            assert net.papers_of(vid) == papers

    def test_name_b_splits_into_four_vertices(self, scn):
        net, _ = scn
        b_vertices = net.vertices_of_name("b")
        assert len(b_vertices) == 4
        paper_sets = sorted(
            (sorted(net.papers_of(v)) for v in b_vertices), key=lambda s: (len(s), s)
        )
        assert paper_sets == [[6], [7], [4, 5], [0, 2, 3]]

    def test_isolated_vertices_have_no_edges(self, scn):
        net, _ = scn
        for name in ("f", "g"):
            (vid,) = net.vertices_of_name(name)
            assert net.degree(vid) == 0

    def test_triangle_edges_materialised(self, scn):
        net, _ = scn
        (a,) = [
            v for v in net.vertices_of_name("a") if len(net.papers_of(v)) > 1
        ]
        neighbor_names = {net.name_of(n) for n in net.neighbors(a)}
        assert neighbor_names == {"b", "c", "d"}


class TestMentionAssignment:
    def test_every_occurrence_assigned_exactly_once(self, small_corpus):
        net, _ = build_scn(small_corpus, eta=2)
        seen: dict[tuple[int, int], int] = {}
        for vertex in net:
            for pid, position in vertex.mentions.items():
                key = (pid, position)
                assert key not in seen, f"mention {key} owned twice"
                seen[key] = vertex.vid
        total_mentions = small_corpus.num_author_paper_pairs
        assert len(seen) == total_mentions

    def test_vertex_papers_match_mentions(self, small_corpus):
        net, _ = build_scn(small_corpus, eta=2)
        for vertex in net:
            assert vertex.papers == set(vertex.mentions)
            for pid, position in vertex.mentions.items():
                assert small_corpus[pid].authors[position] == vertex.name


class TestHomonymAssignment:
    """Per-occurrence mention model: a paper listing one name twice."""

    @pytest.fixture()
    def homonym_corpus(self) -> Corpus:
        # Name "x" has two SCR-covered vertices (via partners p and q);
        # paper 4 lists "x" twice — two homonymous co-authors.
        rows = [
            ("x", "p"),
            ("x", "p"),
            ("x", "q"),
            ("x", "q"),
            ("x", "x", "p", "q"),
        ]
        return Corpus(
            Paper(
                pid=i,
                authors=authors,
                title=f"paper {i}",
                venue="V",
                year=2000 + i,
            )
            for i, authors in enumerate(rows)
        )

    def test_occurrences_land_on_distinct_scr_vertices(self, homonym_corpus):
        """Regression for the (name, paper) conflation: when the duplicated
        name is covered by η-SCRs, the two occurrences must land on two
        distinct vertices, not be folded onto one."""
        net, _ = build_scn(homonym_corpus, eta=2)
        owners = [
            vid for vid in net.vertices_of_name("x") if 4 in net.papers_of(vid)
        ]
        assert len(owners) == 2
        positions = sorted(net.mentions_of(vid)[4] for vid in owners)
        assert positions == [0, 1]
        # The first occurrence goes to the preferred (older, equal-paper)
        # SCR vertex, the second to the runner-up — never a fresh singleton
        # while a covering vertex is free.
        for vid in owners:
            assert len(net.papers_of(vid)) == 3

    def test_second_occurrence_falls_back_to_singleton(self):
        """With a single covering vertex, the later occurrence opens a
        fresh singleton instead of double-attributing the paper."""
        corpus = Corpus(
            [
                Paper(0, ("x", "p"), "t0", "V", 2000),
                Paper(1, ("x", "p"), "t1", "V", 2001),
                Paper(2, ("x", "x", "p"), "t2", "V", 2002),
            ]
        )
        net, _ = build_scn(corpus, eta=2)
        owners = {
            vid: net.mentions_of(vid)[2]
            for vid in net.vertices_of_name("x")
            if 2 in net.papers_of(vid)
        }
        assert len(owners) == 2
        assert sorted(owners.values()) == [0, 1]
        singleton = next(
            vid for vid, pos in owners.items() if len(net.papers_of(vid)) == 1
        )
        assert owners[singleton] == 1  # the *second* occurrence split off

    def test_report_counts_mentions_per_occurrence(self, homonym_corpus):
        """Satellite: SCNBuildReport totals must reconcile with the
        per-occurrence model on a homonym corpus."""
        net, report = build_scn(homonym_corpus, eta=2)
        # 2+2+2+2+4 author-paper pairs, the duplicate name counted twice.
        assert report.n_mentions == 12
        assert report.n_mentions == homonym_corpus.num_author_paper_pairs
        assert report.n_mentions == net.n_mentions
        assert report.n_mentions == sum(len(v.mentions) for v in net)
        assert report.n_vertices == len(net) == 4


class TestKnobs:
    def test_eta_validation(self, figure2_corpus):
        with pytest.raises(ValueError):
            SCNBuilder(figure2_corpus, eta=0)

    def test_higher_eta_is_stricter(self, small_corpus):
        _net2, rep2 = build_scn(small_corpus, eta=2)
        _net3, rep3 = build_scn(small_corpus, eta=3)
        assert rep3.n_scrs <= rep2.n_scrs
        assert rep3.n_isolated >= rep2.n_isolated

    def test_certification_off_merges_more(self, small_corpus):
        net_on, _ = build_scn(small_corpus, eta=2, certify_triangles=True)
        net_off, _ = build_scn(small_corpus, eta=2, certify_triangles=False)
        assert len(net_off) <= len(net_on)

    def test_triangle_instance_flag(self, small_corpus):
        net_strict, rep_strict = build_scn(
            small_corpus, eta=2, require_triangle_instance=True
        )
        net_loose, rep_loose = build_scn(
            small_corpus, eta=2, require_triangle_instance=False
        )
        # the strict rule certifies a subset of what the loose rule does
        assert (
            rep_strict.n_triangle_certifications
            <= rep_loose.n_triangle_certifications
        )
