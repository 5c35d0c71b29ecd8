"""Stage 1 — Stable Collaboration Network construction (paper, Section IV).

The SCN preserves only η-stable collaborative relations (η-SCRs: name pairs
co-occurring in at least η co-author lists) and the stable triangles they
form.  Construction follows the insertion algorithm of Figure 4:

1. η-SCRs are mined in one pass over the co-author lists (:func:`mine_scrs`)
   and inserted one by one (most frequent first, for determinism).
2. When inserting SCR ``(a, b)``, an existing vertex named ``a`` absorbs the
   new relation only if a *stable triangle certifies it*: some neighbour of
   that vertex has a name ``c`` with ``(c, b)`` also an η-SCR.  Otherwise a
   fresh vertex is created — the bottom-up stance that same-name mentions
   are different authors until proven otherwise.
3. When a triangle certifies, its closing SCR edge is materialised at the
   same time (Figure 4, steps ii–iii).
4. Every author mention not covered by any SCR becomes an isolated
   singleton vertex (Figure 4, step v).

Mention assignment is *per occurrence*: the unit being attributed is the
``(paper, name, position)`` :class:`~repro.data.records.Mention`, not a
``(paper, name)`` pair.  A paper listing the same name twice (two
homonymous co-authors) therefore yields two mentions that always land on
two distinct vertices — each paper's occurrences are assigned to disjoint
vertices (see :meth:`SCNBuilder._assign_mentions`), which is what makes the
downstream cannot-link constraint of Stage 2 (two same-paper mentions never
merge) structurally checkable at the network layer.

The binomial tail argument of Section IV-A (why frequent co-occurrence is
never a coincidence) lives in :func:`independence_tail_probability`; the
support threshold η of Definition 2 is the knob the whole stage hangs off.
The similarity functions γ1–γ6 that Stage 2 computes *on top of* this
network are documented in :mod:`repro.similarity.profile`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

from ..data.records import Corpus
from .collab import CollaborationNetwork

NamePair = tuple[str, str]


@dataclass(frozen=True, slots=True)
class SCNBuildReport:
    """Bookkeeping of one SCN construction run.

    ``n_mentions`` counts author occurrences (the per-occurrence mention
    model): a paper listing one name twice contributes two mentions.  It
    always equals the corpus's author–paper-pair total and the sum of
    per-vertex mention payloads — the reconciliation the tests pin.
    """

    eta: int
    n_scrs: int
    n_vertices: int
    n_mentions: int
    n_edges: int
    n_isolated: int
    n_triangle_certifications: int


def independence_tail_probability(
    n_a: int, n_b: int, n_papers: int, x: int
) -> float:
    """``Pr(X >= x)`` under the independence null (paper, Eq. 1).

    ``X ~ Binom(N, n_a·n_b/N²)`` is the number of co-occurrences of two
    independent names; the normal approximation with continuity correction
    gives the tail.  With the paper's running numbers
    (``n_a = n_b = 500, N = 5·10⁵, x = 3``) this evaluates to
    ``2.3389·10⁻³`` (Eq. 2) — frequent co-occurrence is essentially never
    random, which is why η-SCRs can be trusted.
    """
    if min(n_a, n_b, n_papers, x) < 0 or n_papers == 0:
        raise ValueError("counts must be non-negative and N positive")
    p = (n_a / n_papers) * (n_b / n_papers)
    mean = n_papers * p
    var = n_papers * p * (1.0 - p)
    if var == 0.0:
        return 1.0 if mean >= x else 0.0
    z = ((x - 0.5) - mean) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mine_scrs(corpus: Corpus, eta: int) -> dict[NamePair, set[int]]:
    """All η-SCRs with their supporting paper sets ``P_ab``.

    An η-SCR is a name pair co-occurring in at least η co-author lists
    (Definition 2), i.e. a frequent 2-itemset over the lists — the pair-only
    special case of frequent-itemset mining (Han, Pei & Yin, 2000), which
    needs no FP-tree.  One pass appends each paper's id to every pair of its
    distinct names, in natural order (``a < b``, as :func:`_ordered`); the
    support set carries the actual paper ids because SCN edges are
    paper-annotated (Definition 1).
    """
    supports: defaultdict[NamePair, list[int]] = defaultdict(list)
    for paper in corpus:
        for pair in combinations(sorted(set(paper.authors)), 2):
            supports[pair].append(paper.pid)
    return {
        pair: set(pids) for pair, pids in supports.items() if len(pids) >= eta
    }


class SCNBuilder:
    """Builds the stable collaboration network from a corpus."""

    def __init__(
        self,
        corpus: Corpus,
        eta: int = 2,
        certify_triangles: bool = True,
        require_triangle_instance: bool = True,
    ):
        """
        Args:
            corpus: The paper database.
            eta: Support threshold of stable collaborative relations.
            certify_triangles: When false, a new SCR endpoint is merged with
                *any* existing vertex of the same name (ablation switch; the
                paper's algorithm keeps this on).
            require_triangle_instance: Additionally require at least one
                paper whose co-author list contains all three names of a
                certifying triangle.  The paper states the triangle rule at
                the name level only, which is sound when homonyms are sparse
                (its own Figure 2/4 example does contain such a paper); with
                denser homonymy, a closing SCR formed by *unrelated* authors
                elsewhere in the corpus would falsely certify, so this check
                restores the rule's intended semantics.  Ablation bench
                ``test_ablations.py`` quantifies the effect.
        """
        if eta < 1:
            raise ValueError(f"eta must be >= 1, got {eta}")
        self.corpus = corpus
        self.eta = eta
        self.certify_triangles = certify_triangles
        self.require_triangle_instance = require_triangle_instance
        self._certifications = 0
        self._triples: frozenset[tuple[str, str, str]] = frozenset()
        if require_triangle_instance:
            self._triples = _cooccurring_triples(corpus)

    # ------------------------------------------------------------------ #
    def build(self) -> tuple[CollaborationNetwork, SCNBuildReport]:
        """Run the full Stage-1 construction."""
        scrs = mine_scrs(self.corpus, self.eta)
        net = CollaborationNetwork()
        scr_partners: dict[str, set[str]] = defaultdict(set)
        for a, b in scrs:
            scr_partners[a].add(b)
            scr_partners[b].add(a)

        # Deterministic insertion order: strongest relations first, then
        # lexicographic.  Stronger edges form the cores that later SCRs
        # certify against.
        ordered = sorted(scrs.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        for (a, b), papers in ordered:
            self._insert_scr(net, scrs, scr_partners, a, b, papers)

        self._assign_mentions(net)
        report = SCNBuildReport(
            eta=self.eta,
            n_scrs=len(scrs),
            n_vertices=len(net),
            n_mentions=net.n_mentions,
            n_edges=net.n_edges,
            n_isolated=len(net.isolated_vertices()),
            n_triangle_certifications=self._certifications,
        )
        return net, report

    # ------------------------------------------------------------------ #
    def _insert_scr(
        self,
        net: CollaborationNetwork,
        scrs: dict[NamePair, set[int]],
        scr_partners: dict[str, set[str]],
        a: str,
        b: str,
        papers: set[int],
    ) -> None:
        if self._edge_exists(net, a, b):
            # Already materialised as the closing edge of an earlier
            # triangle certification.
            return
        va = self._certified_vertex(net, scr_partners, a, partner=b)
        vb = self._certified_vertex(net, scr_partners, b, partner=a)
        if va is None:
            va = net.add_vertex(a)
        if vb is None:
            vb = net.add_vertex(b)
        net.add_edge(va, vb, papers)
        # Materialise the closing edges of every certifying triangle
        # (Figure 4 steps ii-iii: inserting (a,c) also creates edge (b,c)).
        for endpoint, anchor_name, other in ((va, a, b), (vb, b, a)):
            other_vid = vb if endpoint == va else va
            for nbr in list(net.neighbors(endpoint)):
                if nbr == other_vid:
                    continue
                nbr_name = net.name_of(nbr)
                closing = _ordered(nbr_name, other)
                if closing not in scrs or net.has_edge(nbr, other_vid):
                    continue
                if self.require_triangle_instance and (
                    _ordered_triple(anchor_name, nbr_name, other)
                    not in self._triples
                ):
                    continue
                net.add_edge(nbr, other_vid, scrs[closing])

    def _certified_vertex(
        self,
        net: CollaborationNetwork,
        scr_partners: dict[str, set[str]],
        name: str,
        partner: str,
    ) -> int | None:
        """Existing vertex of ``name`` certified to absorb SCR (name, partner).

        Certification = a neighbour of the vertex carries a name ``c`` such
        that ``(c, partner)`` is itself an η-SCR, i.e. the three relations
        close a stable collaborative triangle.  Returns the vertex with the
        most certifying neighbours (ties: oldest vertex).
        """
        candidates = net.vertices_of_name(name)
        if not candidates:
            return None
        if not self.certify_triangles:
            return candidates[0]
        partner_scrs = scr_partners.get(partner, set())
        best: int | None = None
        best_score = 0
        for vid in candidates:
            score = 0
            for nbr in net.neighbors(vid):
                nbr_name = net.name_of(nbr)
                if nbr_name not in partner_scrs:
                    continue
                if self.require_triangle_instance and (
                    _ordered_triple(name, nbr_name, partner) not in self._triples
                ):
                    continue
                score += 1
            if score > best_score:
                best, best_score = vid, score
        if best is not None:
            self._certifications += 1
        return best

    @staticmethod
    def _edge_exists(net: CollaborationNetwork, a: str, b: str) -> bool:
        for vid in net.vertices_of_name(a):
            for nbr in net.neighbors(vid):
                if net.name_of(nbr) == b:
                    return True
        return False

    # ------------------------------------------------------------------ #
    def _assign_mentions(self, net: CollaborationNetwork) -> None:
        """Uniquely attribute every author *occurrence* to one vertex.

        The unit is the positional mention ``(paper, name, position)``.
        Occurrences covered by an SCR edge go to the owning vertex (the one
        whose incident edge support contains the paper; ties resolved toward
        the vertex whose edges cover more papers, then the older vertex);
        uncovered occurrences become isolated singleton vertices (Figure 4,
        step v).

        Within one paper, occurrences are assigned to *disjoint* vertices:
        once a vertex owns an occurrence of the paper it is barred from the
        paper's later occurrences, so a name listed twice (two homonymous
        co-authors) always produces two vertices — the second occurrence
        takes the runner-up SCR vertex, or a fresh singleton when no other
        covering vertex exists.
        """
        # The papers each SCR vertex's incident edge supports cover, and
        # the owner candidates: name -> pid -> [vid]
        covered: dict[int, set[int]] = {}
        owners: dict[str, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
        for vertex in net:
            covered[vertex.vid] = set().union(*net.adjacency(vertex.vid).values())
            for pid in covered[vertex.vid]:
                owners[vertex.name][pid].append(vertex.vid)
        # vid -> [(pid, position)]
        assigned: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for paper in self.corpus:
            used: set[int] = set()  # vertices already given an occurrence
            for position, name in enumerate(paper.authors):
                candidates = [
                    vid
                    for vid in owners.get(name, {}).get(paper.pid, [])
                    if vid not in used
                ]
                if not candidates:
                    vid = net.add_vertex(name)
                elif len(candidates) == 1:
                    vid = candidates[0]
                else:
                    vid = max(
                        candidates,
                        key=lambda v: (len(covered[v]), -v),
                    )
                used.add(vid)
                assigned[vid].append((paper.pid, position))
        for vertex in net:
            net.set_mentions(vertex.vid, assigned.get(vertex.vid, ()))


def build_scn(
    corpus: Corpus,
    eta: int = 2,
    certify_triangles: bool = True,
    require_triangle_instance: bool = True,
) -> tuple[CollaborationNetwork, SCNBuildReport]:
    """Convenience wrapper: build the SCN of ``corpus`` with threshold η."""
    return SCNBuilder(
        corpus, eta, certify_triangles, require_triangle_instance
    ).build()


def _ordered(a: str, b: str) -> NamePair:
    return (a, b) if a <= b else (b, a)


def _ordered_triple(a: str, b: str, c: str) -> tuple[str, str, str]:
    x, y, z = sorted((a, b, c))
    return (x, y, z)


def _cooccurring_triples(corpus: Corpus) -> frozenset[tuple[str, str, str]]:
    """All name triples appearing together on at least one paper."""
    triples: set[tuple[str, str, str]] = set()
    for paper in corpus:
        names = sorted(set(paper.authors))
        n = len(names)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    triples.add((names[i], names[j], names[k]))
    return frozenset(triples)
