"""Collaboration network: vertices are author-identity hypotheses.

Definition 1 of the paper: a collaboration network is a graph
``G = (V, E, P)`` where every vertex is an author (here: an author-identity
hypothesis carrying a *name*, a set of papers, and the per-occurrence
*mentions* it owns) and every edge ``(u, v)`` carries the set of papers
``P_uv`` co-authored by ``u`` and ``v``.

The same structure serves both stages: Stage 1 builds it from η-SCRs (high
precision, possibly several vertices per true author), Stage 2 merges
same-name vertices into the global collaboration network.

Mention payloads
----------------

A vertex's ``mentions`` map ``pid -> position`` records which occurrence of
the vertex's name on each paper the vertex owns (the
:class:`~repro.data.records.Mention` identity).  The structural invariant of
the whole pipeline lives here: **a vertex owns at most one mention per
paper** — a real author appears at most once on any co-author list.
:meth:`CollaborationNetwork.add_mention` enforces it on insertion, and
:meth:`CollaborationNetwork.merged` re-checks it when components collapse,
so two same-paper mentions (two homonymous co-authors) can never end up on
one vertex.  ``papers`` remains the plain paper-id view that the similarity
profiles consume; for pipeline-built networks it is exactly
``set(mentions)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .unionfind import UnionFind

#: A mention unit as stored on vertices: ``(paper id, co-author position)``.
MentionKey = tuple[int, int]

#: The JSON-ready structural state of a network, as produced by
#: :meth:`CollaborationNetwork.export_parts` and consumed by
#: :meth:`CollaborationNetwork.from_parts`:
#: ``(vertices, edges, name_index, next_vid)``.
NetworkParts = tuple[
    list[tuple[int, str, list[int], list[MentionKey]]],
    list[tuple[int, int, list[int]]],
    list[tuple[str, list[int]]],
    int,
]


@dataclass(slots=True)
class Vertex:
    """An author-identity hypothesis: one name plus its attributed papers.

    ``mentions`` maps each attributed paper id to the co-author-list
    position of the occurrence this vertex owns.  At most one position per
    paper — an author never appears twice on one co-author list.
    """

    vid: int
    name: str
    papers: set[int] = field(default_factory=set)
    mentions: dict[int, int] = field(default_factory=dict)

    def __repr__(self) -> str:  # compact debugging output
        return f"Vertex({self.vid}, {self.name!r}, {sorted(self.papers)})"


class CollaborationNetwork:
    """Mutable collaboration network with paper-annotated edges.

    Vertices are addressed by integer ids; an index ``name -> [vid]`` makes
    same-name candidate enumeration (Stage 2) cheap.
    """

    def __init__(self) -> None:
        self._vertices: dict[int, Vertex] = {}
        self._by_name: dict[str, list[int]] = {}
        # adjacency: vid -> {other_vid: set of shared paper ids}
        self._adj: dict[int, dict[int, set[int]]] = {}
        self._next_vid = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_vertex(
        self,
        name: str,
        papers: Iterable[int] = (),
        vid: int | None = None,
        mentions: Iterable[MentionKey] = (),
    ) -> int:
        """Create a vertex for ``name`` and return its id.

        ``vid`` pins an explicit id (used by ``merged(..., preserve_ids=True)``
        so surviving vertices keep their identity across merge rounds);
        fresh ids stay unique either way.  ``mentions`` seeds the
        per-occurrence payload — the mentioned paper ids are attributed
        automatically.
        """
        if vid is None:
            vid = self._next_vid
            self._next_vid += 1
        else:
            if vid in self._vertices:
                raise ValueError(f"vertex id {vid} already exists")
            self._next_vid = max(self._next_vid, vid + 1)
        mention_map = self._as_mention_map(vid, mentions)
        self._vertices[vid] = Vertex(
            vid=vid,
            name=name,
            papers=set(papers) | set(mention_map),
            mentions=mention_map,
        )
        self._by_name.setdefault(name, []).append(vid)
        self._adj[vid] = {}
        return vid

    def add_edge(self, u: int, v: int, papers: Iterable[int]) -> None:
        """Add (or extend) the edge ``(u, v)`` with ``papers``."""
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        paper_set = set(papers)
        self._adj[u].setdefault(v, set()).update(paper_set)
        self._adj[v].setdefault(u, set()).update(paper_set)
        self._vertices[u].papers.update(paper_set)
        self._vertices[v].papers.update(paper_set)

    def add_papers(self, vid: int, papers: Iterable[int]) -> None:
        """Attribute extra papers to a vertex (no edge, no mention)."""
        self._vertices[vid].papers.update(papers)

    def set_papers(self, vid: int, papers: Iterable[int]) -> None:
        """Overwrite a vertex's paper attribution.

        The SCN builder uses this to make mention assignment unique when a
        paper's co-author list is covered by SCRs that landed on different
        vertices of the same name (edge paper sets are left untouched — they
        remain the collaboration evidence).
        """
        self._vertices[vid].papers = set(papers)

    # ------------------------------------------------------------------ #
    # mention payloads (per-occurrence identity)
    # ------------------------------------------------------------------ #
    def add_mention(self, vid: int, pid: int, position: int) -> None:
        """Attribute the mention ``(pid, position)`` to ``vid``.

        Enforces the one-mention-per-paper invariant: a vertex that already
        owns an occurrence of ``pid`` cannot absorb a second one — the two
        occurrences are two homonymous co-authors, provably distinct.
        """
        vertex = self._vertices[vid]
        if pid in vertex.mentions:
            raise ValueError(
                f"vertex {vid} already owns a mention of paper {pid} "
                f"(position {vertex.mentions[pid]}); same-paper mentions "
                "are distinct authors"
            )
        vertex.mentions[pid] = position
        vertex.papers.add(pid)

    def set_mentions(self, vid: int, mentions: Iterable[MentionKey]) -> None:
        """Overwrite a vertex's mention payload *and* paper attribution.

        The final step of Stage-1 mention assignment: after it, the vertex's
        attributed papers are exactly the papers of its mentions.
        """
        vertex = self._vertices[vid]
        vertex.mentions = self._as_mention_map(vid, mentions)
        vertex.papers = set(vertex.mentions)

    def mentions_of(self, vid: int) -> dict[int, int]:
        """``pid -> position`` of every mention owned by ``vid``."""
        return dict(self._vertices[vid].mentions)

    @property
    def n_mentions(self) -> int:
        """Total mentions attributed across all vertices (per occurrence)."""
        return sum(len(v.mentions) for v in self._vertices.values())

    @staticmethod
    def _as_mention_map(vid: int, mentions: Iterable[MentionKey]) -> dict[int, int]:
        out: dict[int, int] = {}
        for pid, position in mentions:
            if pid in out:
                raise ValueError(
                    f"vertex {vid}: two mentions of paper {pid} "
                    f"(positions {out[pid]} and {position})"
                )
            out[pid] = position
        return out

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, vid: int) -> bool:
        return vid in self._vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def vertex(self, vid: int) -> Vertex:
        return self._vertices[vid]

    def name_of(self, vid: int) -> str:
        return self._vertices[vid].name

    def papers_of(self, vid: int) -> set[int]:
        return self._vertices[vid].papers

    def vertices_of_name(self, name: str) -> list[int]:
        """Ids of all vertices carrying ``name`` (Stage-2 candidates)."""
        return list(self._by_name.get(name, ()))

    def owner_of(
        self, pid: int, position: int, name: str | None = None
    ) -> int | None:
        """The vertex owning mention ``(pid, position)`` — the who-is query.

        With ``name`` the search is confined to that name's vertices (the
        name index makes it cheap, and a mention can only ever be owned by
        a vertex of its own name); without it every vertex is scanned.
        Returns ``None`` when nobody owns the occurrence — possible for
        hand-built networks without mention payloads, or for a position
        that never existed.  This is the one query path shared by the
        incremental duplicate replay
        (:meth:`~repro.core.streaming.StreamingIngestor.add_papers`
        under ``duplicate_paper_policy="return"``) and the serving layer's
        :class:`~repro.service.FittedView` projection builder.
        """
        vids: Iterable[int] = (
            self._by_name.get(name, ()) if name is not None else self._vertices
        )
        for vid in vids:
            if self._vertices[vid].mentions.get(pid) == position:
                return vid
        return None

    @property
    def names(self) -> list[str]:
        return list(self._by_name)

    def neighbors(self, vid: int) -> dict[int, set[int]]:
        """Adjacent vertices with the shared paper set of each edge."""
        return dict(self._adj[vid])

    def adjacency(self, vid: int) -> Mapping[int, set[int]]:
        """Read-only view of ``vid``'s adjacency — no defensive copy.

        The hot paths (WL feature maps, triangle enumeration, BFS
        invalidation balls) walk adjacencies millions of times; copying a
        dict per visit (:meth:`neighbors`) dominates their cost.  Callers
        must not mutate the returned mapping.
        """
        return self._adj[vid]

    def degree(self, vid: int) -> int:
        return len(self._adj[vid])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, {})

    def edge_papers(self, u: int, v: int) -> set[int]:
        """``P_uv`` — papers of the edge (empty set if absent)."""
        return set(self._adj.get(u, {}).get(v, ()))

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def edges(self) -> Iterator[tuple[int, int, set[int]]]:
        """All edges as ``(u, v, P_uv)`` with ``u < v``."""
        for u, nbrs in self._adj.items():
            for v, papers in nbrs.items():
                if u < v:
                    yield u, v, set(papers)

    def isolated_vertices(self) -> list[int]:
        """Vertices with no incident edge."""
        return [vid for vid, nbrs in self._adj.items() if not nbrs]

    def remove_isolated_vertex(self, vid: int) -> None:
        """Remove a vertex that has no incident edges.

        Used by the incremental mode to discard probe vertices once their
        mention has been attached elsewhere.  Vertices with edges cannot be
        removed (ids must stay stable for everything else).
        """
        if self._adj[vid]:
            raise ValueError(f"vertex {vid} has edges; only isolated vertices are removable")
        name = self._vertices[vid].name
        self._by_name[name].remove(vid)
        if not self._by_name[name]:
            del self._by_name[name]
        del self._vertices[vid]
        del self._adj[vid]

    # ------------------------------------------------------------------ #
    # persistence (exact structural round-trip)
    # ------------------------------------------------------------------ #
    def export_parts(self) -> "NetworkParts":
        """The complete structural state, in JSON-ready plain containers.

        The counterpart of :meth:`from_parts`: ``(vertices, edges,
        name_index, next_vid)`` where vertices ride in *insertion order*
        (the order ``_vertices`` iterates), ``name_index`` preserves the
        name-index key order and each name's vertex-list order (the order
        Stage-2 candidate enumeration walks — it must survive a save/load
        boundary for incremental decisions to stay deterministic), and
        ``next_vid`` is the id-allocation watermark.  Paper sets and
        mention maps are emitted sorted: they are consumed as sets/maps,
        so sorting costs nothing and keeps serialized snapshots diffable.
        """
        vertices = [
            (
                v.vid,
                v.name,
                sorted(v.papers),
                sorted(v.mentions.items()),
            )
            for v in self._vertices.values()
        ]
        edges = [(u, v, sorted(papers)) for u, v, papers in self.edges()]
        name_index = [
            (name, list(vids)) for name, vids in self._by_name.items()
        ]
        return vertices, edges, name_index, self._next_vid

    @classmethod
    def from_parts(
        cls,
        vertices: Sequence[tuple[int, str, Sequence[int], Sequence[MentionKey]]],
        edges: Sequence[tuple[int, int, Sequence[int]]],
        name_index: Sequence[tuple[str, Sequence[int]]],
        next_vid: int,
    ) -> "CollaborationNetwork":
        """Rebuild a network exactly as :meth:`export_parts` captured it.

        Unlike reconstruction through :meth:`add_vertex`/:meth:`add_edge`,
        this restores the *private* orders too: the name index is written
        verbatim (a network that lost and re-gained a name has an index
        order no insertion replay can reproduce), edge supports never
        leak into vertex paper attributions, and ``next_vid`` is restored
        explicitly — validated against the live ids so a restored network
        can never re-issue a vertex id that is still in use.
        """
        net = cls()
        for vid, name, papers, mentions in vertices:
            if vid in net._vertices:
                raise ValueError(f"duplicate vertex id {vid} in snapshot")
            mention_map = net._as_mention_map(vid, mentions)
            net._vertices[vid] = Vertex(
                vid=vid,
                name=name,
                papers=set(papers) | set(mention_map),
                mentions=mention_map,
            )
            net._adj[vid] = {}
        indexed: set[int] = set()
        for name, vids in name_index:
            if name in net._by_name:
                raise ValueError(
                    f"name index lists {name!r} twice; the second entry "
                    "would shadow the first's vertices"
                )
            for vid in vids:
                vertex = net._vertices.get(vid)
                if vertex is None or vertex.name != name:
                    raise ValueError(
                        f"name index maps {name!r} to vertex {vid}, which "
                        "is missing or carries a different name"
                    )
                if vid in indexed:
                    raise ValueError(f"vertex {vid} indexed twice")
                indexed.add(vid)
            net._by_name[name] = list(vids)
        if indexed != set(net._vertices):
            missing = sorted(set(net._vertices) - indexed)
            raise ValueError(f"vertices missing from name index: {missing[:5]}")
        for u, v, papers in edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u} in snapshot")
            if u not in net._vertices or v not in net._vertices:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            if v in net._adj[u]:
                raise ValueError(f"edge ({u}, {v}) listed twice in snapshot")
            net._adj[u][v] = set(papers)
            net._adj[v][u] = set(papers)
        if net._vertices and next_vid <= max(net._vertices):
            raise ValueError(
                f"next_vid {next_vid} would re-issue a live vertex id "
                f"(max existing id is {max(net._vertices)})"
            )
        net._next_vid = next_vid
        return net

    # ------------------------------------------------------------------ #
    # merging (Stage 2)
    # ------------------------------------------------------------------ #
    def merged(
        self, union: UnionFind, preserve_ids: bool = False
    ) -> "CollaborationNetwork":
        """A new network with vertices merged according to ``union``.

        Every union-find component becomes one vertex whose papers (and
        mentions) are the union of the members'; parallel edges accumulate
        their paper sets.  Two structural constraints are enforced here
        because the decision stage must never be able to violate them:

        * only same-name merges are legal;
        * no component may carry two mentions of one paper — two same-paper
          occurrences are two homonymous co-authors, provably distinct
          people (the decision loop refuses such unions up front via
          :meth:`UnionFind.forbid`; this re-check is the cheap assertion
          backing it).

        With ``preserve_ids=True`` each component keeps its union-find
        representative's vertex id, so vertices untouched by the round keep
        their identity — the contract that lets a
        :class:`~repro.similarity.profile.SimilarityComputer` carry its
        profile caches across merge rounds (see its ``rebind``).
        """
        out = CollaborationNetwork()
        rep_to_new: dict[int, int] = {}
        for vid, vertex in self._vertices.items():
            rep = union.find(vid) if vid in union else vid
            if rep not in rep_to_new:
                rep_to_new[rep] = out.add_vertex(
                    self._vertices[rep].name if rep in self._vertices else vertex.name,
                    vid=rep if preserve_ids else None,
                )
            new_vid = rep_to_new[rep]
            if out.name_of(new_vid) != vertex.name:
                raise ValueError(
                    f"illegal merge across names: {out.name_of(new_vid)!r} "
                    f"vs {vertex.name!r}"
                )
            out.add_papers(new_vid, vertex.papers)
        for u, v, papers in self.edges():
            nu = rep_to_new[union.find(u) if u in union else u]
            nv = rep_to_new[union.find(v) if v in union else v]
            if nu != nv:
                out.add_edge(nu, nv, papers)
        # add_edge grows vertex paper sets, but edge supports may contain
        # papers whose *mention* is attributed to a different same-name
        # vertex; restore the exact attribution (the union of the members'
        # attributed papers and mentions).
        attribution: dict[int, set[int]] = {}
        merged_mentions: dict[int, dict[int, int]] = {}
        for vid, vertex in self._vertices.items():
            new_vid = rep_to_new[union.find(vid) if vid in union else vid]
            attribution.setdefault(new_vid, set()).update(vertex.papers)
            target = merged_mentions.setdefault(new_vid, {})
            for pid, position in vertex.mentions.items():
                if pid in target and target[pid] != position:
                    raise ValueError(
                        f"illegal merge: component of vertex {new_vid} "
                        f"({vertex.name!r}) would own two mentions of paper "
                        f"{pid} (positions {target[pid]} and {position}) — "
                        "same-paper mentions are distinct authors"
                    )
                target[pid] = position
        for new_vid, papers in attribution.items():
            out.set_papers(new_vid, papers)
            out._vertices[new_vid].mentions = merged_mentions.get(new_vid, {})
        return out

    # ------------------------------------------------------------------ #
    # sharding (subgraph extraction + disjoint-union stitching)
    # ------------------------------------------------------------------ #
    def subnetwork(self, vids: Iterable[int]) -> "CollaborationNetwork":
        """The induced subgraph on ``vids``, with vertex ids preserved.

        Vertices are copied with their paper attribution and mention
        payloads; only edges with *both* endpoints in ``vids`` survive.
        Insertion happens in ascending-vid order, so repeated extractions
        are structurally identical (deterministic name index order).  The
        shard executor uses this twice: to cut a name block (plus its
        profile halo) out of the global SCN, and to drop the halo again
        before a fitted shard is shipped back.
        """
        keep = sorted(set(vids))
        missing = [vid for vid in keep if vid not in self._vertices]
        if missing:
            raise KeyError(f"unknown vertex ids: {missing[:5]}")
        out = CollaborationNetwork()
        for vid in keep:
            vertex = self._vertices[vid]
            out.add_vertex(
                vertex.name,
                papers=vertex.papers,
                vid=vid,
                mentions=[(pid, pos) for pid, pos in vertex.mentions.items()],
            )
        keep_set = set(keep)
        # Walk only the kept vertices' adjacency (not the global edge
        # list): extraction cost scales with the subgraph, which is what
        # keeps many small per-shard cuts cheap on a big network.
        for u in keep:
            for v, papers in self._adj[u].items():
                if u < v and v in keep_set:
                    out.add_edge(u, v, set(papers))
        # add_edge grows paper sets with edge supports; restore the exact
        # attribution copied from the source vertices.
        for vid in keep:
            out.set_papers(vid, self._vertices[vid].papers)
        return out

    # ------------------------------------------------------------------ #
    # evaluation view
    # ------------------------------------------------------------------ #
    def clusters_of_name(self, name: str) -> dict[int, set[int]]:
        """Predicted clustering for ``name``: vertex id -> paper ids."""
        return {
            vid: set(self._vertices[vid].papers)
            for vid in self.vertices_of_name(name)
        }

    def mention_clusters_of_name(self, name: str) -> dict[int, set[MentionKey]]:
        """Predicted clustering for ``name`` at mention granularity.

        Vertex id -> set of ``(pid, position)`` units — the view the
        positional evaluation protocol consumes.  Falls back to position 0
        for papers attributed without an explicit mention payload (networks
        built by hand), so homonym-free graphs behave identically to
        :meth:`clusters_of_name`.
        """
        out: dict[int, set[MentionKey]] = {}
        for vid in self.vertices_of_name(name):
            vertex = self._vertices[vid]
            units = {
                (pid, vertex.mentions.get(pid, 0)) for pid in vertex.papers
            }
            out[vid] = units
        return out


def combine_networks(
    nets: Sequence["CollaborationNetwork"],
) -> tuple["CollaborationNetwork", list[dict[int, int]]]:
    """Disjoint union of several networks under one fresh id space.

    The merge step of the sharded pipeline
    (:mod:`repro.core.sharding`): per-shard networks — whose vertex ids
    collide across shards, or are sparse after per-shard merging — are
    stitched into one global network.  Ids are remapped deterministically:
    networks in list order, vertices in ascending old-id order, new ids
    dense from 0.  Repeated stitches of the same shards therefore produce
    identical graphs.  Returns the combined network plus one
    ``old id -> new id`` mapping per input network.

    Mention payloads are preserved exactly, and two invariants are
    enforced during the stitch:

    * per vertex, at most one mention per paper (``add_vertex`` checks);
    * across *all* inputs, every ``(pid, position)`` occurrence is owned
      at most once — two shards claiming one mention means the partition
      was not a partition, and stitching would silently double-count an
      author occurrence.
    """
    out = CollaborationNetwork()
    mappings: list[dict[int, int]] = []
    owner_of: dict[MentionKey, int] = {}
    for net in nets:
        mapping: dict[int, int] = {}
        for old_vid in sorted(vertex.vid for vertex in net):
            vertex = net.vertex(old_vid)
            mentions = [(pid, pos) for pid, pos in vertex.mentions.items()]
            new_vid = out.add_vertex(vertex.name, mentions=mentions)
            mapping[old_vid] = new_vid
            for key in mentions:
                if key in owner_of:
                    raise ValueError(
                        f"mention {key} owned by two shards (vertices "
                        f"{owner_of[key]} and {new_vid}); the shard "
                        "partition must assign every occurrence once"
                    )
                owner_of[key] = new_vid
        for u, v, papers in net.edges():
            out.add_edge(mapping[u], mapping[v], papers)
        # Restore exact paper attribution: add_edge pushed edge supports
        # into vertex paper sets, but a support paper's mention may be
        # owned by a different same-name vertex (cf. merged()).
        for old_vid, new_vid in mapping.items():
            out.set_papers(new_vid, net.vertex(old_vid).papers)
        mappings.append(mapping)
    return out, mappings
