"""Collaboration network: vertices are author-identity hypotheses.

Definition 1 of the paper: a collaboration network is a graph
``G = (V, E, P)`` where every vertex is an author (here: an author-identity
hypothesis carrying a *name* and the per-occurrence *mentions* it owns,
which are its papers) and every edge ``(u, v)`` carries the set of papers
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
one vertex.  The mentions are a vertex's only attribution: ``papers`` is a
read-only view of the mentioned paper ids (what the similarity profiles
consume), and edge supports never add to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Collection, Iterable, Iterator, KeysView, Mapping, Sequence

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
    """An author-identity hypothesis: one name plus the mentions it owns.

    ``mentions`` maps each attributed paper id to the co-author-list
    position of the occurrence this vertex owns.  At most one position per
    paper — an author never appears twice on one co-author list.
    """

    vid: int
    name: str
    mentions: dict[int, int] = field(default_factory=dict)

    @property
    def papers(self) -> KeysView[int]:
        """The attributed paper ids: exactly the papers of ``mentions``."""
        return self.mentions.keys()

    def __repr__(self) -> str:  # compact debugging output
        return f"Vertex({self.vid}, {self.name!r}, {sorted(self.papers)})"


_NAME = attrgetter("name")


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
        vid: int | None = None,
        mentions: Iterable[MentionKey] = (),
    ) -> int:
        """Create a vertex for ``name`` and return its id.

        ``vid`` pins an explicit id (used by ``merged(..., preserve_ids=True)``
        so surviving vertices keep their identity across merge rounds);
        fresh ids stay unique either way.  ``mentions`` seeds the
        per-occurrence payload, and with it the vertex's papers.
        """
        if vid is None:
            vid = self._next_vid
            self._next_vid += 1
        else:
            if vid in self._vertices:
                raise ValueError(f"vertex id {vid} already exists")
            self._next_vid = max(self._next_vid, vid + 1)
        self._vertices[vid] = Vertex(
            vid=vid, name=name, mentions=self._as_mention_map(vid, mentions)
        )
        self._by_name.setdefault(name, []).append(vid)
        self._adj[vid] = {}
        return vid

    def add_edge(self, u: int, v: int, papers: Collection[int]) -> None:
        """Add (or extend) the edge ``(u, v)`` with ``papers``.

        Edge supports are collaboration evidence only: they never change
        which papers the endpoints are attributed (their mentions do).
        """
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        self._adj[u].setdefault(v, set()).update(papers)
        self._adj[v].setdefault(u, set()).update(papers)

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

    def set_mentions(self, vid: int, mentions: Iterable[MentionKey]) -> None:
        """Overwrite a vertex's mention payload (and with it its papers).

        The final step of Stage-1 mention assignment.
        """
        self._vertices[vid].mentions = self._as_mention_map(vid, mentions)

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

    def papers_of(self, vid: int) -> KeysView[int]:
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
        Returns ``None`` when nobody owns the occurrence — a position that
        never existed, or one a hand-built network left unassigned.  This
        is the one query path shared by the incremental duplicate replay
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

    def adjacency_rows(
        self, vids: Iterable[int]
    ) -> list[Mapping[int, set[int]]]:
        """:meth:`adjacency` of every vertex of ``vids``, in order, gathered
        without a method call per vertex (the batched ball and WL walks
        read thousands of rows per call).  Same no-mutation contract."""
        return list(map(self._adj.__getitem__, vids))

    def names_of(self, vids: Iterable[int]) -> list[str]:
        """:meth:`name_of` of every vertex of ``vids``, in order."""
        return list(map(_NAME, map(self._vertices.__getitem__, vids)))

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
        can never re-issue a vertex id that is still in use.  A vertex's
        ``papers`` column is redundant with its mentions and must equal
        their pids.
        """
        net = cls()
        for vid, name, papers, mentions in vertices:
            if vid in net._vertices:
                raise ValueError(f"duplicate vertex id {vid} in snapshot")
            mention_map = net._as_mention_map(vid, mentions)
            stray = set(papers) ^ mention_map.keys()
            if stray:
                raise ValueError(
                    f"vertex {vid}: papers column differs from its mention "
                    f"pids at {sorted(stray)[:5]}"
                )
            net._vertices[vid] = Vertex(vid=vid, name=name, mentions=mention_map)
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

        Every union-find component becomes one vertex whose mentions (and
        so papers) are the union of the members'; parallel edges accumulate
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
        new_of: dict[int, int] = {}  # old vid -> merged vid
        for vid, vertex in self._vertices.items():
            rep = union.find(vid) if vid in union else vid
            if rep not in rep_to_new:
                rep_to_new[rep] = out.add_vertex(
                    self._vertices[rep].name if rep in self._vertices else vertex.name,
                    vid=rep if preserve_ids else None,
                )
            new_vid = new_of[vid] = rep_to_new[rep]
            if out.name_of(new_vid) != vertex.name:
                raise ValueError(
                    f"illegal merge across names: {out.name_of(new_vid)!r} "
                    f"vs {vertex.name!r}"
                )
            target = out._vertices[new_vid].mentions
            for pid, position in vertex.mentions.items():
                if pid in target and target[pid] != position:
                    raise ValueError(
                        f"illegal merge: component of vertex {new_vid} "
                        f"({vertex.name!r}) would own two mentions of paper "
                        f"{pid} (positions {target[pid]} and {position}) — "
                        "same-paper mentions are distinct authors"
                    )
                target[pid] = position
        for u, nbrs in self._adj.items():
            nu = new_of[u]
            for v, papers in nbrs.items():
                nv = new_of[v]
                if u < v and nu != nv:
                    out.add_edge(nu, nv, papers)
        return out

    # ------------------------------------------------------------------ #
    # subgraph extraction
    # ------------------------------------------------------------------ #
    def subnetwork(self, vids: Iterable[int]) -> "CollaborationNetwork":
        """The induced subgraph on ``vids``, with vertex ids preserved.

        Vertices are copied with their mention payloads; only edges with
        *both* endpoints in ``vids`` survive.
        Insertion happens in ascending-vid order, so repeated extractions
        are structurally identical (deterministic name index order).
        """
        keep = sorted(set(vids))
        missing = [vid for vid in keep if vid not in self._vertices]
        if missing:
            raise KeyError(f"unknown vertex ids: {missing[:5]}")
        out = CollaborationNetwork()
        for vid in keep:
            vertex = self._vertices[vid]
            out.add_vertex(
                vertex.name, vid=vid, mentions=vertex.mentions.items()
            )
        keep_set = set(keep)
        # Walk only the kept vertices' adjacency (not the global edge
        # list): extraction cost scales with the subgraph, which is what
        # keeps many small per-shard cuts cheap on a big network.
        for u in keep:
            for v, papers in self._adj[u].items():
                if u < v and v in keep_set:
                    out.add_edge(u, v, papers)
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
        positional evaluation protocol consumes.
        """
        return {
            vid: set(self._vertices[vid].mentions.items())
            for vid in self.vertices_of_name(name)
        }
