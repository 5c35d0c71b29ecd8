"""FittedView — an immutable, hashable projection of the fitted state.

The serving layer's reader/writer split rests on one rule: **readers
never touch writer state**.  A :class:`FittedView` is built once, at
publish time, from a live estimator (or straight from a ``repro.io``
snapshot) and from then on is frozen — plain tuples and read-only
mappings, no reference back into the mutable
:class:`~repro.graphs.collab.CollaborationNetwork`.  The
:class:`~repro.service.engine.Engine` swaps the current view with a
single reference assignment when the writer finishes a burst, so a
reader either sees the whole pre-burst fit or the whole post-burst fit,
never a mix — torn reads are impossible by construction, not by
locking.

Staleness is first-class: every view carries its ``generation`` (how
many swaps preceded it) and ``swapped_at`` (wall-clock of its publish),
so staleness-aware clients can decide whether an answer is fresh enough.

The query methods are pure functions over the frozen projection —
:func:`who_is_in`, :func:`resolve_in` and :func:`cluster_of_in` take the
view explicitly, and the bound methods just delegate.  The live-network
counterpart of the who-is path is
:meth:`repro.graphs.collab.CollaborationNetwork.owner_of`, which the
projection builder uses via the vertices' mention payloads and the
incremental duplicate replay shares.

Views are hashable and compare by **content**: two views projected from
bit-identical fitted states are equal (and hash equal) even if their
generations differ — the fingerprint is a digest of the canonical
cluster encoding, which lets a client detect that a swap was a no-op
for its cached answers.
"""

from __future__ import annotations

import hashlib
import time
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.iuad import IUAD
    from ..graphs.collab import CollaborationNetwork

#: A mention unit: ``(paper id, co-author position)``.
MentionKey = tuple[int, int]

#: ``name -> vid -> sorted mention tuple`` — the frozen clustering.
Clusters = Mapping[str, Mapping[int, tuple[MentionKey, ...]]]


class FittedView:
    """Read-only, hashable snapshot of a fitted disambiguation state.

    Constructed via :meth:`of` (from a live estimator) or
    :meth:`from_snapshot` (from a durable ``repro.io`` snapshot) — never
    mutated afterwards.  All query methods answer from the frozen
    projection; none can observe, let alone block on, the writer.
    """

    __slots__ = (
        "generation",
        "swapped_at",
        "n_papers",
        "n_vertices",
        "n_edges",
        "n_names",
        "n_mentions",
        "_clusters",
        "_owners",
        "_by_pid",
        "_name_of",
        "_fingerprint",
    )

    def __init__(
        self,
        clusters: dict[str, dict[int, tuple[MentionKey, ...]]],
        *,
        n_papers: int,
        n_edges: int,
        generation: int = 0,
        swapped_at: float | None = None,
    ) -> None:
        self.generation = generation
        self.swapped_at = (
            time.time() if swapped_at is None else float(swapped_at)
        )
        self.n_papers = n_papers
        self.n_edges = n_edges
        owners: dict[MentionKey, int] = {}
        by_pid: dict[int, list[tuple[int, int]]] = {}
        name_of: dict[int, str] = {}
        n_mentions = 0
        n_vertices = 0
        frozen: dict[str, Mapping[int, tuple[MentionKey, ...]]] = {}
        for name, vid_map in clusters.items():
            frozen[name] = MappingProxyType(dict(vid_map))
            for vid, mentions in vid_map.items():
                n_vertices += 1
                name_of[vid] = name
                n_mentions += len(mentions)
                for pid, position in mentions:
                    owners[(pid, position)] = vid
                    by_pid.setdefault(pid, []).append((position, vid))
        self.n_names = len(frozen)
        self.n_vertices = n_vertices
        self.n_mentions = n_mentions
        self._clusters: Clusters = MappingProxyType(frozen)
        self._owners: Mapping[MentionKey, int] = MappingProxyType(owners)
        self._by_pid: Mapping[int, tuple[tuple[int, int], ...]] = (
            MappingProxyType(
                {pid: tuple(sorted(hits)) for pid, hits in by_pid.items()}
            )
        )
        self._name_of: Mapping[int, str] = MappingProxyType(name_of)
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def of(
        cls,
        estimator: "IUAD",
        generation: int = 0,
        swapped_at: float | None = None,
    ) -> "FittedView":
        """Project a live fitted estimator into a frozen view.

        The projection copies everything it needs — after construction
        the writer may mutate freely without the view ever noticing.
        """
        if estimator.gcn_ is None or estimator.corpus_ is None:
            raise ValueError("cannot build a FittedView of an unfitted IUAD")
        return cls._from_network(
            estimator.gcn_,
            n_papers=len(estimator.corpus_),
            generation=generation,
            swapped_at=swapped_at,
        )

    @classmethod
    def from_snapshot(
        cls,
        path: Any,
        backend: str | None = None,
        generation: int = 0,
    ) -> "FittedView":
        """Build a view straight from a durable snapshot on disk.

        Decodes the snapshot with
        :meth:`~repro.io.snapshot.Snapshot.load_chain` — a delta chain
        riding next to the base (``<path>.delta``, see
        :mod:`repro.io.delta`) is validated, base fingerprint included,
        and replayed — and projects the resulting network.  Point queries
        that must not decode the file go through
        :class:`repro.io.query.SnapshotQuery` instead.
        """
        from ..io.snapshot import Snapshot

        snapshot, _info = Snapshot.load_chain(path, backend=backend)
        return cls._from_network(
            snapshot.gcn,
            n_papers=len(snapshot.corpus),
            generation=generation,
        )

    @classmethod
    def _from_network(
        cls,
        gcn: "CollaborationNetwork",
        *,
        n_papers: int,
        generation: int = 0,
        swapped_at: float | None = None,
    ) -> "FittedView":
        clusters: dict[str, dict[int, tuple[MentionKey, ...]]] = {}
        for vertex in gcn:
            units = tuple(sorted(vertex.mentions.items()))
            clusters.setdefault(vertex.name, {})[vertex.vid] = units
        return cls(
            clusters,
            n_papers=n_papers,
            n_edges=gcn.n_edges,
            generation=generation,
            swapped_at=swapped_at,
        )

    # ------------------------------------------------------------------ #
    # identity: content fingerprint
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Stable content digest of the clustering (hex, 16 chars).

        Generation and timestamps are deliberately excluded — equality
        means "these views answer every query identically".
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for name in sorted(self._clusters):
                digest.update(name.encode("utf-8"))
                digest.update(b"\x00")
                vid_map = self._clusters[name]
                for vid in sorted(vid_map):
                    digest.update(str(vid).encode())
                    digest.update(str(vid_map[vid]).encode())
                    digest.update(b"\x01")
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FittedView):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __repr__(self) -> str:
        return (
            f"FittedView(generation={self.generation}, "
            f"papers={self.n_papers}, vertices={self.n_vertices}, "
            f"mentions={self.n_mentions}, fp={self.fingerprint})"
        )

    # ------------------------------------------------------------------ #
    # queries (delegating to the pure functions below)
    # ------------------------------------------------------------------ #
    def who_is(
        self, name: str, pid: int, position: int = 0
    ) -> dict[str, Any] | None:
        """Owner of the mention ``(name, pid, position)``, or ``None``."""
        return who_is_in(self, name, pid, position)

    def resolve(self, name: str, pid: int) -> tuple[dict[str, Any], ...]:
        """All occurrences of ``name`` on paper ``pid`` with their owners."""
        return resolve_in(self, name, pid)

    def cluster_of(self, name: str) -> dict[int, tuple[MentionKey, ...]]:
        """Predicted clustering of ``name``: ``vid -> mention units``."""
        return cluster_of_in(self, name)

    @property
    def clusters(self) -> Clusters:
        """The whole frozen clustering (read-only nested mappings)."""
        return self._clusters

    def names(self) -> tuple[str, ...]:
        return tuple(self._clusters)

    # ------------------------------------------------------------------ #
    # serialization + self-checks
    # ------------------------------------------------------------------ #
    def as_clusters_dict(self) -> dict[str, dict[str, list[list[int]]]]:
        """JSON-ready dump: ``{name: {vid: [[pid, position], ...]}}``.

        The load harness pulls this over ``GET /clusters`` to assert
        exact parity with a serial replay of the ingest sequence.
        """
        return {
            name: {
                str(vid): [[pid, position] for pid, position in mentions]
                for vid, mentions in vid_map.items()
            }
            for name, vid_map in self._clusters.items()
        }

    def check_consistency(self) -> list[str]:
        """Internal cross-index invariants; empty list means consistent.

        Used by the concurrent-reader tests to assert that no observed
        view is ever torn: every owner entry must point back into the
        clusters it was derived from, and the counters must re-derive.
        """
        errors: list[str] = []
        n_mentions = sum(
            len(mentions)
            for vid_map in self._clusters.values()
            for mentions in vid_map.values()
        )
        if n_mentions != self.n_mentions:
            errors.append(
                f"n_mentions {self.n_mentions} != recount {n_mentions}"
            )
        n_vertices = sum(len(v) for v in self._clusters.values())
        if n_vertices != self.n_vertices:
            errors.append(
                f"n_vertices {self.n_vertices} != recount {n_vertices}"
            )
        for key, vid in self._owners.items():
            name = self._name_of.get(vid)
            if name is None or key not in self._clusters[name][vid]:
                errors.append(f"owner index entry {key} -> {vid} is dangling")
        return errors


# --------------------------------------------------------------------- #
# pure query functions over a view
# --------------------------------------------------------------------- #
def who_is_in(
    view: FittedView, name: str, pid: int, position: int = 0
) -> dict[str, Any] | None:
    """Pure who-is: the cluster owning one occurrence, or ``None``.

    ``None`` when nobody owns ``(pid, position)`` *or* the owner carries
    a different name (the caller asked about the wrong occurrence).
    """
    vid = view._owners.get((pid, position))
    if vid is None or view._name_of[vid] != name:
        return None
    return {
        "vid": vid,
        "name": name,
        "pid": pid,
        "position": position,
        "cluster_size": len(view._clusters[name][vid]),
        "generation": view.generation,
    }


def resolve_in(
    view: FittedView, name: str, pid: int
) -> tuple[dict[str, Any], ...]:
    """Pure resolve: every occurrence of ``name`` on ``pid``.

    A paper listing the same name twice (homonymous co-authors) yields
    two matches with distinct positions and distinct owning clusters.
    """
    out = []
    for position, vid in view._by_pid.get(pid, ()):
        if view._name_of[vid] == name:
            out.append(
                {
                    "vid": vid,
                    "position": position,
                    "cluster_size": len(view._clusters[name][vid]),
                }
            )
    return tuple(out)


def cluster_of_in(
    view: FittedView, name: str
) -> dict[int, tuple[MentionKey, ...]]:
    """Pure cluster-of: a plain-dict copy of one name's clustering."""
    return dict(view._clusters.get(name, {}))


def prior_assignments_in(
    view: FittedView, authors: Iterable[str], pid: int
) -> list[int]:
    """Owners of every occurrence of an already-ingested paper.

    The read-side analogue of the incremental duplicate replay
    (``duplicate_paper_policy="return"``): one vid per co-author-list
    position, ``-1`` where nobody owns the occurrence.
    """
    out = []
    for position, name in enumerate(authors):
        hit = who_is_in(view, name, pid, position)
        out.append(hit["vid"] if hit is not None else -1)
    return out
