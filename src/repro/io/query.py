"""Point queries against a snapshot *file* — no fitted state in memory.

``who_is`` / ``owner_of`` on a live engine walk the in-memory network.
This module answers the same questions straight off a snapshot on disk,
one path per format:

* SQLite serves them from its derived, indexed ``mentions`` table (see
  :meth:`repro.io.adapters.sqlite.SqliteAdapter.open_query`) — a point
  SELECT, microseconds, independent of corpus size; files written
  before that table existed get a scan of the vertex payloads instead;
* JSONL reads its first (meta) line, then scans the ``gcn_vertices``
  lines one at a time.

Neither path materialises a network, model or similarity computer.  A
delta chain riding next to the base (see :mod:`repro.io.delta`) is
overlaid: chain records only ever *add* mentions — an existing vertex
never changes owner mid-chain — so the overlay is consulted first and
merged into name queries.

Typical use::

    with SnapshotQuery("fitted.sqlite") as q:
        q.owner_of(pid=4821, position=0)     # -> (vid, name) | None
        q.who_is("wei wang")                 # -> {vid: [(pid, pos), ...]}

or one-shot: :func:`owner_of` / :func:`who_is`.  The CLI surface is
``tools/snapshot.py who-is --no-full-load``.  The one other reader of
a snapshot, :meth:`repro.service.view.FittedView.from_snapshot`, decodes
the whole state and also checks the chain's base fingerprint, which this
module skips.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from . import delta as delta_chain
from .adapters import SQLITE, resolve_adapter
from .adapters.sqlite import SqliteCursor


class SnapshotQuery:
    """Mention-ownership queries against a snapshot file (+ delta chain).

    Open once, query many times, ``close()`` (or use as a context
    manager).  Results reflect the chain's last checkpoint boundary —
    identical to what a full :meth:`~repro.io.snapshot.Snapshot.
    load_chain` + restore would answer.
    """

    def __init__(self, path: str | Path, backend: str | None = None) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise ValueError(f"{self.path}: no such file")
        self.adapter = resolve_adapter(self.path, backend)
        # SQLite answers through its cursor, JSONL by a line scan.
        self._cursor: SqliteCursor | None = (
            SQLITE.open_query(self.path) if self.adapter is SQLITE else None
        )
        # (pid, position) -> (vid, name) and name -> vid -> mentions,
        # from the delta chain (additions only — never reassignments).
        self._overlay_owner: dict[tuple[int, int], tuple[int, str]] = {}
        self._overlay_names: dict[str, dict[int, list[tuple[int, int]]]] = {}
        self._load_overlay()

    # ------------------------------------------------------------------ #
    # chain overlay
    # ------------------------------------------------------------------ #
    def _load_overlay(self) -> None:
        log_path = delta_chain.delta_log_path(self.path)
        if not log_path.exists():
            return
        meta = self.adapter.read_meta(self.path)
        base_seq = int(meta.get("delta_seq", 0))
        # Fingerprint validation needs the full base document — exactly
        # what this fast path avoids; checksums and seq contiguity are
        # still enforced, and a damaged log still raises here.
        for record in delta_chain.read_chain(log_path, base_seq, None):
            for paper_row, decisions in zip(
                record.papers, record.assignments
            ):
                pid = int(paper_row["pid"])
                for position, name in enumerate(paper_row["authors"]):
                    vid = int(decisions[position][0])
                    self._overlay_owner[(pid, position)] = (vid, name)
                    self._overlay_names.setdefault(name, {}).setdefault(
                        vid, []
                    ).append((pid, position))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def owner_of(self, pid: int, position: int) -> tuple[int, str] | None:
        """``(vid, name)`` owning mention ``(pid, position)``, or ``None``."""
        hit = self._overlay_owner.get((pid, position))
        if hit is not None:
            return hit
        if self._cursor is not None:
            return self._cursor.owner_of(pid, position)
        for row in self.adapter.iter_table_rows(self.path, "gcn_vertices"):
            for m_pid, m_pos in row.get("mentions", ()):
                if m_pid == pid and m_pos == position:
                    return int(row["vid"]), row["name"]
        return None

    def who_is(self, name: str) -> dict[int, list[tuple[int, int]]]:
        """Every vertex of ``name`` with its sorted mention list.

        Matches the live engine's ``who_is`` clustering: base snapshot
        mentions merged with chain additions, per-vertex lists sorted.
        """
        if self._cursor is not None:
            clusters = self._cursor.clusters_of_name(name)
        else:
            clusters = {}
            for row in self.adapter.iter_table_rows(
                self.path, "gcn_vertices"
            ):
                if row.get("name") == name:
                    clusters[int(row["vid"])] = [
                        (int(pid), int(pos))
                        for pid, pos in row.get("mentions", ())
                    ]
        for vid, mentions in self._overlay_names.get(name, {}).items():
            clusters.setdefault(vid, []).extend(mentions)
        return {vid: sorted(mentions) for vid, mentions in clusters.items()}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        # The cursor stays set: a query after close raises sqlite3's
        # "closed database" error rather than switching to a JSONL scan.
        if self._cursor is not None:
            self._cursor.close()

    def __enter__(self) -> "SnapshotQuery":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def owner_of(
    path: str | Path, pid: int, position: int, backend: str | None = None
) -> tuple[int, str] | None:
    """One-shot :meth:`SnapshotQuery.owner_of`."""
    with SnapshotQuery(path, backend=backend) as query:
        return query.owner_of(pid, position)


def who_is(
    path: str | Path, name: str, backend: str | None = None
) -> dict[int, list[tuple[int, int]]]:
    """One-shot :meth:`SnapshotQuery.who_is`."""
    with SnapshotQuery(path, backend=backend) as query:
        return query.who_is(name)
