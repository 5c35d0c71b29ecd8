"""Point queries against a snapshot *file* — no fitted state in memory.

``who_is`` / ``owner_of`` on a live engine walk the in-memory network.
This module answers the same questions straight off a snapshot on disk:

* adapters with an indexed cursor (SQLite's derived ``mentions`` table,
  see :meth:`repro.io.adapters.sqlite.SqliteAdapter.open_query`) serve a
  point SELECT — microseconds, independent of corpus size;
* adapters without one fall back to a streaming row scan of the
  ``gcn_vertices`` table (JSONL parses line by line; a driver that
  cannot stream gets one cached full read) — still no network, model or
  similarity computer is ever materialised;
* a delta chain riding next to the base (see :mod:`repro.io.delta`) is
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
from typing import Any, Iterator

from . import delta as delta_chain
from .adapters import AdapterCursor, resolve_adapter


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
        self._cursor: AdapterCursor | None = self.adapter.open_query(self.path)
        self._document: dict[str, Any] | None = None
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
        if meta is None:
            meta = self._full_document()["meta"]
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
    # fallback row access
    # ------------------------------------------------------------------ #
    def _full_document(self) -> dict[str, Any]:
        if self._document is None:
            self._document = self.adapter.read(self.path)
        return self._document

    def _vertex_rows(self) -> Iterator[dict[str, Any]]:
        rows = self.adapter.iter_table_rows(self.path, "gcn_vertices")
        if rows is not None:
            return rows
        return iter(
            self._full_document().get("tables", {}).get("gcn_vertices", ())
        )

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
        for row in self._vertex_rows():
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
            for row in self._vertex_rows():
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
        if self._cursor is not None:
            self._cursor.close()
            self._cursor = None

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
