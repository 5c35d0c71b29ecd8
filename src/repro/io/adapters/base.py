"""The persistence adapter protocol: one document shape, N drivers.

Every snapshot — full base or delta-compacted — is one backend-neutral
**document** (see :mod:`repro.io.schema`)::

    {"meta": {...}, "sections": {name: payload}, "tables": {name: [rows]}}

An adapter is *how* that document hits disk.  The bundled drivers are
JSONL (:mod:`.jsonl`) and SQLite (:mod:`.sqlite`); new drivers register
through :func:`repro.io.adapters.register_adapter` and immediately work
everywhere — ``Snapshot.save/load``, streaming checkpoints,
``tools/snapshot.py convert`` across any adapter pair, the serving
layer's warm start.

The contract an adapter must honour:

* :meth:`~SnapshotAdapter.write` persists the document to ``path``.  The
  caller always hands a ``.tmp`` sibling and performs the
  fsync-then-rename itself (:func:`repro.io.adapters.write_document`),
  so adapters never need to think about atomicity — only about a
  faithful, *lossless* encoding: ``read(write(doc)) == doc`` up to JSON
  value round-tripping (which Python performs bit-exactly for floats).
* :meth:`~SnapshotAdapter.read` returns the document, raising
  :class:`ValueError` with a one-line message for anything that is not a
  readable snapshot.
* :meth:`~SnapshotAdapter.sniff` inspects a file's first bytes so
  resolution works on any snapshot regardless of how it was named.
* :meth:`~SnapshotAdapter.open_query` *may* return an
  :class:`AdapterCursor` that answers mention-ownership queries without
  decoding the full document — the SQLite driver serves them straight
  off indexed tables.  Returning ``None`` (the default) makes
  :mod:`repro.io.query` fall back to a streaming row scan.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator


class AdapterCursor:
    """Optional query capability: answers without a full document decode.

    All row payloads refer to the GCN (the fitted network queries are
    about); ``close`` releases any underlying handle.  Implementations
    must be safe to use for many queries on one open cursor.
    """

    def owner_of(self, pid: int, position: int) -> tuple[int, str] | None:
        """``(vid, name)`` owning mention ``(pid, position)``, or ``None``."""
        raise NotImplementedError

    def clusters_of_name(self, name: str) -> dict[int, list[tuple[int, int]]]:
        """``vid -> [(pid, position), ...]`` for every vertex of ``name``."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "AdapterCursor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SnapshotAdapter:
    """Base class of a persistence driver.  Subclass, set ``name``, register."""

    #: Registry key and the value of ``snapshot_header()["adapter"]``.
    name: str = ""
    #: Path suffixes that select this adapter for a fresh file.
    suffixes: tuple[str, ...] = ()

    def sniff(self, prefix: bytes) -> bool:
        """Does ``prefix`` (the file's first bytes) look like this format?"""
        return False

    def write(self, document: dict[str, Any], path: Path) -> None:
        raise NotImplementedError

    def read(self, path: Path) -> dict[str, Any]:
        raise NotImplementedError

    def open_query(self, path: Path) -> AdapterCursor | None:
        """An indexed query cursor, or ``None`` when unsupported."""
        return None

    def read_meta(self, path: Path) -> dict[str, Any] | None:
        """Just the ``meta`` object, cheaply — or ``None`` (full read).

        Lets :mod:`repro.io.query` learn the ``delta_seq`` watermark of a
        base without decoding its tables.
        """
        return None

    def iter_table_rows(
        self, path: Path, table: str
    ) -> Iterator[dict[str, Any]] | None:
        """Stream one table's rows without loading the document, or ``None``.

        The :class:`repro.io.query.SnapshotQuery` scan for adapters with
        no indexed cursor (SQLite always has one): JSONL streams matching
        lines; drivers that cannot stream return ``None`` and the caller
        does a full :meth:`read`.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
