"""The two snapshot formats: one document shape, two fixed drivers.

Every snapshot — full base or delta-compacted — is one backend-neutral
**document** (see :mod:`repro.io.schema`)::

    {"meta": {...}, "sections": {name: payload}, "tables": {name: [rows]}}

A driver is *how* that document hits disk: :class:`~.jsonl.JsonlAdapter`
(diffable, one JSON object per line) or :class:`~.sqlite.SqliteAdapter`
(one file with real, indexed tables).  Each offers ``write``, ``read``
and ``read_meta``; only SQLite adds an indexed query cursor
(``open_query``), JSONL a streaming row scan (``iter_table_rows``) —
:mod:`repro.io.query` uses whichever the format has.  Every consumer
(``Snapshot.save/load``, streaming checkpoints, delta-chain bases,
``tools/snapshot.py convert``, the serving warm start) picks the driver
through :func:`resolve_adapter`:

1. an explicit adapter name always wins (an unknown one raises);
2. an existing file starting with the SQLite magic bytes is SQLite;
3. a missing file goes by its path suffix;
4. JSONL takes everything else.

Atomicity lives here, once, for both drivers: :func:`write_document`
writes to a ``.tmp`` sibling, fsyncs, then atomically renames over the
destination (``os.replace``).  A crash mid-write leaves at worst a stale
``.tmp`` next to an intact previous snapshot; drivers only ever see the
tmp path.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from .jsonl import JsonlAdapter
from .sqlite import SQLITE_MAGIC, SqliteAdapter

JSONL = JsonlAdapter()
SQLITE = SqliteAdapter()

#: The drivers by name, JSONL (the default) first.
_BY_NAME: dict[str, JsonlAdapter | SqliteAdapter] = {
    JSONL.name: JSONL, SQLITE.name: SQLITE,
}

#: Valid ``--backend`` / ``backend=`` values.
ADAPTER_NAMES = tuple(_BY_NAME)


def resolve_adapter(
    path: str | Path, name: str | None = None
) -> JsonlAdapter | SqliteAdapter:
    """Pick a driver: explicit name > SQLite magic > path suffix > JSONL.

    Reading sniffs the file's first bytes (a SQLite database always
    starts with its 16-byte magic header), so ``load`` works on any
    snapshot regardless of how it was named.
    """
    if name is not None:
        try:
            return _BY_NAME[name]
        except KeyError:
            raise ValueError(
                f"unknown snapshot adapter {name!r}; "
                f"choose from {sorted(_BY_NAME)}"
            ) from None
    path = Path(path)
    if path.exists():
        with open(path, "rb") as fh:
            is_sqlite = fh.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
        return SQLITE if is_sqlite else JSONL
    return SQLITE if path.suffix.lower() in SQLITE.suffixes else JSONL


def write_document(
    document: dict[str, Any], path: str | Path, adapter: str | None = None
) -> Path:
    """Atomically persist a document: tmp file + fsync + rename."""
    path = Path(path)
    # Resolution runs against the *destination*: overwriting an existing
    # snapshot keeps its format (checkpoints never silently flip
    # formats), a fresh path goes by explicit choice or suffix.
    chosen = resolve_adapter(path, adapter)
    tmp = path.with_name(path.name + ".tmp")
    chosen.write(document, tmp)
    fsync_path(tmp)
    os.replace(tmp, path)
    fsync_dir(path.parent)
    return path


def read_document(
    path: str | Path, adapter: str | None = None
) -> dict[str, Any]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no snapshot at {path}")
    return resolve_adapter(path, adapter).read(path)


def fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: Path) -> None:
    # Durability of the rename itself; not supported on some platforms
    # (best effort — the rename's atomicity does not depend on it).
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


__all__ = [
    "ADAPTER_NAMES",
    "JSONL",
    "JsonlAdapter",
    "SQLITE",
    "SqliteAdapter",
    "read_document",
    "resolve_adapter",
    "write_document",
]
