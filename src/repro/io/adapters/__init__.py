"""Persistence adapter registry: one document shape, N drivers.

The registry maps adapter names to :class:`~.base.SnapshotAdapter`
instances.  The bundled drivers — :class:`~.jsonl.JsonlAdapter` and
:class:`~.sqlite.SqliteAdapter` — register at import time; host
applications add their own via :func:`register_adapter` and every
consumer (``Snapshot.save/load``, streaming checkpoints, delta-chain
bases, ``tools/snapshot.py convert``, the serving warm start) picks them
up through :func:`resolve_adapter`.

Resolution order:

1. an explicit adapter name always wins;
2. for an existing file, each registered adapter's byte ``sniff`` runs
   against the file's first bytes, in registration order;
3. otherwise the path suffix selects the adapter claiming it;
4. the default adapter (JSONL) takes everything else.

Atomicity lives here, once, for every adapter: :func:`write_document`
writes to a ``.tmp`` sibling, fsyncs, then atomically renames over the
destination (``os.replace``).  A crash mid-write leaves at worst a stale
``.tmp`` next to an intact previous snapshot; adapters only ever see the
tmp path.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import MappingProxyType
from typing import Any

from .base import AdapterCursor, SnapshotAdapter
from .jsonl import JsonlAdapter
from .sqlite import SqliteAdapter

#: How many leading bytes :func:`resolve_adapter` hands to ``sniff``.
_SNIFF_BYTES = 64

#: name -> adapter instance, in registration order (= sniff order).
_REGISTRY: dict[str, SnapshotAdapter] = {}

#: Fallback adapter for unrecognised bytes/suffixes.
_DEFAULT = JsonlAdapter.name


def register_adapter(
    adapter: SnapshotAdapter, replace: bool = False
) -> SnapshotAdapter:
    """Add a driver to the registry (``replace=True`` to override a name).

    Returns the adapter so registration composes as a decorator-ish
    one-liner: ``ADAPTER = register_adapter(MyAdapter())``.
    """
    if not adapter.name:
        raise ValueError(f"adapter {adapter!r} has no name")
    if adapter.name in _REGISTRY and not replace:
        raise ValueError(
            f"adapter {adapter.name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[adapter.name] = adapter
    return adapter


def list_adapters() -> dict[str, SnapshotAdapter]:
    """A copy of the registry, in registration order."""
    return dict(_REGISTRY)


def resolve_adapter(
    path: str | Path, name: str | None = None
) -> SnapshotAdapter:
    """Pick an adapter: explicit name > file sniff > path suffix > default.

    Reading sniffs the file's first bytes (a SQLite database always
    starts with its 16-byte magic header), so ``load`` works on any
    snapshot regardless of how it was named.
    """
    if name is not None:
        try:
            return _REGISTRY[name]
        except KeyError:
            raise ValueError(
                f"unknown snapshot adapter {name!r}; "
                f"choose from {sorted(_REGISTRY)}"
            ) from None
    path = Path(path)
    if path.exists():
        with open(path, "rb") as fh:
            prefix = fh.read(_SNIFF_BYTES)
        for adapter in _REGISTRY.values():
            if adapter.name != _DEFAULT and adapter.sniff(prefix):
                return adapter
        return _REGISTRY[_DEFAULT]
    suffix = path.suffix.lower()
    for adapter in _REGISTRY.values():
        if suffix in adapter.suffixes and adapter.name != _DEFAULT:
            return adapter
    return _REGISTRY[_DEFAULT]


def write_document(
    document: dict[str, Any], path: str | Path, adapter: str | None = None
) -> Path:
    """Atomically persist a document: tmp file + fsync + rename."""
    path = Path(path)
    # Resolution runs against the *destination*: overwriting an existing
    # snapshot keeps its format (checkpoints never silently flip
    # adapters), a fresh path goes by explicit choice or suffix.
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


#: The bundled drivers.  JSONL first: it is the default *and* the
#: fallback, so its permissive sniff never shadows a specific driver
#: (resolve_adapter skips the default during the sniff pass).
JSONL = register_adapter(JsonlAdapter())
SQLITE = register_adapter(SqliteAdapter())

#: Live read-only view of the registry.
ADAPTERS = MappingProxyType(_REGISTRY)

__all__ = [
    "ADAPTERS",
    "AdapterCursor",
    "JSONL",
    "SQLITE",
    "SnapshotAdapter",
    "list_adapters",
    "read_document",
    "register_adapter",
    "resolve_adapter",
    "write_document",
]
