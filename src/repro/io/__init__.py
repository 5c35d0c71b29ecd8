"""Durable snapshots & warm-start resume: multi-adapter persistence.

Public surface:

* :class:`~repro.io.snapshot.Snapshot` — the versioned, complete fitted
  state (networks, model, embeddings, frequency tables, corpus, config,
  sharding, streaming counters) with :meth:`~repro.io.snapshot.Snapshot.save`
  / :meth:`~repro.io.snapshot.Snapshot.load` /
  :meth:`~repro.io.snapshot.Snapshot.load_chain` /
  :meth:`~repro.io.snapshot.Snapshot.restore`;
* :func:`~repro.io.snapshot.snapshot_of` — capture a fitted estimator;
* :func:`~repro.io.snapshot.verify_snapshot` — the invariant sweep behind
  ``tools/snapshot.py verify``;
* :func:`~repro.io.snapshot.snapshot_header` — validated machine-readable
  header without a full decode (``tools/snapshot.py inspect --json`` and
  the ``tools/serve.py`` warm-start validation), delta-chain aware;
* the **adapter registry** (:mod:`repro.io.adapters`) —
  :func:`~repro.io.adapters.register_adapter` /
  :func:`~repro.io.adapters.resolve_adapter` /
  :func:`~repro.io.adapters.list_adapters` over the bundled JSONL and
  SQLite drivers, and the atomic :func:`~repro.io.adapters.write_document`
  / :func:`~repro.io.adapters.read_document` entry points;
* **delta chains** (:mod:`repro.io.delta`) — append-only O(changes)
  checkpoints replayed on top of a base snapshot, with compaction;
* **point queries** (:mod:`repro.io.query`) —
  :class:`~repro.io.query.SnapshotQuery` answers ``who_is`` /
  ``owner_of`` straight off the snapshot file (indexed SQL when the
  adapter supports it) without materialising fitted state;
* :data:`~repro.io.schema.SCHEMA_VERSION` — the document version.

See ``docs/architecture.md`` ("Persistence & warm start") for the format,
the atomicity contract and the delta-chain design.
"""

from .adapters import (
    ADAPTERS,
    SnapshotAdapter,
    list_adapters,
    read_document,
    register_adapter,
    resolve_adapter,
    write_document,
)
from .delta import compact_chain, delta_log_path
from .query import SnapshotQuery
from .schema import FORMAT_NAME, SCHEMA_VERSION
from .snapshot import (
    Snapshot,
    ShardingState,
    snapshot_header,
    snapshot_of,
    verify_snapshot,
)

__all__ = [
    "ADAPTERS",
    "FORMAT_NAME",
    "SCHEMA_VERSION",
    "ShardingState",
    "Snapshot",
    "SnapshotAdapter",
    "SnapshotQuery",
    "compact_chain",
    "delta_log_path",
    "list_adapters",
    "read_document",
    "register_adapter",
    "resolve_adapter",
    "snapshot_header",
    "snapshot_of",
    "verify_snapshot",
    "write_document",
]
