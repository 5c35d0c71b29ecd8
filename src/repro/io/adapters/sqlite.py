"""SQLite adapter: a single queryable file with real, indexed tables.

Bulk rows land in real tables (``papers``, ``vertices``, ``edges``,
``embedding_rows``) so ad-hoc SQL works on a fitted snapshot, and the
whole write is one transaction.  On top of the document payload the
writer derives an **indexed mention-ownership table**::

    mentions (net, pid, position, vid, name)   PRIMARY KEY (net, pid, position)
    + index on (net, name); vertices indexed on (net, name)

which makes the fitted network queryable *in place*: ``who_is`` /
``owner_of`` lookups run as a point SELECT against the snapshot file
without decoding the full state (:meth:`SqliteAdapter.open_query`,
surfaced as :mod:`repro.io.query`).  The table is derived data —
:meth:`SqliteAdapter.read` reconstructs the document from the vertex
payloads alone, so converting to JSONL and back is lossless — and its
primary key doubles as an integrity check: a snapshot violating the
one-mention-per-paper invariant cannot even be written.

Snapshots written by earlier builds lack the derived table; the query
cursor then falls back to scanning the (name-filtered) vertex payloads,
still without a full decode.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any

from .base import AdapterCursor, SnapshotAdapter

#: Magic prefix of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

#: Bulk tables with first-class SQLite columns; everything else in the
#: document's ``tables`` mapping is rejected (schema and adapters move in
#: lock-step — an unknown table means a version skew, not data to guess at).
_TABLES = ("papers", "gcn_vertices", "gcn_edges", "scn_vertices", "scn_edges",
           "embedding_rows")


class SqliteCursor(AdapterCursor):
    """Indexed who-is queries against an open snapshot database."""

    def __init__(self, conn: sqlite3.Connection, indexed: bool) -> None:
        self._conn = conn
        self._indexed = indexed

    def owner_of(self, pid: int, position: int) -> tuple[int, str] | None:
        if self._indexed:
            row = self._conn.execute(
                "SELECT vid, name FROM mentions "
                "WHERE net = 'gcn' AND pid = ? AND position = ?",
                (pid, position),
            ).fetchone()
            return (int(row[0]), row[1]) if row else None
        # pre-index snapshot: scan vertex payloads (no full decode)
        for vid, name, payload in self._conn.execute(
            "SELECT vid, name, payload FROM vertices WHERE net = 'gcn'"
        ):
            for m_pid, m_pos in json.loads(payload).get("mentions", ()):
                if m_pid == pid and m_pos == position:
                    return int(vid), name
        return None

    def clusters_of_name(self, name: str) -> dict[int, list[tuple[int, int]]]:
        if self._indexed:
            out: dict[int, list[tuple[int, int]]] = {}
            for vid, pid, position in self._conn.execute(
                "SELECT vid, pid, position FROM mentions "
                "WHERE net = 'gcn' AND name = ?",
                (name,),
            ):
                out.setdefault(int(vid), []).append((int(pid), int(position)))
            return out
        out = {}
        for vid, payload in self._conn.execute(
            "SELECT vid, payload FROM vertices "
            "WHERE net = 'gcn' AND name = ?",
            (name,),
        ):
            out[int(vid)] = [
                (int(pid), int(pos))
                for pid, pos in json.loads(payload).get("mentions", ())
            ]
        return out

    def close(self) -> None:
        self._conn.close()


class SqliteAdapter(SnapshotAdapter):
    """Single-file SQLite database with real tables for the bulk rows."""

    name = "sqlite"
    suffixes = (".sqlite", ".sqlite3", ".db")

    _SCHEMA = """
        CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE sections (name TEXT PRIMARY KEY, payload TEXT NOT NULL);
        CREATE TABLE papers (
            seq INTEGER PRIMARY KEY, pid INTEGER NOT NULL, payload TEXT NOT NULL
        );
        CREATE TABLE vertices (
            net TEXT NOT NULL, seq INTEGER NOT NULL, vid INTEGER NOT NULL,
            name TEXT NOT NULL, payload TEXT NOT NULL,
            PRIMARY KEY (net, seq)
        );
        CREATE TABLE edges (
            net TEXT NOT NULL, seq INTEGER NOT NULL, u INTEGER NOT NULL,
            v INTEGER NOT NULL, payload TEXT NOT NULL,
            PRIMARY KEY (net, seq)
        );
        CREATE TABLE embedding_rows (
            seq INTEGER PRIMARY KEY, word TEXT NOT NULL, vector TEXT NOT NULL
        );
        CREATE TABLE mentions (
            net TEXT NOT NULL, pid INTEGER NOT NULL, position INTEGER NOT NULL,
            vid INTEGER NOT NULL, name TEXT NOT NULL,
            PRIMARY KEY (net, pid, position)
        );
        CREATE INDEX mentions_by_name ON mentions (net, name);
        CREATE INDEX vertices_by_name ON vertices (net, name);
    """

    def sniff(self, prefix: bytes) -> bool:
        return prefix.startswith(SQLITE_MAGIC)

    def write(self, document: dict[str, Any], path: Path) -> None:
        # A leftover (possibly truncated) file at the target confuses
        # sqlite3.connect; start from a clean slate.  The caller hands us
        # a .tmp path, never the live snapshot.
        path.unlink(missing_ok=True)
        conn = sqlite3.connect(path)
        try:
            with conn:  # one transaction for the entire snapshot
                conn.executescript(self._SCHEMA)
                conn.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    [(k, json.dumps(v)) for k, v in document["meta"].items()],
                )
                conn.executemany(
                    "INSERT INTO sections (name, payload) VALUES (?, ?)",
                    [
                        (name, json.dumps(payload))
                        for name, payload in document["sections"].items()
                    ],
                )
                for name, rows in document["tables"].items():
                    if name not in _TABLES:
                        raise ValueError(f"unknown snapshot table {name!r}")
                    if name == "papers":
                        conn.executemany(
                            "INSERT INTO papers (seq, pid, payload) "
                            "VALUES (?, ?, ?)",
                            [
                                (i, row["pid"], json.dumps(row))
                                for i, row in enumerate(rows)
                            ],
                        )
                    elif name.endswith("_vertices"):
                        net = name[: -len("_vertices")]
                        conn.executemany(
                            "INSERT INTO vertices (seq, net, vid, name, payload)"
                            " VALUES (?, ?, ?, ?, ?)",
                            [
                                (i, net, row["vid"], row["name"], json.dumps(row))
                                for i, row in enumerate(rows)
                            ],
                        )
                        conn.executemany(
                            "INSERT INTO mentions (net, pid, position, vid, "
                            "name) VALUES (?, ?, ?, ?, ?)",
                            [
                                (net, pid, position, row["vid"], row["name"])
                                for row in rows
                                for pid, position in row.get("mentions", ())
                            ],
                        )
                    elif name.endswith("_edges"):
                        net = name[: -len("_edges")]
                        conn.executemany(
                            "INSERT INTO edges (seq, net, u, v, payload) "
                            "VALUES (?, ?, ?, ?, ?)",
                            [
                                (i, net, row["u"], row["v"], json.dumps(row))
                                for i, row in enumerate(rows)
                            ],
                        )
                    else:  # embedding_rows
                        conn.executemany(
                            "INSERT INTO embedding_rows (seq, word, vector) "
                            "VALUES (?, ?, ?)",
                            [
                                (i, word, json.dumps(vector))
                                for i, (word, vector) in enumerate(rows)
                            ],
                        )
        finally:
            conn.close()

    def read(self, path: Path) -> dict[str, Any]:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            meta = {
                k: json.loads(v)
                for k, v in conn.execute("SELECT key, value FROM meta")
            }
            sections = {
                name: json.loads(payload)
                for name, payload in conn.execute(
                    "SELECT name, payload FROM sections"
                )
            }
            tables: dict[str, list[Any]] = {}
            papers = [
                json.loads(payload)
                for (payload,) in conn.execute(
                    "SELECT payload FROM papers ORDER BY seq"
                )
            ]
            if papers:
                tables["papers"] = papers
            for net, table, column in (
                ("gcn", "vertices", "gcn_vertices"),
                ("scn", "vertices", "scn_vertices"),
                ("gcn", "edges", "gcn_edges"),
                ("scn", "edges", "scn_edges"),
            ):
                rows = [
                    json.loads(payload)
                    for (payload,) in conn.execute(
                        f"SELECT payload FROM {table} WHERE net = ? "
                        "ORDER BY seq",
                        (net,),
                    )
                ]
                if rows or column in ("gcn_vertices", "gcn_edges"):
                    tables[column] = rows
            embedding = [
                [word, json.loads(vector)]
                for word, vector in conn.execute(
                    "SELECT word, vector FROM embedding_rows ORDER BY seq"
                )
            ]
            if embedding:
                tables["embedding_rows"] = embedding
            return {"meta": meta, "sections": sections, "tables": tables}
        except sqlite3.DatabaseError as exc:
            raise ValueError(f"{path}: not a readable snapshot ({exc})") from exc
        finally:
            conn.close()

    def read_meta(self, path: Path) -> dict[str, Any]:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            return {
                k: json.loads(v)
                for k, v in conn.execute("SELECT key, value FROM meta")
            }
        except sqlite3.DatabaseError as exc:
            raise ValueError(f"{path}: not a readable snapshot ({exc})") from exc
        finally:
            conn.close()

    def open_query(self, path: Path) -> SqliteCursor:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            indexed = bool(
                conn.execute(
                    "SELECT 1 FROM sqlite_master "
                    "WHERE type = 'table' AND name = 'mentions'"
                ).fetchone()
            )
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise ValueError(
                f"{path}: not a readable snapshot ({exc})"
            ) from exc
        return SqliteCursor(conn, indexed)
