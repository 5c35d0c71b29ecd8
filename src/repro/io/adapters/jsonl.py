"""JSONL adapter: one JSON object per line.

Human-diffable, appends stream, ``grep``/``jq`` friendly — the natural
format for committed fixtures and for eyeballing what a checkpoint
actually contains.  Layout: the ``meta`` object first, then one line per
section, then one line per table row.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator


def jsonl_line(obj: dict[str, Any]) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


class JsonlAdapter:
    """One JSON object per line: ``meta`` first, then sections, then rows."""

    name = "jsonl"
    suffixes = (".jsonl", ".json", ".ndjson")

    def write(self, document: dict[str, Any], path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(jsonl_line({"meta": document["meta"]}))
            for name, payload in document["sections"].items():
                fh.write(jsonl_line({"section": name, "payload": payload}))
            for name, rows in document["tables"].items():
                for row in rows:
                    fh.write(jsonl_line({"table": name, "row": row}))
            fh.flush()
            os.fsync(fh.fileno())

    def read(self, path: Path) -> dict[str, Any]:
        meta: dict[str, Any] | None = None
        sections: dict[str, Any] = {}
        tables: dict[str, list[Any]] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                if not raw.strip():
                    continue
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}: line {lineno} is not valid JSON ({exc}); "
                        "is this a snapshot file?"
                    ) from exc
                if "meta" in obj:
                    meta = obj["meta"]
                elif "section" in obj:
                    sections[obj["section"]] = obj["payload"]
                elif "table" in obj:
                    tables.setdefault(obj["table"], []).append(obj["row"])
                else:
                    raise ValueError(f"{path}: line {lineno} has no known key")
        if meta is None:
            raise ValueError(f"{path}: no meta line — not a snapshot file")
        return {"meta": meta, "sections": sections, "tables": tables}

    def read_meta(self, path: Path) -> dict[str, Any]:
        # The meta object is the first line by construction.
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                if not raw.strip():
                    continue
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}: first line is not valid JSON ({exc}); "
                        "is this a snapshot file?"
                    ) from exc
                if "meta" not in obj:
                    raise ValueError(
                        f"{path}: first line is not a meta line — "
                        "not a snapshot file"
                    )
                return obj["meta"]
        raise ValueError(f"{path}: no meta line — not a snapshot file")

    def iter_table_rows(
        self, path: Path, table: str
    ) -> Iterator[dict[str, Any]]:
        # Streaming scan: parse line by line, yield only the asked-for
        # table's rows — the query scan never holds the document.
        needle = f'"table":"{table}"'
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                if needle not in raw:
                    continue
                obj = json.loads(raw)
                if obj.get("table") == table:
                    yield obj["row"]
