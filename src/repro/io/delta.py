"""Append-only delta checkpoints: O(changes) durability for streams.

A full snapshot is O(corpus) bytes — ~2.3 MB at 3k papers and GB-scale
at the millions-of-papers regime real AND corpora reach — so writing one
per checkpoint makes steady-state durability quadratically more
expensive as the streamed corpus grows.  A **delta chain** keeps the
cost proportional to what actually changed:

* the **base** is an ordinary full snapshot (any registered adapter),
  whose ``meta.delta_seq`` records how many deltas it has folded in;
* the **log** is an append-only JSONL sibling (``<base>.delta``) of
  :class:`DeltaRecord` lines, each carrying the papers ingested since
  the previous checkpoint together with the *assignment decisions* the
  streaming path already produced — exactly the information needed to
  replay the burst without re-scoring anything — plus the stream
  counters at the boundary, a sequence number, the base fingerprint and
  a content checksum.

Replay (:func:`replay_record`) re-executes the recorded decisions
through the same network mutations the live ingest performed — probe
allocation included, so the ``next_vid`` watermark and the name-index
order come out identical — and is pinned byte-identical to a full
snapshot of the same moment (``tests/test_delta_checkpoint.py``).

Integrity: every record ends with a checksum over its canonical
encoding.  A torn or truncated tail (the crash window of an append),
a sequence gap, or a record written against a different base all raise
:class:`ValueError` with a one-line message — a damaged chain is never
silently replayed.  Records whose ``seq`` the base has already folded in
(``seq <= meta.delta_seq``) are skipped, which is what makes compaction
crash-safe: the new base lands atomically *before* the log is truncated,
and a crash between the two steps leaves a log whose every record is
stale.

Compaction (:func:`compact_chain`, ``tools/snapshot.py compact``, or
automatically every ``IUADConfig.compact_every_n_deltas`` appends) folds
base + chain into a fresh base and truncates the log, bounding restore
cost.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from . import adapters, schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.records import Paper
    from .snapshot import Snapshot

#: Suffix of the append-only log riding next to a base snapshot.
DELTA_SUFFIX = ".delta"


def delta_log_path(base_path: str | Path) -> Path:
    """The chain log sibling of a base snapshot path."""
    base_path = Path(base_path)
    return base_path.with_name(base_path.name + DELTA_SUFFIX)


def document_fingerprint(document: Mapping[str, Any]) -> str:
    """Stable 16-hex-char digest of a backend-neutral document.

    Computed over the canonical JSON encoding *after* a JSON round-trip,
    so the write-side value (live Python containers) and the read-side
    value (whatever the adapter decoded) agree — and so the fingerprint
    survives lossless adapter conversion: a base converted from JSONL to
    SQLite still matches its chain.
    """
    canonical = json.loads(
        json.dumps(document, separators=(",", ":"), ensure_ascii=False)
    )
    blob = json.dumps(
        canonical, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _record_checksum(payload: Mapping[str, Any]) -> str:
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(slots=True)
class DeltaRecord:
    """One replayable checkpoint increment.

    ``assignments`` is parallel to ``papers``: one ``[vid, created]``
    pair per co-author position of the matching paper — the complete
    decision trail of the burst(s) since the previous checkpoint.
    ``stream`` is the encoded :class:`~repro.core.streaming.
    IncrementalReport` *at this boundary*: its counters and the
    ``seconds`` wall-clock total are facts a replay cannot re-derive, so
    they travel whole.  They are a fixed set of scalars plus one count
    per shard, so the section does not grow with the stream or the
    chain.
    """

    seq: int
    base: str  #: fingerprint of the base document this record extends
    papers: list[dict[str, Any]]
    assignments: list[list[list[Any]]]
    stream: dict[str, Any] | None

    def to_payload(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "base": self.base,
            "papers": self.papers,
            "assignments": self.assignments,
            "stream": self.stream,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "DeltaRecord":
        return cls(
            seq=int(payload["seq"]),
            base=str(payload["base"]),
            papers=list(payload["papers"]),
            assignments=list(payload["assignments"]),
            stream=payload.get("stream"),
        )


def encode_changes(
    changes: list[tuple["Paper", list[tuple[int, bool]]]],
) -> tuple[list[dict[str, Any]], list[list[list[Any]]]]:
    """Journal entries -> the (papers, assignments) tables of a record."""
    papers = [schema.encode_paper(paper) for paper, _decisions in changes]
    assignments = [
        [[int(vid), bool(created)] for vid, created in decisions]
        for _paper, decisions in changes
    ]
    return papers, assignments


# --------------------------------------------------------------------- #
# log I/O
# --------------------------------------------------------------------- #
def append_record(log_path: str | Path, record: DeltaRecord) -> Path:
    """Append one record to the chain log, durably (write + fsync).

    O(record) — the whole point: the base stays untouched, the log grows
    by exactly the burst's documents.
    """
    log_path = Path(log_path)
    payload = record.to_payload()
    line = json.dumps(
        {"delta": payload, "crc": _record_checksum(payload)},
        separators=(",", ":"),
        ensure_ascii=False,
    )
    created = not log_path.exists()
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    if created:
        adapters.fsync_dir(log_path.parent)
    return log_path


def truncate_log(log_path: str | Path) -> None:
    """Empty the chain log (post-compaction); keeps the file as a marker."""
    log_path = Path(log_path)
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.flush()
        os.fsync(fh.fileno())


def read_chain(
    log_path: str | Path, base_seq: int, base_fingerprint: str | None
) -> list[DeltaRecord]:
    """Decode the replayable tail of a chain log; error on any damage.

    Returns the records with ``seq > base_seq`` in order, after
    verifying, line by line: JSON well-formedness, the content checksum,
    the base fingerprint and seq contiguity.  A truncated or torn tail —
    the crash window of an interrupted append — fails the JSON or
    checksum check and raises; it is never silently dropped or replayed.

    ``base_fingerprint=None`` skips the base-match check (the query fast
    path, which deliberately avoids decoding the full base document);
    checksums and contiguity are still enforced.
    """
    log_path = Path(log_path)
    records: list[DeltaRecord] = []
    expected = None
    with open(log_path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError:
                raise ValueError(
                    f"{log_path}: line {lineno} is torn or truncated "
                    "(not valid JSON) — the delta chain cannot be replayed"
                ) from None
            if not isinstance(obj, dict) or "delta" not in obj:
                raise ValueError(
                    f"{log_path}: line {lineno} is not a delta record"
                )
            if _record_checksum(obj["delta"]) != obj.get("crc"):
                raise ValueError(
                    f"{log_path}: line {lineno} fails its checksum "
                    "(torn write or corruption) — refusing to replay"
                )
            record = DeltaRecord.from_payload(obj["delta"])
            if record.seq <= base_seq:
                # Already folded into the base (compaction landed, the
                # truncate may not have) — stale, skip.
                continue
            if base_fingerprint is not None and record.base != base_fingerprint:
                raise ValueError(
                    f"{log_path}: line {lineno} extends base "
                    f"{record.base}, not {base_fingerprint} — "
                    "mismatched chain"
                )
            if expected is not None and record.seq != expected:
                raise ValueError(
                    f"{log_path}: line {lineno} has seq {record.seq}, "
                    f"expected {expected} — the chain has a gap"
                )
            if expected is None and record.seq != base_seq + 1:
                raise ValueError(
                    f"{log_path}: first live record has seq {record.seq}, "
                    f"the base has folded {base_seq} — the chain has a gap"
                )
            expected = record.seq + 1
            records.append(record)
    return records


def chain_info(
    log_path: Path,
    base_seq: int,
    base_fingerprint: str,
    records: list[DeltaRecord],
) -> dict[str, Any]:
    """Chain summary of ``snapshot_header`` and ``Snapshot.load_chain``.

    Built from the ``records`` :func:`read_chain` already returned for
    ``log_path``, so the log is read once.
    """
    return {
        "log": str(log_path),
        "log_bytes": log_path.stat().st_size,
        "base_seq": base_seq,
        "base_fingerprint": base_fingerprint,
        "chain_length": len(records),
        "last_seq": records[-1].seq if records else base_seq,
        "n_papers": sum(len(r.papers) for r in records),
    }


# --------------------------------------------------------------------- #
# replay
# --------------------------------------------------------------------- #
def replay_record(snapshot: "Snapshot", record: DeltaRecord) -> None:
    """Apply one delta to a decoded base snapshot, in place.

    Re-executes the recorded decisions through the exact mutation
    sequence of the live incremental path — probe vertex allocated per
    mention (``next_vid`` parity), attached probes removed again
    (name-index order parity), pairwise collaboration edges recovered in
    position order — so the replayed state is byte-identical to the live
    network at the boundary the record captured.
    """
    gcn = snapshot.gcn
    index = snapshot.sharding.index if snapshot.sharding is not None else None
    for paper_row, decisions in zip(record.papers, record.assignments):
        paper = schema.decode_paper(paper_row)
        if len(decisions) != len(paper.authors):
            raise ValueError(
                f"delta seq {record.seq}: paper {paper.pid} has "
                f"{len(paper.authors)} co-authors but "
                f"{len(decisions)} recorded decisions"
            )
        if paper.pid in snapshot.corpus:
            raise ValueError(
                f"delta seq {record.seq}: paper {paper.pid} is already "
                "in the base corpus — overlapping chain"
            )
        snapshot.corpus.add(paper)
        if index is not None:
            index.route_paper(paper.authors)
        vids: list[int] = []
        for position, name in enumerate(paper.authors):
            vid, created = int(decisions[position][0]), bool(
                decisions[position][1]
            )
            probe = gcn.add_vertex(
                name, mentions=((paper.pid, position),)
            )
            if created:
                if probe != vid:
                    raise ValueError(
                        f"delta seq {record.seq}: replay allocated vertex "
                        f"{probe} where the record expects {vid} — the "
                        "chain does not extend this base"
                    )
            else:
                gcn.add_mention(vid, paper.pid, position)
                gcn.set_mentions(probe, ())
                gcn.remove_isolated_vertex(probe)
            vids.append(vid)
        for i, u in enumerate(vids):
            for v in vids[i + 1:]:
                if u != v:
                    gcn.add_edge(u, v, (paper.pid,))
    if record.stream is not None:
        from .snapshot import _decode_stream

        snapshot.stream = _decode_stream(record.stream)


# --------------------------------------------------------------------- #
# compaction
# --------------------------------------------------------------------- #
def compact_chain(
    path: str | Path, backend: str | None = None
) -> tuple[Path, int]:
    """Fold base + chain into a fresh base; truncate the log.

    Crash-safe by sequencing: the compacted base (carrying
    ``delta_seq = last folded seq``) lands via the atomic
    tmp+fsync+rename write *first*; only then is the log truncated.  A
    crash in between leaves a base that already skips every log record.
    Returns ``(base path, number of records folded)``.
    """
    from .snapshot import Snapshot

    snapshot, info = Snapshot.load_chain(path, backend=backend)
    folded = info["chain_length"] if info is not None else 0
    if info is not None:
        snapshot.delta_seq = info["last_seq"]
    snapshot.save(path, backend=backend)
    log_path = delta_log_path(path)
    if log_path.exists():
        truncate_log(log_path)
    return Path(path), folded
