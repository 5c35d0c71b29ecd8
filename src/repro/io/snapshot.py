"""Durable snapshots of fitted IUAD state, with exact warm-start resume.

The paper's bottom-up reconstruction treats the fitted collaboration
network as a long-lived artifact that keeps absorbing papers (Section V's
insertion algorithm) — so the fitted state must survive a process exit.
A :class:`Snapshot` captures **everything** a continuation needs:

* the collaboration networks (GCN and, optionally, the Stage-1 SCN) with
  their exact name-index order and ``next_vid`` watermark;
* the learned matched/unmatched mixture and the trained title embeddings
  (stored, never retrained — retraining on a grown corpus would shift γ3);
* the similarity computer's *fit-time* word/venue frequency tables
  (γ4/γ6 inputs — re-deriving them from a corpus that streamed papers
  have grown would silently change scores);
* the ingested corpus, the config, and — for sharded fits — the shard
  plan, the live shard-routing index and the cannot-link pairs;
* optionally the streaming report counters (checkpoints).

The headline guarantee is **exact resume parity**: a fit or ingest that
is snapshotted, reloaded in a fresh process and continued produces the
identical network (vertex ids, ``next_vid``, mention payloads, edge paper
sets), assignments, counters and cannot-link state as an uninterrupted
run (``tests/test_snapshot_parity.py``).  Profile caches are the one
thing deliberately *not* stored: they rebuild deterministically on
demand, in canonical order.

Typical use::

    iuad.fit(corpus)
    iuad.save("fitted.jsonl")                  # or fitted.sqlite
    ...
    iuad = IUAD.load("fitted.jsonl")           # fresh process, no re-fit
    StreamingIngestor(iuad).add_paper(new_paper)

Streaming checkpoints ride the same format — see
:meth:`repro.core.streaming.StreamingIngestor.checkpoint` /
:meth:`~repro.core.streaming.StreamingIngestor.resume`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..core.config import IUADConfig
from ..core.streaming import IncrementalReport
from ..core.sharding import Shard, ShardIndex, ShardPlan
from ..data.records import Corpus
from ..graphs.collab import CollaborationNetwork
from ..model.mixture import MatchMixture
from ..similarity.profile import SimilarityComputer
from ..text.embeddings import WordEmbeddings
from . import adapters, schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.iuad import IUAD

Pair = tuple[int, int]


@dataclass(slots=True)
class ShardingState:
    """The sharded-execution extras riding in a :class:`Snapshot`.

    ``plan`` is the fitted partition (per-shard name lists, owned vertex
    ids, paper ids; files written before the decision moved to the whole
    SCN also carry per-shard ``halo_vids``, which reads ignore),
    ``index`` the *live* routing state including every bridge streaming
    inserts have performed, ``cannot_links`` the homonym constraints of
    the fitted network.
    """

    plan: ShardPlan | None
    index: ShardIndex
    cannot_links: list[Pair] = field(default_factory=list)


@dataclass(slots=True)
class Snapshot:
    """The complete fitted state of an (optionally sharded) IUAD run."""

    config: IUADConfig
    corpus: Corpus
    gcn: CollaborationNetwork
    model: MatchMixture
    word_frequencies: dict[str, int]
    venue_frequencies: dict[str, int]
    scn: CollaborationNetwork | None = None
    embeddings: WordEmbeddings | None = None
    sharding: ShardingState | None = None
    stream: IncrementalReport | None = None
    version: int = schema.SCHEMA_VERSION
    #: Highest delta-chain seq already folded into this base (0 = none).
    #: Restore skips log records at or below this watermark — that is
    #: what makes compaction crash-safe (see :mod:`repro.io.delta`).
    delta_seq: int = 0

    # ------------------------------------------------------------------ #
    # construction from a fitted estimator
    # ------------------------------------------------------------------ #
    @classmethod
    def of(
        cls, estimator: "IUAD", stream: IncrementalReport | None = None
    ) -> "Snapshot":
        """Capture a fitted estimator (plus optional streaming counters).

        Holds *references* to the live objects — saving never copies or
        mutates; capture-then-continue is safe because :meth:`save`
        serializes immediately.
        """
        if estimator.gcn_ is None or estimator.model_ is None:
            raise ValueError("cannot snapshot an unfitted estimator")
        assert estimator.corpus_ is not None and estimator.computer_ is not None
        computer = estimator.computer_
        sharding = None
        shard_index = getattr(estimator, "shard_index_", None)
        if shard_index is not None:
            sharding = ShardingState(
                plan=getattr(estimator, "plan_", None),
                index=shard_index,
                cannot_links=list(getattr(estimator, "cannot_links_", [])),
            )
        return cls(
            config=estimator.config,
            corpus=estimator.corpus_,
            gcn=estimator.gcn_,
            scn=estimator.scn_,
            model=estimator.model_,
            embeddings=estimator.embeddings_,
            word_frequencies=dict(computer.word_frequencies),
            venue_frequencies=dict(computer.venue_frequencies),
            sharding=sharding,
            stream=stream,
        )

    # ------------------------------------------------------------------ #
    # restore
    # ------------------------------------------------------------------ #
    def restore(self) -> "IUAD":
        """Materialise a ready-to-serve estimator from this snapshot.

        Returns a :class:`~repro.core.iuad.IUAD` — or a
        :class:`~repro.core.sharding.ShardedIUAD` when the snapshot
        carries sharding state — with every fitted attribute in place and
        a cold-cache similarity computer bound to the restored network
        with the *fit-time* frequency tables.  ``report_`` (fit
        diagnostics) is not part of the snapshot and stays ``None``.
        """
        from ..core.iuad import IUAD
        from ..core.sharding import ShardedIUAD

        estimator = (ShardedIUAD if self.sharding is not None else IUAD)(
            self.config
        )
        estimator.corpus_ = self.corpus
        estimator.scn_ = self.scn
        estimator.gcn_ = self.gcn
        estimator.model_ = self.model
        estimator.embeddings_ = self.embeddings
        estimator.computer_ = SimilarityComputer(
            self.gcn,
            self.corpus,
            embeddings=self.embeddings,
            word_frequencies=self.word_frequencies,
            wl_iterations=self.config.wl_iterations,
            decay_alpha=self.config.decay_alpha,
            venue_frequencies=self.venue_frequencies,
        )
        if self.sharding is not None:
            estimator.plan_ = self.sharding.plan
            estimator.shard_index_ = self.sharding.index
            estimator.cannot_links_ = list(self.sharding.cannot_links)
        return estimator

    # ------------------------------------------------------------------ #
    # document (backend-neutral) encoding
    # ------------------------------------------------------------------ #
    def to_document(self) -> dict[str, Any]:
        gcn_vertices, gcn_edges, gcn_meta = schema.encode_network(self.gcn)
        tables: dict[str, list[Any]] = {
            "papers": schema.encode_corpus(self.corpus),
            "gcn_vertices": gcn_vertices,
            "gcn_edges": gcn_edges,
        }
        sections: dict[str, Any] = {
            "config": schema.encode_config(self.config),
            "model": schema.encode_model(self.model),
            "computer": {
                "word_frequencies": dict(self.word_frequencies),
                "venue_frequencies": dict(self.venue_frequencies),
            },
            "gcn_meta": gcn_meta,
        }
        if self.scn is not None:
            scn_vertices, scn_edges, scn_meta = schema.encode_network(self.scn)
            tables["scn_vertices"] = scn_vertices
            tables["scn_edges"] = scn_edges
            sections["scn_meta"] = scn_meta
        embedding_rows = schema.encode_embeddings(self.embeddings)
        if embedding_rows is not None:
            tables["embedding_rows"] = embedding_rows
        if self.sharding is not None:
            sections["sharding"] = _encode_sharding(self.sharding)
        if self.stream is not None:
            sections["stream"] = _encode_stream(self.stream)
        meta = {
            "format": schema.FORMAT_NAME,
            "version": self.version,
            "kind": "sharded" if self.sharding is not None else "iuad",
            "has_stream": self.stream is not None,
            "n_papers": len(self.corpus),
            "n_gcn_vertices": len(self.gcn),
            "n_gcn_edges": self.gcn.n_edges,
        }
        if self.delta_seq:
            # Only when nonzero: pre-delta snapshots (and the committed
            # fixture) stay byte-identical.
            meta["delta_seq"] = self.delta_seq
        return {"meta": meta, "sections": sections, "tables": tables}

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "Snapshot":
        version = _validate_document(document, "snapshot document")
        meta = document["meta"]
        tables = document["tables"]
        sections = document["sections"]
        computer = sections["computer"]
        if computer.get("frequent_keywords"):
            # Snapshots once carried an (always empty) keyword blocklist;
            # a non-empty one changes γ, which this version cannot honour.
            raise ValueError(
                "snapshot document: unsupported non-empty "
                "computer.frequent_keywords"
            )
        scn = None
        if "scn_meta" in sections:
            scn = schema.decode_network(
                tables.get("scn_vertices", []),
                tables.get("scn_edges", []),
                sections["scn_meta"],
            )
        sharding = None
        if "sharding" in sections:
            sharding = _decode_sharding(sections["sharding"])
        stream = None
        if "stream" in sections:
            stream = _decode_stream(sections["stream"])
        return cls(
            config=schema.decode_config(sections["config"]),
            corpus=schema.decode_corpus(tables["papers"]),
            gcn=schema.decode_network(
                tables["gcn_vertices"],
                tables.get("gcn_edges", []),
                sections["gcn_meta"],
            ),
            scn=scn,
            model=schema.decode_model(sections["model"]),
            embeddings=schema.decode_embeddings(tables.get("embedding_rows")),
            word_frequencies={
                k: int(v) for k, v in computer["word_frequencies"].items()
            },
            venue_frequencies={
                k: int(v) for k, v in computer["venue_frequencies"].items()
            },
            sharding=sharding,
            stream=stream,
            version=version,
            delta_seq=int(meta.get("delta_seq", 0)),
        )

    # ------------------------------------------------------------------ #
    # disk
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path, backend: str | None = None) -> Path:
        """Atomically write this snapshot (see :mod:`.adapters`)."""
        return adapters.write_document(self.to_document(), path, backend)

    @classmethod
    def load(cls, path: str | Path, backend: str | None = None) -> "Snapshot":
        """Read a snapshot; the backend is sniffed from the file bytes."""
        return cls.from_document(adapters.read_document(path, backend))

    @classmethod
    def load_chain(
        cls, path: str | Path, backend: str | None = None
    ) -> tuple["Snapshot", dict[str, Any] | None]:
        """Load a base snapshot and replay its delta chain, if one rides it.

        Looks for the ``<path>.delta`` append-only log next to the base
        (see :mod:`repro.io.delta`); when present, validates it
        (checksums, seq contiguity, base fingerprint — any damage raises
        :class:`ValueError` with a one-line message) and replays every
        record newer than the base's ``delta_seq`` watermark.  The
        replayed snapshot is byte-identical to a full snapshot taken at
        the chain's last checkpoint boundary.

        Returns ``(snapshot, chain_info)`` where ``chain_info`` is
        ``None`` when no log exists, else the dict
        :func:`repro.io.delta.chain_info` describes.
        """
        from . import delta as delta_chain

        document = adapters.read_document(path, backend)
        snapshot = cls.from_document(document)
        log_path = delta_chain.delta_log_path(path)
        if not log_path.exists():
            return snapshot, None
        fingerprint = delta_chain.document_fingerprint(document)
        records = delta_chain.read_chain(
            log_path, snapshot.delta_seq, fingerprint
        )
        info = delta_chain.chain_info(
            log_path, snapshot.delta_seq, fingerprint, records
        )
        for record in records:
            delta_chain.replay_record(snapshot, record)
        return snapshot, info


def snapshot_of(
    estimator: "IUAD", stream: IncrementalReport | None = None
) -> Snapshot:
    """Convenience alias for :meth:`Snapshot.of`."""
    return Snapshot.of(estimator, stream=stream)


# --------------------------------------------------------------------- #
# sharding / stream payloads
# --------------------------------------------------------------------- #
def _encode_sharding(state: ShardingState) -> dict[str, Any]:
    index = state.index
    payload: dict[str, Any] = {
        "index": {
            "uf": schema.encode_unionfind(index._uf),
            "name_to_shard": dict(index._name_to_shard),
            "next_shard": index._next_shard,
            "n_bridges": index.n_bridges,
        },
        "cannot_links": [[u, v] for u, v in state.cannot_links],
    }
    if state.plan is not None:
        payload["plan"] = {
            "shards": [
                {
                    "index": s.index,
                    "names": list(s.names),
                    "owned_vids": list(s.owned_vids),
                    "pids": list(s.pids),
                    "n_candidate_pairs": s.n_candidate_pairs,
                }
                for s in state.plan.shards
            ],
            "fastpath_vids": list(state.plan.fastpath_vids),
            "name_to_shard": dict(state.plan.name_to_shard),
            "n_blocks": state.plan.n_blocks,
            "seconds": state.plan.seconds,
        }
    return payload


def _decode_sharding(payload: Mapping[str, Any]) -> ShardingState:
    raw_index = payload["index"]
    index = ShardIndex({}, 0)
    index._uf = schema.decode_unionfind(raw_index["uf"])
    index._name_to_shard = {
        name: int(sid) for name, sid in raw_index["name_to_shard"].items()
    }
    index._next_shard = int(raw_index["next_shard"])
    index.n_bridges = int(raw_index["n_bridges"])
    plan = None
    if "plan" in payload:
        raw_plan = payload["plan"]
        plan = ShardPlan(
            shards=[
                Shard(
                    index=int(s["index"]),
                    names=tuple(s["names"]),
                    owned_vids=tuple(int(v) for v in s["owned_vids"]),
                    pids=tuple(int(p) for p in s["pids"]),
                    n_candidate_pairs=int(s["n_candidate_pairs"]),
                )
                for s in raw_plan["shards"]
            ],
            fastpath_vids=tuple(int(v) for v in raw_plan["fastpath_vids"]),
            name_to_shard={
                name: int(sid)
                for name, sid in raw_plan["name_to_shard"].items()
            },
            n_blocks=int(raw_plan["n_blocks"]),
            seconds=float(raw_plan["seconds"]),
        )
    return ShardingState(
        plan=plan,
        index=index,
        cannot_links=[(int(u), int(v)) for u, v in payload["cannot_links"]],
    )


def _encode_stream(report: IncrementalReport) -> dict[str, Any]:
    return {
        "n_papers": report.n_papers,
        "n_mentions": report.n_mentions,
        "n_attached": report.n_attached,
        "n_created": report.n_created,
        "n_duplicates": report.n_duplicates,
        "n_batches": report.n_batches,
        "n_waves": report.n_waves,
        "seconds": report.seconds,
        # JSON objects stringify int keys; decode re-ints them.
        "per_shard_papers": {
            str(shard): count
            for shard, count in report.per_shard_papers.items()
        },
    }


def _decode_stream(payload: Mapping[str, Any]) -> IncrementalReport:
    return IncrementalReport(
        n_papers=int(payload["n_papers"]),
        n_mentions=int(payload["n_mentions"]),
        n_attached=int(payload["n_attached"]),
        n_created=int(payload["n_created"]),
        n_duplicates=int(payload["n_duplicates"]),
        n_batches=int(payload["n_batches"]),
        n_waves=int(payload["n_waves"]),
        seconds=float(payload["seconds"]),
        per_shard_papers={
            int(shard): int(count)
            for shard, count in payload["per_shard_papers"].items()
        },
    )


# --------------------------------------------------------------------- #
# structural validation (shared by every reader)
# --------------------------------------------------------------------- #
#: Tables and sections every snapshot document carries.  Other tables
#: may legitimately be absent: the JSONL adapter writes no line for an
#: empty table (an edgeless network, no embeddings).
_REQUIRED_TABLES = ("papers", "gcn_vertices")
_REQUIRED_SECTIONS = ("config", "model", "computer", "gcn_meta")
#: Header count field -> the table it counts.
_COUNTED_TABLES = {"n_papers": "papers", "n_gcn_vertices": "gcn_vertices"}


def _validate_document(document: Any, where: str) -> int:
    """Structural checks shared by every snapshot reader; returns the version.

    :func:`snapshot_header` and :meth:`Snapshot.from_document` (hence
    ``Snapshot.load``, ``Snapshot.load_chain`` and
    ``StreamingIngestor.resume``) run this before reading any field, so
    a foreign, truncated or hand-edited document fails the same way
    through every entry point: a one-line :class:`ValueError` prefixed
    with ``where``.
    """
    if not isinstance(document, Mapping):
        raise ValueError(f"{where}: snapshot document is not an object")
    meta = document.get("meta")
    sections = document.get("sections")
    tables = document.get("tables")
    if not all(isinstance(part, Mapping) for part in (meta, sections, tables)):
        raise ValueError(
            f"{where}: snapshot document lacks meta/sections/tables"
        )
    if meta.get("format") != schema.FORMAT_NAME:
        raise ValueError(
            f"{where}: not a repro snapshot "
            f"(meta.format={meta.get('format')!r})"
        )
    try:
        version = int(meta.get("version", 0))
    except (TypeError, ValueError):
        raise ValueError(
            f"{where}: non-integer schema version {meta.get('version')!r}"
        ) from None
    if not 1 <= version <= schema.SCHEMA_VERSION:
        raise ValueError(
            f"{where}: unsupported schema version {version} "
            f"(this build reads 1..{schema.SCHEMA_VERSION})"
        )
    for table in _REQUIRED_TABLES:
        if not isinstance(tables.get(table), list):
            raise ValueError(f"{where}: missing table {table!r}")
    for section in _REQUIRED_SECTIONS:
        if not isinstance(sections.get(section), Mapping):
            raise ValueError(f"{where}: missing section {section!r}")
    if "next_vid" not in sections["gcn_meta"]:
        raise ValueError(f"{where}: gcn_meta section lacks next_vid")
    for key, table in _COUNTED_TABLES.items():
        declared = meta.get(key)
        if declared is not None and declared != len(tables[table]):
            raise ValueError(
                f"{where}: header claims {declared} {table} rows, "
                f"the table holds {len(tables[table])}"
            )
    return version


# --------------------------------------------------------------------- #
# header inspection (library core of ``tools/snapshot.py inspect``)
# --------------------------------------------------------------------- #
def snapshot_header(path: str | Path, backend: str | None = None) -> dict:
    """Validated, machine-readable snapshot header — without a full decode.

    Reads the document (no fitted objects are materialised) and
    cross-checks the header against the tables it describes: format
    name, schema version range, count fields vs actual table lengths.
    Every corruption mode raises :class:`ValueError` with a one-line
    message — the CLI (``tools/snapshot.py inspect --json``) and the
    serve CLI turn that into a non-zero exit instead of a traceback.

    The returned dict is JSON-ready::

        {"path", "adapter", "bytes", "format", "version", "kind",
         "n_papers", "n_vertices", "n_edges", "has_scn", "has_stream",
         "has_embeddings", "sharding": {...} | None,
         "stream": {...} | None, "delta_seq", "delta": {...} | None}

    ``adapter`` is the resolved format's name.  ``delta`` summarises the
    sibling delta chain when one exists — chain length, base fingerprint,
    seq range — and a damaged chain (torn tail, checksum failure, seq
    gap) raises here, so ``inspect`` on a broken chain exits non-zero.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{path}: no such file")
    try:
        resolved = adapters.resolve_adapter(path, backend)
        document = adapters.read_document(path, backend)
    except ValueError:
        raise
    except Exception as exc:
        raise ValueError(f"{path}: unreadable snapshot ({exc})") from exc
    version = _validate_document(document, str(path))
    meta, sections, tables = (
        document["meta"], document["sections"], document["tables"]
    )
    header: dict = {
        "path": str(path),
        "adapter": resolved.name,
        "bytes": path.stat().st_size,
        "format": meta["format"],
        "version": version,
        "kind": meta.get("kind", "iuad"),
        "n_papers": len(tables["papers"]),
        "n_vertices": len(tables["gcn_vertices"]),
        "n_edges": len(tables.get("gcn_edges", [])),
        "next_vid": int(sections["gcn_meta"]["next_vid"]),
    }
    header["has_scn"] = "scn_meta" in sections
    header["has_stream"] = "stream" in sections
    header["has_embeddings"] = bool(tables.get("embedding_rows"))
    sharding = sections.get("sharding")
    if sharding is not None:
        try:
            plan = sharding.get("plan")
            header["sharding"] = {
                "n_shards": len(plan["shards"]) if plan else 0,
                "routed_names": len(sharding["index"]["name_to_shard"]),
                "n_bridges": int(sharding["index"]["n_bridges"]),
                "n_cannot_links": len(sharding["cannot_links"]),
            }
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"{path}: malformed sharding section ({exc!r})"
            ) from None
    else:
        header["sharding"] = None
    stream = sections.get("stream")
    if stream is not None:
        try:
            header["stream"] = {
                key: int(stream[key])
                for key in ("n_papers", "n_mentions", "n_attached",
                            "n_created", "n_duplicates")
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: malformed stream section ({exc!r})"
            ) from None
    else:
        header["stream"] = None
    from . import delta as delta_chain

    try:
        delta_seq = int(meta.get("delta_seq", 0))
    except (TypeError, ValueError):
        raise ValueError(
            f"{path}: non-integer delta_seq {meta.get('delta_seq')!r}"
        ) from None
    header["delta_seq"] = delta_seq
    log_path = delta_chain.delta_log_path(path)
    if log_path.exists():
        # Raises on a damaged log: inspection must surface a torn tail,
        # not hide it.
        fingerprint = delta_chain.document_fingerprint(document)
        records = delta_chain.read_chain(log_path, delta_seq, fingerprint)
        header["delta"] = delta_chain.chain_info(
            log_path, delta_seq, fingerprint, records
        )
    else:
        header["delta"] = None
    return header


# --------------------------------------------------------------------- #
# verification (library core of ``tools/snapshot.py verify``)
# --------------------------------------------------------------------- #
def verify_snapshot(snapshot: Snapshot) -> list[str]:
    """Structural invariant sweep; returns one message per violation.

    Checks the contracts every consumer of a restored snapshot leans on:
    unique per-occurrence mention ownership, mention/paper consistency
    against the corpus, a ``next_vid`` watermark strictly above every
    live id, a complete and name-consistent name index (already enforced
    during decode — re-checked here for snapshots built in memory), edge
    sanity, model arity, and shard-index coverage of the network names.
    """
    errors: list[str] = []
    for label, net in (("gcn", snapshot.gcn), ("scn", snapshot.scn)):
        if net is None:
            continue
        errors.extend(_verify_network(label, net, snapshot.corpus))
    if len(snapshot.model.families) != 6:
        errors.append(
            f"model: {len(snapshot.model.families)} families (expected 6)"
        )
    if snapshot.sharding is not None:
        index = snapshot.sharding.index
        for name in snapshot.gcn.names:
            if index.shard_of_name(name) is None:
                errors.append(f"sharding: name {name!r} has no owning shard")
        for u, v in snapshot.sharding.cannot_links:
            if u not in snapshot.gcn or v not in snapshot.gcn:
                errors.append(
                    f"sharding: cannot-link ({u}, {v}) references "
                    "unknown vertices"
                )
    if snapshot.stream is not None and snapshot.stream.n_papers < 0:
        errors.append("stream: negative paper counter")
    return errors


def _verify_network(
    label: str, net: CollaborationNetwork, corpus: Corpus
) -> list[str]:
    errors: list[str] = []
    owners: dict[Pair, int] = {}
    max_vid = -1
    for vertex in net:
        max_vid = max(max_vid, vertex.vid)
        for pid, position in vertex.mentions.items():
            if pid not in corpus:
                errors.append(
                    f"{label}: vertex {vertex.vid} mentions unknown "
                    f"paper {pid}"
                )
            else:
                authors = corpus[pid].authors
                if not 0 <= position < len(authors):
                    errors.append(
                        f"{label}: vertex {vertex.vid} mention "
                        f"({pid}, {position}) is out of the co-author list"
                    )
                elif authors[position] != vertex.name:
                    errors.append(
                        f"{label}: vertex {vertex.vid} ({vertex.name!r}) "
                        f"owns mention ({pid}, {position}) of "
                        f"{authors[position]!r}"
                    )
            key = (pid, position)
            if key in owners:
                errors.append(
                    f"{label}: mention {key} owned by vertices "
                    f"{owners[key]} and {vertex.vid}"
                )
            owners[key] = vertex.vid
    if net._next_vid <= max_vid:
        errors.append(
            f"{label}: next_vid {net._next_vid} <= max live id {max_vid}"
        )
    for u, v, papers in net.edges():
        if not papers:
            errors.append(f"{label}: edge ({u}, {v}) carries no papers")
    return errors
