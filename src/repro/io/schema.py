"""Versioned snapshot schema: fitted state ⇄ plain-JSON documents.

The persistence layer is split in three:

* this module — *what* is stored: encoders/decoders between the live
  fitted objects (:class:`~repro.graphs.collab.CollaborationNetwork`,
  :class:`~repro.model.mixture.MatchMixture`, …) and a **document** of
  plain JSON-ready containers;
* :mod:`.adapters` — *how* bytes hit disk (JSONL, SQLite or a registered
  driver), behind one document shape shared by all;
* :mod:`.snapshot` — the user-facing :class:`~repro.io.snapshot.Snapshot`
  tying the two together.

Document shape (``SCHEMA_VERSION`` 1)::

    {
      "meta":     {"format": "repro-snapshot", "version": 1,
                   "kind": "iuad" | "sharded", ...counts},
      "tables":   {name: [record, ...]},   # bulk rows, streamed by JSONL,
                                           # real tables in SQLite
      "sections": {name: payload},         # small one-object sections
    }

Bulk tables: ``papers``, ``gcn_vertices``/``gcn_edges``,
``scn_vertices``/``scn_edges`` (optional) and ``embedding_rows``
(optional).  Sections: ``config``, ``model``, ``computer`` (the frequency
tables the similarity computer was *fitted* with — deriving them from the
reloaded corpus would silently shift γ4/γ6 once streamed papers have
grown the corpus past the fit-time tables), ``gcn_meta``/``scn_meta``
(name-index order + ``next_vid``), ``sharding`` and ``stream``.

Exactness: every float travels through JSON text, which Python round-trips
bit-exactly (shortest-repr), and every order that influences later
decisions — the network name index, the corpus insertion order, the
union-find parent maps — is stored explicitly rather than re-derived.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Mapping

import numpy as np

from ..core.config import IUADConfig
from ..data.records import Corpus, Paper
from ..graphs.collab import CollaborationNetwork
from ..graphs.unionfind import UnionFind
from ..model.mixture import MatchMixture
from ..text.embeddings import WordEmbeddings

#: Version of the document layout.  Bump on incompatible changes and keep
#: a decoder for every version with a committed fixture
#: (``tests/fixtures/``) proving old snapshots still load.
SCHEMA_VERSION = 1

#: ``meta.format`` marker — lets ``inspect`` reject arbitrary JSONL/SQLite
#: files early with a clear error.
FORMAT_NAME = "repro-snapshot"


# --------------------------------------------------------------------- #
# papers / corpus
# --------------------------------------------------------------------- #
def encode_paper(paper: Paper) -> dict[str, Any]:
    out: dict[str, Any] = {
        "pid": paper.pid,
        "authors": list(paper.authors),
        "title": paper.title,
        "venue": paper.venue,
        "year": paper.year,
    }
    if paper.author_ids is not None:
        out["author_ids"] = list(paper.author_ids)
    return out


def decode_paper(record: Mapping[str, Any]) -> Paper:
    ids = record.get("author_ids")
    return Paper(
        pid=int(record["pid"]),
        authors=tuple(record["authors"]),
        title=str(record["title"]),
        venue=str(record["venue"]),
        year=int(record["year"]),
        author_ids=tuple(ids) if ids is not None else None,
    )


def encode_corpus(corpus: Corpus) -> list[dict[str, Any]]:
    """Papers in corpus iteration order (= insertion order, which the
    per-name pid indexes replay on load)."""
    return [encode_paper(p) for p in corpus]


def decode_corpus(records: list[Mapping[str, Any]]) -> Corpus:
    return Corpus(decode_paper(r) for r in records)


# --------------------------------------------------------------------- #
# collaboration networks
# --------------------------------------------------------------------- #
def encode_network(
    net: CollaborationNetwork,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]], dict[str, Any]]:
    """``(vertex rows, edge rows, meta section)`` for one network."""
    vertices, edges, name_index, next_vid = net.export_parts()
    vertex_rows = [
        {"vid": vid, "name": name, "papers": papers, "mentions": mentions}
        for vid, name, papers, mentions in vertices
    ]
    edge_rows = [{"u": u, "v": v, "papers": papers} for u, v, papers in edges]
    meta = {
        "next_vid": next_vid,
        "name_index": [[name, vids] for name, vids in name_index],
    }
    return vertex_rows, edge_rows, meta


def decode_network(
    vertex_rows: list[Mapping[str, Any]],
    edge_rows: list[Mapping[str, Any]],
    meta: Mapping[str, Any],
) -> CollaborationNetwork:
    return CollaborationNetwork.from_parts(
        vertices=[
            (
                int(r["vid"]),
                r["name"],
                [int(p) for p in r["papers"]],
                [(int(pid), int(pos)) for pid, pos in r["mentions"]],
            )
            for r in vertex_rows
        ],
        edges=[
            (int(r["u"]), int(r["v"]), [int(p) for p in r["papers"]])
            for r in edge_rows
        ],
        name_index=[
            (name, [int(v) for v in vids]) for name, vids in meta["name_index"]
        ],
        next_vid=int(meta["next_vid"]),
    )


# --------------------------------------------------------------------- #
# config
# --------------------------------------------------------------------- #
def encode_config(config: IUADConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def decode_config(payload: Mapping[str, Any]) -> IUADConfig:
    """Build a config, tolerating schema drift in both directions.

    Keys a newer snapshot carries that this build does not know are
    ignored; knobs this build added after the snapshot was written fall
    back to their defaults.  The constructor re-validates everything.
    """
    known = {f.name for f in fields(IUADConfig)}
    kwargs = {k: v for k, v in payload.items() if k in known}
    if "families" in kwargs:
        kwargs["families"] = tuple(kwargs["families"])
    return IUADConfig(**kwargs)


# --------------------------------------------------------------------- #
# model + embeddings
# --------------------------------------------------------------------- #
def encode_model(model: MatchMixture) -> dict[str, Any]:
    return model.state_dict()


def decode_model(payload: Mapping[str, Any]) -> MatchMixture:
    return MatchMixture.from_state(dict(payload))


def encode_embeddings(
    embeddings: WordEmbeddings | None,
) -> list[list[Any]] | None:
    """``[[word, [floats...]], ...]`` rows, or ``None`` when γ3 runs on
    the keyword-cosine fallback.

    The stored vectors are the *normalized* matrix the live object holds;
    :func:`decode_embeddings` restores them verbatim instead of passing
    them back through ``WordEmbeddings.__init__`` (whose re-normalization
    of an already-normalized matrix would perturb the low bits and break
    bit-exact resume parity).
    """
    if embeddings is None:
        return None
    matrix = embeddings._matrix
    return [
        [word, [float(x) for x in matrix[i]]]
        for word, i in embeddings._index.items()
    ]


def decode_embeddings(rows: list[list[Any]] | None) -> WordEmbeddings | None:
    if rows is None:
        return None
    vocabulary = [word for word, _vector in rows]
    matrix = np.asarray([vector for _word, vector in rows], dtype=np.float64)
    embeddings = WordEmbeddings.__new__(WordEmbeddings)
    embeddings._index = {w: i for i, w in enumerate(vocabulary)}
    embeddings._matrix = matrix
    return embeddings


# --------------------------------------------------------------------- #
# union-find (shard index routing state)
# --------------------------------------------------------------------- #
def encode_unionfind(uf: UnionFind) -> dict[str, Any]:
    """Exact structural state, int keys only (the shard-id universe).

    Parent pointers are stored verbatim — *not* canonicalised — so a
    reloaded index resolves every future ``find``/``union`` exactly as
    the live one would (union-by-size outcomes depend on the accumulated
    size table, which rides along).
    """
    return {
        "parent": [[k, v] for k, v in uf._parent.items()],
        "size": [[k, s] for k, s in uf._size.items()],
        "forbidden": [
            [k, sorted(others)] for k, others in uf._forbidden.items() if others
        ],
    }


def decode_unionfind(payload: Mapping[str, Any]) -> UnionFind:
    uf = UnionFind()
    for k, v in payload["parent"]:
        uf._parent[int(k)] = int(v)
    for k, s in payload["size"]:
        uf._size[int(k)] = int(s)
    for k, others in payload.get("forbidden", []):
        uf._forbidden[int(k)] = {int(o) for o in others}
    unknown = set(uf._parent.values()) - set(uf._parent)
    if unknown:
        raise ValueError(f"union-find parents reference unknown keys: {unknown}")
    return uf
