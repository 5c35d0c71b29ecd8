#!/usr/bin/env python3
"""Snapshot toolbox: inspect, convert, verify, compact and query snapshots.

Run from the repo root (or anywhere with ``repro`` importable)::

    python tools/snapshot.py --list-backends
    python tools/snapshot.py inspect  fitted.jsonl
    python tools/snapshot.py inspect  fitted.jsonl --json
    python tools/snapshot.py convert  fitted.jsonl fitted.sqlite
    python tools/snapshot.py verify   fitted.sqlite
    python tools/snapshot.py compact  ckpt.jsonl
    python tools/snapshot.py who-is   fitted.sqlite "x y" --pid 3

* ``--list-backends`` — every registered persistence adapter
  (:mod:`repro.io.adapters`), with suffixes and capabilities;
* ``inspect`` — header, counts, stream counters and the delta chain
  (length, base fingerprint, seq range) without fully materialising the
  fitted objects.  ``--json`` emits the validated machine-readable
  header (:func:`repro.io.snapshot_header`) for scripting.  Corrupt or
  non-snapshot files — including a torn delta-chain tail — exit 1 with
  a one-line error, never a traceback;
* ``convert`` — re-write a snapshot through any registered adapter pair
  (the payload is backend-neutral, so conversion is lossless in every
  direction).  A delta-chain log riding next to the source is copied
  alongside: the chain's base fingerprint is computed over the
  *canonical document*, so it survives the adapter change;
* ``verify`` — fully decode base + delta chain and run the structural
  invariant sweep (:func:`repro.io.verify_snapshot`).  A damaged chain
  (truncated tail, checksum failure, seq gap) or any violation exits 1;
* ``compact`` — fold the delta chain into the base and truncate the
  log (:func:`repro.io.compact_chain`).  Crash-safe: the new base lands
  atomically before the log is touched;
* ``who-is`` — query one name's clusters (or one mention's owner with
  ``--pid``) straight from the snapshot file.  ``--no-full-load``
  answers from the stored rows / indexed SQL tables plus the chain
  overlay (:mod:`repro.io.query`) without materialising any fitted
  state — same answers, O(1)-ish on an indexed SQLite snapshot, but the
  chain's base fingerprint is not checked.  Without the flag the base
  and chain are decoded in full (:meth:`repro.io.Snapshot.load_chain`)
  and the answer comes from a :class:`repro.service.FittedView`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.io import (  # noqa: E402 (path setup above)
    Snapshot,
    SnapshotQuery,
    compact_chain,
    delta_log_path,
    list_adapters,
    read_document,
    resolve_adapter,
    snapshot_header,
    verify_snapshot,
    write_document,
)


def list_backends() -> int:
    for name, adapter in list_adapters().items():
        suffixes = ", ".join(adapter.suffixes) or "-"
        capabilities = []
        if type(adapter).open_query is not type(adapter).__mro__[1].open_query:
            capabilities.append("indexed-query")
        if type(adapter).read_meta is not type(adapter).__mro__[1].read_meta:
            capabilities.append("cheap-meta")
        print(
            f"{name:<10} suffixes: {suffixes:<28} "
            f"{' '.join(capabilities) if capabilities else ''}".rstrip()
        )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    # Header validation first: every corruption mode (missing file, bad
    # magic, truncated tables, version drift, torn delta tail) becomes a
    # one-line error and exit code 1 — machine consumers never have to
    # parse tracebacks.
    try:
        header = snapshot_header(path)
    except ValueError as exc:
        print(f"inspect: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(header, indent=2, sort_keys=True))
        return 0
    document = read_document(path)
    sections = document["sections"]
    tables = document["tables"]
    print(
        f"snapshot   {path} ({header['adapter']}, {header['bytes']} bytes)"
    )
    print(f"format     {header['format']} v{header['version']}")
    print(f"kind       {header['kind']}")
    print(f"papers     {len(tables.get('papers', []))}")
    print(
        f"gcn        {len(tables.get('gcn_vertices', []))} vertices / "
        f"{len(tables.get('gcn_edges', []))} edges "
        f"(next_vid {sections['gcn_meta']['next_vid']})"
    )
    if "scn_meta" in sections:
        print(
            f"scn        {len(tables.get('scn_vertices', []))} vertices / "
            f"{len(tables.get('scn_edges', []))} edges"
        )
    model = sections.get("model", {})
    print(
        f"model      prior_match={model.get('prior_match'):.6f} "
        f"families={','.join(model.get('families', []))}"
    )
    rows = tables.get("embedding_rows")
    print(
        "embeddings "
        + (f"{len(rows)} words" if rows else "none (keyword-cosine fallback)")
    )
    if "sharding" in sections:
        sharding = sections["sharding"]
        plan = sharding.get("plan")
        print(
            "sharding   "
            + (f"{len(plan['shards'])} shards, " if plan else "")
            + f"{len(sharding['index']['name_to_shard'])} routed names, "
            f"{sharding['index']['n_bridges']} bridges, "
            f"{len(sharding['cannot_links'])} cannot-links"
        )
    if "stream" in sections:
        stream = sections["stream"]
        print(
            f"stream     {stream['n_papers']} papers / "
            f"{stream['n_mentions']} mentions ingested "
            f"({stream['n_attached']} attached, {stream['n_created']} "
            f"created, {stream['n_duplicates']} duplicates)"
        )
    delta = header.get("delta")
    if delta is not None:
        print(
            f"delta      {delta['chain_length']} records "
            f"({delta['n_papers']} papers, {delta['log_bytes']} bytes, "
            f"seq {delta['base_seq']}..{delta['last_seq']}, "
            f"base {delta['base_fingerprint']})"
        )
    elif header.get("delta_seq"):
        print(f"delta      compacted (seq watermark {header['delta_seq']})")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    src, dst = Path(args.src), Path(args.dst)
    if src.resolve() == dst.resolve():
        print("convert: source and destination are the same file",
              file=sys.stderr)
        return 1
    document = read_document(src)
    write_document(document, dst, args.backend)
    note = ""
    src_log = delta_log_path(src)
    if src_log.exists():
        # The chain stays valid across the conversion: record checksums
        # cover only the record, and the base fingerprint is canonical
        # (adapter-independent).  Copy the log verbatim.
        delta_log_path(dst).write_bytes(src_log.read_bytes())
        note = " (+ delta chain log)"
    print(
        f"convert: {src} ({resolve_adapter(src).name}) -> "
        f"{dst} ({resolve_adapter(dst).name}){note}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        snapshot, info = Snapshot.load_chain(args.path)
    except (ValueError, FileNotFoundError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 1
    errors = verify_snapshot(snapshot)
    for error in errors:
        print(f"verify: {error}", file=sys.stderr)
    if errors:
        print(f"verify: FAILED ({len(errors)} violations)", file=sys.stderr)
        return 1
    chain = (
        f", +{info['chain_length']} delta records" if info is not None else ""
    )
    print(
        f"verify: OK — {len(snapshot.corpus)} papers, "
        f"{len(snapshot.gcn)} GCN vertices, "
        f"{snapshot.gcn.n_mentions} mentions, schema v{snapshot.version}"
        f"{chain}"
    )
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not delta_log_path(path).exists():
        print(f"compact: {path} has no delta chain log", file=sys.stderr)
        return 1
    try:
        _, folded = compact_chain(path)
    except (ValueError, FileNotFoundError) as exc:
        print(f"compact: {exc}", file=sys.stderr)
        return 1
    print(f"compact: folded {folded} delta records into {path}")
    return 0


def cmd_who_is(args: argparse.Namespace) -> int:
    path = Path(args.path)
    try:
        if args.in_place:
            with SnapshotQuery(path) as query:
                if args.pid is not None:
                    owner = query.owner_of(args.pid, args.position)
                    hit = (
                        None
                        if owner is None or owner[1] != args.name
                        else {"vid": owner[0], "name": owner[1]}
                    )
                    out = {"owner": hit}
                else:
                    out = {
                        "clusters": {
                            str(vid): [list(m) for m in mentions]
                            for vid, mentions in sorted(
                                query.who_is(args.name).items()
                            )
                        }
                    }
        else:
            from repro.service.view import FittedView

            view = FittedView.from_snapshot(path)
            if args.pid is not None:
                hit = view.who_is(args.name, args.pid, args.position)
                out = {
                    "owner": None
                    if hit is None
                    else {"vid": hit["vid"], "name": hit["name"]}
                }
            else:
                out = {
                    "clusters": {
                        str(vid): [list(m) for m in mentions]
                        for vid, mentions in sorted(
                            view.cluster_of(args.name).items()
                        )
                    }
                }
    except (ValueError, FileNotFoundError) as exc:
        print(f"who-is: {exc}", file=sys.stderr)
        return 1
    out["name"] = args.name
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="snapshot.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--list-backends", action="store_true",
        help="list every registered persistence adapter and exit",
    )
    sub = parser.add_subparsers(dest="command")
    adapter_names = tuple(list_adapters())

    p_inspect = sub.add_parser("inspect", help="print header and counts")
    p_inspect.add_argument("path")
    p_inspect.add_argument(
        "--json", action="store_true",
        help="emit the validated machine-readable header as JSON",
    )
    p_inspect.set_defaults(func=cmd_inspect)

    p_convert = sub.add_parser("convert", help="re-write via another adapter")
    p_convert.add_argument("src")
    p_convert.add_argument("dst")
    p_convert.add_argument(
        "--backend", choices=adapter_names, default=None,
        help="force the destination adapter (default: by suffix)",
    )
    p_convert.set_defaults(func=cmd_convert)

    p_verify = sub.add_parser(
        "verify", help="decode base + chain fully, run the invariant sweep"
    )
    p_verify.add_argument("path")
    p_verify.set_defaults(func=cmd_verify)

    p_compact = sub.add_parser(
        "compact", help="fold the delta chain into the base snapshot"
    )
    p_compact.add_argument("path")
    p_compact.set_defaults(func=cmd_compact)

    p_who = sub.add_parser(
        "who-is", help="query a name's clusters straight from the file"
    )
    p_who.add_argument("path")
    p_who.add_argument("name")
    p_who.add_argument(
        "--pid", type=int, default=None,
        help="resolve one mention's owner instead of the whole clustering",
    )
    p_who.add_argument("--position", type=int, default=0)
    p_who.add_argument(
        "--no-full-load", action="store_true", dest="in_place",
        help="answer from stored rows / indexed SQL + chain overlay "
        "without materialising fitted state",
    )
    p_who.set_defaults(func=cmd_who_is)

    args = parser.parse_args(argv)
    if args.list_backends:
        return list_backends()
    if args.command is None:
        parser.print_usage(sys.stderr)
        print(
            "snapshot.py: a subcommand (or --list-backends) is required",
            file=sys.stderr,
        )
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
