#!/usr/bin/env python3
"""Docs checks: intra-repo markdown links, file/module references + doctests.

Run from anywhere:  python tools/check_docs.py

Three checks, all CI-gating (see the ``docs`` job in
``.github/workflows/ci.yml`` and ``tests/test_docs.py`` which runs the
same code in the tier-1 suite):

1. every relative link target in the repo's markdown files must exist
   (``http(s)://``, ``mailto:`` and pure-anchor links are skipped);
2. every inline-code span that *names a repo file* (``foo/bar.py``,
   ``BENCH_x.json``) must reference a file that actually exists — the
   drift class this catches is docs describing an artifact as tracked
   when nothing produces or commits it (``BENCH_sharding.json`` was
   exactly that before PR 5).  Quick-mode bench records
   (``*.quick.json``) are exempt — they are *documented* as untracked
   local smoke outputs — as are the names in
   :data:`KNOWN_FUTURE_ARTIFACTS`.  Likewise every span that names a
   ``repro`` module or attribute (``repro.graphs.scn.mine_scrs``) must
   resolve: its longest importable module prefix, then ``getattr`` on the
   rest;
3. the doctest examples listed in :data:`DOCTEST_FILES` must pass — most
   importantly the homonym-paper example in ``examples/quickstart.py``.
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Directories never scanned for markdown (VCS, tool caches, and local
#: environments whose vendored READMEs the repo does not own).
SKIP_DIRS = {
    ".git",
    ".claude",
    "__pycache__",
    ".pytest_cache",
    "node_modules",
    ".venv",
    "venv",
    ".tox",
    "build",
    "dist",
}

#: Files whose doctest examples are part of the docs contract.
DOCTEST_FILES = (
    "examples/quickstart.py",
    "src/repro/data/records.py",
)

#: ``[text](target)`` — good enough for the plain links these docs use
#: (no support needed for titles or angle-bracket targets).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Schemes (and pseudo-targets) that are not filesystem paths.
_EXTERNAL = re.compile(r"^(https?:|mailto:|#)")

#: Markdown files excluded from the *file-reference* check only: they
#: quote external repositories or driver-owned task text whose code spans
#: are not repo paths.  The link check still scans them.
REFERENCE_SKIP_FILES = {
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
    "ISSUE.md",
    "CHANGES.md",
}

#: Inline-code span (single backticks, one line).
_CODE_SPAN = re.compile(r"`([^`\n]+)`")

#: A span that *looks like* a repo file: path-safe characters ending in a
#: suffix this repo uses for real files.  Module dotted paths
#: (``repro.core.iuad``) don't match; bare filenames do and are resolved
#: by basename against the whole tree (``snapshot.py`` may live anywhere).
_FILE_REF = re.compile(
    r"^[A-Za-z0-9_.][A-Za-z0-9_.\-/]*\.(?:py|md|json|ya?ml|toml|cfg|ini|txt)$"
)

#: A span that names a ``repro`` module or attribute by dotted path.
_MODULE_REF = re.compile(r"^repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+$")

#: Quick-mode bench records are documented as machine-local smoke
#: artifacts; whether a given one is committed is each bench's call, so
#: their references are always legal.
_UNTRACKED_OK = re.compile(r"\.quick\.json$")

#: Artifacts the docs may name although no checkout contains them yet.
#: Every entry needs a justification — the whole point of the reference
#: check is that this list stays short and deliberate.
KNOWN_FUTURE_ARTIFACTS = {
    # Written (and committed) only by full-mode benchmark runs on >=4-core
    # machines; the README documents it as the upgrade path over the
    # committed BENCH_sharding.quick.json record.
    "BENCH_sharding.json",
    # The ROADMAP proposes this module as the one home of the test oracles.
    "repro.testing.oracle",
}


def iter_markdown_files() -> list[Path]:
    out = []
    for path in sorted(REPO_ROOT.rglob("*.md")):
        if not SKIP_DIRS.intersection(p.name for p in path.parents):
            out.append(path)
    return out


def check_markdown_links() -> list[str]:
    """Return one error string per broken intra-repo link."""
    errors: list[str] = []
    for md in iter_markdown_files():
        text = md.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if _EXTERNAL.match(target):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                rel = md.relative_to(REPO_ROOT)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def iter_repo_files() -> list[Path]:
    out = []
    for path in REPO_ROOT.rglob("*"):
        if path.is_file() and not SKIP_DIRS.intersection(
            p.name for p in path.parents
        ):
            out.append(path)
    return out


def _module_ref_resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then ``getattr``
    the remaining names."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def check_file_references() -> list[str]:
    """Return one error per inline-code reference to a nonexistent file
    or ``repro`` module attribute.

    Spans containing a ``/`` resolve against the repo root and the
    markdown file's own directory; bare filenames resolve by basename
    anywhere in the tree; dotted ``repro.…`` spans resolve by import.
    See :data:`KNOWN_FUTURE_ARTIFACTS` and ``*.quick.json`` for the two
    deliberate exemptions.
    """
    basenames = {p.name for p in iter_repo_files()}
    errors: list[str] = []
    for md in iter_markdown_files():
        if md.name in REFERENCE_SKIP_FILES:
            continue
        text = md.read_text(encoding="utf-8")
        for match in _CODE_SPAN.finditer(text):
            target = match.group(1)
            if target in KNOWN_FUTURE_ARTIFACTS:
                continue
            if _MODULE_REF.match(target):
                if not _module_ref_resolves(target):
                    rel = md.relative_to(REPO_ROOT)
                    errors.append(
                        f"{rel}: reference to nonexistent module attribute "
                        f"-> {target}"
                    )
                continue
            if not _FILE_REF.match(target) or _UNTRACKED_OK.search(target):
                continue
            if "/" in target:
                exists = (REPO_ROOT / target).exists() or (
                    md.parent / target
                ).exists()
            else:
                exists = target in basenames
            if not exists:
                rel = md.relative_to(REPO_ROOT)
                errors.append(
                    f"{rel}: reference to nonexistent repo file -> {target}"
                )
    return errors


def run_doctests() -> list[str]:
    """Return one error string per failing doctest file."""
    errors: list[str] = []
    for rel in DOCTEST_FILES:
        path = REPO_ROOT / rel
        if not path.exists():
            errors.append(f"{rel}: doctest target missing")
            continue
        # testfile in raw-text mode finds every >>> example in the file
        # (module docstrings included) without importing it as __main__.
        results = doctest.testfile(
            str(path), module_relative=False, verbose=False
        )
        if results.failed:
            errors.append(
                f"{rel}: {results.failed} of {results.attempted} "
                "doctest examples failed"
            )
    return errors


def main() -> int:
    errors = check_markdown_links() + check_file_references() + run_doctests()
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if not errors:
        md_count = len(iter_markdown_files())
        print(
            f"check_docs: OK ({md_count} markdown files, "
            f"{len(DOCTEST_FILES)} doctest files)"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
