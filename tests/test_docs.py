"""Docs contract: intra-repo markdown links resolve, doctest examples pass.

The same checks gate CI via the ``docs`` job (``python tools/check_docs.py``);
running them in the tier-1 suite keeps local development honest too.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_no_broken_markdown_links():
    assert check_docs.check_markdown_links() == []


def test_doctest_examples_pass():
    assert check_docs.run_doctests() == []


def test_no_references_to_missing_files():
    """Inline-code spans naming repo files must point at real files (the
    `BENCH_sharding.json` drift class)."""
    assert check_docs.check_file_references() == []


def test_reference_check_catches_missing_files(tmp_path, monkeypatch):
    """The checker itself must flag a reference to a file that is gone —
    otherwise the gate silently stops gating."""
    doc = tmp_path / "drifted.md"
    doc.write_text(
        "See `BENCH_gone.json`, `repro.gone` and [link](nowhere.md).\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "iter_markdown_files", lambda: [doc])
    ref_errors = check_docs.check_file_references()
    assert len(ref_errors) == 2
    assert "BENCH_gone.json" in ref_errors[0] and "repro.gone" in ref_errors[1]
    link_errors = check_docs.check_markdown_links()
    assert len(link_errors) == 1 and "nowhere.md" in link_errors[0]


def test_architecture_doc_exists_and_is_linked():
    """The pipeline architecture doc must exist and be reachable from the
    README (the acceptance criterion of the docs satellite)."""
    assert (REPO_ROOT / "docs" / "architecture.md").exists()
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme
