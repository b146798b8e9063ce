"""Tier-1 docs gate: links resolve, names exist, runnable fences execute.

Imports the checker from ``tools/check_docs.py`` (the same code behind
``make docs-check``) so documentation drift fails the test suite at the
offending file.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402


def test_markdown_corpus_is_nonempty():
    files = check_docs.collect_markdown(ROOT)
    names = {path.name for path in files}
    assert "README.md" in names
    assert "observability.md" in names and "architecture.md" in names


@pytest.mark.parametrize(
    "path",
    check_docs.collect_markdown(ROOT),
    ids=lambda path: path.name,
)
def test_intra_repo_links_resolve(path):
    assert check_docs.check_links(path, ROOT) == []


@pytest.mark.parametrize(
    "path",
    check_docs.collect_markdown(ROOT),
    ids=lambda path: path.name,
)
def test_referenced_modules_and_make_targets_exist(path):
    problems = check_docs.check_module_references(path, ROOT)
    problems += check_docs.check_make_targets(path, ROOT)
    assert problems == []


@pytest.mark.parametrize(
    "path",
    check_docs.collect_markdown(ROOT),
    ids=lambda path: path.name,
)
def test_mentioned_files_exist(path):
    assert check_docs.check_file_mentions(path, ROOT) == []


def test_stale_file_mention_fails(tmp_path):
    (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "core" / "model.py").write_text("")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("")
    (tmp_path / "BENCH_SERVE.json").write_text("{}")
    page = tmp_path / "docs" / "page.md"
    page.write_text(
        "Live: `core/model.py`, `docs/guide.md`, `guide.md`, `BENCH_SERVE.json`,\n"
        "`model.py` (no slash, not checked).\n"
        "Stale: `tools/gone.py` and `BENCH_OLD.json`.\n"
        "```\n`tools/in_a_fence.py`\n```\n"
    )
    assert check_docs.check_file_mentions(page, tmp_path) == [
        "docs/page.md: `BENCH_OLD.json` names no file",
        "docs/page.md: `tools/gone.py` names no file",
    ]


@pytest.mark.parametrize(
    "path",
    check_docs.collect_markdown(ROOT),
    ids=lambda path: path.name,
)
def test_runnable_fences_execute(path):
    assert check_docs.check_runnable_fences(path, ROOT) == []
