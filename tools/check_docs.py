#!/usr/bin/env python
"""Executable documentation gate: links resolve, examples run, names exist.

Checks, over ``README.md`` and every ``docs/*.md``:

1. **intra-repo links** — every ``[text](target)`` whose target is not an
   external URL or a pure anchor must resolve to a real file or directory
   (relative to the markdown file; ``#fragment`` suffixes are stripped);
2. **runnable fences** — every ```` ```python ```` fence whose first line
   is ``# doctest: run`` is executed in a subprocess with ``src`` on
   ``PYTHONPATH``; a non-zero exit fails the check (stdout is discarded,
   stderr is reported);
3. **module references** — every ``python -m <module>`` mention must name
   an importable module (guards against renamed entry points);
4. **make targets** — every ``make <target>`` mention must exist in the
   Makefile;
5. **file mentions** — every backticked path ending in ``.py``,
   ``.json``, ``.md`` or ``.toml`` that contains ``/`` or starts with
   ``BENCH_`` must name a file under the repository root, the markdown
   file's directory or ``src/repro`` (package-relative paths).

Run via ``make docs-check`` or ``python tools/check_docs.py``; exit code
0 iff all checks pass.  Part of the tier-1 gate through
``tests/test_docs.py``.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = [
    "collect_markdown",
    "check_links",
    "check_runnable_fences",
    "check_module_references",
    "check_make_targets",
    "check_file_mentions",
    "main",
]

RUN_MARKER = "# doctest: run"
LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")
MODULE_RE = re.compile(r"python(?:3)? -m ([A-Za-z_][A-Za-z0-9_.]*)")
MAKE_RE = re.compile(r"\bmake ([A-Za-z][A-Za-z0-9_-]*)")
FILE_RE = re.compile(r"`([^`\s]+\.(?:py|json|md|toml))`")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")


def collect_markdown(root: Path) -> list[Path]:
    """README plus docs/*.md, in deterministic order."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def _fences(text: str) -> list[tuple[int, str, str]]:
    """``(start_line, language, body)`` for every fenced code block."""
    fences = []
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        match = FENCE_RE.match(lines[index])
        if match:
            language = match.group(1)
            body_start = index + 1
            index += 1
            while index < len(lines) and not lines[index].startswith("```"):
                index += 1
            fences.append(
                (body_start + 1, language, "\n".join(lines[body_start:index]))
            )
        index += 1
    return fences


def _strip_fences(text: str) -> str:
    """Markdown with fenced code bodies blanked (links in code are literal)."""
    out = []
    in_fence = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            out.append("")
        else:
            out.append("" if in_fence else line)
    return "\n".join(out)


def check_links(path: Path, root: Path) -> list[str]:
    """Broken intra-repo link targets in one markdown file."""
    problems = []
    for target in LINK_RE.findall(_strip_fences(path.read_text())):
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(
                f"{path.relative_to(root)}: broken link -> {target}"
            )
    return problems


def check_runnable_fences(path: Path, root: Path) -> list[str]:
    """Execute every python fence marked with ``# doctest: run``."""
    problems = []
    for line, language, body in _fences(path.read_text()):
        if language != "python" or not body.lstrip().startswith(RUN_MARKER):
            continue
        with tempfile.NamedTemporaryFile(
            "w", suffix=".py", delete=False
        ) as script:
            script.write(body)
            script_path = script.name
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        try:
            result = subprocess.run(
                [sys.executable, script_path],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            if result.returncode != 0:
                tail = result.stderr.strip().splitlines()[-3:]
                problems.append(
                    f"{path.relative_to(root)}:{line}: runnable fence failed "
                    f"(exit {result.returncode}): " + " | ".join(tail)
                )
        finally:
            os.unlink(script_path)
    return problems


def check_module_references(path: Path, root: Path) -> list[str]:
    """Every ``python -m X`` mention must be an importable module."""
    import importlib.util

    problems = []
    seen = set()
    for module in MODULE_RE.findall(path.read_text()):
        if module in seen:
            continue
        seen.add(module)
        sys.path.insert(0, str(root / "src"))
        try:
            spec = importlib.util.find_spec(module)
        except (ImportError, ValueError):
            spec = None
        finally:
            sys.path.pop(0)
        if spec is None:
            problems.append(
                f"{path.relative_to(root)}: python -m {module} "
                "names a module that does not exist"
            )
    return problems


def _makefile_targets(root: Path) -> set[str]:
    makefile = root / "Makefile"
    if not makefile.exists():
        return set()
    return {
        match.group(1)
        for match in re.finditer(
            r"^([A-Za-z][A-Za-z0-9_-]*):", makefile.read_text(), re.MULTILINE
        )
    }


def check_make_targets(path: Path, root: Path) -> list[str]:
    """Every ``make X`` mention must exist in the Makefile."""
    targets = _makefile_targets(root)
    problems = []
    for target in set(MAKE_RE.findall(path.read_text())):
        if target not in targets:
            problems.append(
                f"{path.relative_to(root)}: make {target} "
                "is not a Makefile target"
            )
    return problems


def check_file_mentions(path: Path, root: Path) -> list[str]:
    """Every backticked file path must name an existing file."""
    bases = (root, path.parent, root / "src" / "repro")
    problems = []
    for mention in sorted(set(FILE_RE.findall(_strip_fences(path.read_text())))):
        if "/" not in mention and not mention.startswith("BENCH_"):
            continue
        if not any((base / mention).is_file() for base in bases):
            problems.append(
                f"{path.relative_to(root)}: `{mention}` names no file"
            )
    return problems


def run_checks(root: Path, execute: bool = True) -> list[str]:
    """All problems across all markdown files (empty list = clean)."""
    problems: list[str] = []
    for path in collect_markdown(root):
        problems.extend(check_links(path, root))
        problems.extend(check_module_references(path, root))
        problems.extend(check_make_targets(path, root))
        problems.extend(check_file_mentions(path, root))
        if execute:
            problems.extend(check_runnable_fences(path, root))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check docs: links resolve, runnable fences execute, "
        "referenced modules, make targets and files exist."
    )
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: the repo containing this script)",
    )
    parser.add_argument(
        "--no-execute",
        action="store_true",
        help="skip executing runnable fences (links/names only)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    problems = run_checks(root, execute=not args.no_execute)
    for problem in problems:
        print(problem)
    files = len(collect_markdown(root))
    if problems:
        print(f"docs-check: {len(problems)} problem(s) across {files} file(s)")
        return 1
    print(f"docs-check: OK ({files} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
