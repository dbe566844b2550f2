#!/usr/bin/env python
"""Link-and-anchor checker for the repository's markdown documentation.

Walks ``README.md`` and everything under ``docs/``, extracts markdown
links, and verifies that

* relative file targets exist (resolved against the containing file);
* ``#anchor`` fragments match a heading in the target file, using
  GitHub's slug rules (lowercase, punctuation stripped, spaces to
  hyphens, ``-1``/``-2`` suffixes for duplicates);
* bare intra-file fragments (``[...](#section)``) resolve in the file
  that contains them.

External links (``http(s)://``, ``mailto:``) are not fetched — CI must
not flake on someone else's server. It also checks that the kinds table
of ``docs/SERVICE.md`` names exactly the registered problem kinds and
their options. Exit code 0 means everything agrees; 1 lists the
problems.

Run from the repository root with the package importable (CI does)::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — target captured up to the closing paren.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: ATX headings; setext headings do not occur in this repo's docs.
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
#: Fenced code blocks must not contribute headings or links.
_FENCE = re.compile(r"^(```|~~~)")


def doc_files() -> list[Path]:
    """README.md plus every markdown file under docs/."""
    files = [ROOT / "README.md"]
    files += sorted((ROOT / "docs").glob("**/*.md"))
    return [f for f in files if f.is_file()]


def _strip_fences(text: str) -> list[str]:
    """The lines of ``text`` outside fenced code blocks."""
    out, in_fence = [], False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return out


def slugify(heading: str) -> str:
    """GitHub's anchor slug for one heading (before dedup suffixes)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # drop code ticks
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)                  # punctuation out
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    """All heading anchors of a markdown file, duplicate-suffixed."""
    seen: dict[str, int] = {}
    anchors: set[str] = set()
    for line in _strip_fences(path.read_text(encoding="utf-8")):
        match = _HEADING.match(line)
        if not match:
            continue
        slug = slugify(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def check_file(path: Path, anchor_cache: dict[Path, set[str]]) -> list[str]:
    """Broken-link messages for one markdown file."""
    problems = []
    text = "\n".join(_strip_fences(path.read_text(encoding="utf-8")))
    for target in _LINK.findall(text):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):      # http:, mailto:, ...
            continue
        file_part, _, fragment = target.partition("#")
        dest = path if not file_part else (path.parent / file_part).resolve()
        rel = target if not file_part else file_part
        if not dest.exists():
            problems.append(f"{path.relative_to(ROOT)}: missing target {rel}")
            continue
        if fragment:
            if dest.suffix.lower() != ".md":
                continue                                  # no anchors to check
            anchors = anchor_cache.setdefault(dest, anchors_of(dest))
            if fragment.lower() not in anchors:
                problems.append(
                    f"{path.relative_to(ROOT)}: no anchor "
                    f"#{fragment} in {dest.relative_to(ROOT)}")
    return problems


def check_kinds_table() -> list[str]:
    """Mismatches between the SERVICE.md kinds table and the registry."""
    from repro.service.registry import get_problem, problem_kinds

    text = (ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
    documented = {}
    for row in re.findall(r"^\| `([a-z-]+)` +\|[^|]*\|([^|]*)\|", text, re.M):
        documented[row[0]] = tuple(re.findall(r"`(\w+)`", row[1]))
    registered = {k: get_problem(k).options for k in problem_kinds()}
    return [f"docs/SERVICE.md: kinds table says {documented.get(k)} for "
            f"{k!r}, the registry {registered.get(k)}"
            for k in sorted(documented.keys() | registered.keys())
            if documented.get(k) != registered.get(k)]


def main() -> int:
    """Check every doc file; print a report and return the exit code."""
    anchor_cache: dict[Path, set[str]] = {}
    problems: list[str] = check_kinds_table()
    files = doc_files()
    for path in files:
        problems += check_file(path, anchor_cache)
    if problems:
        print(f"{len(problems)} problem(s) across {len(files)} files:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"OK: all internal links resolve across {len(files)} files; "
          f"the kinds table matches the registry")
    return 0


if __name__ == "__main__":
    sys.exit(main())
