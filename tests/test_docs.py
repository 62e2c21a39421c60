"""Documentation health: links resolve and CLI help stays audited.

Checks that every relative markdown link in README.md and docs/ points
at a file that exists (and, for ``#anchors``, a heading that exists),
that every ``python -m repro`` option carries help text, so ``--help``
output never regresses to bare flags, and that docs/CLI.md covers every
subcommand.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import _build_parser

REPO_ROOT = Path(__file__).parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _anchor_of(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_:,()/.?!'\"]", "", slug)
    return re.sub(r"\s+", "-", slug).strip("-")


def _anchors(path: Path) -> set[str]:
    return {_anchor_of(h) for h in _HEADING.findall(path.read_text())}


def _links(path: Path) -> list[str]:
    text = path.read_text()
    # drop fenced code blocks: example URLs there are not real links
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return _LINK.findall(text)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    problems = []
    for link in _links(doc):
        if link.startswith(("http://", "https://", "mailto:")):
            continue
        target, _, anchor = link.partition("#")
        target_path = (doc.parent / target).resolve() if target else doc
        if target and not target_path.exists():
            problems.append(f"{doc.name}: broken link {link!r}")
            continue
        if anchor and target_path.suffix == ".md":
            if _anchor_of(anchor) not in _anchors(target_path):
                problems.append(
                    f"{doc.name}: missing anchor {link!r} in {target_path.name}"
                )
    assert problems == []


def test_docs_exist():
    names = {path.name for path in DOC_FILES}
    assert {"README.md", "ARCHITECTURE.md", "PERFORMANCE.md", "CLI.md"} <= names


def _iter_parser_actions(parser, seen):
    import argparse

    if id(parser) in seen:
        return
    seen.add(id(parser))
    for action in parser._actions:
        yield parser, action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _iter_parser_actions(sub, seen)


def test_every_cli_option_has_help():
    """Audited --help: no bare options anywhere in the CLI tree."""
    import argparse

    parser = _build_parser()
    missing = []
    for sub, action in _iter_parser_actions(parser, set()):
        if isinstance(action, argparse._SubParsersAction):
            continue  # the group itself; its choices carry the help
        if action.help is None and action.dest != "==SUPPRESS==":
            missing.append(f"{sub.prog}: {action.dest}")
    assert missing == []


def test_cli_docs_cover_every_subcommand():
    """docs/CLI.md's usage block lists every subcommand, in parser order,
    and every subcommand that is not a figure has its own section."""
    from repro.cli import FIGURES

    parser = _build_parser()
    subparsers = next(
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    )
    text = (REPO_ROOT / "docs" / "CLI.md").read_text()
    usage = re.search(r"```\nusage: python -m repro[^{]*\{([^}]*)\}", text)
    assert usage is not None
    listed = [name.strip() for name in usage.group(1).split(",")]
    assert listed == list(subparsers.choices)
    headings = set(_HEADING.findall(text))
    missing = [
        name
        for name in subparsers.choices
        if name not in FIGURES and f"`{name}`" not in headings
    ]
    assert missing == []
