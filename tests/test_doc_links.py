"""Every relative link in the project's documents resolves: the target
file exists and, where the link names an ``#anchor`` in a Markdown file,
that file has a heading whose GitHub slug is the anchor."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

FENCE = re.compile(r"^(```|~~~).*?^\1", re.M | re.S)
CODE_SPAN = re.compile(r"`[^`\n]*`")
LINK = re.compile(r"\]\(([^()\s]+)\)")
HEADING = re.compile(r"^#{1,6}[ \t]+(.+?)[ \t]*#*[ \t]*$", re.M)
SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*:")


def slug(heading: str) -> str:
    """GitHub's anchor for a heading: link text kept, lowercased, every
    character but letters, digits, ``_``, ``-`` and spaces dropped,
    spaces made hyphens."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def anchors(path: Path) -> set:
    """Anchors of every heading outside code fences; a repeated slug
    takes ``-1``, ``-2``, ... as on GitHub."""
    seen: dict = {}
    out = set()
    for heading in HEADING.findall(FENCE.sub("", path.read_text())):
        base = slug(heading)
        count = seen.get(base, 0)
        out.add(f"{base}-{count}" if count else base)
        seen[base] = count + 1
    return out


def links(path: Path) -> list:
    """Link targets outside code fences and code spans."""
    text = CODE_SPAN.sub("", FENCE.sub("", path.read_text()))
    return LINK.findall(text)


def test_slug_follows_github_rules():
    assert slug("Historical snapshots (PR 2–4)") == \
        "historical-snapshots-pr-24"
    assert slug("Netted, window-grouped batch updates") == \
        "netted-window-grouped-batch-updates"
    assert slug("Workloads and benchmarks — `repro.workload`") == \
        "workloads-and-benchmarks--reproworkload"


def test_every_document_is_checked():
    assert all(doc.exists() for doc in DOCS)
    assert links(ROOT / "README.md")


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_relative_links_resolve(doc):
    broken = []
    for target in links(doc):
        if SCHEME.match(target):
            continue
        path, _, anchor = target.partition("#")
        dest = (doc.parent / path).resolve() if path else doc
        if not dest.exists():
            broken.append(target)
        elif anchor and dest.suffix == ".md" and anchor not in anchors(dest):
            broken.append(target)
    assert not broken, f"{doc.name}: unresolved links {broken}"
