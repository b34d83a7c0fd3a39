#!/usr/bin/env python
"""Docs health check: doctest every code block, resolve every link and
every ``Class.member`` name.

Three gates over the ``docs/`` tree (plus README.md for links and names):

1. ``python -m doctest`` semantics over each page — every ``>>>``
   example inside the markdown executes and its output must match, so
   the docs can never drift from the API they describe.
2. Intra-repo links resolve: every relative ``[text](target)`` must
   point at a file that exists (anchors are stripped; external
   ``http(s)://`` links are skipped).
3. Named members exist: a backticked span that starts ``Class.member``,
   where ``Class`` is a class defined under ``src/repro``, must name a
   method, property, class attribute or ``self.`` attribute that the
   class (or one of its bases under ``src/repro``) defines. The classes
   are read with an AST scan, so nothing is imported.

Run directly or via ``tools/run_checks.sh --docs`` (also part of the
default check set).
"""

from __future__ import annotations

import ast
import doctest
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: Markdown link: [text](target) — excluding images handled identically.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: An inline code span, and the ``Class.member`` it may start with.
_CODE = re.compile(r"`([^`\n]+)`")
_MEMBER = re.compile(r"([A-Z]\w*)\.([A-Za-z_]\w*)")


def doctest_file(path: Path) -> tuple[int, int]:
    """Run the file's doctests; returns (failures, attempts)."""
    result = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    return result.failed, result.attempted


def check_links(path: Path) -> tuple[int, list[str]]:
    """Check one markdown file's links; returns (checked, broken)."""
    targets = _LINK.findall(path.read_text(encoding="utf-8"))
    broken = []
    for target in targets:
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:  # pure in-page anchor
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            broken.append(f"{path.relative_to(REPO)}: broken link -> {target}")
    return len(targets), broken


def _names(node: ast.AST) -> set[str]:
    """Names bound by an assignment target (tuples unpacked)."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def class_members(root: Path) -> dict[str, tuple[set[str], set[str]]]:
    """Class name -> (members, base names) for every class under ``root``.

    Members are what the class body defines (functions, nested classes,
    class attributes) plus every ``self.<name>`` its methods assign.
    Classes sharing a name pool their members.
    """
    classes: dict[str, tuple[set[str], set[str]]] = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            members, bases = classes.setdefault(node.name, (set(), set()))
            bases.update(b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute)))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    members.add(item.name)
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        members |= _names(target)
                elif isinstance(item, ast.AnnAssign):
                    members |= _names(item.target)
            for sub in ast.walk(node):
                targets = (sub.targets if isinstance(sub, ast.Assign) else
                           [sub.target] if isinstance(
                               sub, (ast.AugAssign, ast.AnnAssign)) else [])
                members.update(
                    t.attr for target in targets for t in ast.walk(target)
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"
                )
    return classes


def _defines(classes, name: str, member: str, seen: frozenset = frozenset()):
    if name not in classes or name in seen:
        return False
    members, bases = classes[name]
    return member in members or any(
        _defines(classes, base, member, seen | {name}) for base in bases
    )


def check_members(path: Path, classes) -> tuple[int, list[str]]:
    """Check one markdown file's ``Class.member`` spans; returns
    (checked, unknown)."""
    checked, unknown = 0, []
    for span in _CODE.findall(path.read_text(encoding="utf-8")):
        match = _MEMBER.match(span)
        if match is None or match[1] not in classes:
            continue
        checked += 1
        if not _defines(classes, match[1], match[2]):
            unknown.append(f"{path.relative_to(REPO)}: `{match[0]}` names "
                           f"no member of class {match[1]}")
    return checked, unknown


def main() -> int:
    docs = sorted((REPO / "docs").glob("*.md"))
    if not docs:
        print("check_docs: no docs/*.md found", file=sys.stderr)
        return 1
    failures = 0
    attempts = 0
    for page in docs:
        failed, attempted = doctest_file(page)
        status = "ok" if failed == 0 else f"{failed} FAILED"
        print(f"  doctest {page.relative_to(REPO)}: "
              f"{attempted} example(s), {status}")
        failures += failed
        attempts += attempted
    link_count = 0
    broken: list[str] = []
    for page in docs + [REPO / "README.md"]:
        checked, bad = check_links(page)
        link_count += checked
        broken.extend(bad)
    classes = class_members(REPO / "src" / "repro")
    member_count = 0
    unknown: list[str] = []
    for page in docs + [REPO / "README.md"]:
        checked, bad = check_members(page, classes)
        member_count += checked
        unknown.extend(bad)
    for line in broken + unknown:
        print(f"  {line}", file=sys.stderr)
    print(f"  links: {link_count} checked, {len(broken)} broken")
    print(f"  members: {member_count} checked, {len(unknown)} unknown")
    if failures or broken or unknown:
        return 1
    if attempts == 0:
        print("check_docs: docs contain no runnable examples", file=sys.stderr)
        return 1
    print("docs check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
