"""The one inventory the caller and reader scans share.

``test_option_callers.py``, ``test_name_callers.py`` and
``test_number_readers.py`` each pair a collector with a table of rows
``(kind, path, needle)``.  What they share is here: :func:`programs`,
every program that is not a test (each ``*.py`` under ``src/``,
``examples/`` and ``benchmarks/``, and each ````` ```python ````` block
of README.md and ``docs/*.md``, which ``test_docs.py`` executes), read
and parsed once per pytest run; and the checks.  An item without a row, a
row without an item, and a row whose kind the table does not define,
whose path lies outside the kind's prefixes or whose needle is not in
its file all fail: a new option, name or number comes with its caller
or reader, or it is not added.
"""

import ast
import functools
import pathlib
import re
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[2]


class Program(NamedTuple):
    #: repo-relative path, or ``"README.md block 3"`` for a docs block
    name: str
    tree: ast.Module


def rel(path: pathlib.Path) -> str:
    return path.relative_to(ROOT).as_posix()


@functools.cache
def programs() -> tuple[Program, ...]:
    found = []
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            found.append(Program(rel(path), ast.parse(path.read_text())))
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        blocks = re.findall(r"```python\n(.*?)```", doc.read_text(), re.S)
        found.extend(
            Program(f"{rel(doc)} block {i}", ast.parse(block))
            for i, block in enumerate(blocks)
        )
    return tuple(found)


def library() -> list[Program]:
    """The modules of ``src/repro``."""
    return [p for p in programs() if p.name.startswith("src/repro/")]


def tree(path: str) -> ast.Module:
    """The parsed program at a repo-relative path."""
    return next(p.tree for p in programs() if p.name == path)


@functools.cache
def text(path: str) -> str:
    return (ROOT / path).read_text()


def check_row(kinds: dict[str, tuple[str, ...]], label: str, row) -> None:
    kind, path, needle = row
    assert kind in kinds, f"unknown kind {kind!r}"
    assert path.startswith(kinds[kind]), f"a {kind} row cannot point at {path}"
    assert needle in text(path), f"{label}: {needle!r} is not in {path}"


def check_subset(part, whole, fix: str) -> None:
    """Every item of ``part`` is in ``whole``: every item has a row, or
    every row names an item."""
    extra = set(part) - set(whole)
    assert not extra, f"{sorted(extra)} {fix}"
