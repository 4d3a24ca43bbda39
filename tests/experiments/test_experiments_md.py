"""EXPERIMENTS.md quotes its deterministic tables from the records.

Every Markdown table in the section under a heading below is compared,
header and cells, with the named record tables in order — so a change
to what an experiment prints fails here until the document is updated.
"""

import pathlib

import pytest

DOC = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

#: heading prefix -> (experiment, record tables in document order)
SECTIONS = {
    "## E1 ": ("e1", ["grids"]),
    "## E2 ": ("e2", ["grids"]),
    "## E3 ": ("table1", ["table1"]),
    "## E4 ": ("figure2", ["figure2"]),
    "## E7 ": ("effort", ["metrics"]),
    "### A2 ": ("ablations", ["a2", "a2_substrate"]),
    "### A3 ": ("ablations", ["a3"]),
    "### A4 ": ("ablations", ["a4"]),
}


def tables_under(heading: str) -> list[list[list[str]]]:
    """The tables of the section whose heading starts with ``heading``,
    each as rows of stripped cells, the ``|---|`` rule dropped."""
    lines = DOC.read_text().splitlines()
    (start,) = [i for i, line in enumerate(lines) if line.startswith(heading)]
    depth = len(heading.split()[0])
    tables, current = [], None
    for line in lines[start + 1 :]:
        if line.startswith("#") and len(line.split()[0]) <= depth:
            break
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if current is None:
                current = []
                tables.append(current)
            if set("".join(cells)) != {"-"}:
                current.append(cells)
        else:
            current = None
    return tables


@pytest.mark.parametrize("heading", list(SECTIONS), ids=str.strip)
def test_tables_quote_the_record(record, heading):
    experiment, names = SECTIONS[heading]
    rec = record(experiment)
    expected = [
        [rec.tables[name].headers] + rec.tables[name].cells() for name in names
    ]
    assert tables_under(heading) == expected
