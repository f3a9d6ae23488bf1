"""The source stays within the line ceiling that ROADMAP.md sets."""

from pathlib import Path

CEILING = 1600
SRC = Path(__file__).resolve().parent.parent / "src" / "gridform"


def test_source_stays_under_the_line_ceiling():
    # newlines, as ``wc -l src/gridform/*.py`` counts them
    lines = sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))
    assert lines <= CEILING, (
        f"src/gridform/*.py has {lines} lines, over the {CEILING} ceiling")
