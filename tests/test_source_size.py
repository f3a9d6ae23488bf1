"""The source stays within the line ceiling that ROADMAP.md sets."""

from pathlib import Path

CEILING = 1600
SRC = Path(__file__).resolve().parent.parent / "src" / "gridform"


def test_source_stays_under_the_line_ceiling():
    # newlines, as ``wc -l src/gridform/*.py`` counts them
    counts = sorted(((p.read_bytes().count(b"\n"), p.name)
                     for p in SRC.glob("*.py")), reverse=True)
    lines = sum(n for n, _ in counts)
    assert lines <= CEILING, (
        f"src/gridform/*.py has {lines} lines, over the {CEILING} ceiling:\n"
        + "\n".join(f"{n:6d} {name}" for n, name in counts))
