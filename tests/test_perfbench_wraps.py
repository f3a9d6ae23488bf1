"""The benchmark tracer wraps gridform functions by name, and a name it
cannot find is only skipped with a warning. Pin every wrapped name here, so
renaming or deleting one fails the tests instead of silently dropping the
per-layer metrics built on it."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_wraps():
    # execute the source in a fresh namespace: nothing is imported as a
    # package and no bytecode is written next to the benchmark
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["WRAPS"]


def test_every_wrapped_name_exists():
    wraps = load_wraps()
    assert wraps
    missing = [f"gridform.{short}.{attr}" for short, attr, _, _ in wraps
               if not hasattr(importlib.import_module(f"gridform.{short}"),
                              attr)]
    assert missing == []
