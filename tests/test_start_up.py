"""Starting the package imports neither ``dataclasses`` nor ``inspect``.

Every ``gridform`` command, fuzz batch and benchmark set-up is a short
process that pays for its imports, so they are checked in a fresh
interpreter rather than in this one, where pytest has loaded both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """\
import sys
before = set(sys.modules)
import gridform.cli, gridform.sampling, gridform.verify
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_sampling_and_verify_import_no_dataclasses_or_inspect():
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert {"gridform.cli", "gridform.sampling", "gridform.verify"} <= added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
