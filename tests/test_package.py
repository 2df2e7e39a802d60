"""Package-level guarantees that hold for every entry point."""

import os
import subprocess
import sys
from pathlib import Path

import slimgraph


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules imported by other tests cannot mask the result
    src = str(Path(slimgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, slimgraph; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == ""
