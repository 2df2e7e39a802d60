"""Package-level guarantees that hold for every entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import slimgraph

SRC = Path(slimgraph.__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (SRC / "slimgraph").glob("*.py") if p.stem != "__init__")


def _fresh_python(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter, so modules imported by other tests
    cannot mask the result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout


def test_import_loads_no_scipy():
    code = ("import sys, slimgraph; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).strip() == ""


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # a bare package object in place of __init__, whose import order could hide a cycle
    code = ("import importlib, sys, types; pkg = types.ModuleType('slimgraph'); "
            f"pkg.__path__ = [{str(SRC / 'slimgraph')!r}]; sys.modules['slimgraph'] = pkg; "
            f"importlib.import_module('slimgraph.{module}'); "
            "print(sorted(m for m in sys.modules if m.startswith('slimgraph.')))")
    assert f"'slimgraph.{module}'" in _fresh_python(code)
