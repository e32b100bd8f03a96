"""Every rmplates module imports on its own in a fresh interpreter, so an
import cycle introduced later fails here by name."""

import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import rmplates

MODULES = sorted(m.name for m in pkgutil.iter_modules(rmplates.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rmplates.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", f"import rmplates.{module}"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
