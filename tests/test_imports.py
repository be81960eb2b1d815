"""Every predcrit module imports on its own in a fresh interpreter, so an
import cycle between modules cannot hide behind the order in which other
modules happened to be loaded first."""
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import predcrit

MODULES = sorted(m.name for m in pkgutil.walk_packages(predcrit.__path__, "predcrit."))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    src = str(Path(predcrit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
