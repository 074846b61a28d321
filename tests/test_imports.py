"""The runtime depends on numpy alone: importing the package and every
module of it, the CLI included, loads no scipy module (scipy is a test
dependency, the reference ``scipy.special.erf`` of ``test_nn``)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, pkgutil, sys
import sslasr
names = sorted(m.name for m in pkgutil.iter_modules(sslasr.__path__, "sslasr."))
for name in names:
    importlib.import_module(name)
print(",".join(names))
print(",".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_module_loads_scipy():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    modules, scipy_modules = done.stdout.splitlines()
    assert "sslasr.cli" in modules.split(",") and "sslasr.nn" in modules.split(",")
    assert scipy_modules == ""
