"""distseq runs on the Python standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports every distseq module in a fresh interpreter and prints the
# top-level names of the modules that importing them loaded.  Modules
# already loaded at start-up, such as those of site .pth hooks, are not
# distseq's.
PROBE = """
import pkgutil, sys
before = set(sys.modules)
import distseq
for info in pkgutil.iter_modules(distseq.__path__, "distseq."):
    __import__(info.name)
print(" ".join(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_distseq_imports_only_stdlib_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "distseq" in out
    outside = [m for m in out
               if m != "distseq" and m not in sys.stdlib_module_names]
    assert outside == []
