"""Import cost: the package must stay cheap to import.

scipy.sparse.linalg alone adds about 88 ms to a 470 ms import, so the
pipeline keeps its own PCG loop instead of calling scipy's cg, and
scipy.special is imported only when a Bessel function is evaluated.
"""

import os
import pathlib
import subprocess
import sys

import panharmonic

HEAVY = ("scipy.sparse.linalg", "scipy.linalg", "scipy.special")


def test_import_loads_no_heavy_scipy_module():
    src = str(pathlib.Path(panharmonic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, panharmonic; "
             f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
