"""Importing the package leaves out the scipy modules only some calls need.

``scipy.linalg`` (the banded Cholesky preconditioner of ``fem.solve_cg``)
costs about 7 MB and 40 ms to import, and ``scipy.sparse.csgraph`` (which
pulls in ``scipy.linalg``) about 10 MB and 60 ms; the semi-analytic studies
never solve, so neither may be imported at module level.
"""

import os
import subprocess
import sys
from pathlib import Path

import ellipstab

LAZY = ("scipy.linalg", "scipy.sparse.csgraph")


def test_import_leaves_out_lazy_scipy_modules():
    src = str(Path(ellipstab.__file__).resolve().parents[1])
    code = ("import sys, ellipstab, ellipstab.cli; "
            f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
