"""Importing the package leaves out the scipy modules only some calls need.

``scipy.sparse`` (the stiffness matrix of ``fem.assemble``) costs about
0.23 s and 20 MB to import, ``scipy.linalg`` (the banded Cholesky factor of
a refined mesh's corner block in ``fem.solve_cg``) about 8 MB and 40-75 ms
on top of it, and ``scipy.sparse.csgraph`` (which pulls in
``scipy.linalg``) about 10 MB and 60 ms.  The semi-analytic studies never
assemble or solve, so none of them may be imported at module level, nor by
a semi-analytic command; the FEM domain study solves on unrefined meshes,
which have no corner block, so it may import ``scipy.sparse`` alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import ellipstab

LAZY = ("scipy.linalg", "scipy.sparse", "scipy.sparse.csgraph")

# commands that run only the semi-analytic path
SEMI_COMMANDS = (
    ("rate-study", "--study", "coeff", "--points", "4"),
    ("rate-study", "--study", "domain", "--mode", "semi", "--points", "4"),
    ("rate-study", "--study", "wwww", "--points", "4"),
    ("verify-analytic", "--example", "jump"),
)


def run_python(code):
    src = str(Path(ellipstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_import_leaves_out_lazy_scipy_modules():
    code = ("import sys, ellipstab, ellipstab.cli; "
            f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))")
    assert run_python(code) == []


def lazy_imports(commands):
    """The modules of ``LAZY`` that running ``commands`` through ``cli.main``
    in a fresh interpreter imports; every command must exit 0."""
    code = ("import contextlib, io, sys\n"
            "from ellipstab import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(list(argv)) == 0, argv\n"
            f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))\n")
    return run_python(code)


def test_semi_analytic_commands_leave_out_scipy_sparse():
    assert lazy_imports(SEMI_COMMANDS) == []


def test_solve_imports_scipy_sparse(tmp_path):
    # the guard above would pass vacuously if no command imported it
    solve = ("solve", "--domain", "sector", "--n-radial", "4", "--n-angular", "4",
             "--out-prefix", str(tmp_path / "run"))
    assert "scipy.sparse" in lazy_imports((solve,))


def test_fem_domain_study_leaves_out_scipy_linalg():
    study = ("rate-study", "--study", "domain", "--mode", "fem", "--points", "4",
             "--eps-min", "1e-2")
    assert lazy_imports((study,)) == ["scipy.sparse"]


def test_refined_solve_imports_scipy_linalg(tmp_path):
    # the guard above would pass vacuously if no command imported it
    solve = ("solve", "--domain", "sector", "--n-radial", "4", "--n-angular", "4",
             "--refine", "1", "--out-prefix", str(tmp_path / "run"))
    assert "scipy.linalg" in lazy_imports((solve,))
