"""The package imports numpy alone: no command imports a scipy module.

Measured after ``import ellipstab, ellipstab.cli`` in a fresh interpreter
(medians of 7, numpy 2.4, scipy 1.17, one BLAS thread, 2-CPU x86-64):
``scipy.sparse`` costs about 0.17 s and 19 MB to import, ``scipy.linalg``
about 0.22 s and 26 MB, and ``scipy.sparse.csgraph`` (which pulls in
``scipy.linalg``) about 0.25 s and 30 MB.  ``fem`` keeps its stiffness
matrix as an edge list of its own and factors its tridiagonal blocks
itself, so neither importing the package nor running the semi-analytic
studies, the FEM domain study or a solve, unrefined or refined, may
import any of these modules.  The tests use scipy as a reference.
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


def lazy_imports(commands, prelude=""):
    """The modules of ``LAZY`` that running ``prelude`` and then ``commands``
    through ``cli.main`` in a fresh interpreter imports; every command must
    exit 0."""
    code = (f"{prelude}\n"
            "import contextlib, io, sys\n"
            "from ellipstab import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(list(argv)) == 0, argv\n"
            f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))\n")
    return run_python(code)


def solve_command(tmp_path, refine):
    return ("solve", "--domain", "sector", "--n-radial", "4", "--n-angular", "4",
            "--refine", str(refine), "--out-prefix", str(tmp_path / f"run{refine}"))


def test_semi_analytic_commands_leave_out_scipy_sparse():
    assert lazy_imports(SEMI_COMMANDS) == []


def test_unrefined_solve_leaves_out_lazy_modules(tmp_path):
    assert lazy_imports((solve_command(tmp_path, 0),)) == []


def test_fem_domain_study_leaves_out_scipy_linalg():
    study = ("rate-study", "--study", "domain", "--mode", "fem", "--points", "4",
             "--eps-min", "1e-2")
    assert lazy_imports((study,)) == []


def test_refined_solve_leaves_out_lazy_modules(tmp_path):
    # the corner rings of a refined sector are factored without scipy
    assert lazy_imports((solve_command(tmp_path, 1),)) == []


def test_lazy_imports_sees_an_explicit_import(tmp_path):
    # the guards above would pass vacuously if ``lazy_imports`` saw nothing
    assert lazy_imports((solve_command(tmp_path, 1),),
                        prelude="import scipy.linalg") == ["scipy.linalg"]
