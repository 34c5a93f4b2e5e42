import contextlib
import hashlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellipstab import cli, experiments, fem, meshing
from ellipstab.analytic import h1_seminorm_separable, jump_solution, limit_solution
from ellipstab.coefficients import CoefficientField, EllipticityBounds, FieldEvaluationError
from ellipstab.geometry import SectorDomain
from ellipstab.meshing import TriMesh

BETA = f"{1.5 * np.pi:.9f}"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return cli.main(list(argv))


def read_mesh(prefix, domain):
    """The mesh a ``solve`` run wrote, parsed back with its domain."""
    rows = [l.split() for l in prefix.with_suffix(".mesh").read_text().splitlines()]
    v = np.array([r[1:] for r in rows if r[0] == "v"], dtype=float)
    t = np.array([r[1:] for r in rows if r[0] == "t"], dtype=np.int64)
    return TriMesh(v[:, :2], t, v[:, 2] == 1.0, domain=domain)


class TestVerifyAnalytic:
    def test_limit_passes(self, capsys):
        assert run("verify-analytic", "--example", "limit", "--beta",
                   "4.712388980") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "equation on 0 <= r < 1 defect 0\n" in out

    def test_jump_with_unit_alpha_trivially_passes(self, capsys):
        assert run("verify-analytic", "--example", "jump", "--alpha", "1") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "flux continuity" in out

    def test_annulus_passes(self, capsys):
        assert run("verify-analytic", "--example", "annulus", "--eps", "0.05") == 0
        assert "PASS" in capsys.readouterr().out

    def test_overflowing_flux_fails(self, capsys):
        # the outer profile's eps^(-k-1) flux term overflows in the evaluator,
        # and the table's r^(-k) coefficient d_out ~ eps^(2k) has underflowed
        # to 0, so both interface defects read O(1)
        assert run("verify-analytic", "--example", "jump", "--eps", "1e-300") == 1
        out = capsys.readouterr()
        assert "\ncontinuity at r=1e-300 defect 0.333333333333\n" in out.out
        assert "\nflux continuity at r=1e-300 defect 0.25\n" in out.out
        assert out.out.endswith("FAIL\n")
        assert out.err == ""

    def test_flux_defect_is_relative(self, capsys):
        # the flux exceeds 1e13 here, so rounding alone leaves an absolute
        # defect of about 0.05
        assert run("verify-analytic", "--example", "jump", "--eps", "1e-40") == 0
        assert capsys.readouterr().out.endswith("PASS\n")

    @pytest.mark.parametrize("beta,alpha,eps", [("5.969", "100", "0.9"),
                                                ("5.969026", "0.01", "0.0089")])
    def test_steep_angle_jump_passes(self, beta, alpha, eps, capsys):
        # near beta = 2 pi, k is close to 1/2 and the tables' coefficients
        # spread widest; the defects are relative, so they stay at rounding
        assert run("verify-analytic", "--example", "jump", "--beta", beta,
                   "--alpha", alpha, "--eps", eps) == 0
        assert capsys.readouterr().out.endswith("PASS\n")

    @pytest.mark.parametrize("example,eps,pieces", [
        ("jump", "0.01", ("0 <= r < 0.01", "0.01 <= r < 1")),
        ("annulus", "0.99", ("0.99 <= r < 1",)),
    ], ids=["jump", "annulus"])
    def test_every_piece_is_certified(self, example, eps, pieces, capsys):
        # a phase inside r < 0.02 or an annulus beyond r = 0.96 is checked
        # like any other: each piece gets its equation defect
        assert run("verify-analytic", "--example", example, "--eps", eps) == 0
        out = capsys.readouterr().out
        for piece in pieces:
            assert f"equation on {piece} defect" in out
        assert "not sampled" not in out
        assert out.endswith("PASS\n")

    def test_small_angle_is_usage_error(self):
        assert run("verify-analytic", "--example", "limit", "--beta", "3.0") == 2

    def test_unknown_example_is_usage_error(self):
        assert run("verify-analytic", "--example", "cube") == 2

    def test_missing_subcommand_is_usage_error(self):
        assert run() == 2


class TestRateStudy:
    def test_coeff_study_csv(self, tmp_path):
        out = tmp_path / "coeff.csv"
        assert run("rate-study", "--study", "coeff", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# cmd: rate-study --study coeff")
        assert lines[1] == "eps,error,bound,ratio"
        assert lines[-1].startswith("# exponent=")
        summary = dict(part.split("=") for part in lines[-1][2:].split())
        assert 0.63 <= float(summary["exponent"]) <= 0.70
        assert summary["window"] == "2..6"
        assert len(lines) == 2 + 7 + 1

    def test_domain_study_bound_column(self, tmp_path):
        out = tmp_path / "dom.csv"
        assert run("rate-study", "--study", "domain", "--q", "5", "--out",
                   str(out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        for row in rows:
            eps, _, bound, _ = map(float, row)
            expect = (2.0 * 1.5 * np.pi * eps**2) ** ((5.0 - 2.0) / 10.0)
            assert bound == pytest.approx(expect, rel=1e-9)

    def test_too_few_points_is_usage_error(self):
        assert run("rate-study", "--study", "coeff", "--points", "3") == 2

    @pytest.mark.parametrize("study", ["domain", "wwww"])
    def test_shift_map_eps_limit_is_usage_error(self, study, capsys):
        assert run("rate-study", "--study", study, "--eps-max", "0.5") == 2
        assert "--eps-max must be below 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("study", ["coeff", "domain", "wwww"])
    def test_eps_min_below_floor_is_usage_error(self, study, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("rate-study", "--study", study, "--eps-min", "1e-15",
                   "--out", str(out)) == 2
        assert "--eps-min must be at least 1e-14" in capsys.readouterr().err
        assert not out.exists()

    def test_eps_min_at_floor_runs(self, tmp_path):
        assert run("rate-study", "--study", "coeff", "--eps-min", "1e-14",
                   "--out", str(tmp_path / "x.csv")) == 0

    def test_inadmissible_q_is_hypothesis_violation(self, tmp_path, capsys):
        code = run("rate-study", "--study", "coeff", "--q", "7",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert "q < 6" in capsys.readouterr().err

    @pytest.mark.parametrize("study", ["coeff", "domain", "wwww"])
    @pytest.mark.parametrize("q", ["nan", "inf", "2"])
    def test_q_not_finite_above_two_is_usage_error(self, study, q, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("rate-study", "--study", study, "--q", q, "--out", str(out)) == 2
        assert "--q must be a finite number above 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study", ["coeff", "qualitative"])
    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    def test_bad_alpha_is_usage_error(self, study, alpha, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("rate-study", "--study", study, "--alpha", alpha,
                   "--out", str(out)) == 2
        assert "--alpha must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study", ["coeff", "qualitative"])
    def test_degenerate_family_fails_fit(self, study, tmp_path, capsys):
        # alpha = 1 is no jump at all, so every error vanishes
        out = tmp_path / "x.csv"
        code = run("rate-study", "--study", study, "--alpha", "1", "--points", "4",
                   "--eps-min", "0.05", "--eps-max", "0.4", "--out", str(out))
        assert code == 1
        assert ("degenerate study: all errors vanish (no rate to fit)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("study", ["coeff", "wwww"])
    def test_fem_mode_without_fem_path_is_usage_error(self, study, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("rate-study", "--study", study, "--mode", "fem",
                   "--out", str(out)) == 2
        assert (f"--mode fem is not available for --study {study}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_wwww_study(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run("rate-study", "--study", "wwww", "--q", "5", "--points", "5",
                   "--eps-min", "1e-3", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "eps,error,bound,ratio"
        ratios = [float(l.split(",")[3]) for l in lines[2:-1]]
        assert all(b <= a for a, b in zip(ratios[:-1], ratios[1:]))

    def test_qualitative_study(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run("rate-study", "--study", "qualitative", "--points", "4",
                   "--eps-min", "0.05", "--eps-max", "0.4",
                   "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        errors = [float(r.split(",")[1]) for r in rows]
        assert errors[-1] < errors[0]

    @pytest.mark.parametrize("study", ["coeff", "domain", "wwww", "qualitative"])
    def test_header_names_what_it_holds(self, study, tmp_path):
        # every study is given --alpha, --q and --mode; the `# cmd:` line
        # echoes only the flags the study reads
        grid = "--eps-min 0.05 --eps-max 0.4 --points 4"
        echo = {"coeff": f"--alpha 0.5 --q 5 {grid}",
                "domain": f"--q 5 {grid} --mode semi",
                "wwww": f"--q 5 {grid}",
                "qualitative": f"--alpha 0.5 {grid}"}[study]
        mode = "fem" if study == "qualitative" else "semi"
        out = tmp_path / "h.csv"
        assert run("rate-study", "--study", study, *grid.split(), "--alpha", "0.5",
                   "--q", "5", "--mode", mode, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"# cmd: rate-study --study {study} --beta 4.71238898038 {echo}"
        # the qualitative study's third column is its condition-3 statistic
        assert lines[1] == ("eps,error,condition_3_deviation,ratio" if study == "qualitative"
                            else "eps,error,bound,ratio")

    def test_domain_fem_mode(self, tmp_path):
        out = tmp_path / "fem.csv"
        assert run("rate-study", "--study", "domain", "--mode", "fem",
                   "--q", "5", "--points", "4", "--eps-min", "3.16e-3",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert "--mode fem" in lines[0]
        summary = dict(part.split("=") for part in lines[-1][2:].split())
        assert 0.60 <= float(summary["exponent"]) <= 0.73

    @pytest.mark.parametrize("eps_min,flagged_eps", [("1e-8", "1e-08"),
                                                     ("1e-12", "4.64158883361e-09")])
    def test_flagged_fem_row_writes_no_csv(self, eps_min, flagged_eps, tmp_path, capsys,
                                           monkeypatch):
        # below the mesh's innermost graded radius the FEM error drifts off
        # the semi-analytic one (41% and 52% here); the first flagged row
        # ends the run.  The --eps-min floor rejects these grids first, so
        # it is lifted here to reach the flagged-row rule behind it
        monkeypatch.setattr(experiments, "fem_eps_floor", lambda n_radial: 0.0)
        out = tmp_path / "fem.csv"
        assert run("rate-study", "--study", "domain", "--mode", "fem", "--points", "4",
                   "--eps-min", eps_min, "--out", str(out)) == 1
        err = capsys.readouterr().err
        match = re.fullmatch(r"error: FEM error ([0-9.]+)% off the semi-analytic error "
                             r"at eps=(\S+); no CSV written\n", err)
        assert match and float(match[1]) > 10.0 and match[2] == flagged_eps
        assert not out.exists()

    @pytest.mark.parametrize("eps_min", ["1e-8", "1e-12", "1.13e-6"])
    def test_fem_eps_min_below_mesh_floor_is_usage_error(self, eps_min, tmp_path, capsys):
        # the default 96-ring mesh's innermost graded radius (1/96)^3
        out = tmp_path / "fem.csv"
        assert run("rate-study", "--study", "domain", "--mode", "fem", "--points", "4",
                   "--eps-min", eps_min, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert (f"--eps-min is too small for the FEM mesh: eps {float(eps_min):g} is below "
                f"1.1302806713e-06, the innermost graded radius (1/96)^3 of the FEM mesh"
                in err)
        assert not out.exists()

    @pytest.mark.parametrize("beta", [1.1 * np.pi, 1.5 * np.pi, 1.9 * np.pi])
    def test_fem_eps_min_at_mesh_floor_runs(self, beta, tmp_path):
        # the floor the message prints is accepted, and no row is flagged:
        # at the floor the FEM error is 5.4%, 2.9% and 6.8% off the
        # semi-analytic one at these angles
        out = tmp_path / "fem.csv"
        assert run("rate-study", "--study", "domain", "--mode", "fem", "--beta", repr(beta),
                   "--points", "4", "--eps-min", "1.1302806713e-06", "--out", str(out)) == 0
        assert out.read_text().splitlines()[-2].startswith("1.1302806713e-06,")

    def test_fem_field_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # a field that cannot be evaluated fails the FEM solve's assembly;
        # its FieldEvaluationError reaches the CLI as the ValueError it is
        def failing_identity():
            def ev(pts):
                raise FieldEvaluationError("singular Jacobian at point (0, 0)")
            return CoefficientField(ev, EllipticityBounds(1.0, 1.0))

        monkeypatch.setattr(experiments.coefficients, "identity_field", failing_identity)
        out = tmp_path / "fem.csv"
        assert run("rate-study", "--study", "domain", "--mode", "fem", "--points", "4",
                   "--eps-min", "3.2e-3", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: singular Jacobian at point (0, 0)\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,column", [("1e-300", "error")])
    def test_extreme_alpha_writes_no_csv(self, alpha, column, tmp_path, capsys):
        # errors overflow to inf: exit 1 with one line naming the column,
        # never a CSV, a traceback or a numpy RuntimeWarning
        out = tmp_path / "x.csv"
        assert run("rate-study", "--study", "coeff", "--points", "4",
                   "--eps-min", "1e-3", "--alpha", alpha, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: non-finite {column} inf at eps=0.1; no CSV written\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", ["1e300", "1e-300"])
    def test_qualitative_extreme_alpha(self, alpha, tmp_path, capsys):
        # the difference load is O(|1 - alpha|): exit 0 with every row
        # within 10% of the closed form, or exit 1 with one line and no CSV
        out = tmp_path / "x.csv"
        code = run("rate-study", "--study", "qualitative", "--points", "4",
                   "--eps-min", "1e-3", "--alpha", alpha, "--out", str(out))
        err = capsys.readouterr().err
        if code == 1:
            assert err.count("\n") == 1 and not out.exists()
            return
        assert (code, err) == (0, "")
        assert_rows_match_jump_closed_form(out.read_text(), 1.5 * np.pi, float(alpha))

    def test_qualitative_nan_residual_exits_4_at_once(self, tmp_path, capsys):
        # at alpha = 1e308 CG's first residual is NaN, which never passes
        # the tolerance test: the solve stops there instead of running all
        # 50 000 iterations, with exit 4, one line and no CSV
        out = tmp_path / "x.csv"
        assert run("rate-study", "--study", "qualitative", "--alpha", "1e308",
                   "--eps-min", "1e-3", "--points", "4", "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "is not finite at iteration 1" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", ["1e100", "1e160", "1e300"])
    def test_extreme_alpha_bound_is_finite(self, alpha, tmp_path):
        # |alpha - 1| scales out of the L^p distance before the p-th power,
        # so bound / (alpha - 1) is the same finite column as at alpha = 2
        def bounds(a):
            out = tmp_path / f"{a}.csv"
            assert run("rate-study", "--study", "coeff", "--points", "4",
                       "--eps-min", "1e-3", "--alpha", a, "--out", str(out)) == 0
            rows = out.read_text().splitlines()[2:-1]
            return np.array([float(r.split(",")[2]) for r in rows])

        big = bounds(alpha)
        assert np.all(np.isfinite(big))
        assert big / (float(alpha) - 1.0) == pytest.approx(bounds("2"), rel=1e-11)

    def test_coeff_study_near_q_two_has_finite_bound(self, tmp_path):
        # q = 2.0000001 gives p = 2q/(q - 2) of about 4e7
        out = tmp_path / "x.csv"
        assert run("rate-study", "--study", "coeff", "--q", "2.0000001",
                   "--alpha", "1.5", "--points", "4", "--eps-min", "1e-3",
                   "--out", str(out)) == 0
        rows = out.read_text().splitlines()[2:-1]
        bound = np.array([float(r.split(",")[2]) for r in rows])
        assert len(rows) == 4
        assert np.all(np.isfinite(bound)) and np.all(bound > 0.0)

    @pytest.mark.parametrize("study", ["coeff", "domain", "wwww"])
    def test_ratio_column_is_the_bound_checks(self, study, tmp_path):
        out = tmp_path / "r.csv"
        assert run("rate-study", "--study", study, "--alpha", "0.5", "--q", "5",
                   "--points", "5", "--eps-min", "1e-3", "--out", str(out)) == 0
        cells = [l.split(",")[3] for l in out.read_text().splitlines()[2:-1]]
        beta, grid = 1.5 * np.pi, tuple(np.geomspace(0.1, 1e-3, 5))
        if study == "coeff":
            check = experiments.coefficient_rate_study(beta, 0.5, grid, q=5.0).bound
        elif study == "domain":
            check = experiments.domain_rate_study(beta, grid, q=5.0).bound
        else:
            check = experiments.composition_inequality_check(beta, grid, 5.0)
        assert cells == [f"{r:.12g}" for r in check.ratios]

    def test_missing_out_dir_is_usage_error_before_work(self, tmp_path, capsys,
                                                        monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli.experiments, "composition_inequality_check", no_work)
        out = tmp_path / "missing" / "t.csv"
        assert run("rate-study", "--study", "wwww", "--out", str(out)) == 2
        assert (f"--out: directory '{out.parent}' does not exist"
                in capsys.readouterr().err)
        assert not out.parent.exists()

    @pytest.mark.parametrize("trailing_sep", [False, True])
    def test_directory_out_is_usage_error_before_work(self, trailing_sep, tmp_path,
                                                      capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli.experiments, "composition_inequality_check", no_work)
        out = str(tmp_path) + (os.sep if trailing_sep else "")
        assert run("rate-study", "--study", "wwww", "--out", out) == 2
        assert "--out: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_reused_parser_keeps_no_state(self, tmp_path):
        # the parser is built once per process; a usage error in between
        # leaves later parses and outputs unchanged
        parser = cli._build_parser()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rate-study", "--study", "wwww", "--points", "4", "--eps-min", "1e-3"]
        assert run("rate-study", "--study", "wwww", "--points", "1") == 2
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert cli._build_parser() is parser

    @pytest.mark.parametrize("study", ["coeff", "domain", "wwww", "qualitative"])
    def test_byte_identical_reruns(self, study, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rate-study", "--study", study, "--points", "5",
                "--eps-min", "1e-3"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


@st.composite
def documented_rate_studies(draw):
    """A semi-mode ``rate-study`` inside README's input limits: any study,
    beta in (pi, 2 pi), eps log-uniform from ``cli.EPS_MIN`` to below the
    study's --eps-max limit, 4-9 points, q in (2, 1e3] and alpha
    log-uniform in [1e-3, 1e3]."""
    study = draw(st.sampled_from(sorted(cli.STUDY_FLAGS)))
    beta = draw(st.floats(np.pi, 2.0 * np.pi, exclude_min=True, exclude_max=True))
    limit = 0.5 if study in ("domain", "wwww") else 1.0
    lowest = math.log10(cli.EPS_MIN)
    top = draw(st.floats(lowest, math.log10(limit), exclude_min=True, exclude_max=True))
    eps_max = 10.0 ** top
    eps_min = max(10.0 ** draw(st.floats(lowest, top, exclude_max=True)), cli.EPS_MIN)
    assume(eps_min < eps_max < limit)
    return {"study": study, "beta": beta, "alpha": 10.0 ** draw(st.floats(-3.0, 3.0)),
            "q": draw(st.floats(2.0, 1e3, exclude_min=True)), "eps_min": eps_min,
            "eps_max": eps_max, "points": draw(st.integers(4, 9))}


VANISH = "degenerate study: all errors vanish (no rate to fit)\n"


def assert_rows_match_jump_closed_form(csv, beta, alpha):
    """Every row of a qualitative CSV is within 10% of the jump family's
    closed-form error."""
    u0 = limit_solution(beta)
    for row in csv.splitlines()[2:-1]:
        eps, err = (float(v) for v in row.split(",")[:2])
        exact = h1_seminorm_separable(jump_solution(beta, alpha, eps).difference(u0))
        assert abs(err - exact) <= 0.10 * exact, (eps, err, exact)


@settings(max_examples=200, deadline=None)
@given(documented_rate_studies())
def test_documented_rate_study_box(case):
    # every run in the box writes a finite CSV, or refuses as README states
    argv = ["rate-study", "--mode", "semi", "--study", case["study"],
            "--points", str(case["points"])]
    for name in ("beta", "alpha", "q", "eps_min", "eps_max"):
        argv += [f"--{name.replace('_', '-')}", repr(case[name])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    # limits a few ulps apart round the grid to repeated values, and a
    # qualitative grid below the FEM mesh's floor is unresolved: usage
    # errors, refused before any work
    grid = np.geomspace(case["eps_max"], case["eps_min"], case["points"])
    repeats = np.unique(grid).size < case["points"]
    unresolved = (case["study"] == "qualitative"
                  and case["eps_min"] < experiments.fem_eps_floor(96))
    assert (code == 2) == (repeats or unresolved)
    if code == 2:
        assert out.getvalue() == ""
        assert err.endswith("eps grid repeats a value\n") if repeats else (
            "--eps-min is too small for the FEM mesh: " in err)
    elif code == 0:
        rows = out.getvalue().splitlines()[2:-1]
        assert len(rows) == case["points"]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
        assert err == ""
        if case["study"] == "qualitative":
            assert_rows_match_jump_closed_form(out.getvalue(), case["beta"], case["alpha"])
    elif code == 3:
        # q at or above q*: qualitative reads no q
        assert case["study"] != "qualitative"
        assert case["q"] >= experiments.q_star(case["beta"])
        assert err.startswith("hypothesis violation: ")
    else:
        assert code == 1 and err.count("\n") == 1
        if err.startswith("error: condition_3 fails: "):
            # every eps beyond the disc, of radius 0.5, off which it is checked
            assert case["study"] == "qualitative" and case["eps_min"] > 0.5
        elif err.startswith("error: FEM error "):
            # a FEM error more than 10% off the closed form, at the eps named
            match = re.fullmatch(r"error: FEM error (\S+)% off the semi-analytic error "
                                 r"at eps=(\S+); no CSV written\n", err)
            assert case["study"] == "qualitative" and float(match[1]) > 10.0
            assert float(match[2]) in [float(cli._fmt(e)) for e in grid]
        else:
            # no jump at all: every error vanishes
            assert case["study"] in ("coeff", "qualitative")
            assert (err, case["alpha"]) == (VANISH, 1.0)


class TestSolve:
    def test_sector_exports(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        assert run("solve", "--domain", "sector", "--n-radial", "6",
                   "--n-angular", "8", "--out-prefix", str(prefix)) == 0
        out = capsys.readouterr().out
        assert "iterations" in out and "unknowns" in out
        mesh_lines = (prefix.with_suffix(".mesh")).read_text().splitlines()
        assert mesh_lines[0].startswith("v ")
        assert any(l.startswith("t ") for l in mesh_lines)
        sol_lines = (prefix.with_suffix(".sol")).read_text().splitlines()
        assert sol_lines[0].startswith("sol 0 ")

    def test_annulus_dirichlet_zeros(self, tmp_path):
        prefix = tmp_path / "ann"
        assert run("solve", "--domain", "annulus", "--eps", "0.05",
                   "--n-radial", "6", "--n-angular", "8",
                   "--out-prefix", str(prefix)) == 0
        mesh_lines = (prefix.with_suffix(".mesh")).read_text().splitlines()
        sol_lines = (prefix.with_suffix(".sol")).read_text().splitlines()
        for vline, sline in zip(mesh_lines, sol_lines):
            if not vline.startswith("v "):
                break
            if vline.split()[3] == "1":
                assert float(sline.split()[2]) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        args = ["solve", "--domain", "annulus", "--eps", "0.05", "--n-radial",
                "6", "--n-angular", "16", "--refine", "1"]
        assert run(*args, "--out-prefix", str(tmp_path / "a")) == 0
        assert run(*args, "--out-prefix", str(tmp_path / "b")) == 0
        assert (tmp_path / "a.mesh").read_bytes() == (tmp_path / "b.mesh").read_bytes()
        assert (tmp_path / "a.sol").read_bytes() == (tmp_path / "b.sol").read_bytes()

    def test_same_bytes_at_any_blas_thread_count(self, tmp_path):
        # the refined solve takes the separable preconditioner, whose every
        # sum has an order fixed by the code, as have CG's
        src = str(Path(cli.__file__).resolve().parents[1])
        args = ["solve", "--domain", "sector", "--coeff", "jump", "--n-radial", "24",
                "--n-angular", "64", "--refine", "2"]
        digests = []
        for threads in ("1", "2"):
            prefix = tmp_path / f"t{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "ellipstab.cli", *args,
                            "--out-prefix", str(prefix)], env=env, check=True,
                           capture_output=True)
            digests.append([hashlib.sha256(prefix.with_suffix(suffix).read_bytes()).hexdigest()
                            for suffix in (".mesh", ".sol")])
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("args,mesh_sha256,sol_sha256", [
        (["--jump-eps", "1e-160"],
         "519ccbefd73546bcac86627146a43f12fecfede38fab814b2010780589fa5676",
         "cd3082c154328ef68737483e34522005e34708cc6508415223559c22d353381f"),
        (["--jump-eps", "0.3", "--refine", "2"],
         "628f729d6484c8279a95829fa1722aa592bac89c2b18ae9738e3540e5a3b89da",
         "e9f2c57cbfbc800229347c81a1c14dc3615cae5270f821e4f430207d9dda3d74"),
    ])
    def test_jump_solve_pinned_bytes(self, tmp_path, args, mesh_sha256, sol_sha256):
        # assembly evaluates the jump field at every rule point, so a branch
        # rule other than np.hypot(x, y) < eps would show in these bytes
        prefix = tmp_path / "x"
        assert run("solve", "--domain", "sector", "--coeff", "jump", *args,
                   "--out-prefix", str(prefix)) == 0
        for suffix, digest in ((".mesh", mesh_sha256), (".sol", sol_sha256)):
            data = prefix.with_suffix(suffix).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, suffix

    @pytest.mark.parametrize("cells", ["8", "16"])
    def test_refined_graded_annulus_is_valid(self, tmp_path, cells):
        # the first graded ring is thinner than the sagitta of the inner-arc
        # chords; the written mesh must still have no inverted triangle
        prefix = tmp_path / "x"
        assert run("solve", "--domain", "annulus", "--eps", "0.05", "--beta", BETA,
                   "--n-radial", cells, "--n-angular", cells, "--refine", "1",
                   "--out-prefix", str(prefix)) == 0
        assert read_mesh(prefix, SectorDomain(float(BETA), r_inner=0.05)).validate()

    @pytest.mark.parametrize("jump_eps", ["1e-11", "1e-13", "1e-14"])
    def test_tiny_jump_radius_keeps_corner(self, tmp_path, jump_eps):
        # the ring at r = jump_eps lies within the validation tolerance of the
        # corner, yet only the corner vertex is on the boundary there
        prefix = tmp_path / "x"
        assert run("solve", "--domain", "sector", "--coeff", "jump", "--beta", BETA,
                   "--jump-eps", jump_eps, "--out-prefix", str(prefix)) == 0
        mesh = read_mesh(prefix, SectorDomain(float(BETA)))
        assert mesh.validate()
        assert np.array_equal(mesh.vertices[0], [0.0, 0.0]) and mesh.boundary_flags[0]

    def test_tiny_inner_radius_validates(self, tmp_path):
        # the ring at r = 2 eps lies within the validation tolerance of the
        # inner arc, yet it is interior
        prefix = tmp_path / "x"
        assert run("solve", "--domain", "annulus", "--eps", "1e-11", "--coeff", "jump",
                   "--jump-eps", "2e-11", "--beta", BETA, "--out-prefix", str(prefix)) == 0
        assert read_mesh(prefix, SectorDomain(float(BETA), r_inner=1e-11)).validate()

    def test_invalid_refined_mesh_is_usage_error(self, tmp_path, capsys, monkeypatch):
        refine = meshing.refine_uniform

        def inverting(mesh):
            fine = refine(mesh)
            return TriMesh(fine.vertices, fine.triangles[:, ::-1], fine.boundary_flags,
                           domain=fine.domain)

        monkeypatch.setattr(meshing, "refine_uniform", inverting)
        prefix = tmp_path / "x"
        assert run("solve", "--domain", "sector", "--refine", "1",
                   "--out-prefix", str(prefix)) == 2
        assert "after --refine 1 is invalid: triangle 0 has non-positive area" in (
            capsys.readouterr().err)
        assert not prefix.with_suffix(".mesh").exists()

    def test_graph_domain(self, tmp_path):
        assert run("solve", "--domain", "graph", "--nx", "6", "--ny", "6",
                   "--graph-slope", "0.1",
                   "--out-prefix", str(tmp_path / "g")) == 0

    @pytest.mark.parametrize("domain", ["sector", "annulus", "graph"])
    @pytest.mark.parametrize("jump_eps", ["1.5", "0", "nan"])
    def test_jump_eps_outside_domain_is_usage_error(self, tmp_path, capsys,
                                                    domain, jump_eps):
        prefix = tmp_path / "x"
        assert run("solve", "--domain", domain, "--coeff", "jump", "--eps", "0.05",
                   "--jump-eps", jump_eps, "--out-prefix", str(prefix)) == 2
        r_inner = "0.05" if domain == "annulus" else "0"
        assert (f"--jump-eps must lie in ({r_inner}, 1), got {jump_eps}"
                in capsys.readouterr().err)
        assert not prefix.with_suffix(".mesh").exists()

    def test_bad_annulus_eps_is_usage_error(self, tmp_path):
        assert run("solve", "--domain", "annulus", "--eps", "1.5",
                   "--out-prefix", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("domain,flag,value,limit", [
        ("sector", "--n-radial", "1", "2"),
        ("annulus", "--n-angular", "1", "2"),
        ("sector", "--grading", "0.5", "1"),
        ("graph", "--nx", "1", "2"),
        ("graph", "--ny", "0", "2"),
    ])
    def test_mesh_size_below_limit_is_usage_error(self, tmp_path, capsys,
                                                  domain, flag, value, limit):
        assert run("solve", "--domain", domain, flag, value,
                   "--out-prefix", str(tmp_path / "x")) == 2
        assert f"{flag} must be at least {limit}" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    def test_bad_jump_alpha_is_usage_error(self, tmp_path, capsys, alpha):
        prefix = tmp_path / "x"
        assert run("solve", "--domain", "sector", "--coeff", "jump", "--alpha", alpha,
                   "--out-prefix", str(prefix)) == 2
        assert "--alpha must be positive and finite" in capsys.readouterr().err
        assert not prefix.with_suffix(".mesh").exists()

    @pytest.mark.parametrize("domain", ["sector", "annulus"])
    def test_nan_grading_is_usage_error(self, tmp_path, capsys, domain):
        prefix = tmp_path / "x"
        assert run("solve", "--domain", domain, "--grading", "nan",
                   "--out-prefix", str(prefix)) == 2
        assert "--grading must be at least 1, got nan" in capsys.readouterr().err
        assert not prefix.with_suffix(".mesh").exists()

    @pytest.mark.parametrize("height,slope", [("nan", "0"), ("0.5", "nan")])
    def test_nan_graph_height_is_usage_error(self, tmp_path, capsys, height, slope):
        prefix = tmp_path / "x"
        assert run("solve", "--domain", "graph", "--graph-height", height,
                   "--graph-slope", slope, "--out-prefix", str(prefix)) == 2
        assert "graph height must stay in (0.1, 1]" in capsys.readouterr().err
        assert not prefix.with_suffix(".mesh").exists()

    def test_missing_out_dir_is_usage_error_before_work(self, tmp_path, capsys,
                                                        monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli.meshing, "mesh_sector", no_work)
        prefix = tmp_path / "missing" / "x"
        assert run("solve", "--domain", "sector", "--out-prefix", str(prefix)) == 2
        assert (f"--out-prefix: directory '{prefix.parent}' does not exist"
                in capsys.readouterr().err)
        assert not prefix.parent.exists()

    @pytest.mark.parametrize("target", ["empty stem", "mesh is a directory"])
    def test_out_prefix_naming_no_file_is_usage_error_before_work(
            self, target, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli.meshing, "mesh_sector", no_work)
        if target == "empty stem":
            prefix = str(tmp_path) + os.sep
        else:
            prefix = str(tmp_path / "x")
            (tmp_path / "x.mesh").mkdir()
        assert run("solve", "--domain", "sector", "--out-prefix", prefix) == 2
        assert "--out-prefix: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if target == "empty stem" else ["x.mesh"])

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(system, rel_tol=0.0, max_iter=0):
            raise fem.ConvergenceFailure("stalled", residual_history=(1.0,))

        monkeypatch.setattr(cli.fem, "solve_cg", boom)
        code = run("solve", "--domain", "sector", "--n-radial", "4",
                   "--n-angular", "4", "--out-prefix", str(tmp_path / "x"))
        assert code == 4

    def test_ring_factor_failure_falls_back_to_jacobi(self, tmp_path, monkeypatch, capsys):
        # a refined sector's corner rings are factored as one tridiagonal
        # (1-D); when that fails, the solve goes on with Jacobi and still
        # succeeds
        args = ("solve", "--domain", "sector", "--n-radial", "4", "--n-angular", "4",
                "--refine", "1")
        assert run(*args, "--out-prefix", str(tmp_path / "a")) == 0
        separable = capsys.readouterr().out

        ldl = fem._ldl
        monkeypatch.setattr(fem, "_ldl", lambda diag, off: None if diag.ndim == 1
                            else ldl(diag, off))
        assert run(*args, "--out-prefix", str(tmp_path / "x")) == 0
        jacobi = capsys.readouterr().out
        iterations = [int(out.split(" iterations ")[1].split()[0])
                      for out in (separable, jacobi)]
        assert iterations[0] < iterations[1]
        assert (tmp_path / "x.mesh").read_bytes() == (tmp_path / "a.mesh").read_bytes()

    def test_unrefined_solve_reports_one_iteration(self, tmp_path, capsys):
        assert run("solve", "--domain", "sector", "--out-prefix",
                   str(tmp_path / "x")) == 0
        assert " iterations 1 " in capsys.readouterr().out


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # every `ellipstab ...` line of the sh block under README's `## CLI`
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("ellipstab ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, " ".join(argv)
