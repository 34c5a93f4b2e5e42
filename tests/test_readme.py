"""README.md states contracts, and each one holds in the code.

The layout table names every module once, and every name it gives is one
the module defines.  Every flag README mentions is a CLI option.  Every
limit, tolerance, exit code and example output it states is read from the
text and checked against the code that owns it, and every decimal number in
its prose is one of those.
"""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import FEM_ORDER_BOUNDS, FEM_ORDER_CLEAN, FEM_ORDER_MESHES, FEM_ORDER_UNCLEAN
from ellipstab import analytic, cli, experiments, fem, geometry, meshing

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = sorted(p.stem for p in (ROOT / "src" / "ellipstab").glob("*.py")
                 if p.stem != "__init__")
FENCED = re.compile(r"^```.*?^```\n", re.M | re.S)
PROSE = FENCED.sub("", README)


def section(heading):
    """The text under ``heading`` up to the next heading of its level or
    higher; a ``#`` line inside a fenced block is no heading."""
    level = len(heading.split()[0])
    lines, inside, fenced = [], False, False
    for line in README.splitlines(keepends=True):
        fenced ^= line.startswith("```")
        if not fenced and re.match(r"#+ ", line):
            if inside and len(line.split()[0]) <= level:
                break
            if line.rstrip("\n") == heading:
                inside = True
                continue
        if inside:
            lines.append(line)
    assert lines, heading
    return "".join(lines)


def stated(pattern, text=None):
    """The one match in README (or ``text``) of ``pattern``'s group."""
    found = re.findall(pattern, PROSE if text is None else text)
    assert len(found) == 1, pattern
    return found[0]


def run(capsys, *argv):
    """Exit code, stdout and stderr of one ``cli.main`` call."""
    capsys.readouterr()
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def sh_commands():
    block = section("## CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("ellipstab ")]


# -- layout --------------------------------------------------------------


LAYOUT = re.findall(r"^\| `(\w+)` \| (.*) \|$", section("## Layout"), re.M)


def test_layout_names_each_module_once():
    assert sorted(module for module, _ in LAYOUT) == MODULES


@pytest.mark.parametrize("module,contents", LAYOUT, ids=[m for m, _ in LAYOUT])
def test_layout_row_names_what_the_module_defines(module, contents):
    mod = importlib.import_module(f"ellipstab.{module}")
    for name in re.findall(r"`([^`]+)`", contents):
        if not (module == "cli" and name in subparsers()):
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    assert len(re.findall(r"\.(?:\s|$)", contents)) <= 2, module


# -- flags and output format -----------------------------------------------


def test_every_flag_is_a_cli_option():
    options = {opt for sub in subparsers().values() for a in sub._actions
               for opt in a.option_strings}
    # the install block's flags belong to pip
    text = README.replace(section("## Install and test"), "")
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert flags and flags <= options, flags - options


def test_cmd_line_names_each_studys_flags():
    text = section("### Output")
    reads = {study: tuple(f.removeprefix("--") for f in flags.split())
             for flags, study in re.findall(r"`((?:--[a-z]+ ?)+)` for `(\w+)`", text)}
    assert reads == cli.STUDY_FLAGS


def test_csv_starts_and_ends_as_stated(capsys):
    text = section("### Output")
    assert "`# cmd:`" in text
    assert "`# exponent=... constant=... r2=... window=i..j`" in text
    code, out, _ = run(capsys, "rate-study", "--study", "coeff", "--points", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# cmd: rate-study --study coeff ")
    assert re.fullmatch(r"# exponent=\S+ constant=\S+ r2=\S+ window=\d+\.\.\d+", lines[-1])


# -- exit codes --------------------------------------------------------------


def test_exit_codes(capsys, monkeypatch, tmp_path):
    codes = [int(c) for c in re.findall(r"^- (\d): ", section("### Exit codes"), re.M)]
    assert codes == [0, 1, 2, 3, 4]
    assert run(capsys, *sh_commands()[0])[0] == 0
    assert run(capsys, "rate-study", "--study", "coeff", "--alpha", "1")[0] == 1
    assert run(capsys, "rate-study", "--study", "coeff", "--beta", "3")[0] == 2
    code, _, err = run(capsys, "rate-study", "--study", "coeff", "--q", "20")
    assert code == 3 and f"q < {analytic.q_star(cli.BETA_DEFAULT):g}" in err

    def stalled(system, rel_tol=0.0, max_iter=0):
        raise fem.ConvergenceFailure("stalled")

    monkeypatch.setattr(cli.fem, "solve_cg", stalled)
    code, _, err = run(capsys, "solve", "--domain", "sector", "--out-prefix",
                       str(tmp_path / "x"))
    assert code == 4 and err.startswith("solver failure: ")


# -- example outputs and tolerances ------------------------------------------


def test_verify_example_output(capsys):
    line = stated(r"the first example above prints\s+`([^`]+)`")
    code, out, _ = run(capsys, *sh_commands()[0])
    assert code == 0 and f"\n{line}\n" in out


@pytest.mark.parametrize("flags,line", re.findall(r"`(--[^`]+)` prints `([^`]+)`", PROSE))
def test_study_example_output(flags, line, capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "rate-study", *shlex.split(flags), "--out", str(out))
    # one line and nothing else: no numpy warning comes before it
    assert (code, err) == (1, line + "\n")
    assert not out.exists()


def test_every_example_output_is_checked():
    assert len(re.findall(r"prints\s+`", PROSE)) == 1 + len(
        re.findall(r"`(--[^`]+)` prints `([^`]+)`", PROSE))


def test_verify_pass_threshold(capsys, monkeypatch):
    limit = float(stated(r"every defect is finite and below (\S+)\."))
    for defect, code in ((limit * (1 - 1e-12), 0), (limit, 1), (float("nan"), 1)):
        report = analytic.ResidualReport((("stated", defect),))
        monkeypatch.setattr(analytic, "residual_check", lambda *a, r=report: r)
        assert run(capsys, "verify-analytic", "--example", "limit")[0] == code


def test_condition_3_disc_radius(capsys):
    # at the radius no eps lies beyond the disc; the example above it refuses
    radius = stated(r"`--study qualitative` run has `--eps-min` above (\S+):")
    assert run(capsys, "rate-study", "--study", "qualitative", "--eps-min", radius,
               "--eps-max", "0.9", "--points", "4")[0] == 0


def test_fem_agreement_threshold(capsys, monkeypatch):
    # both FEM studies flag their rows by experiments.fem_agreement
    limit = float(stated(r"more than (\d+) % off the semi-analytic")) / 100.0
    assert experiments.AGREEMENT_TOL == limit

    def run_off_by(share):
        def fem_error(beta, eps):
            semi = experiments._semi_annulus_error(beta, eps, analytic.limit_solution(beta))
            return semi * (1.0 + share)
        monkeypatch.setattr(experiments, "_fem_annulus_error", fem_error)
        return run(capsys, "rate-study", "--study", "domain", "--mode", "fem",
                   "--points", "4", "--eps-min", "1e-3")

    assert run_off_by(limit * 0.999)[0] == 0
    code, _, err = run_off_by(limit * 1.001)
    assert code == 1 and "off the semi-analytic error at eps=0.1;" in err


def test_fem_gap_on_the_shipped_mesh():
    # the gap range is measured here; the orders are checked in
    # test_experiments.py from the conftest table this compares with
    flat = " ".join(PROSE.split())
    n_radial, n_angular, low, high, betas, eps_grid, meshes, order_low, order_high, unclean = (
        stated(r"`experiments\.N_RADIAL` = (\d+) rings by `experiments\.N_ANGULAR` = (\d+) "
               r"angular intervals, puts the FEM error of `--study domain --mode fem` "
               r"within (\S+) to (\S+), relative, of the semi-analytic one at "
               r"beta = (.+?) pi and eps = (.+?), well inside the 10 % rule\. "
               r"Refined in both directions at once \(([^)]+)\), that gap keeps its sign "
               r"and shrinks at an order between (\S+) and (\S+) at each of these points "
               r"except (.+?) \(`tests/test_experiments\.py::TestFemConvergenceOrder`\)",
               flat))
    assert (int(n_radial), int(n_angular)) == (experiments.N_RADIAL, experiments.N_ANGULAR)
    assert tuple(tuple(int(n) for n in m.split(" x ")) for m in meshes.split(", ")) == (
        FEM_ORDER_MESHES)
    assert (float(order_low), float(order_high)) == FEM_ORDER_BOUNDS
    listed = [(float(b), float(e)) for b, e in re.findall(r"\((\S+) pi, (\S+)\)", unclean)]
    assert listed == list(FEM_ORDER_UNCLEAN)
    points = [(float(b), float(e)) for b in re.split(r", | and ", betas)
              for e in re.split(r", | and ", eps_grid)]
    assert sorted(points) == sorted(FEM_ORDER_CLEAN + tuple(FEM_ORDER_UNCLEAN))
    gaps = []
    for beta_over_pi, eps in points:
        beta = beta_over_pi * np.pi
        semi = experiments._semi_annulus_error(beta, eps, analytic.limit_solution(beta))
        gaps.append(abs(experiments._fem_annulus_error(beta, eps) - semi) / semi)
    assert (f"{min(gaps):.1e}", f"{max(gaps):.1e}") == (
        f"{float(low):.1e}", f"{float(high):.1e}")


# -- input limits ------------------------------------------------------------


LIMITS = section("### Input limits")


def test_eps_min_limit_is_its_owner(capsys):
    limit = stated(r"`rate-study --eps-min` is at least (\S+) \(`cli\.EPS_MIN`\)", LIMITS)
    assert float(limit) == cli.EPS_MIN
    code, _, err = run(capsys, "rate-study", "--study", "coeff", "--eps-min",
                       repr(cli.EPS_MIN * 0.9))
    assert code == 2 and f"at least {limit}" in err


def test_fem_eps_floor_is_its_owner(capsys):
    limit, n_radial, refused = stated(
        r"`rate-study --eps-min` of a FEM study, [^\n]* is at least (\S+) "
        r"\(`experiments\.fem_eps_floor\((\d+)\)`\)[^\n]*: `(--[^`]+)` is refused\.", LIMITS)
    assert int(n_radial) == experiments.N_RADIAL
    assert limit == f"{experiments.fem_eps_floor(int(n_radial)):.11g}"
    for argv in (("--study", "domain", "--mode", "fem", "--eps-min", "1e-7"),
                 shlex.split(refused)):
        code, out, err = run(capsys, "rate-study", *argv)
        assert (code, out) == (2, "") and f"below {limit}," in err


def test_graph_margin_is_its_owner(capsys, tmp_path):
    low, high, margin = stated(
        r"lie in \((\S+), (\S+)\]: (\S+) is `geometry\.MARGIN`", LIMITS)
    assert float(low) == float(margin) == geometry.MARGIN
    prefix = str(tmp_path / "x")
    for height, code in ((low, 2), (high, 0)):
        assert run(capsys, "solve", "--domain", "graph", "--nx", "4", "--ny", "4",
                   "--graph-height", height, "--out-prefix", prefix)[0] == code
    code, _, err = run(capsys, "solve", "--domain", "graph", "--graph-height", "0.5",
                       "--graph-slope", "0.6", "--out-prefix", prefix)
    assert code == 2 and f"({low}, {high}]" in err


def test_mesh_size_limits(capsys, tmp_path):
    flags, n = stated(r"`solve (--n-radial`, [^\n]*) are at least (\d+)\.", LIMITS)
    flags, n = re.findall(r"--[a-z-]+", flags), int(n)
    assert flags == ["--n-radial", "--n-angular", "--nx", "--ny"]
    for flag in flags:
        domain = "graph" if flag in ("--nx", "--ny") else "sector"
        argv = ("solve", "--domain", domain, "--out-prefix", str(tmp_path / "x"), flag)
        code, _, err = run(capsys, *argv, str(n - 1))
        assert code == 2 and f"{flag} must be at least {n}" in err
        assert run(capsys, *argv, str(n))[0] == 0


def test_unrefined_mesh_refusals(capsys, tmp_path):
    bullet = stated(r"(`solve --refine` is nonnegative, [^\n]*)", LIMITS)
    assert "the unrefined one of `--refine 0` too" in bullet
    refusals = re.findall(r"`solve (--[^`]+)` and `solve (--[^`]+)` \(`([^`]+)`\)", bullet)
    assert len(refusals) == 2
    for *flags, invariant in refusals:
        for argv in flags:
            code, out, err = run(capsys, "solve", *shlex.split(argv),
                                 "--out-prefix", str(tmp_path / "x"))
            assert (code, out) == (2, "")
            assert err.endswith(f"error: the mesh after --refine 0 is invalid: {invariant}\n")
    assert not any(tmp_path.iterdir())


def test_annulus_eps_floor_is_its_owner(capsys, tmp_path):
    limit, refused = stated(r"`solve --domain annulus` in \[(\S+), 1\) "
                            r"\(`meshing\.R_INNER_MIN`, the smallest positive inner radius "
                            r"that `mesh_sector` meshes\)[^\n]*`solve (--[^`]+)` is refused\.",
                            LIMITS)
    assert float(limit) == meshing.R_INNER_MIN
    prefix, argv = str(tmp_path / "x"), shlex.split(refused)
    code, out, err = run(capsys, "solve", *argv, "--out-prefix", prefix)
    assert (code, out) == (2, "") and f"[{limit}, 1)" in err
    # the library refuses that hole too
    eps = float(argv[argv.index("--eps") + 1])
    with pytest.raises(ValueError, match=f"below {limit}"):
        meshing.mesh_sector(geometry.SectorDomain(4.0, r_inner=eps), 2, 2)
    # the floor itself runs on the coarsest mesh at the widest angle
    assert run(capsys, "solve", "--domain", "annulus", "--eps", limit, "--n-angular", "2",
               "--beta", repr(float(np.nextafter(2 * np.pi, 0.0))), "--out-prefix", prefix)[0] == 0


def test_echoed_value_limit(capsys, tmp_path):
    argv, echoed = stated(r"so that every echoed command reruns\.  `(--[^`]+)` would echo "
                          r"`(--[^`]+)` and is refused\.", LIMITS)
    flags, (name, value) = shlex.split(argv), shlex.split(echoed)
    raw = float(flags[flags.index(name) + 1])
    assert raw < 1.0 and float(cli._fmt(raw)) == float(value) == 1.0
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "rate-study", *flags, "--out", str(out))
    assert code == 2 and "(12 digits): need 0 < --eps-min < --eps-max < 1" in err
    # the echoed command is refused too, and without the rounding it runs
    flags[flags.index(name) + 1] = value
    assert run(capsys, "rate-study", *flags, "--out", str(out))[0] == 2
    flags[flags.index(name) + 1] = "0.999"
    assert run(capsys, "rate-study", *flags, "--out", str(out))[0] == 0


def test_first_invalid_level_is_named(capsys, tmp_path):
    argv, message = stated(r"names the first invalid level: `solve (--[^`]+)` is refused "
                           r"with `([^`]+)`", LIMITS)
    assert "--refine 1" in argv
    code, out, err = run(capsys, "solve", *shlex.split(argv),
                         "--out-prefix", str(tmp_path / "x"))
    assert (code, out) == (2, "") and err.endswith(f"error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_negative_exponent_slope(capsys, tmp_path):
    refused, reason, runs = stated(r"argparse reads `solve (--[^`]+)` as a missing value "
                                   r"\(`([^`]+)`\), and `(--[^`]+)` runs\.", LIMITS)
    prefix = str(tmp_path / "x")
    code, _, err = run(capsys, "solve", *shlex.split(refused), "--out-prefix", prefix)
    assert code == 2 and f"argument --graph-slope: {reason}" in err
    assert run(capsys, "solve", "--domain", "graph", runs, "--out-prefix", prefix)[0] == 0


def test_grading_limit(capsys, tmp_path):
    limit = float(stated(r"`solve --grading` is at least (\S+)\.", LIMITS))
    prefix = str(tmp_path / "x")
    assert run(capsys, "solve", "--domain", "sector", "--grading", repr(limit - 1e-9),
               "--out-prefix", prefix)[0] == 2
    assert run(capsys, "solve", "--domain", "sector", "--grading", repr(limit),
               "--out-prefix", prefix)[0] == 0


def test_repeated_eps_grid_limit(capsys):
    flags = shlex.split(stated(r"are distinct: `(--[^`]+)` is refused\.", LIMITS))
    code, _, err = run(capsys, "rate-study", *flags)
    assert code == 2 and "the 7-point eps grid repeats a value" in err
    # the ends are one ulp apart
    eps = {f: float(flags[flags.index(f) + 1]) for f in ("--eps-min", "--eps-max")}
    assert eps["--eps-max"] == np.nextafter(eps["--eps-min"], 1.0)


def test_points_limit(capsys):
    n = int(stated(r"`rate-study --points` is at least (\d+),", LIMITS))
    assert run(capsys, "rate-study", "--study", "coeff", "--points", str(n - 1))[0] == 2
    assert run(capsys, "rate-study", "--study", "coeff", "--points", str(n))[0] == 0


def test_shift_map_eps_limit(capsys):
    limit = float(stated(r"`rate-study --study domain\|wwww --eps-max` is below (\S+):",
                         LIMITS))
    for study in ("domain", "wwww"):
        code, _, err = run(capsys, "rate-study", "--study", study, "--eps-max", repr(limit))
        assert code == 2 and f"below {limit:g}" in err
    assert run(capsys, "rate-study", "--study", "wwww", "--points", "4",
               "--eps-max", repr(limit * 0.99))[0] == 0


def test_q_limit(capsys):
    limit = float(stated(r"`rate-study --q` is a finite number above (\d+)\.", LIMITS))
    for q in (repr(limit), "inf", "nan"):
        assert run(capsys, "rate-study", "--study", "coeff", "--q", q)[0] == 2
    assert run(capsys, "rate-study", "--study", "coeff", "--points", "4",
               "--q", repr(limit + 0.5))[0] == 0


def test_grading_convention():
    mu = float(stated(r"`mu = (\d+)` \(`experiments\.GRADING`"))
    solve = subparsers()["solve"]
    assert mu == experiments.GRADING == solve.get_default("grading")


# -- numbers -----------------------------------------------------------------


# every decimal or percentage in README's prose, and the test above that
# reads it from the text
CONTRACT_NUMBERS = {
    "1e-14": "test_eps_min_limit_is_its_owner",
    "1.1302806713e-06": "test_fem_eps_floor_is_its_owner",
    "0.1": "test_graph_margin_is_its_owner and test_echoed_value_limit (and eps=0.1 of the "
           "example outputs)",
    "0.5": "test_shift_map_eps_limit and test_condition_3_disc_radius",
    "0.6": "test_study_example_output",
    "0.9": "test_study_example_output",
    "1.000e+00": "test_study_example_output",
    "0.9999769744141629": "test_fem_eps_floor_is_its_owner and test_study_example_output",
    "14.2": "test_study_example_output",
    "1e-3": "test_repeated_eps_grid_limit and test_fem_gap_on_the_shipped_mesh",
    "0.0010000000000000002": "test_repeated_eps_grid_limit",
    "1e-4": "test_verify_pass_threshold and test_fem_gap_on_the_shipped_mesh",
    "10 %": "test_fem_agreement_threshold",
    "9.02782781742e-17": "test_verify_example_output",
    "1e-300": "test_study_example_output and test_unrefined_mesh_refusals",
    "1e6": "test_unrefined_mesh_refusals",
    "1e-280": "test_annulus_eps_floor_is_its_owner",
    "1e-281": "test_annulus_eps_floor_is_its_owner",
    "0.9999999999999994": "test_echoed_value_limit",
    "5e-324": "test_first_invalid_level_is_named",
    "1e-5": "test_negative_exponent_slope",
    "0.999999999": "test_unrefined_mesh_refusals",
    "0.9999999999999": "test_unrefined_mesh_refusals",
    "9.0e-5": "test_fem_gap_on_the_shipped_mesh",
    "1.0e-2": "test_fem_gap_on_the_shipped_mesh",
    "1.1": "test_fem_gap_on_the_shipped_mesh",
    "1.5": "test_fem_gap_on_the_shipped_mesh",
    "1.9": "test_fem_gap_on_the_shipped_mesh",
    "1e-2": "test_fem_gap_on_the_shipped_mesh",
    "1.2": "test_fem_gap_on_the_shipped_mesh",
    "2.5": "test_fem_gap_on_the_shipped_mesh",
}


def test_every_decimal_number_is_a_contract():
    numbers = set(re.findall(r"\d+\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+|\d+ %", PROSE))
    assert numbers == set(CONTRACT_NUMBERS)
