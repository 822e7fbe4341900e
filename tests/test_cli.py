"""Command-line behavior: exit codes, file outputs, configuration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupcalc
from groupcalc import spectral
from groupcalc.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ---------------------------------------------------------------------


def test_eval_q_sum(capsys):
    code, out, _ = run(["eval", "--class", "tsallis:q=0.5", "1 (+) 2"], capsys)
    assert code == 0
    assert out.strip() == "4"


def test_eval_bg_power(capsys):
    code, out, _ = run(["eval", "--class", "bg", "gpow(3,2)"], capsys)
    assert code == 0
    assert out.strip() == "9"


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(["eval", "--class", "bg", "gpow(4, 2"], capsys)
    assert code == 2
    assert "parse error" in err


def test_eval_domain_error_exit_3(capsys):
    code, _, err = run(["eval", "--class", "tsallis:q=3", "expG(5)"], capsys)
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize("spec", ["tsallis:q=0.5", "abe:a=1,b=-1"])
def test_eval_overflow_exit_3(capsys, spec):
    code, out, err = run(["eval", "--class", spec, "1e300(+)1e300"], capsys)
    assert code == 3
    assert out == ""
    assert err == "domain error: overflow: math range error (at offset 5)\n"


def test_eval_abe_inverse_past_overflow(capsys):
    # G^-1 of ~8.4e263 brackets its root t ~ 1078 through G values that overflow
    expr = ("((1.1589607886633744 (*) 7.20997346260985e+263) "
            "(+) (3.527030128093605 (*) 3.462354744154925))")
    code, out, _ = run(["eval", "--class", "abe:a=0.5636478849147178,b=-0.5620775811883815",
                        expr], capsys)
    assert code == 0
    assert float(out) > 8.3e263


# -- well ---------------------------------------------------------------------


def test_well_outputs(tmp_path, capsys):
    code, out, _ = run(
        ["well", "--class", "bg", "--L", "1", "--n", "1..3", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    energies = (tmp_path / "energies.csv").read_text().splitlines()
    assert energies[1] == "n,energy"
    got = [float(line.split(",")[1]) for line in energies[2:]]
    assert got == pytest.approx([4.9348022 * n * n for n in (1, 2, 3)], rel=1e-6)
    for n in (1, 2, 3):
        assert (tmp_path / f"well_prob_n{n}.csv").exists()


def test_well_zeros_row(tmp_path, capsys):
    code, _, _ = run(
        ["well", "--class", "tsallis:q=0", "--L", "1", "--n", "2", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    rows = [l for l in (tmp_path / "zeros.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "2,0,0.414213562373,1"
    spacings = [l for l in (tmp_path / "spacings.csv").read_text().splitlines() if not l.startswith("#")]
    assert spacings[0].startswith("2,0.414213562373,")


def test_well_domain_error(tmp_path, capsys):
    code, _, err = run(
        ["well", "--class", "tsallis:q=2", "--L", "1", "--n", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 3
    assert "domain" in err


@pytest.mark.parametrize("n_range", ["1..0", "3..1"])
def test_well_empty_range_exit_3(tmp_path, capsys, n_range):
    code, out, err = run(
        ["well", "--L", "1", "--n", n_range, "--out", str(tmp_path)], capsys
    )
    assert code == 3
    assert f"domain error: quantum-number range '{n_range}' is empty" in err
    assert out == "" and not list(tmp_path.iterdir())


def test_well_deterministic_output(tmp_path, capsys):
    args = ["well", "--class", "kaniadakis:k=1", "--L", "1", "--n", "1,2"]
    run(args + ["--out", str(tmp_path / "a")], capsys)
    run(args + ["--out", str(tmp_path / "b")], capsys)
    for name in ("energies.csv", "zeros.csv", "spacings.csv", "well_prob_n1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# -- solve ---------------------------------------------------------------------


def test_solve_bg_well(tmp_path, capsys):
    code, out, _ = run(
        ["solve", "--class", "bg", "--potential", "well:L=1", "--N", "801",
         "--k", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    line = (tmp_path / "spectrum_energies.csv").read_text().splitlines()[1]
    assert float(line.split(",")[1]) == pytest.approx(4.9348022005, rel=1e-3)


def test_solve_cross_check(tmp_path, capsys):
    code, out, _ = run(
        ["solve", "--class", "tsallis:q=0", "--potential", "well:L=1", "--N", "501",
         "--k", "3", "--cross-check", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    disc = float(out.splitlines()[0].split()[1])
    assert disc <= 5e-3
    assert (tmp_path / "spectrum_g_energies.csv").exists()
    assert (tmp_path / "spectrum_x_energies.csv").exists()


def test_solve_missing_file_exit_5(tmp_path, capsys):
    code, _, err = run(
        ["solve", "--class", "bg", "--potential", "file:nope.csv", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 5


def test_solve_file_potential(tmp_path, capsys):
    xs = np.linspace(-2.0, 2.0, 101)
    lines = ["x,V"] + [f"{x},{0.5 * x * x}" for x in xs]
    path = tmp_path / "pot.csv"
    path.write_text("\n".join(lines))
    code, out, _ = run(
        ["solve", "--class", "bg", "--potential", f"file:{path}", "--N", "401",
         "--k", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0  # truncated oscillator in a narrow box: just check it runs
    assert (tmp_path / "spectrum_energies.csv").exists()


def test_solve_harmonic_structured_text(tmp_path, capsys):
    code, out, _ = run(
        ["solve", "--class", "bg", "--potential", "harmonic:omega=1", "--N", "1201",
         "--k", "2", "--out", str(tmp_path), "--format", "structured-text"],
        capsys,
    )
    assert code == 0
    assert "[energies]" in out
    line = (tmp_path / "spectrum_energies.csv").read_text().splitlines()[1]
    assert float(line.split(",")[1]) == pytest.approx(0.5, abs=1e-3)


def test_solve_xspace_path(tmp_path, capsys):
    code, _, _ = run(
        ["solve", "--class", "kaniadakis:k=1", "--potential", "well:L=1", "--N", "501",
         "--k", "2", "--path", "x", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    meta = (tmp_path / "spectrum_meta.txt").read_text()
    assert "space: x" in meta


# -- check ---------------------------------------------------------------------


def test_check_bg(capsys):
    code, out, _ = run(["check", "--class", "bg"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_check_tsallis_reports_residuals(capsys):
    code, out, _ = run(["check", "--class", "tsallis:q=0.5"], capsys)
    assert code == 0
    line = next(l for l in out.splitlines() if "oracle-equivalence" in l)
    assert line.startswith("PASS")
    assert float(line.split("residual=")[1].split()[0]) <= 1e-11


def test_check_series_restricted(capsys):
    code, out, _ = run(["check", "--class", "series:a1=0.5"], capsys)
    assert code == 0
    assert "restricted" in out


# -- configuration ---------------------------------------------------------------


def test_config_file_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg"
    cfg.write_text("class=tsallis:q=0.5\nhbar=2.0\ntol.quad_abs=1e-9\n")
    monkeypatch.setenv("GROUPCALC_CONFIG", str(cfg))
    code, out, _ = run(["eval", "1 (+) 2"], capsys)  # class from config
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(["eval", "--class", "bg", "1 (+) 2"], capsys)  # flag wins
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(["check", "--class", "bg"], capsys)  # tol.* key accepted
    assert code == 0


def test_tolerance_override(capsys):
    code, out, _ = run(
        ["check", "--class", "bg", "--tol", "quad_abs=1e-8"], capsys
    )
    assert code == 0


def test_bad_tolerance_override(capsys):
    code, _, err = run(["check", "--class", "bg", "--tol", "nope=1"], capsys)
    assert code == 3


@pytest.mark.parametrize("override", ["eigen_residual=nan", "quad_abs=inf"])
def test_non_finite_tolerance_rejected(tmp_path, capsys, override):
    argv = ["solve", "--potential", "well:L=1", "--N", "101", "--k", "1",
            "--out", str(tmp_path), "--tol", override]
    code, _, err = run(argv, capsys)
    assert code == 3
    assert "finite" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec", ["tsallis:q=nan", "kaniadakis:k=inf"])
def test_non_finite_class_parameter_rejected(capsys, spec):
    code, _, err = run(["eval", "--class", spec, "1 (+) 2"], capsys)
    assert code == 3
    assert "must be finite" in err


@pytest.mark.parametrize("argv, name", [
    (["--m0", "inf"], "m0"),
    (["--hbar", "inf"], "hbar"),
    (["--hbar", "nan"], "hbar"),
    (["--potential", "well:L=inf"], "well:L"),
    (["--potential", "harmonic:omega=nan"], "harmonic:omega"),
])
def test_non_finite_solve_input_rejected(tmp_path, capsys, argv, name):
    base = {"--potential": "well:L=1", "--N": "101", "--k": "2", "--out": str(tmp_path)}
    base.update(zip(argv[::2], argv[1::2]))
    code, _, err = run(["solve"] + [item for pair in base.items() for item in pair], capsys)
    assert code == 3
    assert err.startswith(f"domain error: {name} must be finite")
    assert not list(tmp_path.iterdir())


def test_non_finite_config_value_rejected(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg"
    cfg.write_text("m0=inf\n")
    monkeypatch.setenv("GROUPCALC_CONFIG", str(cfg))
    out = tmp_path / "out"
    argv = ["solve", "--potential", "well:L=1", "--N", "101", "--k", "2", "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err.startswith("domain error: m0 must be finite")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("command", [
    ["solve", "--potential", "well:L=1", "--N", "101", "--k", "2"],
    ["well", "--L", "1", "--n", "2"],
], ids=["solve", "well"])
@pytest.mark.parametrize("name, value", [("m0", "0"), ("m0", "-1"), ("hbar", "0")])
def test_non_positive_hbar_m0_rejected(tmp_path, capsys, monkeypatch, source, command, name, value):
    out = tmp_path / "out"
    argv = command + ["--out", str(out)]
    if source == "flags":
        argv += [f"--{name}", value]
    else:
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{name}={value}\n")
        monkeypatch.setenv("GROUPCALC_CONFIG", str(cfg))
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err.startswith(f"domain error: {name} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["solve", "--potential", "well:L=1", "--N", "101", "--k", "2", "--path", "g"],
    ["solve", "--potential", "well:L=1", "--N", "101", "--k", "2", "--path", "x"],
    ["solve", "--potential", "well:L=1", "--N", "101", "--k", "2", "--cross-check"],
    ["solve", "--potential", "harmonic:omega=1", "--N", "101", "--k", "2"],
    ["well", "--L", "1", "--n", "2"],
], ids=["g", "x", "cross-check", "harmonic", "well"])
@pytest.mark.parametrize("scale", [["--hbar", "1e-200"], ["--m0", "1e-320"]],
                         ids=["hbar-underflow", "m0-overflow"])
def test_kinetic_coefficient_out_of_range_rejected(tmp_path, capsys, command, scale):
    # hbar and m0 pass on their own, but hbar^2/(2 m0) is 0 or inf
    out = tmp_path / "out"
    code, _, err = run(command + scale + ["--out", str(out)], capsys)
    assert code == 3
    assert err.startswith("domain error: hbar^2/(2 m0) must be finite and > 0")
    assert not out.exists()


@pytest.mark.parametrize("route", [["--path", "g"], ["--path", "x"], ["--cross-check"]],
                         ids=["g", "x", "cross-check"])
@pytest.mark.parametrize("box", [
    ["--class", "tsallis:q=1.5", "--potential", "well:L=3"],
    ["--class", "tsallis:q=0.5", "--potential", "harmonic:omega=1", "--xmin", "-3"],
    ["--class", "tsallis:q=0.5", "--potential", "harmonic:omega=1", "--xmin", "nan"],
    ["--class", "tsallis:q=0.5", "--potential", "harmonic:omega=1", "--xmax", "inf"],
    ["--class", "bg", "--potential", "harmonic:omega=1", "--xmin=-inf"],
    ["--class", "bg", "--potential", "harmonic:omega=1", "--xmin", "-inf"],
    ["--class", "tsallis:q=0.5", "--potential", "harmonic:omega=1", "--xmin", "-3e0"],
], ids=["well-L", "xmin", "xmin-nan", "xmax-inf", "bg-xmin-inf", "bg-xmin-inf-space",
        "xmin-exponent-space"])
def test_box_edge_outside_domain(tmp_path, capsys, route, box):
    out = tmp_path / "out"
    argv = ["solve", "--N", "101", "--k", "2", "--out", str(out)] + box + route
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err.startswith("domain error: ")
    assert not out.exists()


def test_box_edge_with_exponent_as_next_argument(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["solve", "--potential", "harmonic:omega=1", "--xmin", "-1e1", "--xmax", "1e1",
            "--N", "101", "--k", "2", "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    rows = (out / "spectrum_state_1.csv").read_text().splitlines()
    assert rows[1].startswith("-10,") and rows[-1].startswith("10,")


def test_out_of_memory_exit_6(tmp_path, capsys, monkeypatch):
    """An eigensolve that cannot allocate its arrays ends in the typed exit,
    not a traceback.  The stand-in raises as numpy does for a dense N x N."""
    text = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) and data type float64"

    def no_memory(d, e, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr(spectral, "eigh_tridiagonal", no_memory)
    out = tmp_path / "out"
    argv = ["solve", "--potential", "well:L=1", "--N", "51", "--k", "2",
            "--tol", "eigen_backend=ql", "--out", str(out)]
    code, stdout, err = run(argv, capsys)
    assert (code, stdout, err) == (6, "", f"out of memory: {text}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--class", "abe:a=1,b=-1", "expG(1) (+) 2"],
    ["eval", "1 (+"],
    ["eval", "--class", "tsallis:q=0.5", "logG(-1)"],
], ids=["value", "parse-error", "domain-error"])
def test_python_m_groupcalc_runs_the_cli(capsys, argv):
    code, out, err = run(argv, capsys)
    src = Path(groupcalc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "groupcalc", *argv],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
