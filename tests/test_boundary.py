"""The input boundary: every string a user hands in (a class spec, a potential
spec, a ``--tol`` pair, a configuration line, an expression) ends in a result
or in a typed error with the exit code and the one ``label: message`` line of
``errors.exit_status``; never in a traceback."""

import contextlib
import io
import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcalc import (
    BG,
    ConvergenceError,
    DomainError,
    GroupCalcError,
    ParseError,
    Tolerances,
    abe,
    kaniadakis,
    series,
    tsallis,
)
from groupcalc.cli import main
from groupcalc.config import Spec, parse_items, parse_tolerance_overrides
from groupcalc.errors import REPORTED, exit_status
from groupcalc.exprlang import MAX_DEPTH, eval_source, parse, run_repl
from groupcalc.spectral import MAX_GRID_POINTS
from groupcalc.well import MAX_SAMPLES

ERROR_LINE = re.compile(
    r"(parse error at offset \d+|domain error|convergence failure|i/o error|error): .+\n"
)


def run_cli(argv, stdin=""):
    """(exit code, stdout, stderr) of ``main(argv)`` in this process; an
    argparse rejection counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- the exit-code table ----------------------------------------------------------


@pytest.mark.parametrize("exc, code, line", [
    (ParseError("expected ')'", 7), 2, "parse error at offset 7: expected ')'"),
    (DomainError("x outside"), 3, "domain error: x outside"),
    (ConvergenceError("stuck"), 4, "convergence failure: stuck"),
    (FileNotFoundError("nope.csv"), 5, "i/o error: nope.csv"),
    (ValueError("bad spec"), 3, "error: bad spec"),
    (OverflowError("math range error"), 3, "domain error: overflow: math range error"),
    (OverflowError(34, "Numerical result out of range"), 3, "domain error: overflow: math range error"),
])
def test_exit_status_table(exc, code, line):
    assert isinstance(exc, REPORTED)
    assert exit_status(exc) == (code, line)


# -- typed failures of the CLI ----------------------------------------------------


@pytest.mark.parametrize("argv, code, prefix", [
    (["solve", "--potential", "well:X=1", "--N", "101"], 3,
     "error: spec 'well:X=1' is missing parameter 'L'"),
    (["solve", "--potential", "harmonic", "--N", "101"], 3,
     "error: spec 'harmonic' is missing parameter 'omega'"),
    (["solve", "--potential", "well:L=1,X=1", "--N", "101"], 3,
     "error: spec 'well:L=1,X=1' has unknown parameters ['X']"),
    (["solve", "--potential", "well:L=-1", "--N", "101"], 3,
     "domain error: well:L must be finite and > 0"),
    (["check", "--class", "kaniadakis:k=1", "--tol", "quad_backend=foo"], 3,
     "error: quad_backend must be one of ('simpson', 'gauss16'), got 'foo'"),
    (["solve", "--potential", "well:L=1", "--N", "101", "--tol", "eigen_backend=foo"], 3,
     "error: eigen_backend must be one of ('sturm', 'ql'), got 'foo'"),
    (["check", "--tol", "quad_max_depth=2.5"], 3, "error: invalid literal for int()"),
    (["check", "--tol", "quad_max_depth=0"], 3, "domain error: quad_max_depth must be finite and > 0"),
    (["eval", "--class", "tsallis:q=0.5,x=1", "1"], 3, "error: spec 'tsallis:q=0.5,x=1' has unknown"),
    (["solve", "--potential", "well:L=1e-300", "--N", "101", "--k", "2", "--path", "g"], 3,
     "domain error: grid spacing 1e-302 is out of range"),
    (["solve", "--potential", "well:L=1e-300", "--N", "101", "--k", "2", "--path", "x"], 3,
     "domain error: grid spacing 1e-302 is out of range"),
    (["solve", "--potential", "well:L=1", "--N", "1000000000000"], 3,
     f"domain error: grid needs 3 to {MAX_GRID_POINTS} points"),
    (["well", "--L", "1", "--n", "1", "--samples", "100000000000"], 3,
     f"domain error: samples must be in [2, {MAX_SAMPLES}]"),
    (["well", "--L", "1", "--n", "1..100000000000"], 3,
     "domain error: quantum number must be in [1, 1000], got 1001"),
    (["well", "--L", "-1", "--n", "1"], 3, "domain error: L must be finite and > 0"),
    (["eval", "(" * 3000 + "1" + ")" * 3000], 2,
     f"parse error at offset {MAX_DEPTH}: expression deeper than {MAX_DEPTH} levels"),
    (["eval", "gint(" * 2000 + "1" + ")" * 2000], 2,
     f"parse error at offset {5 * MAX_DEPTH}: expression deeper than"),
    # A(x) = sqrt(1 + (kappa x)^2) and the suites' generators leave the float range.
    (["solve", "--class", "kaniadakis:k=2", "--potential", "harmonic:omega=1", "--path", "x",
      "--N", "3", "--k", "1", "--xmin", "-1.3e154", "--xmax", "1.3e154"], 3,
     "domain error: overflow: "),
    (["solve", "--class", "kaniadakis:k=2", "--potential", "well:L=1.3e154", "--path", "x",
      "--N", "3", "--k", "1"], 3, "domain error: overflow: "),
    (["check", "--class", "kaniadakis:k=1e160"], 3, "domain error: overflow: math range error"),
    (["check", "--class", "tsallis:q=-1e300"], 3, "domain error: overflow: math range error"),
    (["check", "--class", "abe:a=1e200,b=-1"], 3, "domain error: overflow: math range error"),
    (["check", "--class", "series:a1=1e300"], 3, "domain error: overflow: "),
])
def test_typed_failure(tmp_path, argv, code, prefix):
    out = tmp_path / "out"
    got, stdout, err = run_cli(argv + ["--out", str(out)])
    assert (got, stdout) == (code, "")
    assert err.startswith(prefix) and ERROR_LINE.fullmatch(err), err
    assert not out.exists()


# Python's ``**`` overflows with an errno tuple; it reads as libm's overflow.
@pytest.mark.parametrize("argv, line", [
    (["check", "--class", "series:a1=1e300"], "domain error: overflow: math range error\n"),
    (["solve", "--class", "kaniadakis:k=2", "--potential", "well:L=1.3e154", "--path", "x",
      "--N", "3", "--k", "1"], "domain error: overflow: math range error\n"),
    (["eval", "gpow(1e200, 2)"], "domain error: overflow: math range error (at offset 0)\n"),
])
def test_power_overflow_reads_as_a_range_error(tmp_path, argv, line):
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == (3, "", line)
    assert not out.exists()


@pytest.mark.parametrize("rows", ["x,V\n0,1\n", "x,V\n0\n1\n2\n3\n4\n"], ids=["one-row", "one-column"])
def test_short_potential_file_is_a_typed_error(tmp_path, rows):
    path = tmp_path / "pot.csv"
    path.write_text(rows)
    code, _, err = run_cli(["solve", "--potential", f"file:{path}", "--out", str(tmp_path / "out")])
    assert code == 3 and err.startswith("error: ") and ERROR_LINE.fullmatch(err), err


def test_repl_reports_a_failing_line_and_goes_on():
    stdin = "(" * 3000 + "1" + ")" * 3000 + "\nexpG(-0.9999999999999999)\n1 (+) 2\nclass bg:q=1\n2\n"
    code, out, err = run_cli(["repl", "--class", "abe:a=1,b=0"], stdin)
    assert code == 0
    assert out.splitlines() == ["5", "2"]  # abe(1, 0) is tsallis q=0: 1 + 2 + 1*2
    lines = err.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(f"parse error at offset {MAX_DEPTH}: ")
    assert lines[1] == "convergence failure: Newton polish did not converge for s=-0.9999999999999999"
    assert lines[2] == "error: spec 'bg:q=1' has unknown parameters ['q']"


# -- the depth limit ----------------------------------------------------------------


@pytest.mark.parametrize("make, offset", [
    (lambda n: "(" * n + "1" + ")" * n, lambda n: n - 1),
    (lambda n: "gint(" * n + "1" + ")" * n, lambda n: 5 * (n - 1)),
    (lambda n: "-" * n + "x", lambda n: n - 1),
    (lambda n: " + ".join(["1"] * (n + 1)), lambda n: 4 * n - 2),
])
def test_depth_limit(make, offset):
    ok = make(MAX_DEPTH)
    parse(ok)
    with pytest.raises(ParseError) as err:
        parse(make(MAX_DEPTH + 1))
    assert err.value.offset == offset(MAX_DEPTH + 1)


def test_depth_limit_adds_up_the_levels_of_nested_chains():
    inner = "(" + " (*) ".join(["1"] * 61) + ")"  # 60 levels inside the parentheses
    parse(inner + " (+) 1" * 40)
    with pytest.raises(ParseError):
        parse(inner + " (+) 1" * 41)


# -- the one item parser and the one validity check ------------------------------------


def test_parse_items():
    assert parse_items([" a = 1", "b=x=y", "a=2"], "thing") == {"a": "2", "b": "x=y"}
    with pytest.raises(ValueError, match="^bad thing: expected key=value, got 'a'$"):
        parse_items(["a"], "thing")


def test_spec_takes_finite_numbers_and_rejects_leftovers():
    spec = Spec("well:L=2,X=1")
    assert spec.number("L") == 2.0
    with pytest.raises(ValueError, match="unknown parameters \\['X'\\]"):
        spec.finish(None)
    spec = Spec("well:L=2")
    assert spec.finish(spec.number("L")) == 2.0
    with pytest.raises(DomainError, match="^harmonic:omega must be finite, got inf$"):
        Spec("harmonic:omega=inf").number("omega")


def test_tolerance_overrides_convert_by_field_type():
    tol = parse_tolerance_overrides(["quad_max_depth=12", "quad_abs=1e-9", "eigen_backend=ql"])
    assert (tol.quad_max_depth, tol.quad_abs, tol.eigen_backend) == (12, 1e-9, "ql")
    assert type(tol.quad_max_depth) is int
    with pytest.raises(ValueError, match="unknown tolerance override 'nope'"):
        parse_tolerance_overrides(["nope=1"])


@pytest.mark.parametrize("bad", [
    {"quad_backend": "bogus"}, {"eigen_backend": "lapack"}, {"quad_abs": -1.0},
    {"eigen_residual": math.nan}, {"inverse_max_iter": 0},
])
def test_tolerances_reject_invalid_records(bad):
    with pytest.raises(ValueError):
        Tolerances(**bad)


# -- fuzz --------------------------------------------------------------------------

_FINITE = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
_NUMBER = st.one_of(
    _FINITE,
    st.sampled_from(["0", "1", "-1", "0.5", "2", "3", "nan", "inf", "-inf", "1e308", "1e-320", "x", ""]),
)
_CLASSES = [BG, tsallis(0.5), tsallis(2.0), kaniadakis(1.0), abe(1.0, -1.0), abe(1.0, 0.0),
            series([0.3]), series([-1.0])]


def _spec(names, keys):
    item = st.one_of(st.tuples(st.sampled_from(keys), _NUMBER).map("=".join),
                     st.text("abqk=,.:1", max_size=6))
    return st.tuples(st.sampled_from(names), st.lists(item, max_size=3)).map(
        lambda t: t[0] + (":" + ",".join(t[1]) if t[1] else "")
    )


# the valid forms are drawn about as often as the fuzzed ones
_VALID_CLASS = st.sampled_from(["bg", "tsallis:q=0.5", "tsallis:q=2", "kaniadakis:k=1",
                                "abe:a=1,b=-1", "abe:a=1,b=0", "series:a1=0.3"])
CLASS_SPECS = st.one_of(
    _VALID_CLASS,
    _VALID_CLASS,
    _spec(["bg", "tsallis", "kaniadakis", "abe", "series", "nope"],
          ["q", "k", "kappa", "a", "b", "a1", "a2", "order", "z"]),
)
POTENTIAL_SPECS = st.one_of(
    st.sampled_from(["well:L=1", "harmonic:omega=1", "file:no-such-potential.csv"]),
    _spec(["well", "harmonic", "gauss"], ["L", "omega", "X"]),
)
TOL_PAIRS = st.one_of(st.just([]), st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["quad_abs", "quad_max_depth", "eigen_residual", "eigen_backend",
                                   "quad_backend", "inverse_max_iter", "nope"]),
                  st.one_of(_NUMBER, st.sampled_from(["sturm", "ql", "simpson", "gauss16", "foo"])))
        .map("=".join),
        st.text("ab=1.", max_size=5),
    ),
    max_size=2,
))


def _expressions():
    leaf = st.one_of(_FINITE, st.sampled_from(["0", "1", "2", "0.5", "1e308", "1e-320", "x", ".5"]))

    def extend(inner):
        ops = st.sampled_from(["+", "-", "*", "/", "(+)", "(-)", "(*)", "(/)", "⊕", "⊗"])
        funcs = st.sampled_from(["expG", "logG", "cosG", "sinG", "deform", "dualdeform", "gint",
                                 "gpow", "nope"])
        return st.one_of(
            st.tuples(inner, ops, inner).map(" ".join),
            st.tuples(funcs, st.lists(inner, min_size=1, max_size=2)).map(
                lambda t: f"{t[0]}({', '.join(t[1])})"
            ),
            inner.map(lambda e: f"({e})"),
            inner.map(lambda e: f"-{e}"),
        )

    # around the depth limit: half of these parse
    deep = st.tuples(st.sampled_from(["(", "gint(", "-", "expG("]), st.integers(90, 110)).map(
        lambda t: t[0] * t[1] + "1" + ")" * (t[1] * (t[0] != "-"))
    )
    chain = st.integers(90, 110).map(lambda n: " (+) ".join(["0.5"] * n))
    junk = st.text("0123456789.eE+-*/(),⊕ gintpowexpGlox", max_size=30)
    tree = st.recursive(leaf, extend, max_leaves=10)
    return st.one_of(tree, tree, tree, deep, chain, junk)


EXPRESSIONS = _expressions()


@given(source=EXPRESSIONS, cls=st.sampled_from(_CLASSES))
@settings(max_examples=150, deadline=None)
def test_fuzz_eval_source(source, cls):
    try:
        value = eval_source(source, cls)
    except GroupCalcError:
        return
    assert isinstance(value, float)


@given(lines=st.lists(st.one_of(EXPRESSIONS, CLASS_SPECS.map("class {}".format)), max_size=4),
       cls=st.sampled_from(_CLASSES))
@settings(max_examples=40, deadline=None)
def test_fuzz_repl_lines(lines, cls):
    lines = [line for line in lines if "\n" not in line]
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    out, err = io.StringIO(), io.StringIO()
    assert run_repl(stdin, out, err, cls) == 0
    read = [line.strip() for line in lines]
    read = [line for line in read if line and not line.startswith("#")]
    if "quit" in read or "exit" in read:
        return
    assert len(out.getvalue().splitlines()) + len(err.getvalue().splitlines()) == len(read)
    assert all(ERROR_LINE.fullmatch(line + "\n") for line in err.getvalue().splitlines())


_SIZES = st.sampled_from(["3", "51", "201", "2", "0", "-5", str(MAX_GRID_POINTS + 1), "1000000000000"])


def _command(tmp):
    shared = st.tuples(CLASS_SPECS, TOL_PAIRS).map(
        lambda t: ["--class", t[0], "--out", tmp] + [a for pair in t[1] for a in ("--tol", pair)]
    )
    solve = st.tuples(
        POTENTIAL_SPECS, _SIZES, st.sampled_from(["1", "2", "5", "0", "300", "1000000000"]),
        st.sampled_from(["g", "x"]), st.booleans(),
        st.lists(st.tuples(st.sampled_from(["--xmin", "--xmax", "--hbar", "--m0"]), _NUMBER),
                 max_size=2),
    ).map(lambda t: ["solve", "--potential", t[0], "--N", t[1], "--k", t[2], "--path", t[3]]
          + (["--cross-check"] if t[4] else []) + [f"{flag}={v}" for flag, v in t[5]])
    well = st.tuples(
        _NUMBER, st.sampled_from(["1", "2", "1..3", "0", "3..1", "1..100000000000", "5000", "x"]),
        st.sampled_from(["2", "51", "1", str(MAX_SAMPLES + 1), "100000000000"]),
        st.sampled_from(["x", "g"]),
    ).map(lambda t: ["well", f"--L={t[0]}", "--n", t[1], "--samples", t[2], "--sampling", t[3]])
    evaluate = EXPRESSIONS.map(lambda e: ["eval", "--", e])
    return st.tuples(st.one_of(solve, well, evaluate), shared).map(lambda t: t[0][:1] + t[1] + t[0][1:])


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fuzz_cli(scratch_dir, data):
    argv = data.draw(_command(scratch_dir))
    code, _, err = run_cli(argv)
    assert code in range(6), (argv, err)
    assert "Traceback" not in err
    if code >= 2 and not err.startswith("usage:"):
        assert ERROR_LINE.fullmatch(err), (argv, err)
