"""Cold start: numpy, scipy and numpy.polynomial stay off the import path.

``import groupcalc``, building a class, ``eval`` and ``repl`` load neither
numpy nor scipy: numpy loads at the first array call.  ``check`` and
``well`` load numpy and no scipy; ``solve`` imports ``scipy.linalg`` at its
first eigensolve, through the module attribute ``spectral.eigh_tridiagonal``
that callers (and tracers) may replace, and no other scipy package: splines
are built in the repo.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupcalc
from groupcalc import calculus, spectral
from groupcalc.groups import BG

SRC = Path(groupcalc.__file__).resolve().parents[1]

# Runs commands one after another in a fresh interpreter; after each one
# prints its exit code and the scipy and numpy.polynomial modules loaded by
# then.  An empty argv only imports the package.
_CHILD = """
import contextlib, io, json, sys
import groupcalc
for argv in json.loads(sys.argv[1]):
    code = None
    if argv:
        from groupcalc import cli
        sys.stdin = io.StringIO("1 (+) 2\\nsinG(0.5)\\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    heavy = sorted(m for m in sys.modules if m.startswith(("scipy", "numpy.polynomial")))
    print(json.dumps([argv[:1], code, heavy]))
"""


def _fresh_run(*argvs):
    """[command, exit code, heavy modules loaded] after each argv."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_numpy_only_commands_load_no_scipy(tmp_path):
    steps = _fresh_run(
        [],
        ["eval", "--class", "abe:a=1,b=-1", "expG(1) (+) 2"],
        ["check", "--class", "tsallis:q=0.5"],
        ["well", "--class", "kaniadakis:k=0.5", "--L", "1", "--n", "1,2", "--out", str(tmp_path)],
        ["repl", "--class", "tsallis:q=0.5"],
    )
    assert steps == [
        [[], None, []],
        [["eval"], 0, []],
        [["check"], 0, []],
        [["well"], 0, []],
        [["repl"], 0, []],
    ]


def test_solve_imports_the_eigensolver_at_its_first_solve(tmp_path):
    argv = ["solve", "--potential", "well:L=1", "--N", "51", "--k", "2", "--out", str(tmp_path)]
    [(_, code, heavy)] = _fresh_run(argv)
    assert code == 0
    assert "scipy.linalg" in heavy
    assert (tmp_path / "spectrum_energies.csv").is_file()


# Runs Python statements one after another in a fresh interpreter; after
# each one prints the modules loaded by then whose names start with one of
# the given prefixes.
_STEPS = """
import contextlib, io, json, sys
prefixes = tuple(json.loads(sys.argv[2]))
for source in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(source)
    print(json.dumps(sorted(m for m in sys.modules if m.startswith(prefixes))))
"""


def _loaded(steps, prefixes=("scipy",)):
    """The modules named ``prefix...`` loaded after each step, in order."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _STEPS, json.dumps(steps), json.dumps(prefixes)],
                          capture_output=True, text=True, env=env, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_spectra_load_only_scipy_linalg(tmp_path):
    """A g-path solve, a ``file:`` potential and ``transform_state`` never
    load scipy's interpolation package."""
    csv = tmp_path / "pot.csv"
    csv.write_text("x,V\n" + "".join(f"{x!r},{x * x!r}\n" for x in np.linspace(-2, 2, 41).tolist()))
    solve_g = ["solve", "--class", "tsallis:q=0.5", "--potential", "well:L=1", "--path", "g",
               "--N", "51", "--k", "2", "--out", str(tmp_path / "g")]
    solve_file = ["solve", "--class", "kaniadakis:k=1", "--potential", f"file:{csv}",
                  "--N", "51", "--k", "2", "--out", str(tmp_path / "file")]
    steps = [
        f"from groupcalc import cli\nassert cli.main({solve_g!r}) == 0",
        f"assert cli.main({solve_file!r}) == 0",
        "from groupcalc import spectral, tsallis\n"
        "phi = spectral.solve_well(tsallis(0.5), 1.0, 51, 2, path='g').states[0]\n"
        "assert spectral.transform_state(tsallis(0.5), phi).grid.space == 'x'",
    ]
    loaded = _loaded(steps)
    assert len(loaded) == 3
    for modules in loaded:
        assert "scipy.linalg" in modules
        assert not [m for m in modules if m.startswith("scipy.interpolate")]


def test_solve_eigen_calls_the_module_attribute(monkeypatch):
    """A stand-in set on ``spectral.eigh_tridiagonal`` is what solve_eigen
    calls, for either backend, so a tracer can wrap it by that name."""
    calls = []
    original = spectral.eigh_tridiagonal

    def recording(d, e, **kwargs):
        calls.append(kwargs["lapack_driver"])
        return original(d, e, **kwargs)

    monkeypatch.setattr(spectral, "eigh_tridiagonal", recording)
    spectral.solve_well(BG, 1.0, 41, 2)
    spectral.solve_well(BG, 1.0, 41, 2, tol=groupcalc.Tolerances(eigen_backend="ql"))
    assert calls == ["stebz", "stev"]


def test_gauss_rule_is_leggauss_bit_for_bit():
    nodes, weights = calculus._gauss_legendre_16()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(16)
    assert list(map(float.hex, nodes.tolist())) == list(map(float.hex, want_nodes.tolist()))
    assert list(map(float.hex, weights.tolist())) == list(map(float.hex, want_weights.tolist()))


_SPECS = ["bg", "tsallis:q=0.5", "kaniadakis:k=0.5", "abe:a=1,b=-1", "series:a1=0.5,a2=0.1"]


def test_scalar_path_loads_no_numpy():
    """Importing the package, building every kind of class, ``eval`` and
    ``repl`` leave numpy and scipy unloaded."""
    steps = [
        "import groupcalc",
        f"classes = [groupcalc.parse_class_spec(spec) for spec in {_SPECS!r}]",
        "groupcalc.g_sum(classes[3], groupcalc.exp_g(classes[4], 0.5), groupcalc.log_g(classes[1], 2.0))",
        "from groupcalc import cli\n"
        "assert cli.main(['eval', '--class', 'abe:a=1,b=-1', 'expG(1) (+) 2']) == 0",
        "sys.stdin = io.StringIO('1 (+) 2\\nsinG(0.5)\\n')\n"
        "assert cli.main(['repl', '--class', 'series:a1=0.5']) == 0",
    ]
    assert _loaded(steps, ("numpy", "scipy")) == [[]] * len(steps)


@pytest.mark.parametrize("argv", [
    ["check", "--class", "tsallis:q=0.5"],
    ["well", "--class", "kaniadakis:k=0.5", "--L", "1", "--n", "1,2", "--out", "{out}"],
])
def test_array_commands_load_numpy_when_they_run(tmp_path, argv):
    argv = [arg.format(out=tmp_path) for arg in argv]
    steps = ["from groupcalc import cli", f"assert cli.main({argv!r}) == 0"]
    before, after = _loaded(steps, ("numpy",))
    assert before == []
    assert "numpy" in after


def test_first_array_call_builds_the_array_forms():
    """The array side of the libm rule is imported at the first array call,
    and that call equals the scalar method bit for bit."""
    steps = [
        f"import groupcalc\nclasses = [groupcalc.parse_class_spec(spec) for spec in {_SPECS!r}]",
        "import numpy as np",
        "xs = [-0.75, -1e-300, 0.0, 1e-8, 0.3, 2.5, 40.0]\n"
        "for cls in classes:\n"
        "    xs_in = [x for x in xs if cls.contains(x)]\n"
        "    got = cls.g_inv_array(np.array(xs_in)).tolist()\n"
        "    assert list(map(float.hex, got)) == [cls.g_inv(x).hex() for x in xs_in], cls",
    ]
    built, numpy_only, called = _loaded(steps, ("numpy", "groupcalc._libm_array"))
    assert built == []
    assert "numpy" in numpy_only and "groupcalc._libm_array" not in numpy_only
    assert "groupcalc._libm_array" in called


def test_lazy_exports_resolve():
    """Every exported name resolves, a star import binds them all (each the
    object its module defines), and an unknown name raises AttributeError."""
    for name in groupcalc.__all__:
        assert getattr(groupcalc, name) is not None
    namespace = {}
    exec("from groupcalc import *", namespace)
    assert set(groupcalc.__all__) <= set(namespace)
    assert namespace["solve_well"] is spectral.solve_well
    assert namespace["calculus"] is calculus
    assert set(groupcalc.__all__) <= set(dir(groupcalc))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        groupcalc.no_such_name


def test_lazy_exports_import_their_module_at_first_lookup():
    steps = [
        "import groupcalc",
        "groupcalc.Func1D",
        "from groupcalc import spectral",
        "from groupcalc import *",
    ]
    assert _loaded(steps, ("groupcalc.calculus", "groupcalc.spectral", "groupcalc.well")) == [
        [],
        ["groupcalc.calculus"],
        ["groupcalc.calculus", "groupcalc.spectral"],
        ["groupcalc.calculus", "groupcalc.spectral", "groupcalc.well"],
    ]
