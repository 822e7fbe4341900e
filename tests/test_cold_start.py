"""Cold start: scipy and numpy.polynomial stay off the import path.

``import groupcalc`` and the commands that never solve an eigenproblem
(``eval``, ``check``, ``well``, ``repl``) load numpy only; ``solve`` imports
``scipy.linalg`` at its first eigensolve, through the module attribute
``spectral.eigh_tridiagonal`` that callers (and tracers) may replace.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
