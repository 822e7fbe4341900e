"""Command-line interface.

Commands: eval, well, solve, check, repl.  Exit code 0 is success and 1 a
failed check; a failure exits with the code and ``label: message`` line of
``errors.exit_status``, tabulated under "Exit codes" in the README.
Configuration precedence: command-line flags, then the file named by
GROUPCALC_CONFIG, then built-in defaults.  ``eval`` and ``repl`` load no
numpy: ``solve``, ``check`` and ``well`` import the modules they need when
they run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import exprlang, tables
from .config import DEFAULT_TOLERANCES, SPACE_G, SPACE_X, Spec, Tolerances
from .config import parse_items, parse_tolerance_overrides
from .errors import REPORTED, DomainError, exit_status
from .groups import parse_class_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1


@dataclass
class RunConfig:
    class_spec: str = "bg"
    hbar: float = 1.0
    m0: float = 1.0
    n_points: int = 2001
    out: str = "."
    fmt: str = "csv"  # "csv" | "structured-text"
    tol: Tolerances = DEFAULT_TOLERANCES


def _read_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    return parse_items(lines, f"config line in {path}")


def _build_config(args) -> RunConfig:
    cfg = {}
    path = os.environ.get("GROUPCALC_CONFIG")
    if path:
        cfg = _read_config_file(path)

    tol_pairs = [f"{k[4:]}={v}" for k, v in cfg.items() if k.startswith("tol.")]
    tol_pairs += getattr(args, "tol", None) or []
    tol = parse_tolerance_overrides(tol_pairs) if tol_pairs else DEFAULT_TOLERANCES

    def pick(flag_value, key, default, convert=str):
        if flag_value is not None:
            return flag_value
        if key in cfg:
            return convert(cfg[key])
        return default

    return RunConfig(
        class_spec=pick(getattr(args, "class_spec", None), "class", "bg"),
        hbar=pick(getattr(args, "hbar", None), "hbar", 1.0, float),
        m0=pick(getattr(args, "m0", None), "m0", 1.0, float),
        n_points=pick(getattr(args, "N", None), "N", 2001, int),
        out=pick(getattr(args, "out", None), "out", "."),
        fmt=pick(getattr(args, "format", None), "format", "csv"),
        tol=tol,
    )


def _parse_n_list(spec: str):
    """Quantum numbers: "3", "1,2,5" or "1..4" (a range, never expanded)."""
    lo, dots, hi = spec.strip().partition("..")
    n_list = range(int(lo), int(hi) + 1) if dots else [int(part) for part in spec.split(",")]
    if not n_list:
        raise DomainError(f"quantum-number range {spec!r} is empty")
    return n_list


def _parse_potential(text: str):
    from .spectral import CallablePotential, InfiniteWell

    name, _, path = text.partition(":")
    if name == "file":
        import numpy as np

        from .calculus import func_from_samples

        xs, vs = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2, unpack=True)
        return CallablePotential(func_from_samples(xs, vs))
    spec = Spec(text)
    if spec.name == "well":
        return spec.finish(InfiniteWell(spec.number("L")))
    if spec.name == "harmonic":
        omega = spec.number("omega")
        return spec.finish(CallablePotential(lambda x: 0.5 * omega * omega * x * x))
    raise ValueError(f"unknown potential {text!r}")


def _emit_table(cfg: RunConfig, title: str, header: list[str], rows) -> None:
    if cfg.fmt == "structured-text":
        print(f"[{title}]")
        widths = [max(len(h), 14) for h in header]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(tables.fmt(v).ljust(w) for v, w in zip(row, widths)))
    else:
        print(",".join(header))
        for row in rows:
            print(tables.csv_line(row))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    cfg = _build_config(args)
    cls = parse_class_spec(cfg.class_spec)
    value = exprlang.eval_source(args.expression, cls)
    print(tables.fmt(float(value)))
    return EXIT_OK


def cmd_well(args) -> int:
    from . import well as well_mod

    cfg = _build_config(args)
    cls = parse_class_spec(cfg.class_spec)
    n_list = _parse_n_list(args.n)
    comment = f"class={cls.spec_string()} L={tables.fmt(args.L)} hbar={tables.fmt(cfg.hbar)} m0={tables.fmt(cfg.m0)}"

    sols = [well_mod.WellSolution(cls, args.L, n, cfg.hbar, cfg.m0) for n in n_list]
    energies = [(sol.n, well_mod.energy(sol)) for sol in sols]
    zero_rows = [[sol.n] + well_mod.zeros(sol) for sol in sols]
    spacing_rows = [
        [sol.n] + [well_mod.spacing(sol, m) for m in range(1, sol.n + 1)] for sol in sols
    ]

    # the probability tables go first: a bad --samples fails before any write
    out = cfg.out
    col = "x_over_L" if args.sampling == "x" else "xg_over_Lg"
    for sol in sols:
        tables.write_csv(
            os.path.join(out, f"well_prob_n{sol.n}.csv"),
            well_mod.probability_table(sol, args.samples, sampling=args.sampling),
            header=f"{col},prob_density_normalized",
            comment=f"{comment} n={sol.n}",
        )
    tables.write_csv(os.path.join(out, "energies.csv"), energies, header="n,energy", comment=comment)
    tables.write_csv(os.path.join(out, "zeros.csv"), zero_rows, comment=comment + " columns=n,z0..zn")
    tables.write_csv(os.path.join(out, "spacings.csv"), spacing_rows, comment=comment + " columns=n,d1..dn")
    _emit_table(cfg, "energies", ["n", "energy"], energies)
    return EXIT_OK


def cmd_solve(args) -> int:
    from .calculus import Func1D
    from .spectral import InfiniteWell, cross_check_well, solve_box

    cfg = _build_config(args)
    cls = parse_class_spec(cfg.class_spec)
    potential = _parse_potential(args.potential)

    if isinstance(potential, InfiniteWell) and args.cross_check:
        spec_g, spec_x, disc = cross_check_well(
            cls, potential.L, cfg.n_points, args.k, cfg.hbar, cfg.m0, cfg.tol
        )
        paths = tables.write_spectrum(spec_g, cfg.out, "spectrum_g")
        paths += tables.write_spectrum(spec_x, cfg.out, "spectrum_x")
        print(f"max_relative_discrepancy {tables.fmt(disc)}")
        spectrum = spec_g
    else:
        if isinstance(potential, InfiniteWell):
            xmin, xmax = 0.0, potential.L
        else:
            rule = potential.rule
            lo, hi = (rule.lo, rule.hi) if isinstance(rule, Func1D) else (-8.0, 8.0)
            xmin = lo if args.xmin is None else args.xmin
            xmax = hi if args.xmax is None else args.xmax
        spectrum = solve_box(
            cls, xmin, xmax, potential, cfg.n_points, args.k, args.path,
            cfg.hbar, cfg.m0, cfg.tol,
        )
        paths = tables.write_spectrum(spectrum, cfg.out, "spectrum")

    rows = list(enumerate(spectrum.energies, start=1))
    _emit_table(cfg, "energies", ["n", "energy"], rows)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_check(args) -> int:
    from . import checks

    cfg = _build_config(args)
    cls = parse_class_spec(cfg.class_spec)
    results = checks.run_checks(cls, cfg.tol)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status} {r.name} residual={tables.fmt(r.residual)}{detail}")
    if failed:
        first = failed[0]
        print(
            f"check failed: {first.name} residual={tables.fmt(first.residual)} {first.detail}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_repl(args) -> int:
    cfg = _build_config(args)
    cls = parse_class_spec(cfg.class_spec)
    return exprlang.run_repl(sys.stdin, sys.stdout, sys.stderr, cls)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--class", dest="class_spec", metavar="SPEC",
                        help="group class: bg | tsallis:q=F | kaniadakis:k=F | abe:a=F,b=F | series:a1=F,...")
    shared.add_argument("--hbar", type=float, default=None)
    shared.add_argument("--m0", type=float, default=None)
    shared.add_argument("--out", default=None, help="output directory")
    shared.add_argument("--format", choices=("csv", "structured-text"), default=None)
    shared.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="tolerance override, repeatable")

    parser = argparse.ArgumentParser(prog="groupcalc",
                                     description="Deformed arithmetic, calculus and spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[shared], help="evaluate a deformed-arithmetic expression")
    p.add_argument("expression")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("well", parents=[shared], help="closed-form infinite-well tables")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--n", required=True, help='quantum numbers: "3", "1,2,5" or "1..4"')
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--sampling", choices=("x", "g"), default="x")
    p.set_defaults(func=cmd_well)

    p = sub.add_parser("solve", parents=[shared], help="numeric bound states")
    p.add_argument("--potential", required=True,
                   help="well:L=F | file:PATH (csv x,V) | harmonic:omega=F")
    p.add_argument("--N", type=int, default=None, help="grid points")
    p.add_argument("--k", type=int, default=5, help="number of eigenpairs")
    p.add_argument("--path", choices=(SPACE_G, SPACE_X), default=SPACE_G)
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", parents=[shared], help="run the identity suites")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repl", parents=[shared], help="interactive evaluator")
    p.set_defaults(func=cmd_repl)
    return parser


def _attach_number_values(argv) -> list[str]:
    """Join ``--xmin V`` and ``--xmax V`` into ``--xmin=V`` when float()
    accepts V: argparse takes a value such as "-1e1" or "-inf" that starts
    with "-" but is no plain decimal for an option name."""
    out = []
    for token in argv:
        if out and out[-1] in ("--xmin", "--xmax") and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(_attach_number_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except REPORTED as exc:
        code, line = exit_status(exc)
        print(line, file=sys.stderr)
        return code

if __name__ == "__main__":
    sys.exit(main())
