"""The three benchmark workloads: spectra, arithmetic and identities.

Every workload builds its inputs from a seed with ``random.Random``, so the
same seed gives the same requests whatever numpy version is installed.
Requests come in rounds: a round holds a fixed mix of request kinds in a
fixed order, with seeded parameters.  A fixed mix keeps the latency
percentiles of a run comparable between seeds.  A run cycles through a
corpus of rounds drawn once from the seed, so which requests it verifies,
and which of them fail, depend on the seed alone and not on how fast the
host is.

Each workload checks every result against a reference that does not go
through the code path it verifies:

* spectra: ``well.WellSolution`` energies and eigenfunctions, (n + 1/2) hbar
  omega for the BG oscillator, and an independent finite-difference solve in
  the deformed coordinate for the deformed oscillators;
* arithmetic: ordinary arithmetic for bg, ``closed_forms`` for tsallis and
  kaniadakis, and the group law evaluated through a closed-form G and a
  root-found G^-1 written here, for abe and series and wherever a closed
  form loses the value at extreme magnitudes;
* identities: every suite passes, and the calculus calls against the exact
  integrals G^-1(b) - G^-1(a) and G(b) - G(a).
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

K_STATES = 5
HARMONIC_BOX = (-8.0, 8.0)
HARMONIC_OMEGA = 1.0

# Acceptance thresholds, fixed before any run.
ENERGY_REL_TOL = 1e-3  # numeric energies against the closed forms: 0.1 %
DISCRETE_REL_TOL = 1e-9  # g-path energies against the same discrete problem
CROSS_GAP_TOL = 5e-3  # x-space against deformed-space energies: 0.5 %
STATE_ABS_TOL = 1e-3  # transformed state against the closed form, times max |psi|
NORM_TOL = 1e-3
CSV_REL_TOL = 1e-11  # the CSV keeps 12 significant digits
ARITH_REL_TOL = 1e-9
EDGE_MARGIN = 1e-14  # relative distance from a domain edge that rounding may cross
QUAD_ABS = 1e-13  # tight quadrature tolerance of the identities integrals
INTEGRAL_ABS_TOL = 100 * QUAD_ABS
FTR_TOL = 1e-8  # documented noise floor of fundamental_theorem_residual


def rel_err(got: float, want: float) -> float:
    """Mixed error |got - want| / (1 + |want|), the package's own yardstick."""
    return abs(got - want) / (1.0 + abs(want))


# ---------------------------------------------------------------------------
# seeded group classes and their independent closed forms
# ---------------------------------------------------------------------------

KINDS = ("bg", "tsallis", "kaniadakis", "abe", "series")


@dataclass(frozen=True)
class ClassInfo:
    kind: str
    params: tuple
    spec: str


def _stratified(rng, lo, hi, stratum, strata):
    """Uniform draw from the ``stratum``-th of ``strata`` equal slices of [lo, hi)."""
    return lo + (hi - lo) * (stratum + rng.random()) / strata


def draw_classes(rng: random.Random, per_kind: int, upper_tsallis: bool) -> list[ClassInfo]:
    """One bg class and ``per_kind`` classes of every other kind.

    Parameters come from the ranges the tests use, stratified over the
    instances of a kind, so every seed spreads them over the whole range and
    the cost of a run depends little on the seed.  ``upper_tsallis`` adds
    q in (1.1, 1.5), whose domain is bounded above; a well of width up to 2
    would leave it, so spectra keep q < 1.
    """
    infos = [ClassInfo("bg", (), "bg")]
    # q > 1 gets its share of the q range as a fixed number of classes
    n_upper = round(per_kind * 0.4 / 1.8) if upper_tsallis else 0
    n_lower = per_kind - n_upper
    for i in range(per_kind):
        j = per_kind - 1 - i  # pair low a with high b, and so on
        if i < n_lower:
            q = _stratified(rng, -0.5, 0.9, i, n_lower)
        else:
            q = _stratified(rng, 1.1, 1.5, i - n_lower, n_upper)
        k = _stratified(rng, 0.25, 2.0, i, per_kind)
        a, b = _stratified(rng, 0.5, 1.5, i, per_kind), _stratified(rng, -1.5, -0.5, j, per_kind)
        a1 = _stratified(rng, 0.25, 1.0, i, per_kind)
        coeffs = (a1, a1 * a1 / 2.0, a1**3 / 6.0)
        infos += [
            ClassInfo("tsallis", (q,), f"tsallis:q={q!r}"),
            ClassInfo("kaniadakis", (k,), f"kaniadakis:k={k!r}"),
            ClassInfo("abe", (a, b), f"abe:a={a!r},b={b!r}"),
            ClassInfo(
                "series",
                coeffs,
                "series:" + ",".join(f"a{n + 1}={c!r}" for n, c in enumerate(coeffs)),
            ),
        ]
    return infos


def closed_g(info: ClassInfo, lib=np):
    """Generator G as a closed form, independent of groupcalc.

    ``lib`` supplies ``expm1``, ``exp`` and ``sinh``: ``numpy`` for arrays,
    ``math`` for scalars.
    """
    p = info.params
    if info.kind == "bg":
        return lambda t: t
    if info.kind == "tsallis":
        gamma = 1.0 - p[0]
        return lambda t: lib.expm1(gamma * t) / gamma
    if info.kind == "kaniadakis":
        return lambda t: lib.sinh(p[0] * t) / p[0]
    if info.kind == "abe":
        a, b = p
        return lambda t: (lib.expm1(a * t) - lib.expm1(b * t)) / (a - b)
    return lambda t: t + sum(c * t ** (k + 2) / (k + 2) for k, c in enumerate(p))


def scalar_g(info: ClassInfo):
    """G on floats; a value beyond the float range is +-inf, as G increases."""
    g = closed_g(info, math)

    def g_scalar(t):
        try:
            return g(t)
        except OverflowError:
            return math.copysign(math.inf, t)

    return g_scalar


_SIGN = 1 << 63


def _float_key(x: float) -> int:
    """An integer that orders like the float ``x`` (-0.0 and 0.0 alike)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits + _SIGN)


def _key_float(key: int) -> float:
    bits = key if key >= 0 else -key - _SIGN
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def closed_g_inv(info: ClassInfo, t_range=(-math.inf, math.inf)):
    """G^-1: closed form where one exists, else root finding on G within
    ``t_range``.  An argument G never reaches raises ``ValueError``."""
    p = info.params
    if info.kind == "bg":
        return lambda s: s
    if info.kind == "tsallis":
        gamma = 1.0 - p[0]

        def tsallis_inv(s):
            u = gamma * s
            return -math.inf / gamma if u == -1.0 else math.log1p(u) / gamma

        return tsallis_inv
    if info.kind == "kaniadakis":
        return lambda s: math.asinh(p[0] * s) / p[0]
    g = scalar_g(info)
    key_lo, key_hi = _float_key(t_range[0]), _float_key(t_range[1])

    def invert(s):
        """Bisection over the floats of ``t_range`` in their order: G
        increases, so 64 halvings pin G^-1(s) to adjacent floats."""
        lo, hi = key_lo, key_hi
        if not g(_key_float(lo)) <= s <= g(_key_float(hi)):
            raise ValueError(f"G does not reach {s!r} within {t_range}")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if g(_key_float(mid)) < s:
                lo = mid
            else:
                hi = mid
        t_lo, t_hi = _key_float(lo), _key_float(hi)
        return t_lo if s - g(t_lo) < g(t_hi) - s else t_hi

    return invert


# ---------------------------------------------------------------------------
# workload base
# ---------------------------------------------------------------------------


class Workload:
    """A stream of seeded requests, the timed call and its verification."""

    name = ""

    CORPUS_ROUNDS = 1  # rounds a run cycles through

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.out_dir = out_dir  # temporary directory for the files the program writes
        self.infos = self.draw_classes()
        self.notes = Counter()  # verification events worth reporting
        self._corpus = None

    def draw_classes(self) -> list[ClassInfo]:
        raise NotImplementedError

    def setup(self, program) -> None:
        """Build the workload's classes (the part of set-up the program does)."""
        self.program = program
        parse = program.groups.parse_class_spec
        self.classes = {info.spec: parse(info.spec) for info in self.infos}

    def round(self) -> list:
        raise NotImplementedError

    def corpus(self) -> list[list]:
        """The seeded rounds of a run, drawn once, after ``setup``."""
        if self._corpus is None:
            rounds = 1 if self.smoke else self.CORPUS_ROUNDS
            self._corpus = [self.round() for _ in range(rounds)]
        return self._corpus

    def corpus_size(self) -> int:
        return sum(len(batch) for batch in self.corpus())

    def stream(self):
        """The corpus over and over, as ``(key, request)``; ``key`` names the
        request within the corpus.

        The order within a round is fixed: with the same sequence of array
        sizes every run, the allocator reaches the same peak resident memory.
        """
        rounds = self.corpus()
        while True:
            for r, batch in enumerate(rounds):
                for i, request in enumerate(batch):
                    yield (r, i), request

    def warmup(self) -> list:
        """Untimed requests that finish lazy imports and fill caches."""
        return self.corpus()[0][:3]

    def memory_probe(self) -> list:
        return []

    def run(self, request):
        raise NotImplementedError

    def has_answer(self, request) -> bool:
        """Whether the reference has a value, so that a typed
        ``GroupCalcError`` is a failure rather than a valid outcome."""
        return True

    def verify(self, request, output) -> float:
        """Raise ``Mismatch`` if ``output`` is wrong, ``CheckFailed`` if the
        program reported a failed check, else return the error of ``output``."""
        raise NotImplementedError

    def fingerprint(self, request, output) -> str:
        """A digest that changes with any value of ``output``; a later visit
        of a request must give the digest of its first, verified visit.  The
        default suits outputs whose ``repr`` shows every digit."""
        return digest(output)


def digest(*parts) -> str:
    """SHA-256 over ``parts``: arrays by their bytes, bytes as they are,
    anything else by its ``repr`` (exact for floats)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class Mismatch(Exception):
    """A result disagrees with its reference."""


class CheckFailed(Exception):
    """The program itself reported a failed check (``groupcalc check`` exits 1)."""


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveRequest:
    info: ClassInfo
    potential: str  # "well" | "harmonic"
    path: str  # "g" | "x" | "cross"
    n_points: int
    L: float = 1.0


class Spectra(Workload):
    """Solve requests with k = 5 along the route ``groupcalc solve`` takes.

    The round crosses five classes with three well paths (g, x, cross-check)
    and the three infinite-domain classes with the oscillator on both paths;
    states solved on the g path are also mapped to x by ``transform_state``.
    N rotates over {1001, 2001, 4001} as a Latin square, so each class and
    each path meets every N: 8 MB of dense operator at N = 1001 fits the last
    level cache, 128 MB at N = 4001 does not.
    """

    name = "spectra"
    WELL_PATHS = ("g", "x", "cross")
    HARMONIC_KINDS = ("bg", "kaniadakis", "abe")

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.sizes = (401, 501, 601) if smoke else (1001, 2001, 4001)

    def draw_classes(self):
        infos = draw_classes(self.rng, 3, upper_tsallis=False)
        self.by_kind = {kind: [i for i in infos if i.kind == kind] for kind in KINDS}
        return infos

    def round(self):
        reqs = []
        for ci, kind in enumerate(KINDS):
            pick = self.by_kind[kind]
            for pi, path in enumerate(self.WELL_PATHS):
                s = (ci + pi) % 3
                L = _stratified(self.rng, 0.5, 2.0, s, 3)
                reqs.append(SolveRequest(pick[s % len(pick)], "well", path, self.sizes[s], L))
            if kind in self.HARMONIC_KINDS:
                for pi, path in enumerate(("g", "x")):
                    s = (ci + pi + 1) % 3
                    reqs.append(SolveRequest(pick[s % len(pick)], "harmonic", path, self.sizes[s]))
        return reqs

    def warmup(self):
        info = self.by_kind["kaniadakis"][0]
        small = 201
        return [
            SolveRequest(info, "well", "g", small),
            SolveRequest(info, "well", "cross", small),
            SolveRequest(info, "harmonic", "x", small),
        ]

    def memory_probe(self):
        info = self.by_kind["kaniadakis"][0]
        return [SolveRequest(info, "well", path, n) for n in self.sizes for path in ("g", "x")]

    def run(self, req: SolveRequest):
        spectral, tables = self.program.spectral, self.program.tables
        cls = self.program.groups.parse_class_spec(req.info.spec)
        out = self.out_dir
        if req.potential == "well":
            if req.path == "cross":
                spec_g, spec_x, gap = spectral.cross_check_well(cls, req.L, req.n_points, K_STATES)
                paths = tables.write_spectrum(spec_g, out, "spectrum_g")
                paths += tables.write_spectrum(spec_x, out, "spectrum_x")
                return {"spectra": [spec_g, spec_x], "gap": gap, "paths": paths}
            spectrum = spectral.solve_well(cls, req.L, req.n_points, K_STATES, req.path)
        else:
            omega = HARMONIC_OMEGA
            potential = spectral.CallablePotential(lambda x: 0.5 * omega * omega * x * x)
            xmin, xmax = HARMONIC_BOX
            if req.path == "g":
                grid = spectral.Grid(cls.g_inv(xmin), cls.g_inv(xmax), req.n_points, "g")
                ham = spectral.hamiltonian_gspace(cls, grid, potential)
            else:
                grid = spectral.Grid(xmin, xmax, req.n_points, "x")
                ham = spectral.hamiltonian_xspace(cls, grid, potential)
            spectrum = spectral.solve_eigen(ham, K_STATES, grid, cls)
        states = None
        if req.path == "g":
            states = [spectral.transform_state(cls, s) for s in spectrum.states]
        paths = tables.write_spectrum(spectrum, out, "spectrum")
        return {"spectra": [spectrum], "states": states, "paths": paths}

    # -- verification ------------------------------------------------------

    def reference_energies(self, req: SolveRequest) -> list:
        """Reference energies of a request, each with its relative tolerance."""
        if req.potential == "well":
            well = self.program.well
            cls = self.classes[req.info.spec]
            exact = [well.energy(well.WellSolution(cls, req.L, n)) for n in range(1, K_STATES + 1)]
            return [(np.array(exact), ENERGY_REL_TOL)]
        refs = []
        if req.info.kind == "bg":
            refs.append((HARMONIC_OMEGA * (np.arange(K_STATES) + 0.5), ENERGY_REL_TOL))
        # Finite differences in u = G^-1(x), built here: the g path solves
        # the same discrete problem, so it must agree to round-off.
        if req.path == "g" or req.info.kind != "bg":
            t_range = self.classes[req.info.spec].t_range
            g, g_inv = closed_g(req.info), closed_g_inv(req.info, t_range)
            u0, u1 = g_inv(HARMONIC_BOX[0]), g_inv(HARMONIC_BOX[1])
            h = (u1 - u0) / (req.n_points - 1)
            x = g(np.linspace(u0, u1, req.n_points)[1:-1])
            diag = 1.0 / (h * h) + 0.5 * HARMONIC_OMEGA**2 * x * x
            off = np.full(diag.size - 1, -0.5 / (h * h))
            discrete = eigh_tridiagonal(
                diag, off, eigvals_only=True, select="i", select_range=(0, K_STATES - 1)
            )
            refs.append((discrete, DISCRETE_REL_TOL if req.path == "g" else ENERGY_REL_TOL))
        return refs

    def verify(self, req: SolveRequest, output) -> float:
        worst = 0.0
        for want, tol in self.reference_energies(req):
            for spectrum in output["spectra"]:
                err = float(np.max(np.abs(spectrum.energies - want) / np.abs(want)))
                if not err <= tol:
                    raise Mismatch(f"{req}: energy error {err:.3e} > {tol:.0e}")
                worst = max(worst, err)
        if req.path == "cross":
            spec_g, spec_x = output["spectra"]
            gap = float(np.max(np.abs(spec_x.energies - spec_g.energies) / np.abs(spec_g.energies)))
            if not (gap <= CROSS_GAP_TOL and abs(gap - output["gap"]) <= 1e-15 * (1 + gap)):
                raise Mismatch(f"{req}: cross-check gap {output['gap']!r}, recomputed {gap!r}")
        if output.get("states") is not None:
            self._verify_states(req, output["states"])
        self._verify_csv(output)
        return worst

    def _verify_states(self, req, states) -> None:
        well = self.program.well
        cls = self.classes[req.info.spec]
        for n, psi in enumerate(states, start=1):
            if not abs(psi.norm_sq() - 1.0) <= NORM_TOL:
                raise Mismatch(f"{req}: state {n} norm {psi.norm_sq()!r}")
            if req.potential != "well":
                continue
            sol = well.WellSolution(cls, req.L, n)
            xs = psi.grid.nodes
            picks = range(0, xs.size, max(1, xs.size // 40))
            ref = np.array([well.eigenfunction_x(sol, xs[i]) for i in picks])
            got = psi.values[list(picks)]
            scale = float(np.max(np.abs(ref)))
            if not float(np.max(np.abs(got - ref))) <= STATE_ABS_TOL * scale:
                raise Mismatch(f"{req}: state {n} departs from the closed form")

    def fingerprint(self, req, output) -> str:
        parts = [s.energies for s in output["spectra"]]
        parts += [psi.values for s in output["spectra"] for psi in s.states]
        parts += [psi.values for psi in output.get("states") or ()]
        parts.append(output.get("gap"))
        for path in output["paths"]:
            with open(path, "rb") as fh:
                parts.append(fh.read())
        return digest(*parts)

    @staticmethod
    def _verify_csv(output) -> None:
        """The energies file reads back as the solver's energies."""
        by_stem = {}
        for path in output["paths"]:
            if path.endswith("_energies.csv"):
                by_stem[os.path.basename(path)] = path
        names = sorted(by_stem)
        if len(names) != len(output["spectra"]):
            raise Mismatch(f"expected {len(output['spectra'])} energy files, got {names}")
        for name, spectrum in zip(names, output["spectra"]):
            rows = np.loadtxt(by_stem[name], delimiter=",", skiprows=1, ndmin=2)
            got = rows[:, 1]
            if got.size != spectrum.energies.size or not np.all(
                np.abs(got - spectrum.energies) <= CSV_REL_TOL * np.abs(spectrum.energies)
            ):
                raise Mismatch(f"{name} does not read back as the solved energies")


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

_BINARY = ("g+", "g-", "g*", "g/")
_UNARY = ("expG", "logG", "sinG", "cosG")
_OP_TEXT = {"g+": "(+)", "g-": "(-)", "g*": "(*)", "g/": "(/)"}


@dataclass(frozen=True)
class EvalRequest:
    info: ClassInfo
    tree: tuple
    text: str


class Arithmetic(Workload):
    """Seeded expression strings per class, evaluated with ``eval_source``.

    Expressions nest 1 to 4 deep and use the deformed operators, ``gint``,
    ``gpow``, ``expG``/``logG`` and ``sinG``/``cosG``.  Leaves cover each
    class's domain: most are moderate, 5 % sit near a finite domain edge and
    5 % have a large magnitude (up to 1e300), where the generic route can
    overflow.  An overflow that escapes as a bare ``OverflowError`` counts as
    a failed operation; a typed ``GroupCalcError`` counts apart where no
    reference has a value, and as failed where one has.
    """

    name = "arithmetic"
    # 3920 expressions: first visits take a few seconds, and a 36 s run then
    # times each expression about eighty times.
    CORPUS_ROUNDS = 20

    def draw_classes(self):
        return draw_classes(self.rng, 12, upper_tsallis=True)

    def setup(self, program):
        super().setup(program)
        self.domains = {spec: cls.domain for spec, cls in self.classes.items()}
        # Per class, the reference operations best first, as used to verify
        # results and, with a margin at domain edges, to judge typed errors.
        self.refs, self.edge_wary_refs = {}, {}
        for info in self.infos:
            cls = self.classes[info.spec]
            closed = _closed_form_ops(program.closed_forms, info)
            sets = [ops for ops in (closed, _group_law_ops(info, cls.t_range)) if ops]
            self.refs[info.spec] = [_with_operand_rules(ops, info, cls, 0.0) for ops in sets]
            self.edge_wary_refs[info.spec] = [
                _with_operand_rules(ops, info, cls, EDGE_MARGIN) for ops in sets
            ]

    def _value(self, ops, tree):
        """``tree`` evaluated with ``ops``; None where it is undefined, or
        where a closed form clamped a ``[.]_+`` base (the oracle tests skip
        those too)."""
        algebra = self.program.algebra
        algebra.reset_clamp_flag()
        try:
            value = float(_evaluate(ops, tree))
        except (ArithmeticError, ValueError):
            return None
        if math.isnan(value) or algebra.clamp_occurred():
            return None
        return value

    def sensitivity(self, req: EvalRequest, ops, base: float) -> float:
        """How far the reference moves when every leaf is perturbed by a
        relative 1e-13 in seeded directions: the rounding error any float route
        may show on an ill-conditioned expression."""
        rng = random.Random(req.text)
        worst = 0.0
        for _ in range(2):
            moved = self._value(ops, _perturb(req.tree, rng))
            if moved is not None and math.isfinite(moved) and math.isfinite(base):
                worst = max(worst, rel_err(moved, base))
        return worst

    def has_answer(self, req: EvalRequest) -> bool:
        """A typed error is a valid outcome only where no reference has a
        finite value, counting operands within ``EDGE_MARGIN`` of a domain
        edge as outside: rounding may put them on either side."""
        for ops in self.edge_wary_refs[req.info.spec]:
            value = self._value(ops, req.tree)
            if value is not None and math.isfinite(value):
                return True
        return False

    # -- generation --------------------------------------------------------

    def round(self):
        reqs = []
        for info in self.infos:
            for depth in range(1, 5):
                tree = self._expr(info, depth, positive=False)
                reqs.append(EvalRequest(info, tree, _render(tree)))
        return reqs

    def _leaf(self, info, positive):
        rng = self.rng
        r = rng.random()
        if r < 0.05:
            mag = 10.0 ** rng.uniform(2.0, 300.0)
            return mag if positive or rng.random() < 0.5 else -mag
        if positive:
            return 10.0 ** rng.uniform(-12.0, -2.0) if r < 0.10 else rng.uniform(0.2, 4.0)
        lo, hi = self.domains[info.spec]
        if r < 0.10:
            edges = [e for e in (lo, hi) if math.isfinite(e)]
            if edges:
                edge = rng.choice(edges)
                inward = 1.0 if edge == lo else -1.0
                return edge + inward * max(abs(edge), 1.0) * 10.0 ** rng.uniform(-12.0, -2.0)
        return rng.uniform(max(lo, -5.0), min(hi, 5.0))

    def _expr(self, info, depth, positive):
        rng = self.rng
        if depth == 0:
            return ("num", self._leaf(info, positive))
        sub = depth - 1
        other = rng.randint(0, sub)
        if positive:
            kind = rng.choice(("g*", "g/", "expG", "gpow"))
        else:
            kind = rng.choice(_BINARY + _UNARY + ("gint", "gpow"))
        if kind == "gint":
            return ("gint", rng.randint(-6, 6))
        if kind == "gpow":
            return ("gpow", self._expr(info, sub, True), rng.randint(-6, 6))
        if kind in _UNARY:
            return ("call", kind, self._expr(info, sub, kind == "logG"))
        pos = kind in ("g*", "g/")
        left, right = self._expr(info, sub, pos), self._expr(info, other, pos)
        return ("bin", kind, left, right) if rng.random() < 0.5 else ("bin", kind, right, left)

    # -- request and reference ----------------------------------------------

    def run(self, req: EvalRequest):
        return self.program.exprlang.eval_source(req.text, self.classes[req.info.spec])

    def verify(self, req: EvalRequest, output) -> float:
        """Agree with a reference within 1e-9 plus that reference's own
        sensitivity to its inputs.  The closed form comes first; agreeing
        only with the group law (where the closed form overflows, underflows
        or cancels at extreme magnitudes) passes and is counted apart."""
        wants = []
        for rank, ops in enumerate(self.refs[req.info.spec]):
            want = self._value(ops, req.tree)
            wants.append(want)
            if want is None:
                continue
            if output == want:
                err = 0.0
            elif math.isfinite(output) and math.isfinite(want):
                err = rel_err(output, want)
                if err > ARITH_REL_TOL:
                    if err > ARITH_REL_TOL + self.sensitivity(req, ops, want):
                        continue
                    self.notes["within_sensitivity_only"] += 1
            else:
                continue
            if rank > 0 and wants[0] is not None:
                self.notes["closed_form_disagreements"] += 1
            return err
        raise Mismatch(f"{req.info.spec}: {req.text!r} -> {output!r}, references {wants}")


def _render(tree) -> str:
    tag = tree[0]
    if tag == "num":
        return repr(tree[1])
    if tag == "gint":
        return f"gint({tree[1]})"
    if tag == "gpow":
        return f"gpow({_render(tree[1])}, {tree[2]})"
    if tag == "call":
        return f"{tree[1]}({_render(tree[2])})"
    return f"({_render(tree[2])} {_OP_TEXT[tree[1]]} {_render(tree[3])})"


def _closed_form_ops(cf, info):
    """Closed-form operations: ordinary arithmetic for bg, the q- and
    kappa-algebras for tsallis and kaniadakis, None for the other classes."""
    kind, p = info.kind, info.params
    if kind == "bg":
        return {
            "g+": lambda x, y: x + y,
            "g-": lambda x, y: x - y,
            "g*": lambda x, y: x * y,
            "g/": lambda x, y: x / y,
            "expG": math.exp,
            "logG": math.log,
            "sinG": math.sin,
            "cosG": math.cos,
            "gint": float,
            "gpow": lambda x, n: float(x) ** n,
        }
    if kind == "tsallis":
        q, ginv = p[0], closed_g_inv(info)
        return {
            "g+": lambda x, y: cf.q_sum(q, x, y),
            "g-": lambda x, y: cf.q_sub(q, x, y),
            "g*": lambda x, y: cf.q_prod(q, x, y),
            "g/": lambda x, y: cf.q_div(q, x, y),
            "expG": lambda x: cf.q_exp(q, x),
            "logG": lambda x: cf.q_log(q, x),
            "sinG": lambda x: math.sin(ginv(x)),
            "cosG": lambda x: math.cos(ginv(x)),
            "gint": lambda n: cf.q_integer(q, n),
            "gpow": lambda x, n: cf.q_pow(q, x, n),
        }
    if kind == "kaniadakis":
        k, ginv = p[0], closed_g_inv(info)
        return {
            "g+": lambda x, y: cf.kappa_sum(k, x, y),
            "g-": lambda x, y: cf.kappa_sub(k, x, y),
            "g*": lambda x, y: cf.kappa_prod(k, x, y),
            "g/": lambda x, y: cf.kappa_div(k, x, y),
            "expG": lambda x: cf.kappa_exp(k, x),
            "logG": lambda x: cf.kappa_log(k, x),
            "sinG": lambda x: math.sin(ginv(x)),
            "cosG": lambda x: math.cos(ginv(x)),
            "gint": lambda n: cf.kappa_integer(k, n),
            "gpow": lambda x, n: cf.kappa_pow(k, x, n),
        }
    return None


def _group_law_ops(info, t_range):
    """The group law through the closed-form G and G^-1 of ``info``."""
    g, ginv = scalar_g(info), closed_g_inv(info, t_range)

    def exp_g(x):
        return math.exp(ginv(x))  # exp(-inf) = 0 at a finite lower edge

    def log_g(x):
        return g(math.log(x))

    return {
        "g+": lambda x, y: g(ginv(x) + ginv(y)),
        "g-": lambda x, y: g(ginv(x) - ginv(y)),
        "g*": lambda x, y: exp_g(log_g(x) + log_g(y)),
        "g/": lambda x, y: exp_g(log_g(x) - log_g(y)),
        "expG": exp_g,
        "logG": log_g,
        "sinG": lambda x: math.sin(ginv(x)),
        "cosG": lambda x: math.cos(ginv(x)),
        "gint": lambda n: g(n * ginv(1.0)),
        "gpow": lambda x, n: exp_g(n * log_g(x)),
    }


def _with_operand_rules(ops, info, cls, margin):
    """``ops`` restricted to the operands the deformed algebra accepts, so a
    reference has no value where the program must raise ``DomainError``:
    G^-1 needs the open domain (bg and kaniadakis accept any float), expG
    the domain or the edge G reaches as t -> -inf, the multiplicative
    operations positive operands, and gint an argument inside the monotone
    range.  Operands closer than ``margin`` (relative) to a domain or range
    edge count as outside."""

    def pad(e):
        return margin * max(1.0, abs(e)) if math.isfinite(e) else 0.0

    def inset(lo, hi):
        return lo + pad(lo), hi - pad(hi)

    lo, hi = inset(*cls.domain)
    edge = cls.domain[0]
    t_lo, t_hi = inset(*cls.t_range)
    checks_domain = info.kind in ("tsallis", "abe", "series")
    unit = closed_g_inv(info, cls.t_range)(1.0)

    def need(ok, x):
        if not ok:
            raise ValueError(f"operand {x!r} outside the algebra's domain")

    def inverse_arg(x):
        need(lo < x < hi or not checks_domain, x)

    def exp_arg(x):
        need(lo < x < hi or (x == edge and math.isfinite(edge) and t_lo == -math.inf), x)

    def positive(x):
        need(x > 0.0, x)

    def integer(n):
        need(info.kind == "bg" or t_lo <= n * unit <= t_hi, n)

    rules = {
        "g+": (inverse_arg, inverse_arg),
        "g-": (inverse_arg, inverse_arg),
        "g*": (positive, positive),
        "g/": (positive, positive),
        "gpow": (positive,),
        "logG": (positive,),
        "expG": (exp_arg,),
        "sinG": (inverse_arg,),
        "cosG": (inverse_arg,),
        "gint": (integer,),
    }

    def checked(name, op):
        def run(*args):
            for rule, arg in zip(rules[name], args):
                rule(arg)
            return op(*args)

        return run

    return {name: checked(name, op) for name, op in ops.items()}


def _perturb(tree, rng, delta=1e-13):
    tag = tree[0]
    if tag == "num":
        return ("num", tree[1] * (1.0 + delta * rng.choice((-1.0, 1.0))))
    if tag == "gint":
        return tree
    if tag == "gpow":
        return ("gpow", _perturb(tree[1], rng, delta), tree[2])
    if tag == "call":
        return ("call", tree[1], _perturb(tree[2], rng, delta))
    return ("bin", tree[1], _perturb(tree[2], rng, delta), _perturb(tree[3], rng, delta))


def _evaluate(ops, tree):
    tag = tree[0]
    if tag == "num":
        return tree[1]
    if tag == "gint":
        return ops["gint"](tree[1])
    if tag == "gpow":
        return ops["gpow"](_evaluate(ops, tree[1]), tree[2])
    if tag == "call":
        return ops[tree[1]](_evaluate(ops, tree[2]))
    return ops[tree[1]](_evaluate(ops, tree[2]), _evaluate(ops, tree[3]))


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChecksRequest:
    info: ClassInfo
    backend: str


@dataclass(frozen=True)
class CalculusRequest:
    info: ClassInfo
    backend: str
    a: float
    b: float
    f_index: int


_FTR_FUNCS = (lambda x: x * x, lambda x: x**3, math.sin)


class Identities(Workload):
    """``checks.run_checks`` alternating with tight-tolerance calculus calls.

    Per class and quadrature backend a round holds one ``run_checks`` and
    two calculus requests.  A calculus request integrates 1/A and G' over a
    seeded interval by both methods at ``quad_abs = 1e-13`` (exact answers
    G^-1(b) - G^-1(a) and G(b) - G(a)) and takes one fundamental-theorem
    residual.  The residual runs at the default ``quad_abs``: its integrand is
    a finite difference whose noise sits near 1e-11, so a 1e-13 target is
    unreachable and ends in ``ToleranceNotMet`` after seconds of refinement.

    Two light requests per heavy one put the median inside the calculus
    cluster and the 90th percentile inside the checks cluster, away from the
    gap between them.
    """

    name = "identities"
    BACKENDS = ("simpson", "gauss16")

    def draw_classes(self):
        return draw_classes(self.rng, 8, upper_tsallis=True)

    def setup(self, program):
        super().setup(program)
        base = program.config.DEFAULT_TOLERANCES
        self.tols = {
            backend: base.replace(quad_backend=backend, quad_abs=QUAD_ABS)
            for backend in self.BACKENDS
        }
        self.check_tols = {b: base.replace(quad_backend=b) for b in self.BACKENDS}

    def _interval(self, info):
        cls = self.classes[info.spec]
        lo, hi = cls.domain
        if info.kind == "series":
            lo, hi = -0.3, 0.3
        else:
            lo = -3.0 if lo == -math.inf else 0.8 * lo
            hi = 3.0 if hi == math.inf else 0.8 * hi
            lo, hi = max(lo, -3.0), min(hi, 3.0)
        a = self.rng.uniform(lo, hi - 0.1 * (hi - lo))
        return a, self.rng.uniform(a + 0.05 * (hi - lo), hi)

    def round(self):
        infos = self.infos[:3] if self.smoke else self.infos
        reqs = []
        for info in infos:
            for backend in self.BACKENDS:
                reqs.append(ChecksRequest(info, backend))
                for _ in range(2):
                    a, b = self._interval(info)
                    reqs.append(CalculusRequest(info, backend, a, b, self.rng.randrange(3)))
        return reqs

    def run(self, req):
        program = self.program
        cls = self.classes[req.info.spec]
        if isinstance(req, ChecksRequest):
            return program.checks.run_checks(cls, self.check_tols[req.backend])
        calculus, tol, one = program.calculus, self.tols[req.backend], lambda x: 1.0
        return {
            "g_weight": calculus.g_integral(cls, one, req.a, req.b, tol, "weight"),
            "g_substitution": calculus.g_integral(cls, one, req.a, req.b, tol, "substitution"),
            "dual_weight": calculus.dual_g_integral(cls, one, req.a, req.b, tol, "weight"),
            "dual_substitution": calculus.dual_g_integral(
                cls, one, req.a, req.b, tol, "substitution"
            ),
            "ftr": calculus.fundamental_theorem_residual(
                cls, _FTR_FUNCS[req.f_index], req.a, req.b, self.check_tols[req.backend]
            ),
        }

    def verify(self, req, output) -> float:
        if isinstance(req, ChecksRequest):
            expected = 8 if req.info.kind == "series" else 10
            if len(output) != expected:
                raise Mismatch(f"{req.info.spec}: {len(output)} suites, expected {expected}")
            failed = [f"{r.name} residual {r.residual:.3g}" for r in output if not r.passed]
            if failed:
                raise CheckFailed(f"{req.info.spec} {req.backend}: {failed}")
            return 0.0
        t_range = self.classes[req.info.spec].t_range
        g, g_inv = closed_g(req.info), closed_g_inv(req.info, t_range)
        exact = {
            "g_weight": g_inv(req.b) - g_inv(req.a),
            "g_substitution": g_inv(req.b) - g_inv(req.a),
            "dual_weight": float(g(req.b) - g(req.a)),
            "dual_substitution": float(g(req.b) - g(req.a)),
        }
        worst = 0.0
        for key, want in exact.items():
            if not abs(output[key] - want) <= INTEGRAL_ABS_TOL:
                raise Mismatch(f"{req}: {key} = {output[key]!r}, exact {want!r}")
            worst = max(worst, rel_err(output[key], want))
        if not max(output["ftr"]) <= FTR_TOL:
            raise Mismatch(f"{req}: fundamental theorem residual {output['ftr']}")
        return worst


WORKLOADS = {w.name: w for w in (Spectra, Arithmetic, Identities)}
