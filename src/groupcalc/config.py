"""Central tolerance/configuration record, and the one parser of the
``key=value`` items that every textual input is made of.

Every numerical knob lives here so the CLI can override any of them in one
place (``--tol name=value``).
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass

from .errors import require_finite, require_positive

# the backend names calculus.integrate and spectral.solve_eigen dispatch on
QUAD_BACKENDS = ("simpson", "gauss16")
EIGEN_BACKENDS = ("sturm", "ql")
# the coordinate of a spectral grid: plain x, or the deformed u = G^-1(x)
SPACE_X = "x"
SPACE_G = "g"
_CHOICES = {"quad_backend": QUAD_BACKENDS, "eigen_backend": EIGEN_BACKENDS}


@dataclass(frozen=True)
class Tolerances:
    """Every number here is finite and > 0, and every backend one of its
    choices; a record that is not raises on construction."""

    # generator round trips and closed-form cross checks
    roundtrip_rel: float = 1e-12
    oracle_rel: float = 1e-11
    # numeric inversion of generators (Abe, truncated series)
    inverse_abs: float = 1e-14
    inverse_max_iter: int = 200
    series_gprime_min: float = 0.5
    # finite differences: step = fd_step_scale * (1 + |x|)
    fd_step_scale: float = 1e-5
    # quadrature
    quad_abs: float = 1e-10
    quad_max_depth: int = 40
    quad_backend: str = "simpson"  # "simpson" | "gauss16"
    # eigensolver
    eigen_residual: float = 1e-8
    eigen_backend: str = "sturm"  # "sturm" | "ql"

    def __post_init__(self):
        for name, value in vars(self).items():
            if name not in _CHOICES:
                require_positive(name, value)
            elif value not in _CHOICES[name]:
                raise ValueError(f"{name} must be one of {_CHOICES[name]}, got {value!r}")

    def replace(self, **overrides) -> "Tolerances":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOLERANCES = Tolerances()


def parse_items(items, what: str) -> dict[str, str]:
    """``{key: value}`` of ``key=value`` strings, both stripped; a later key
    wins.  Serves class and potential specs, ``--tol`` pairs and the lines
    of the configuration file; ``what`` names the input in the error."""
    out = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad {what}: expected key=value, got {item!r}")
        out[key.strip()] = value.strip()
    return out


def parse_tolerance_overrides(pairs, base: Tolerances = DEFAULT_TOLERANCES) -> Tolerances:
    """Apply ``name=value`` override strings to a tolerance record; each value
    is converted by the declared type of its field."""
    types = typing.get_type_hints(Tolerances)
    updates = parse_items(pairs, "tolerance override")
    for name, raw in updates.items():
        if name not in types:
            raise ValueError(f"unknown tolerance override {name!r}")
        updates[name] = types[name](raw)
    return base.replace(**updates)


class Spec:
    """A ``name:key=value,...`` specification (a group class, a potential),
    split once: :meth:`number` takes a parameter out as a finite float."""

    def __init__(self, text: str):
        self.text = text
        self.name, _, args = text.partition(":")
        self.params = parse_items(args.split(",") if args else (), f"spec {text!r}")

    def number(self, key: str) -> float:
        if key not in self.params:
            raise ValueError(f"spec {self.text!r} is missing parameter {key!r}")
        return require_finite(f"{self.name}:{key}", float(self.params.pop(key)))

    def finish(self, value):
        """``value``, built from the parameters taken, if no other is left."""
        if self.params:
            raise ValueError(f"spec {self.text!r} has unknown parameters {sorted(self.params)}")
        return value
