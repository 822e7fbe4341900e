"""Central tolerance/configuration record.

Every numerical knob lives here so the CLI can override any of them in one
place (``--tol name=value``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
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

    def replace(self, **overrides) -> "Tolerances":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOLERANCES = Tolerances()


def parse_tolerance_overrides(pairs, base: Tolerances = DEFAULT_TOLERANCES) -> Tolerances:
    """Apply ``name=value`` override strings to a tolerance record."""
    fields = {f.name: f.type for f in dataclasses.fields(Tolerances)}
    updates = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        name = name.strip()
        if not sep or name not in fields:
            raise ValueError(f"unknown tolerance override {pair!r}")
        if name in ("quad_backend", "eigen_backend"):
            updates[name] = raw.strip()
        elif name in ("quad_max_depth", "inverse_max_iter"):
            updates[name] = int(raw)
        else:
            updates[name] = float(raw)
        value = updates[name]
        if not isinstance(value, str) and not (math.isfinite(value) and value > 0):
            raise ValueError(f"tolerance {name} must be positive and finite, got {raw!r}")
    return base.replace(**updates)
