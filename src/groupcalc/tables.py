"""Deterministic CSV / structured-text emission.

All numbers are written with 12 significant digits so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import os


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def csv_line(values) -> str:
    return ",".join(fmt(v) for v in values)


def write_csv(path, rows, header: str | None = None, comment: str | None = None) -> None:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    if header:
        lines.append(header)
    lines.extend(csv_line(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def write_sidecar(path, entries) -> None:
    """Compact key: value metadata block."""
    lines = [f"{key}: {fmt(value)}" for key, value in entries]
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_spectrum(spectrum, out_dir: str, stem: str = "spectrum") -> list[str]:
    """Write energies, per-state samples and the metadata sidecar.

    Returns the list of file paths written.
    """
    meta = spectrum.solver_meta
    paths = []

    energies_path = os.path.join(out_dir, f"{stem}_energies.csv")
    rows = [
        (n + 1, e, r)
        for n, (e, r) in enumerate(zip(spectrum.energies, meta.get("residuals", [])))
    ]
    write_csv(energies_path, rows, header="n,energy,residual")
    paths.append(energies_path)

    x_grid = None  # the states of a spectrum share one grid: format it once
    for n, state in enumerate(spectrum.states, start=1):
        state_path = os.path.join(out_dir, f"{stem}_state_{n}.csv")
        if state.grid is not x_grid:
            x_grid = state.grid
            cells = [None] * (3 * x_grid.n_points)  # rows of x, re_psi, prob_density
            cells[0::3] = ["%.12g" % x for x in x_grid.nodes.tolist()]
            # "%.12g" writes the digits of fmt; states are real, and im_psi
            # stays as a column of zeros for format stability
            template = "x,re_psi,im_psi,prob_density\n" + "%s,%.12g,0,%.12g\n" * x_grid.n_points
        values = state.values.tolist()
        cells[1::3] = values
        cells[2::3] = [v**2 for v in values]
        _write_text(state_path, template % tuple(cells))
        paths.append(state_path)

    sidecar = os.path.join(out_dir, f"{stem}_meta.txt")
    write_sidecar(
        sidecar,
        [
            ("class", meta.get("class")),
            ("space", meta.get("space")),
            ("n_points", meta.get("n_points")),
            ("spacing", meta.get("spacing")),
            ("hbar", meta.get("hbar")),
            ("m0", meta.get("m0")),
            ("backend", meta.get("backend")),
            ("max_residual", max(meta.get("residuals", [0.0]))),
        ],
    )
    paths.append(sidecar)
    return paths
