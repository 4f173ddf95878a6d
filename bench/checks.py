"""Output checks for benchmark items, and digests compared with references.

``check`` returns the list of problems found in one item's outputs (empty
when the item is correct).  ``digest`` condenses the outputs into a few
numbers and labels; at the default seed those are compared with the
digests recorded in ``references.json`` within ``REFERENCE_RTOL``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

SIMULATE_HEADER = "t,rx,ry,rz,px,py,pz,sigma_t,overlap,E_total,E_coul,Dxx,Dyy,Dzz,Dxz"
QUADRUPOLE_HEADER = "t,Dxx,Dyy,Dzz,Dxz,verdict"
SWEEP_HEADER = "p,t_coherent,t_classical,t_free,regime"
VERDICTS = {"monotone", "oscillatory", "constant"}
REGIMES = {"classical", "passthrough", "frozen", "noreturn"}

# largest |E(t) - E(0)| / max(|E(0)|, 1) accepted on a --frozen-width
# trajectory, where the Hamiltonian is autonomous and RK4 should conserve it
ENERGY_DRIFT_TOL = 1e-6
# density grids whose cell centres are not exactly antisymmetric in floating
# point may differ from their inversion by rounding; printed with 12
# significant digits, mirrored cells may then differ in the last digit
# (subnormal cells, below the smallest normal double, carry fewer digits)
DENSITY_SYMMETRY_TOL = 1e-11
# t_free and t_classical of a sweep row against their closed forms.  The
# program's adaptive quadrature of t_classical is measured at up to 2.2e-8
# relative error (p = 0.12, r0 = 5), well above its 1e-10 tolerance: near
# the turning point E - k/d cancels.  The check asks for 1e-6.
TRAVELTIME_RTOL = 1e-6
# digests at the default seed must match the recorded ones to this tolerance
REFERENCE_RTOL = 1e-7
REFERENCE_ATOL = 1e-12

_REPORT_LINE = re.compile(
    r"^(PASS|FAIL) (\S+): analytic=(\S+) numeric=(\S+) rel_err=(\S+) nodes=(\d+)"
)


def output_paths(item, out: Path) -> list[Path]:
    """Files an item writes when run with ``--output out``."""
    if item.command != "density" or len(item.meta["times"]) == 1:
        return [out]
    return [
        out.with_name(f"{out.stem}_{k:03d}{out.suffix}")
        for k in range(len(item.meta["times"]))
    ]


def _arg(item, flag: str, default: float | None = None) -> float:
    """The float value of ``flag`` in the item's argv, or the CLI default."""
    if flag not in item.args and default is not None:
        return default
    return float(item.args[item.args.index(flag) + 1])


def _csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError("empty output")
    return lines[0], [line.split(",") for line in lines[1:]]


def _floats(fields) -> list[float]:
    return [float(v) for v in fields]


# ---------------------------------------------------------------------------
# per-command checks; each raises ValueError or returns problem strings
# ---------------------------------------------------------------------------

def _check_trajectory(item, paths, stdout) -> list[str]:
    header, rows = _csv(paths[0])
    quad = item.command == "quadrupole"
    problems = []
    if header != (QUADRUPOLE_HEADER if quad else SIMULATE_HEADER):
        problems.append(f"header {header!r}")
    n_expected = int(round(_arg(item, "--t-max") / _arg(item, "--dt"))) + 1
    if len(rows) != n_expected:
        problems.append(f"{len(rows)} rows, expected {n_expected}")
    width = 6 if quad else 15
    if any(len(r) != width for r in rows):
        return problems + [f"row without {width} fields"]
    values = np.array([_floats(r[:5] if quad else r) for r in rows])
    if not np.all(np.isfinite(values)):
        problems.append("non-finite value")
    if quad:
        if rows[-1][5] not in VERDICTS:
            problems.append(f"verdict {rows[-1][5]!r}")
        if any(r[5] for r in rows[:-1]):
            problems.append("verdict before the last row")
    elif item.meta["frozen"]:
        energy = values[:, 9]
        drift = float(np.max(np.abs(energy - energy[0]))) / max(abs(energy[0]), 1.0)
        if not drift <= ENERGY_DRIFT_TOL:
            problems.append(f"energy drift {drift:.3e} > {ENERGY_DRIFT_TOL:g}")
    return problems


def _check_sweep(item, paths, stdout) -> list[str]:
    header, rows = _csv(paths[0])
    problems = []
    if header != SWEEP_HEADER:
        problems.append(f"header {header!r}")
    grid = np.linspace(item.meta["p_min"], item.meta["p_max"], item.meta["steps"])
    d0, coupling = 2.0 * _arg(item, "--r0", 5.0), _arg(item, "--coupling", 1.0)
    if len(rows) != grid.size:
        return problems + [f"{len(rows)} rows, expected {grid.size}"]
    for k, (row, p) in enumerate(zip(rows, grid.tolist())):
        if any(field.startswith("error:") for field in row):
            problems.append(f"row {k}: {','.join(row)}")
            continue
        if len(row) != 5:
            problems.append(f"row {k} has {len(row)} fields")
            continue
        p_out, t_coh, t_cl, t_free, regime = row
        if not math.isclose(float(p_out), p, rel_tol=1e-11):
            problems.append(f"row {k}: p={p_out}, grid has {p!r}")
        if regime not in REGIMES:
            problems.append(f"row {k}: regime {regime!r}")
        if (t_coh == "") != (regime in ("frozen", "noreturn")):
            problems.append(f"row {k}: t_coherent {t_coh!r} with regime {regime}")
        for label, got, want in (
            ("t_free", t_free, d0 / p),
            ("t_classical", t_cl, classical_return_time(d0, p, coupling)),
        ):
            if not math.isclose(float(got), want, rel_tol=TRAVELTIME_RTOL):
                problems.append(f"row {k}: {label}={got}, closed form {want!r}")
    return problems


def classical_return_time(d0: float, p: float, coupling: float) -> float:
    """Closed-form return time of the classical Coulomb collision.

    Reduced mass 1/2 and relative speed v0 = 2p give E = p^2 + k/d0 and
    t = int_{k/E}^{d0} sqrt(d) / sqrt(E d - k) dd
      = d0 p / E + k E^{-3/2} ln((sqrt(E d0) + p sqrt(d0)) / sqrt(k)),
    which is d0 / p, the free return time, when k = 0.
    """
    energy = p * p + coupling / d0
    if coupling == 0.0:
        return d0 / p
    return d0 * p / energy + coupling * energy ** -1.5 * math.log(
        (math.sqrt(energy * d0) + p * math.sqrt(d0)) / math.sqrt(coupling)
    )


def _check_validate(item, paths, stdout) -> list[str]:
    lines = stdout.splitlines()
    expected = item.meta["reports"]
    if len(lines) != expected + 1:
        return [f"{len(lines) - 1} report lines, expected {expected}"]
    problems = []
    for line in lines[:-1]:
        m = _REPORT_LINE.match(line)
        if m is None or m.group(1) != "PASS":
            problems.append(line)
    if lines[-1] != f"{expected}/{expected} checks passed":
        problems.append(lines[-1])
    return problems


def _centres_antisymmetric(extent: float, n: int) -> bool:
    # the cell centres density_grid uses; exact inversion symmetry of the
    # grid can only hold where these are exactly antisymmetric
    step = 2.0 * extent / n
    coords = -extent + step * (np.arange(n) + 0.5)
    return bool(np.array_equal(coords, -coords[::-1]))


def _check_density(item, paths, stdout) -> list[str]:
    n, extent = item.meta["n"], item.meta["extent"]
    exact = _centres_antisymmetric(extent, n)
    problems = []
    for path, t in zip(paths, item.meta["times"]):
        lines = path.read_text().splitlines()
        comment = f"# t={t:.12g} extent={extent:.12g} n={n}"
        if lines[0] != comment:
            problems.append(f"{path.name}: {lines[0]!r}, expected {comment!r}")
        grid = np.array([_floats(line.split()) for line in lines[1:]])
        if grid.shape != (n, n):
            problems.append(f"{path.name}: shape {grid.shape}, expected {(n, n)}")
            continue
        if not np.all(np.isfinite(grid)) or float(np.min(grid)) < 0.0:
            problems.append(f"{path.name}: non-finite or negative cell")
        flipped = grid[::-1, ::-1]
        if exact:
            if not np.array_equal(grid, flipped):
                problems.append(f"{path.name}: not exactly inversion symmetric")
        elif not np.allclose(
            grid, flipped, rtol=DENSITY_SYMMETRY_TOL, atol=np.finfo(float).tiny
        ):
            problems.append(f"{path.name}: not inversion symmetric")
    return problems


_CHECKS = {
    "simulate": _check_trajectory,
    "quadrupole": _check_trajectory,
    "sweep-traveltime": _check_sweep,
    "validate": _check_validate,
    "density": _check_density,
}


def check(item, rc: int, paths: list[Path], stdout: str) -> list[str]:
    """Problems found in one item's exit code and outputs."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return _CHECKS[item.command](item, paths, stdout)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]


# ---------------------------------------------------------------------------
# reference digests
# ---------------------------------------------------------------------------

def digest(item, paths: list[Path], stdout: str) -> list:
    """A few numbers and labels that pin an item's outputs."""
    if item.command in ("simulate", "quadrupole"):
        _, rows = _csv(paths[0])
        picks = [rows[0], rows[len(rows) // 2], rows[-1]]
        return [len(rows)] + [[_parse(v) for v in row] for row in picks]
    if item.command == "sweep-traveltime":
        _, rows = _csv(paths[0])
        return [[_parse(v) for v in row] for row in rows]
    if item.command == "validate":
        out = []
        for line in stdout.splitlines()[:-1]:
            m = _REPORT_LINE.match(line)
            out.append([m.group(2), float(m.group(3)), float(m.group(4))])
        return out
    out = []
    for path in paths:
        grid = np.loadtxt(path, comments="#", ndmin=2)
        n = grid.shape[0]
        out.append([
            n, float(grid.sum()), float(grid.max()),
            float(grid[n // 2, n // 2]), float(grid[n // 3, n // 4]),
        ])
    return out


def _parse(value: str):
    try:
        return float(value)
    except ValueError:
        return value


def compare(got, want, where: str = "") -> list[str]:
    """Differences between a digest and its reference."""
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        problems = []
        for k, (g, w) in enumerate(zip(got, want)):
            problems += compare(g, w, f"{where}[{k}]")
        return problems
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL):
            return []
    elif got == want:
        return []
    return [f"{where}: {got!r} != reference {want!r}"]
