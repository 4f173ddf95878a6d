"""Quadrupole-moment observables of the pair's charge density.

The tensor follows the operational moment definition: diagonal entries
are int rho (3 x_a^2 - r^2), the off-diagonal entry is int rho x z, with
rho = e n(r) and int n = 2 (e = 1 in atomic units).  Configurations are
restricted to the x-z plane (offset and momentum both in-plane), which
keeps d_xy = d_yz = 0; the offset is not required to lie on the z axis so
that the formulas stay valid along a whole trajectory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, PreconditionViolated
from .meanfield import PhaseState
from .pairstate import _DEGENERATE_EPS, density_from_params, overlap_from_params


@dataclass(frozen=True)
class QuadrupoleTensor:
    """Symmetric traceless second-moment tensor for an in-plane pair.

    The entries are floats for one state and (n,) arrays for a series.
    """

    d_xx: float
    d_yy: float
    d_zz: float
    d_xz: float


def tensor_from_params(c, p, s, sign: int) -> QuadrupoleTensor:
    """Closed-form tensor for packets at +/- c with momenta +/- p, width s.

    Second moments of the two-electron density:
    M_ab = [2 c_a c_b + 2 s^2 d_ab +/- 2 N^2 (s^2 d_ab - 4 s^4 p_a p_b)]
           / (1 +/- N^2),
    from which the diagonal is 3 M_aa - tr M and the off-diagonal is M_xz.
    ``c`` and ``p`` have shape (3,) with a float ``s``, giving float
    entries, or shape (n, 3) with n widths, giving (n,) arrays; every
    sample must lie in the x-z plane.
    """
    c = np.asarray(c, dtype=float)
    p = np.asarray(p, dtype=float)
    cx, cy, cz = c[..., 0], c[..., 1], c[..., 2]
    px, py, pz = p[..., 0], p[..., 1], p[..., 2]
    c2 = cx * cx + cy * cy + cz * cz
    p2 = px * px + py * py + pz * pz
    if np.any(np.abs(cy) > 1e-12 * (1.0 + np.sqrt(c2))) or np.any(
        np.abs(py) > 1e-12 * (1.0 + np.sqrt(p2))
    ):
        raise PreconditionViolated("configuration must lie in the x-z plane")
    s2 = s * s
    n = overlap_from_params(c2, p2, s)
    g = sign * n * n
    den = 1.0 + g
    if np.any(den <= _DEGENERATE_EPS):
        raise DegenerateState("quadrupole tensor undefined at N -> 1")
    w = 8.0 * s2 * s2 * g
    entries = (
        (6.0 * (cx * cx) - 2.0 * c2 + w * (p2 - 3.0 * (px * px))) / den,
        (6.0 * (cy * cy) - 2.0 * c2 + w * (p2 - 3.0 * (py * py))) / den,
        (6.0 * (cz * cz) - 2.0 * c2 + w * (p2 - 3.0 * (pz * pz))) / den,
        (2.0 * cx * cz - w * px * pz) / den,
    )
    return QuadrupoleTensor(*(float(e) if np.ndim(e) == 0 else e for e in entries))


class SeriesKind(enum.Enum):
    MONOTONE_AFTER_TRANSIENT = "monotone"
    OSCILLATORY = "oscillatory"
    CONSTANT = "constant"


@dataclass(frozen=True)
class SeriesVerdict:
    """Qualitative shape of a quadrupole time series.

    ``extrema_count`` is the number of turning points of d_zz over the
    whole series, the first sample to the last.
    """

    kind: SeriesKind
    extrema_count: int


def quadrupole_timeseries(traj) -> QuadrupoleTensor:
    """Tensor of the mean-field state(s) from the instantaneous (r, p, s).

    Reads only ``r``, ``p``, ``width`` and ``config``: a ``Trajectory``
    gives one entry per sample, a ``PhaseState`` float entries.
    """
    return tensor_from_params(0.5 * traj.r, traj.p, traj.width, traj.config.symmetry.sign)


def detect(series: QuadrupoleTensor) -> SeriesVerdict:
    """Classify the d_zz(t) of an array-valued tensor by counting extrema.

    Every sample counts, however long the run: an extremum counts only if
    the excursion on both sides exceeds the noise guard 1e-9 * max|d_zz|.
    A head-on collision turns d_zz once, at the closest approach, so only
    two or more extrema yield OSCILLATORY.
    """
    dzz = np.asarray(series.d_zz, dtype=float)
    if dzz.size == 0:
        raise ValueError("empty series")
    eps = 1e-9 * max(float(np.max(np.abs(dzz))), 1e-300)
    if float(np.max(dzz) - np.min(dzz)) <= eps:
        return SeriesVerdict(SeriesKind.CONSTANT, 0)
    extrema = 0
    direction = 0
    anchor = dzz[0]
    for v in dzz[1:]:
        move = v - anchor
        if abs(move) <= eps:
            continue
        step = 1 if move > 0 else -1
        if direction == 0:
            direction = step
        elif step != direction:
            extrema += 1
            direction = step
        anchor = v
    if extrema >= 2:
        return SeriesVerdict(SeriesKind.OSCILLATORY, extrema)
    return SeriesVerdict(SeriesKind.MONOTONE_AFTER_TRANSIENT, extrema)


class Plane(enum.Enum):
    XZ = "xz"
    XY = "xy"
    YZ = "yz"


def density_grid(state: PhaseState, plane: Plane, extent: float, n: int) -> np.ndarray:
    """One-particle density sampled on a plane through the origin.

    Row-major n x n grid of cell centers with uniform spacing
    2 extent / n; rows vary the second plane coordinate, columns the
    first (for "xz": columns are x, rows are z), which the density gets as
    a (1, n) row and an (n, 1) column, with 0 on the normal axis.
    """
    if n < 16:
        raise ValueError("grid needs at least 16 cells per side")
    if extent <= 0:
        raise ValueError("extent must be positive")
    step = 2.0 * extent / n
    coords = -extent + step * (np.arange(n) + 0.5)
    a_col, a_row = {Plane.XZ: (0, 2), Plane.XY: (0, 1), Plane.YZ: (1, 2)}[plane]
    x = [0.0, 0.0, 0.0]
    x[a_col] = coords[np.newaxis, :]
    x[a_row] = coords[:, np.newaxis]
    return density_from_params(
        x, 0.5 * state.r, state.p, state.width, state.config.symmetry.sign
    )
