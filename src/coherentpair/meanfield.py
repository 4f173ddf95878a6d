"""Averaged relative-motion Hamiltonian of the pair and its gradients.

The phase-space state carries the relative coordinate r = r1 - r2 and the
relative momentum p = (p1 - p2)/2; the underlying packets sit at +/- r/2
with momenta +/- p and share the config's width sigma_x(t).  This pair
(r, p) is canonically conjugate, so Hamilton's equations dr/dt = dE/dp,
dp/dt = -dE/dr reproduce free packet drift (each center moves at p/m) and
reduce to the reduced-mass m/2 Coulomb collision when the width is small.

Every closed-form term below was derived from Gaussian integrals over the
pair state and is pinned term-by-term by the quadrature oracles; none of
them is trusted on its own.  One kernel, ``_core``, gives the energy terms
and the analytic gradient the dynamics integrates; the tests hold that
gradient to central differences of the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DegenerateState
# bench/tracer.py wraps overlap_from_params under this module's name as well
from .pairstate import _DEGENERATE_EPS, PairConfig, _vec3, overlap_from_params  # noqa: F401

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True, eq=False)
class PhaseState:
    """Mean-field canonical pair (r, p) at time t for a given config.

    ``r`` is the relative coordinate (packet centers at +/- r/2), ``p``
    the relative momentum (packet momenta +/- p).
    """

    r: np.ndarray
    p: np.ndarray
    t: float
    config: PairConfig

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ValueError("phase state time must be finite")
        object.__setattr__(self, "r", _vec3(self.r))
        object.__setattr__(self, "p", _vec3(self.p))

    @property
    def width(self) -> float:
        """Packet width sigma_x(t) of the config."""
        return self.config.width(self.t)


def initial_state(config: PairConfig) -> PhaseState:
    """Phase state at culmination: r = 2 r0 (packets at +/- r0), p = p0."""
    return PhaseState(2.0 * config.r0, config.p0, 0.0, config)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Term-by-term expectation of the relative-motion Hamiltonian."""

    kinetic_classical: float
    kinetic_uncertainty: float
    kinetic_exchange: float
    coulomb_direct: float
    coulomb_exchange: float

    @property
    def total(self) -> float:
        return (
            self.kinetic_classical
            + self.kinetic_uncertainty
            + self.kinetic_exchange
            + self.coulomb_direct
            + self.coulomb_exchange
        )

    @property
    def coulomb(self) -> float:
        return self.coulomb_direct + self.coulomb_exchange


def _erf_over_d(rho: float, s: float) -> tuple[float, float]:
    """q(rho) = erf(d / 2s) / d as a smooth function of rho = d^2, and dq/drho.

    One ``erf`` call serves both; series branches cover small separations.
    """
    z2 = rho / (4.0 * s * s)
    if z2 == math.inf:
        # erf(d / 2s) is 1 long before z2 overflows: the point-charge limit 1/d
        q = 1.0 / math.sqrt(rho)
        return q, -q / (2.0 * rho)
    if z2 < 1e-6:
        q = (1.0 - z2 / 3.0 + z2 * z2 / 10.0) / (_SQRT_PI * s)
    else:
        z = math.sqrt(z2)
        e = numerics.erf(z)
        d = 2.0 * s * z  # the separation: 2 d^3 stays finite where s^3 z^3 overflows
        q = e / d
    if z2 < 1e-4:
        dq = (-1.0 / 3.0 + z2 / 5.0 - z2 * z2 / 14.0) / (_SQRT_PI * s) / (4.0 * s * s)
    else:
        dq = ((2.0 / _SQRT_PI) * z * math.exp(-z2) - e) / (2.0 * d * d * d)
    return q, dq


def _core(rho: float, pp: float, s: float, sign: int, kappa: float):
    """Energy terms and d/drho, d/dpp of the total at fixed width.

    rho = |r|^2, pp = |p|^2.  Returns (breakdown tuple, dE_drho, dE_dpp).
    """
    s2 = s * s
    uncert = 3.0 / (8.0 * s2)
    q, dq = _erf_over_d(rho, s)
    d_term = kappa * q
    d_term_drho = kappa * dq

    e_r = math.exp(-rho / (4.0 * s2)) if sign else 0.0
    if e_r == 0.0:
        # every exchange term carries e_r, so all vanish (distinguishable packets
        # have none); b below need not be finite
        return (pp, uncert, 0.0, d_term, 0.0), d_term_drho, 1.0
    g = math.exp(-rho / (4.0 * s2) - 4.0 * s2 * pp)
    den = 1.0 + sign * g
    if den <= _DEGENERATE_EPS:
        raise DegenerateState("averaged Hamiltonian undefined at N -> 1")

    x_arg = 2.0 * s * math.sqrt(pp)
    fr, fr_dx2 = numerics.dawson_ratio(x_arg)
    x_pref = kappa * e_r / (_SQRT_PI * s)
    x_term = x_pref * fr

    b = rho / (16.0 * s2 * s2)
    kin_ex = -sign * g * (pp + b) / den
    cou_ex = sign * (x_term - g * d_term) / den
    parts = (pp, uncert, kin_ex, d_term, cou_ex)

    dg_drho = -g / (4.0 * s2)
    dg_dpp = -4.0 * s2 * g
    db_drho = 1.0 / (16.0 * s2 * s2)
    dx_drho = -x_term / (4.0 * s2)
    dx_dpp = x_pref * fr_dx2 * 4.0 * s2

    num = pp - sign * g * b + d_term + sign * x_term
    dnum_drho = -sign * (dg_drho * b + g * db_drho) + d_term_drho + sign * dx_drho
    dnum_dpp = 1.0 - sign * dg_dpp * b + sign * dx_dpp

    de_drho = (dnum_drho * den - num * sign * dg_drho) / (den * den)
    de_dpp = (dnum_dpp * den - num * sign * dg_dpp) / (den * den)
    return parts, de_drho, de_dpp


def avg_hamiltonian(state: PhaseState) -> EnergyBreakdown:
    """Expectation of p_rel^2/m + e0^2/|r1 - r2| in the pair state at time t.

    Terms: quasi-classical p^2/m, uncertainty kinetic 3 hbar^2/(8 m s^2),
    exchange kinetic -/+ N^2 (p^2 + hbar^2 r^2/(16 s^4)) / (1 +/- N^2),
    direct Coulomb erf(|r|/2s)/|r|, and the Dawson-family Coulomb exchange
    weighted by N^2/(1 +/- N^2).
    """
    # the squares summed left to right, as the dynamics' right-hand side sums them
    rx, ry, rz = state.r.tolist()
    px, py, pz = state.p.tolist()
    rho, pp = rx * rx + ry * ry + rz * rz, px * px + py * py + pz * pz
    parts, _, _ = _core(rho, pp, state.width, state.config.symmetry.sign, state.config.coupling)
    return EnergyBreakdown(*parts)
