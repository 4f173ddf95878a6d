"""Averaged relative-motion Hamiltonian of the pair and its gradients.

The phase-space state carries the relative coordinate r = r1 - r2 and the
relative momentum p = (p1 - p2)/2; the underlying packets sit at +/- r/2
with momenta +/- p and share the config's width sigma_x(t).  This pair
(r, p) is canonically conjugate, so Hamilton's equations dr/dt = dE/dp,
dp/dt = -dE/dr reduce to the reduced-mass m/2 Coulomb collision when the
width is small.  Without the Coulomb term they reproduce free packet drift
(each center moves at p/m) for the distinguishable pair only: the exchange
terms still move an overlapping symmetric or antisymmetric pair.

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
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI


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


def _core(rho: float, pp: float, s: float, sign: float, kappa: float, terms: bool = True):
    """Energy terms and d/drho, d/dpp of the total at fixed width.

    rho = |r|^2, pp = |p|^2, sign -1, 0 or +1 (as a float it spares every
    product a conversion).  Returns (breakdown tuple, dE_drho, dE_dpp); with
    ``terms`` false an exchange pair's breakdown is None.  The exchange terms
    are in the pair's own units a = rho / 4s^2 and b = 4 s^2 |p|^2: kinetic
    ones are functions of (a, b) over 4s^2, Coulomb ones times kappa / s.
    """
    s2 = s * s
    s4 = 4.0 * s2
    z2 = rho / s4
    if not z2 < math.inf:
        # erf(d / 2s) is 1 long before z2 overflows (or is inf/inf): 1/d, and e_r = 0
        q = 1.0 / math.sqrt(rho)
        return (pp, 3.0 / (8.0 * s2), 0.0, kappa * q, 0.0), kappa * (-q / (2.0 * rho)), 1.0
    # q = erf(d / 2s) / d as a smooth function of rho = d^2, and dq/drho, from
    # one erf call; series branches cover small separations
    e_r = math.exp(-z2)
    sps = _SQRT_PI * s
    if z2 < 1e-6:
        q = (1.0 - z2 / 3.0 + z2 * z2 / 10.0) / sps
    else:
        z = math.sqrt(z2)
        e = numerics.erf(z)
        d = 2.0 * s * z  # the separation: 2 d^3 stays finite where s^3 z^3 overflows
        q = e / d
    if z2 < 1e-4:
        dq = (-1.0 / 3.0 + z2 / 5.0 - z2 * z2 / 14.0) / sps / s4
    else:
        dq = (_TWO_OVER_SQRT_PI * z * e_r - e) / (2.0 * d * d * d)
    d_term = kappa * q
    if not sign or e_r == 0.0:
        # every exchange term carries e_r: all vanish (distinguishable packets have none)
        return (pp, 3.0 / (8.0 * s2), 0.0, d_term, 0.0), kappa * dq, 1.0
    x = 2.0 * s * math.sqrt(pp)
    b = x * x
    g = math.exp(-z2 - b)
    sg = sign * g
    den = 1.0 + sg
    if den <= _DEGENERATE_EPS:
        raise DegenerateState("averaged Hamiltonian undefined at N -> 1")
    # phi(b) = F(x)/x and phi'(b) at x = 2 s |p| from one dawson call, series filling
    # in x = 0; from x = 100 on phi' is -1/(2b^2) - 1/(2b^3) - 9/(8b^4) - 15/(4b^5),
    # whose first dropped term is below 4e-15 relative, where the direct one cancels
    if x < 1e-3:
        fr = 1.0 - 2.0 * b / 3.0 + 4.0 * b * b / 15.0 if x < 1e-4 else numerics.dawson(x) / x
        fr_dx2 = -2.0 / 3.0 + 8.0 * b / 15.0 - 8.0 * b * b / 35.0
    else:
        f = numerics.dawson(x)
        fr = f / x
        if x < 100.0:
            fr_dx2 = (x - 2.0 * b * f - f) / (2.0 * x ** 3)
        else:
            v = 1.0 / b
            fr_dx2 = -v * v * (0.5 + v * (0.5 + v * (1.125 + 3.75 * v)))
    # sg (a + m), m = 4s^2 (E - 3/8s^2), enters both gradients as wa + 4s wc: w = sg / den,
    # wa = w (a + b), wc = w s (d_term + sign x_term); wa is 0 where g = 0 and b may be inf
    xs = kappa * e_r / _SQRT_PI
    xf = sign * xs * fr
    w = sg / den
    wa = w * (z2 + b) if g else 0.0
    cs = kappa * (s * q)
    wc = w * (cs + xf)
    parts = (pp, 3.0 / (8.0 * s2), -wa / s4, d_term, (xf - sg * cs) / s / den) if terms else None
    de_drho = (kappa * dq + ((wa - sg) / s4 + (wc - xf) / s) / s4) / den
    de_dpp = (1.0 + wa + 4.0 * s * (wc + sign * xs * fr_dx2)) / den
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
