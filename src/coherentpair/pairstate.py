"""Two-electron (anti)symmetrized pair state built from mirrored packets.

The pair is parametrized in the center-of-mass frame: packet 1 carries
(+r0, +p0), packet 2 carries (-r0, -p0), both of width sigma.  The spatial
part is symmetric for anti-parallel spins, antisymmetric for parallel
spins.  The distinguishable mode (bare product, no symmetrization) isolates
the exchange terms; the CLI selects it with ``--spin distinguishable``.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateState, NonFinite

_DEGENERATE_EPS = 1e-12


def _vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError("vector components must be finite")
    return a


class ExchangeSymmetry(enum.Enum):
    """Sign of the spatial exchange term.

    SYMMETRIC: anti-parallel spins, "+" combination.
    ANTISYMMETRIC: parallel spins, "-" combination.
    DISTINGUISHABLE: no symmetrization (baseline for isolating exchange).
    """

    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"
    DISTINGUISHABLE = "distinguishable"

    @property
    def sign(self) -> int:
        """+1, -1 or 0 entering 1 +/- N^2 denominators and exchange terms."""
        if self is ExchangeSymmetry.SYMMETRIC:
            return 1
        if self is ExchangeSymmetry.ANTISYMMETRIC:
            return -1
        return 0


@dataclass(frozen=True, eq=False)
class PairConfig:
    """Mirrored coherent pair: packets at +/- r0 with momenta +/- p0.

    ``sigma`` is the per-axis coordinate uncertainty of each packet at
    culmination, t = 0.  ``coupling`` is the Coulomb strength e0^2 (1 in
    atomic units).  Both packets spread freely at the rate
    omega = hbar / (2 m sigma^2), the unique rate for which the variance
    obeys sigma_x^2(t) = sigma^2 (1 + omega^2 t^2), pinned by the grid
    Fourier evolution oracle; ``frozen_width`` is the comparison model
    with omega = 0, whose width stays sigma.
    """

    sigma: float
    r0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    p0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    symmetry: ExchangeSymmetry = ExchangeSymmetry.SYMMETRIC
    coupling: float = 1.0
    frozen_width: bool = False
    omega: float = field(init=False)

    def __post_init__(self) -> None:
        # sigma^2 divides the spreading rate and every Gaussian exponent
        if not (self.sigma > 0 and sys.float_info.min <= self.sigma * self.sigma < math.inf):
            raise ValueError("sigma must be positive, with a normal finite square")
        object.__setattr__(self, "r0", _vec3(self.r0))
        object.__setattr__(self, "p0", _vec3(self.p0))
        if np.any(np.abs(self.r0) > sys.float_info.max / 2):
            raise ValueError("r0 is beyond half the float range: the separation 2*r0 overflows")
        omega = 0.0 if self.frozen_width else 0.5 / (self.sigma * self.sigma)
        object.__setattr__(self, "omega", omega)
        if self.symmetry is ExchangeSymmetry.ANTISYMMETRIC and not (
            np.any(self.r0 != 0.0) or np.any(self.p0 != 0.0)
        ):
            raise ValueError(
                "antisymmetric pair with r0 = p0 = 0 vanishes identically"
            )

    def width(self, t: float) -> float:
        """Packet width sigma_x(t) = sigma sqrt(1 + omega^2 t^2); exactly sigma when frozen."""
        if self.omega == 0.0:  # the law's bytes at finite t; at +-inf it reads 0 * inf
            return self.sigma
        if abs(self.omega * t) < 2.0 ** 27:
            return self.sigma * math.sqrt(1.0 + (self.omega * t) ** 2)
        # the 1 is below half an ulp of (omega t)^2; sigma omega first, as omega t may overflow
        return (self.sigma * self.omega) * abs(t)


def kinetic_energy(sigma: float, p0) -> float:
    """Mean kinetic energy p0^2/(2m) + 3 hbar^2 / (8 m sigma^2) of one packet.

    The second term is the momentum-uncertainty contribution; it is the
    dimensionally consistent value pinned by the momentum-space quadrature
    oracle.
    """
    p2 = float(np.dot(p0, p0))
    return 0.5 * p2 + 3.0 / (8.0 * sigma * sigma)


def overlap_from_params(offset2, p2, s) -> float | np.ndarray:
    """|<Psi_1|Psi_2>| for mirrored packets.

    ``offset2`` is the squared center offset |c|^2 of packet 1 (packet 2
    sits at -c), ``p2`` the squared momentum, ``s`` the current width:
    floats, giving a float, or arrays of one shape, giving an array.
    Closed form exp(-|c|^2/(2 s^2) - 2 s^2 p^2), pinned by the 3D
    quadrature oracle.
    """
    out = np.exp(-offset2 / (2.0 * s * s) - 2.0 * s * s * p2)
    return float(out) if np.ndim(out) == 0 else out


def overlap(config: PairConfig, t: float = 0.0) -> float:
    """Overlap integral N(t) of the two freely drifting packets."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    s = config.width(t)
    c = config.r0 + config.p0 * t
    return overlap_from_params(float(np.dot(c, c)), float(np.dot(config.p0, config.p0)), s)


def density_from_params(x, c, p, s: float, sign: int) -> float | np.ndarray:
    """One-particle density of a mirrored pair with packets at +/- c.

    Two Gaussians of width ``s`` at +/- c plus an interference Gaussian at
    the midpoint weighted by the overlap; normalized so the integral is 2.
    ``x`` is the coordinates (x0, x1, x2), floats or arrays that broadcast
    together (a point of shape (3,), points of shape (3, ...), or a plane's
    (1, n) row, (n, 1) column and scalar), giving a float or their shape.
    """
    c = np.asarray(c, dtype=float).reshape(3).tolist()
    p = np.asarray(p, dtype=float).reshape(3).tolist()
    w = 2.0 * s * s
    try:
        norm = (math.pi * w) ** -1.5
    except OverflowError:
        raise NonFinite(f"the density normalization overflows at sigma_x = {s:.12g}") from None
    # every term is a product of one-axis factors, smallest axis first, so a
    # grid takes exponentials on its row and column only; a point and its
    # mirror image swap the lobes, and conjugate the exchange factors, exactly
    axes = sorted(zip(x, c, p), key=lambda axis: np.size(axis[0]))
    out = functools.reduce(np.multiply, [np.exp(-(xa - ca) ** 2 / w) for xa, ca, _ in axes])
    out += functools.reduce(np.multiply, [np.exp(-(xa + ca) ** 2 / w) for xa, ca, _ in axes])
    den = 1.0
    if sign != 0:
        cc = sum(ca * ca for ca in c)
        n = overlap_from_params(cc, sum(pa * pa for pa in p), s)
        den = 1.0 + sign * n * n
        if den <= _DEGENERATE_EPS:
            raise DegenerateState("antisymmetric pair state with overlap N -> 1")
        # the interference Gaussian times cos(2 p.x), the real part of its phases
        phases = [np.exp(-xa * xa / w + 2j * (pa * xa)) for xa, _, pa in axes]
        out += functools.reduce(np.multiply, phases, sign * 2.0 * n * math.exp(-cc / w)).real
    out *= norm
    out /= den
    return float(out) if np.ndim(out) == 0 else out
