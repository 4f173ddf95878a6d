"""Single coherent electron in atomic units (hbar = m = 1, e0^2 = 1).

The packet is a minimum-uncertainty Gaussian labelled by its culmination
width ``sigma``, mean center ``r0`` and mean momentum ``p0``; every packet
culminates at t = 0.  Free evolution drifts the center along r0 + p0 t and
grows the width as sigma * sqrt(1 + omega^2 t^2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


def _vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError("vector components must be finite")
    return a


@dataclass(frozen=True, eq=False)
class PacketParams:
    """One Gaussian coherent electron.

    ``sigma`` is the per-axis coordinate uncertainty at culmination (Bohr),
    ``r0``/``p0`` the mean center and momentum at culmination (t = 0).
    """

    sigma: float
    r0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    p0: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        # sigma^2 divides the spreading rate and every Gaussian exponent
        if not (self.sigma > 0 and sys.float_info.min <= self.sigma * self.sigma < math.inf):
            raise ValueError("sigma must be positive, with a normal finite square")
        object.__setattr__(self, "r0", _vec3(self.r0))
        object.__setattr__(self, "p0", _vec3(self.p0))


def spreading_rate(params: PacketParams) -> float:
    """Spreading rate omega = hbar / (2 m sigma^2), a.u.: 1 / (2 sigma^2).

    This is the unique rate for which the free-evolution variance obeys
    sigma_x^2(t) = sigma^2 (1 + omega^2 t^2); it is pinned by the
    grid Fourier evolution oracle in :mod:`coherentpair.oracle`.
    """
    return 0.5 / (params.sigma * params.sigma)


def kinetic_energy(params: PacketParams) -> float:
    """Mean kinetic energy p0^2/(2m) + 3 hbar^2 / (8 m sigma^2).

    The second term is the momentum-uncertainty contribution; it is the
    dimensionally consistent value pinned by the momentum-space quadrature
    oracle.
    """
    p2 = float(np.dot(params.p0, params.p0))
    return 0.5 * p2 + 3.0 / (8.0 * params.sigma * params.sigma)
