"""Wave functions written out point by point: the reference for the closed forms.

The package works with closed-form overlaps, densities and moments; these
functions let the tests integrate |psi|^2 by brute force and compare.  The
amplitudes take one point of shape (3,) or an array of points of shape
(..., 3) and return complex values of shape ``r.shape[:-1]``.
"""

import math

import numpy as np

from coherentpair.errors import DegenerateState
from coherentpair.pairstate import _DEGENERATE_EPS, ExchangeSymmetry, PairConfig, overlap
from coherentpair.wavepacket import PacketParams, SpreadLaw


def center(params: PacketParams, t: float) -> np.ndarray:
    """Drifted packet center r0 + p0 t / m."""
    return params.r0 + params.p0 * t


def amplitude(params: PacketParams, law: SpreadLaw, r, t: float):
    """Wave function value at position ``r`` and time ``t``.

    Gaussian envelope of width sigma_x(t) around the drifted center with a
    plane-wave phase exp(i p0 . r).  Unit norm; the global (Gouy) phase of
    the exact propagator is dropped since every quantity compared is a
    density.
    """
    r = np.asarray(r, dtype=float)
    s = law.width(params.sigma, t)
    d = r - center(params, t)
    d2 = np.sum(d * d, axis=-1)
    norm = (2.0 * math.pi * s * s) ** -0.75
    phase = r @ params.p0
    return norm * np.exp(-d2 / (4.0 * s * s)) * (np.cos(phase) + 1j * np.sin(phase))


def _norm_factor(sign: int, n2: float) -> float:
    den = 2.0 * (1.0 + sign * n2)
    if den <= _DEGENERATE_EPS:
        raise DegenerateState("antisymmetric pair state with overlap N -> 1")
    return 1.0 / math.sqrt(den)


def pair_amplitude(config: PairConfig, r1, r2, t: float = 0.0):
    """Value of the normalized pair wave function at (r1, r2).

    [Psi_1(r1) Psi_2(r2) +/- Psi_1(r2) Psi_2(r1)] / sqrt(2 (1 +/- N^2));
    distinguishable mode returns the bare product.  The sqrt(2) keeps the
    state probability-normalized.  ``r1`` and ``r2`` broadcast against
    each other.
    """
    p1 = PacketParams(config.sigma, config.r0, config.p0)
    p2 = PacketParams(config.sigma, -config.r0, -config.p0)
    law = config.law
    a11 = amplitude(p1, law, r1, t)
    a22 = amplitude(p2, law, r2, t)
    if config.symmetry is ExchangeSymmetry.DISTINGUISHABLE:
        return a11 * a22
    a12 = amplitude(p1, law, r2, t)
    a21 = amplitude(p2, law, r1, t)
    n = overlap(config, t)
    sign = config.symmetry.sign
    return (a11 * a22 + sign * a12 * a21) * _norm_factor(sign, n * n)
