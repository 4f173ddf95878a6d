"""Wave functions written out point by point: the reference for the closed forms.

The package works with closed-form overlaps, densities and moments; these
functions let the tests integrate |psi|^2 by brute force and compare.  The
amplitudes take one point of shape (3,) or an array of points of shape
(..., 3) and return complex values of shape ``r.shape[:-1]``.
``coulomb_channel`` is the oracle's per-axis Coulomb factor built the same
way, from the explicit Gaussians at every quadrature node, and
``axis_element`` one of its one-axis matrix elements on a rule of its own.
"""

import math

import numpy as np

from coherentpair.errors import DegenerateState
from coherentpair.numerics import gauss_legendre
from coherentpair.oracle import _AXIS_NODES, _axis_values
from coherentpair.pairstate import _DEGENERATE_EPS, ExchangeSymmetry, PairConfig, overlap


def amplitude(r0, p0, s: float, r, t: float):
    """Value at position ``r`` and time ``t`` of the packet culminating at r0 with momentum p0.

    Gaussian envelope of width ``s`` (the config's sigma_x(t)) around the
    drifted center r0 + p0 t / m with a plane-wave phase exp(i p0 . r).
    Unit norm; the global (Gouy) phase of the exact propagator is dropped
    since every quantity compared is a density.
    """
    r = np.asarray(r, dtype=float)
    d = r - (r0 + p0 * t)
    d2 = np.sum(d * d, axis=-1)
    norm = (2.0 * math.pi * s * s) ** -0.75
    phase = r @ p0
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
    r0, p0 = config.r0, config.p0
    s = config.width(t)
    a11 = amplitude(r0, p0, s, r1, t)
    a22 = amplitude(-r0, -p0, s, r2, t)
    if config.symmetry is ExchangeSymmetry.DISTINGUISHABLE:
        return a11 * a22
    a12 = amplitude(r0, p0, s, r2, t)
    a21 = amplitude(-r0, -p0, s, r1, t)
    n = overlap(config, t)
    sign = config.symmetry.sign
    return (a11 * a22 + sign * a12 * a21) * _norm_factor(sign, n * n)


def coulomb_channel(eng, combo, ax: int):
    """The oracle's per-axis Coulomb factor as the plain complex product.

    Returns (u0, m) with m(u) = int conj(phi_a1)(w + u) phi_b1(w + u)
    conj(phi_a2)(w) phi_b2(w) dw on the oracle's 56-node w rule: all four
    complex Gaussians are evaluated at every (u, w) node and multiplied,
    without the product-rule factoring of ``oracle._Engine._axis_channel``.
    Only the width and per-axis factors of the engine ``eng`` are read.
    """
    (a1, a2), (b1, b2) = combo
    s = eng.s
    ca1, ka1 = eng.factor(a1, ax)
    cb1, kb1 = eng.factor(b1, ax)
    ca2, ka2 = eng.factor(a2, ax)
    cb2, kb2 = eng.factor(b2, ax)
    c_b = 0.5 * (ca2 + cb2)
    u0 = 0.5 * (ca1 + cb1) - c_b
    ww, wwgt = gauss_legendre(56, c_b - 10.0 * s, c_b + 10.0 * s)
    inner = wwgt * np.conj(_axis_values(s, ca2, ka2, ww)) * _axis_values(s, cb2, kb2, ww)

    def m_of_u(u):
        x1 = ww + u[..., None]
        return (np.conj(_axis_values(s, ca1, ka1, x1)) * _axis_values(s, cb1, kb1, x1)) @ inner

    return u0, m_of_u


def _axis_deriv(s: float, c: float, k: float, x, order: int):
    # analytic derivatives of the explicit Gaussian factor (order 0, 1 or 2)
    base = _axis_values(s, c, k, x)
    g1 = -(x - c) / (2.0 * s * s) + 1j * k
    if order == 0:
        return base
    if order == 1:
        return g1 * base
    return (g1 * g1 - 1.0 / (2.0 * s * s)) * base


def axis_element(eng, a: int, b: int, ax: int, poly: int, deriv: int) -> complex:
    """<phi_a | x^poly d^deriv | phi_b> on one axis, one Gauss-Legendre sum per element.

    The rule has the oracle's 160 nodes on [min(c_a, c_b) - 12 s,
    max(c_a, c_b) + 12 s]; only the width and per-axis factors of the
    engine ``eng`` are read.
    """
    s = eng.s
    ca, ka = eng.factor(a, ax)
    cb, kb = eng.factor(b, ax)
    x, w = gauss_legendre(_AXIS_NODES, min(ca, cb) - 12.0 * s, max(ca, cb) + 12.0 * s)
    bra = np.conj(_axis_values(s, ca, ka, x))
    ket = _axis_deriv(s, cb, kb, x, deriv)
    if poly:
        ket = ket * x ** poly
    return complex(np.sum(w * bra * ket))
