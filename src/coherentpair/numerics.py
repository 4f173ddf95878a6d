"""Numeric kernels the rest of the package is built on.

Everything here is deterministic and dependency-free apart from numpy.
The error function is libm's ``math.erf``.  The Dawson integral is
evaluated by a series for |x| < 0.2, Rybicki's fixed-cost sum for
0.2 <= |x| <= 8 and an asymptotic expansion beyond; scipy and mpmath serve
only as references in the tests.  Quadrature is adaptive Simpson with an
explicit node budget, and the ODE kernel is the classical fourth-order
Runge-Kutta step on tuples of Python floats: it skips numpy's per-call
overhead on small states and rounds every component exactly as the array
expression would.  Identical inputs always produce bit-identical outputs;
there is no shared mutable state.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergence, NonFinite


# adaptive Simpson: absolute and relative tolerance, and the evaluation
# budget of one integral
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_QUAD_NODES = 500_000


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

# libm's error function; the tests pin it against an independent Taylor series.
erf = math.erf

# Rybicki's sum (G. B. Rybicki, Computers in Physics 3, 85, 1989):
# F(x) = lim_{h->0} pi^-1/2 sum_{n odd} exp(-(x - n h)^2) / n.  At h = 0.2 the
# step error is ~exp(-(pi / 2h)^2) = 2e-27 and terms past 18 are below 1e-21 F.
_RYBICKI_H = 0.2
_RYBICKI_C = tuple(math.exp(-(((2 * k + 1) * _RYBICKI_H) ** 2)) for k in range(18))
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def dawson(x: float) -> float:
    """Dawson integral F(x) = exp(-x^2) * int_0^x exp(t^2) dt.

    Series for |x| < 0.2 (all-positive sum scaled by exp(-x^2)), Rybicki's
    fixed-cost sum for 0.2 <= |x| <= 8, asymptotic expansion beyond.
    """
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if ax < 0.2:
        u = x * x
        term = ax
        total = ax
        k = 0
        while True:
            k += 1
            term *= u * (2 * k - 1) / (k * (2 * k + 1))
            total += term
            if term < total * 1e-18:
                break
        val = math.exp(-u) * total
    elif ax <= 8.0:
        # shift to the nearest even node n0: x = n0 h + xp with |xp| <= h
        n0 = 2 * round(0.5 * ax / _RYBICKI_H)
        xp = ax - n0 * _RYBICKI_H
        e1 = math.exp(2.0 * xp * _RYBICKI_H)
        e2 = e1 * e1
        d1 = n0 + 1.0
        d2 = n0 - 1.0
        total = 0.0
        for c in _RYBICKI_C:
            total += c * (e1 / d1 + 1.0 / (d2 * e1))
            d1 += 2.0
            d2 -= 2.0
            e1 *= e2
        val = _INV_SQRT_PI * math.exp(-xp * xp) * total
    else:
        # F(x) ~ 1/(2x) * (1 + sum_k (2k-1)!!/(2x^2)^k)
        inv2x2 = 1.0 / (2.0 * x * x)
        term = 1.0
        total = 1.0
        for k in range(1, 24):
            term *= (2 * k - 1) * inv2x2
            total += term
            if term < 1e-17:
                break
        val = total / (2.0 * ax)
    return val if x > 0 else -val


def dawson_ratio(x: float) -> tuple[float, float]:
    """F(x)/x and its derivative with respect to x^2, from one ``dawson`` call.

    Series fill in the removable singularity at x = 0 (values 1 and -2/3).
    From |x| = 100 on, the derivative is the asymptotic series in y = x^2,
    -1/(2y^2) - 1/(2y^3) - 9/(8y^4) - 15/(4y^5), whose first dropped term is
    below 4e-15 relative there: the direct formula cancels at large x (1e-12
    relative at x = 100, 0.5 at 1e8) and overflows beyond about 1e103.
    """
    ax = abs(x)
    x2 = x * x
    if ax < 1e-4:
        ratio = 1.0 - 2.0 * x2 / 3.0 + 4.0 * x2 * x2 / 15.0
    else:
        f = dawson(ax)
        ratio = f / ax
    if ax < 1e-3:
        ddx2 = -2.0 / 3.0 + 8.0 * x2 / 15.0 - 8.0 * x2 * x2 / 35.0
    elif ax < 100.0:
        ddx2 = (ax - 2.0 * ax * ax * f - f) / (2.0 * ax ** 3)
    else:
        v = 1.0 / x2
        ddx2 = -v * v * (0.5 + v * (0.5 + v * (1.125 + 3.75 * v)))
    return ratio, ddx2


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate_1d(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson integral of ``f`` over the finite interval [a, b].

    Deterministic: the refinement pattern depends only on the integrand
    values.  Raises :class:`NonConvergence` once ``_MAX_QUAD_NODES``
    evaluations have been spent.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_1d requires finite bounds")
    if a == b:
        return 0.0
    budget = [_MAX_QUAD_NODES]

    def ev(x: float) -> float:
        if budget[0] <= 0:
            raise NonConvergence("quadrature node budget exhausted")
        budget[0] -= 1
        v = f(x)
        return v

    fa, fm, fb = ev(a), ev(0.5 * (a + b)), ev(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adapt(ev, a, b, fa, fm, fb, whole, 60)


def _adapt(ev, a, b, fa, fm, fb, whole, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = ev(lm), ev(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    better = left + right
    err = better - whole
    if depth <= 0:
        raise NonConvergence("adaptive refinement depth exhausted")
    if abs(err) <= 15.0 * max(_ABS_TOL, _REL_TOL * abs(better)):
        return better + err / 15.0
    return (
        _adapt(ev, a, m, fa, flm, fm, left, depth - 1)
        + _adapt(ev, m, b, fm, frm, fb, right, depth - 1)
    )


@functools.cache
def _leggauss_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    # looked up per call: numpy imports np.polynomial only on first use
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = _leggauss_cached(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# ---------------------------------------------------------------------------
# ODE step
# ---------------------------------------------------------------------------

def rk4_step(
    state: Sequence[float],
    t: float,
    dt: float,
    deriv: Callable[[Sequence[float], float], Sequence[float]],
) -> tuple[float, ...]:
    """One classical fourth-order Runge-Kutta step, local error O(dt^5).

    ``deriv(y, t)`` receives and returns sequences of floats.  Each
    component follows numpy's operation order for the array form
    y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), so the result matches it bit
    for bit.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = 0.5 * dt
    k1 = deriv(state, t)
    k2 = deriv([a + h * b for a, b in zip(state, k1)], t + h)
    k3 = deriv([a + h * b for a, b in zip(state, k2)], t + h)
    k4 = deriv([a + dt * b for a, b in zip(state, k3)], t + dt)
    sixth = dt / 6.0
    out = tuple([
        a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(state, k1, k2, k3, k4)
    ])
    if not all(map(math.isfinite, out)):
        raise NonFinite("rk4_step produced a non-finite state")
    return out
