"""Numeric kernels the rest of the package is built on.

Everything here is deterministic and dependency-free apart from numpy.
The error function is libm's ``math.erf``.  The Dawson integral is one
table lookup and a degree-10 Taylor polynomial for |x| <= 8, the table
built at import from the integral's ODE, and an asymptotic expansion
beyond; scipy and mpmath serve only as references in the tests.
Quadrature is adaptive Simpson with an explicit node budget.  ``rk4_step``
is the classical fourth-order Runge-Kutta step on tuples of Python floats,
rounding every component exactly as the array expression would; it is the
step of every ``dynamics.integrate`` run that does not start head-on, and
the reference the head-on axis step is fused from.  Identical inputs
always produce bit-identical outputs; there is no shared mutable state.
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


def _dawson_table() -> tuple[tuple[float, ...], ...]:
    """Taylor coefficients c_0..c_10 of the Dawson integral about x0 = k / 10, k = 0..80.

    F solves F' = 1 - 2 x F with F(0) = 0, so its coefficients about any x0
    follow from F(x0) alone: (n + 1) c_{n+1} = [n = 0] - 2 x0 c_n - 2 c_{n-1}.
    Within 0.05 of a node the first dropped term is below 3.1e-16 F.  Each
    node value steps the ODE from the previous node by the 30-term series,
    summed by ``math.fsum``; against mpmath every node value is within
    1 ulp.
    """
    table = []
    f = 0.0
    for k in range(81):
        x0 = k / 10
        c = [f, 1.0 - 2.0 * x0 * f]
        for n in range(1, 30):
            c.append(-2.0 * (x0 * c[n] + c[n - 1]) / (n + 1))
        table.append(tuple(c[:11]))
        h = (k + 1) / 10 - x0
        f = math.fsum(cn * h ** n for n, cn in enumerate(c))
    return tuple(table)


_DAWSON_TABLE = _dawson_table()


def dawson(x: float) -> float:
    """Dawson integral F(x) = exp(-x^2) * int_0^x exp(t^2) dt.

    Up to |x| = 8: the tabulated Taylor polynomial about the nearest node
    k / 10, by Horner's rule.  Beyond: the asymptotic expansion.
    """
    ax = abs(x)
    if ax <= 8.0:
        k = int(ax * 10.0 + 0.5)
        # exact: ax and k / 10 lie within a factor 2 of each other (Sterbenz)
        u = ax - k / 10
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = _DAWSON_TABLE[k]
        val = c0 + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (
            c5 + u * (c6 + u * (c7 + u * (c8 + u * (c9 + u * c10)))))))))
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
    return -val if x < 0 else val


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
    for bit.  Raises :class:`NonFinite`, naming ``t``, when a component
    of the result is not finite.
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
        raise NonFinite(f"the RK4 step from t={t:.6g} produced a non-finite state")
    return out
