"""The mean-field kernel as it stood before ``_core`` absorbed its helpers.

``_core`` below is the kernel that called ``_erf_over_d`` and
``numerics.dawson_ratio``; the three functions are copied verbatim, except
that ``_core`` calls this module's ``dawson_ratio`` and ``dawson_ratio``
reads ``numerics.dawson``.  It formed 4s^2 and 16s^4 where ``meanfield._core``
works in a = rho / 4s^2 and b = 4s^2 |p|^2.  The tests hold ``meanfield._core``
to return finite floats wherever this kernel does (near contact for sign -1,
the energy terms only) and to raise
``DegenerateState`` wherever it does, and both kernels to the same bounds
against mpmath.
"""

import math

from coherentpair import numerics
from coherentpair.errors import DegenerateState
from coherentpair.pairstate import _DEGENERATE_EPS

_SQRT_PI = math.sqrt(math.pi)


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
        f = numerics.dawson(ax)
        ratio = f / ax
    if ax < 1e-3:
        ddx2 = -2.0 / 3.0 + 8.0 * x2 / 15.0 - 8.0 * x2 * x2 / 35.0
    elif ax < 100.0:
        ddx2 = (ax - 2.0 * ax * ax * f - f) / (2.0 * ax ** 3)
    else:
        v = 1.0 / x2
        ddx2 = -v * v * (0.5 + v * (0.5 + v * (1.125 + 3.75 * v)))
    return ratio, ddx2


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
    fr, fr_dx2 = dawson_ratio(x_arg)
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
