"""Tests for the averaged Hamiltonian and its gradients."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from coherentpair import meanfield, numerics, oracle
from coherentpair.errors import DegenerateState
from coherentpair.meanfield import PhaseState, avg_hamiltonian, initial_state
from coherentpair.pairstate import ExchangeSymmetry, PairConfig

import kernel_census as kc
import reference_kernel
from test_numerics import central_gradient

SQRT_PI = math.sqrt(math.pi)


def coulomb_bound(config):
    """Max over r of the Coulomb part at width sigma and p0; finite for sigma > 0.

    The Coulomb part depends on r only through |r|, so a scan over |r| in
    [0, 10 sigma] brackets the maximum, which bounded Brent minimisation of
    the negated part then refines.
    """
    if config.coupling == 0.0:
        return 0.0
    pp = float(np.dot(config.p0, config.p0))

    def val(d):
        parts, _, _ = meanfield._core(d * d, pp, config.sigma, config.symmetry.sign,
                                      config.coupling)
        return parts[3] + parts[4]

    grid = np.linspace(0.0, 10.0 * config.sigma, 201)
    values = [val(d) for d in grid]
    k = int(np.argmax(values))
    res = minimize_scalar(lambda d: -val(d), bounds=(grid[max(k - 1, 0)], grid[min(k + 1, 200)]),
                          method="bounded", options={"xatol": 1e-12 * (1.0 + config.sigma)})
    return max(-res.fun, values[k])


# Central-difference gradients of the total energy, the reference for the
# analytic gradient of ``meanfield._core`` (test_dynamics integrates with them).

def total_energy(state):
    return avg_hamiltonian(state).total


def grad_r(state):
    """dE/dr by central differences."""
    return central_gradient(
        lambda r: total_energy(PhaseState(r, state.p, state.t, state.config)), state.r
    )


def grad_p(state):
    """dE/dp by central differences."""
    return central_gradient(
        lambda p: total_energy(PhaseState(state.r, p, state.t, state.config)), state.p
    )


def frozen_config(sigma=1.0, symmetry=ExchangeSymmetry.SYMMETRIC, coupling=1.0,
                  r0=None, p0=None):
    r0 = np.zeros(3) if r0 is None else r0
    p0 = np.zeros(3) if p0 is None else p0
    return PairConfig(sigma, r0, p0, symmetry, coupling, frozen_width=True)


def test_breakdown_bookkeeping():
    state = PhaseState(
        np.array([0.4, 0.0, 1.1]), np.array([0.3, 0.0, -0.6]), 0.7,
        PairConfig(0.8, np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.0, -0.2])),
    )
    bd = avg_hamiltonian(state)
    parts = (
        bd.kinetic_classical + bd.kinetic_uncertainty + bd.kinetic_exchange
        + bd.coulomb_direct + bd.coulomb_exchange
    )
    assert abs(bd.total - parts) < 1e-12 * max(abs(bd.total), 1.0)


def test_symmetry_point_uncoupled():
    cfg = frozen_config(coupling=0.0)
    state = PhaseState(np.zeros(3), np.zeros(3), 0.0, cfg)
    bd = avg_hamiltonian(state)
    assert bd.total == bd.kinetic_uncertainty
    assert bd.kinetic_uncertainty == 3.0 / 8.0
    np.testing.assert_allclose(grad_r(state), 0.0, atol=1e-10)


def test_point_charge_limit():
    # packets 20 sigma either side of the origin: direct term -> kappa / separation
    cfg = frozen_config(r0=np.array([0.0, 0.0, 20.0]))
    state = PhaseState(np.array([0.0, 0.0, 40.0]), np.zeros(3), 0.0, cfg)
    bd = avg_hamiltonian(state)
    assert abs(bd.coulomb_direct / (1.0 / 40.0) - 1.0) < 0.01
    assert abs(bd.coulomb_exchange) < 1e-12


@pytest.mark.parametrize("rho", [7e8, 8e8, 1e9, 1e200])
def test_direct_coulomb_is_the_point_charge_past_overflow(rho):
    # at s = 1e-150, rho / 4 s^2 overflows to inf between rho = 7e8 and 8e8;
    # on both sides q = erf(d / 2s) / d is 1/d and dq/drho is -1 / 2 d^3
    parts, dq, _ = meanfield._core(rho, 0.0, 1e-150, 0, 1.0)
    q = parts[3]
    d = math.sqrt(rho)
    assert abs(q * d - 1.0) < 1e-15
    assert abs(dq * (-2.0 * d ** 3) - 1.0) < 1e-15


def dawson_ratio_via_core(x):
    """F(x)/x and its derivative in x^2 (x >= 0), read back from ``_core``.

    At rho = 0 and sign +1 the exchange Coulomb term is (x_pref F(x)/x -
    g d_term) / (1 + g), with x_pref = kappa / (sqrt(pi) s), g = exp(-x^2)
    and x = 2 s |p|.  At s = 2^153 and kappa = sqrt(pi) s, x_pref is
    exactly 1, and pp = (x / 2s)^2 gives x back exactly; the derivative
    enters dE/dpp as 4 s^2 (F/x)' = 2^308 (F/x)', far above the kinetic 1.
    Where g underflows (x > 27) both values come back bit for bit; below,
    within a few ulps of g.
    """
    s = 2.0 ** 153
    kappa = meanfield._SQRT_PI * s
    y = x / (2.0 * s)
    pp = y * y
    parts, _, de_dpp = meanfield._core(0.0, pp, s, 1, kappa)
    s4 = 4.0 * s * s
    g = math.exp(-s4 * pp)
    den = 1.0 + g
    ratio = parts[4] * den + g * parts[3]
    # dE/dpp = (dnum/dpp (1 + g) + num 4 s^2 g) / (1 + g)^2, num = pp + d_term + F/x
    dnum_dpp = de_dpp * den - (pp + parts[3] + ratio) * (s4 * g) / den
    return ratio, (dnum_dpp - 1.0) / s4


def test_dawson_ratio_limits():
    assert dawson_ratio_via_core(0.0)[0] == 1.0
    assert abs(dawson_ratio_via_core(1e-8)[0] - 1.0) < 1e-10
    # derivative wrt x^2 at 0 is -2/3
    assert abs(dawson_ratio_via_core(0.0)[1] + 2.0 / 3.0) < 1e-12
    assert abs(dawson_ratio_via_core(1e-4)[1] + 2.0 / 3.0) < 1e-6


@pytest.mark.parametrize("x, bound", [
    (10.0, 1e-13),  # direct formula
    (1e2, 1e-14),  # asymptotic series from here on
    (1e3, 1e-15),
    (1e6, 1e-15),
    (1e120, 0.0),  # the derivative underflows to -0.0
    (1e200, 0.0),  # and so does the ratio
])
def test_dawson_ratio_large_x_against_mpmath(x, bound):
    mpmath = pytest.importorskip("mpmath")
    # x - 2 x^2 F - F cancels to O(1/x^3): carry 4 log10(x) extra digits
    with mpmath.workdps(30 + 4 * int(math.log10(x))):
        xm = mpmath.mpf(x)
        f = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-xm * xm) * mpmath.erfi(xm)
        ref_ratio = float(f / xm)
        ref_ddx2 = float((xm - 2 * xm * xm * f - f) / (2 * xm ** 3))
    ratio, ddx2 = dawson_ratio_via_core(x)
    assert abs(ratio - ref_ratio) <= 1e-15 * ref_ratio
    assert abs(ddx2 - ref_ddx2) <= bound * abs(ref_ddx2)


# the outcome test draws from the kernel census's mixtures (a = rho / 4s^2,
# x = 2 s |p|, s, kappa); the accuracy test from a finite box of the same kinds
Z2, X, S, SIGNS, KAPPA = (mix[0] for mix in (kc.Z2, kc.X, kc.S, kc.SIGN, kc.KAPPA))


def outcome(core, *args):
    """The floats a kernel returns, or the type of what it raises."""
    try:
        parts, de_drho, de_dpp = core(*args)
    except Exception as exc:  # the kernels must fail alike, whatever the failure
        return type(exc)
    return (*parts, de_drho, de_dpp)


@settings(max_examples=3000, deadline=None)
@given(z2=Z2, x=X, s=S, sign=SIGNS, float_sign=st.booleans(), kappa=KAPPA)
# near contact (a + b = 1e-8), and dE/dpp near the float range: the kernel it
# replaced returned 5.4e307, this one -inf, for 1.3e307; dE/drho is finite in both
@example(z2=0.0, x=1e-4, s=1.3082543595320624e57, sign=-1, float_sign=True,
         kappa=6.536227755448413e250)
def test_core_fails_only_where_the_kernel_it_replaced_failed(z2, x, s, sign, float_sign, kappa):
    """Where the former kernel returns finite floats, so does ``_core``; where it
    finds the state degenerate, so does ``_core``.

    For sign -1 the gradients of both kernels carry relative errors of order
    eps / (a + b)^2 (ROADMAP item 14), so a gradient may round to inf where
    4 eps / (a + b)^2 of the former kernel's value reaches past the float
    range; everywhere else each returned float is held to be finite.
    """
    rho, pp, s, _, kappa = kc.kernel_args(z2, x, s, sign, kappa)
    args = (rho, pp, s, float(sign) if float_sign else sign, kappa)
    want = outcome(reference_kernel._core, *args)
    got = outcome(meanfield._core, *args)
    if want is DegenerateState:
        assert got is DegenerateState
    elif not isinstance(want, type) and all(map(math.isfinite, want)):
        assert not isinstance(got, type) and all(map(math.isfinite, got[:5]))
        ab2 = (z2 + x * x) * (z2 + x * x)
        for v, ref in zip(got[5:], want[5:]):
            # |ref| (1 + 4 eps / (a + b)^2) > the largest float, without dividing by ab2
            spread = abs(ref) * (ab2 + 4.0 * sys.float_info.epsilon) > sys.float_info.max * ab2
            assert math.isfinite(v) or (sign == -1 and spread)
    if not isinstance(got, type):
        # without the energy terms, the same gradient
        parts, de_drho, de_dpp = meanfield._core(*args, False)
        assert [float.hex(de_drho), float.hex(de_dpp)] == [float.hex(v) for v in got[5:]]
        assert parts is None or [float.hex(v) for v in parts] == [float.hex(v) for v in got[:5]]


@pytest.mark.parametrize("args, want", [
    # 4s^2 overflows and g = 0: the gradient is finite at any width
    ((100.0, 0.25, 7e153, 1, 1.0), [True] * 7),
    # 16 s^4 underflows: the energy terms are finite, dE/drho ~ 1/s^4 is not
    ((4e-200, 2.5e199, 1e-100, 1, 1.0), [True] * 5 + [False, True]),
    # 4s^2 = inf, so a = b = 0: N^2 rounds to 1
    ((100.0, 0.0, 7e153, -1, 1.0), DegenerateState),
])
def test_core_past_the_square_of_the_width(args, want):
    got = outcome(meanfield._core, *args)
    assert got is want if want is DegenerateState else list(map(math.isfinite, got)) == want


def closed_form(mp, rho, pp, s, sign, kappa):
    """The energy terms in mpmath, the Coulomb exchange term as its two parts.

    erf(sqrt a) / sqrt a and F(sqrt b) / sqrt b are (2 / sqrt pi) 1F1(1/2;
    3/2; -a) and 1F1(1; 3/2; -b), smooth through a = 0 and b = 0.
    """
    s4 = 4 * s * s
    a, b = rho / s4, s4 * pp
    g = mp.exp(-a - b)
    den = 1 + sign * g
    d_term = kappa / (mp.sqrt(mp.pi) * s) * mp.hyp1f1(0.5, 1.5, -a)
    x_term = kappa * mp.exp(-a) / (mp.sqrt(mp.pi) * s) * mp.hyp1f1(1, 1.5, -b)
    return (pp, 3 / (2 * s4), -sign * g * (a + b) / (s4 * den), d_term,
            sign * x_term / den, -sign * g * d_term / den)


@settings(max_examples=300, deadline=None)
@given(
    z2=kc.one_of(kc.near(1e-6), kc.near(1e-4), kc.log_uniform(1e-12, 1e3), kc.floats(700.0, 760.0),
                 kc.just(0.0))[0],
    x=kc.one_of(kc.near(1e-4), kc.near(1e-3), kc.near(8.0), kc.near(100.0),
                kc.log_uniform(1e-12, 1e8), kc.just(0.0))[0],
    s=kc.log_uniform(1e-6, 1e6)[0],
    sign=SIGNS,
    kappa=(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3)
           | kc.log_uniform(1e-6, 1e6)[0]),
)
def test_core_against_mpmath_away_from_contact(z2, x, s, sign, kappa):
    """Every term and both gradients against the closed form at 80 digits.

    The gradients are central differences of each part at a step of 1e-30
    of the variable's scale.  Each value is held relative to the sum of the
    magnitudes of its parts, to bounds that the kernel it replaced meets as
    well: 8 (1 + a + b) eps for the terms (exp(-a - b) carries (a + b) eps),
    2e-11 for dE/drho (the erf slope cancels like eps / a from a = 1e-4 on)
    and 1e-9 for dE/dpp (the Dawson slope cancels like eps / x^2 from x =
    1e-3 on), measured at 3.8e-12 and 1.8e-10 over 12000 draws.  An error
    below 1e-300 in the pair's units (1/s^2, 1/s^4 and 1), or below the
    smallest subnormal, is what a subnormal exp(-a - b) leaves.
    """
    mp = pytest.importorskip("mpmath")
    assume(not (sign == -1 and z2 + x * x < 0.5))  # item 14's near-contact region
    args = kc.kernel_args(z2, x, s, sign, kappa)
    rho, pp = args[:2]
    with mp.workdps(80):
        rho_m, pp_m, s_m, kappa_m = (mp.mpf(v) for v in (rho, pp, s, kappa))
        s4 = 4 * s_m * s_m
        parts = closed_form(mp, rho_m, pp_m, s_m, sign, kappa_m)
        slopes = []
        for h, at in ((max(rho_m, s4) * mp.mpf(10) ** -30, lambda e: (rho_m + e, pp_m)),
                      (max(pp_m, 1 / s4) * mp.mpf(10) ** -30, lambda e: (rho_m, pp_m + e))):
            up = closed_form(mp, *at(h), s_m, sign, kappa_m)
            down = closed_form(mp, *at(-h), s_m, sign, kappa_m)
            slopes.append([(u - d) / (2 * h) for u, d in zip(up, down)])
        want = (*parts[:4], parts[4] + parts[5], sum(slopes[0]), sum(slopes[1]))
        scale = (*map(abs, parts[:4]), abs(parts[4]) + abs(parts[5]),
                 sum(map(abs, slopes[0])), sum(map(abs, slopes[1])))
        units = (1 / s4,) * 5 + (1 / (s4 * s4), mp.mpf(1))
        eps = sys.float_info.epsilon
        bounds = (8 * (1 + z2 + x * x) * eps,) * 5 + (2e-11, 1e-9)
        for core in (reference_kernel._core, meanfield._core):
            parts_f, de_drho, de_dpp = core(*args)
            for k, got in enumerate((*parts_f, de_drho, de_dpp)):
                err = abs(mp.mpf(got) - want[k])
                assert err <= bounds[k] * scale[k] + 1e-300 * units[k] + 2.0 ** -1074, (core, k)


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("d_over_sigma", [0.0, 1.0, 2.0])
def test_coulomb_exchange_falls_like_a_power_of_the_momentum(sign, sigma, d_over_sigma):
    # F(x)/x = (1 + 1/(2b) + O(1/b^2)) / (2b) at b = x^2 = 4 sigma^2 p^2, and the
    # overlap exp(-a - b) is gone from b = 100 on: the term is
    # sign kappa exp(-d^2/4 sigma^2) / (8 sqrt(pi) sigma^3 p^2), not exp(-b)
    d = d_over_sigma * sigma
    for b in (100.0, 1e4, 1e8):
        pp = b / (4.0 * sigma * sigma)
        parts, _, _ = meanfield._core(d * d, pp, sigma, sign, 1.0)
        law = math.exp(-d * d / (4.0 * sigma * sigma)) / (8.0 * SQRT_PI * sigma ** 3 * pp)
        assert abs(sign * parts[4] / law - 1.0) <= 1.0 / b


def test_coincident_coulomb_anchor():
    state = PhaseState(np.zeros(3), np.zeros(3), 0.0, frozen_config())
    bd = avg_hamiltonian(state)
    assert abs((bd.coulomb_direct + bd.coulomb_exchange) - 1.0 / SQRT_PI) < 1e-6


def test_grad_p_free_limit():
    cfg = frozen_config(coupling=0.0, r0=np.array([0.0, 0.0, 10.0]))
    p = np.array([0.3, 0.0, -0.8])
    state = PhaseState(np.array([0.0, 0.0, 20.0]), p, 0.0, cfg)
    np.testing.assert_allclose(grad_p(state), 2.0 * p, atol=1e-8)


def test_analytic_gradients_match_numeric():
    # dE/dr = 2 dE/drho r and dE/dp = 2 dE/dpp p from the kernel the dynamics uses
    for seed in range(20):
        state = oracle.draw_phase_state(5000 + 17 * seed)
        _, de_drho, de_dpp = meanfield._core(
            float(state.r @ state.r), float(state.p @ state.p), state.width,
            state.config.symmetry.sign, state.config.coupling,
        )
        gr_n = grad_r(state)
        gr_a = 2.0 * de_drho * state.r
        gp_n = grad_p(state)
        gp_a = 2.0 * de_dpp * state.p
        for num, ana in ((gr_n, gr_a), (gp_n, gp_a)):
            scale = max(float(np.max(np.abs(num))), 1e-8)
            assert float(np.max(np.abs(num - ana))) / scale < 1e-6


@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_core_calls_each_special_function_once(monkeypatch, sign):
    calls = []

    def counted(fn):
        def wrapper(x):
            calls.append(fn)
            return fn(x)
        return wrapper

    erf, dawson, exp = numerics.erf, numerics.dawson, math.exp
    monkeypatch.setattr(numerics, "erf", counted(erf))
    monkeypatch.setattr(numerics, "dawson", counted(dawson))
    monkeypatch.setattr(math, "exp", counted(exp))
    # rho and pp straddle the series thresholds of both expansions at s = 1
    for rho in (0.0, 2e-6, 2e-4, 2.0, 400.0):
        for pp in (0.0, 1e-9, 1e-7, 0.25, 30.0):
            calls.clear()
            if sign == -1 and rho == 0.0 and pp == 0.0:
                with pytest.raises(DegenerateState):
                    meanfield._core(rho, pp, 1.0, sign, 1.0)
            else:
                meanfield._core(rho, pp, 1.0, sign, 1.0)
            assert calls.count(erf) <= 1, (rho, pp)
            assert calls.count(dawson) <= 1, (rho, pp)
            # exp(-rho / 4s^2) serves the direct Coulomb slope and the exchange
            # terms; exp(-rho / 4s^2 - 4 s^2 pp) is the exchange overlap
            assert calls.count(exp) <= (2 if sign else 1), (rho, pp)


def test_frozen_mode_time_independence():
    cfg = frozen_config(r0=np.array([0.0, 0.0, 1.0]), p0=np.array([0.1, 0.0, -0.2]))
    r = np.array([0.5, 0.0, 1.3])
    p = np.array([-0.1, 0.0, 0.4])
    a = avg_hamiltonian(PhaseState(r, p, 0.0, cfg)).total
    b = avg_hamiltonian(PhaseState(r, p, 37.5, cfg)).total
    assert abs(a - b) < 1e-12 * max(abs(a), 1.0)


def test_exchange_vanishes_at_n_zero():
    r = np.array([0.0, 0.0, 25.0])
    p = np.array([0.0, 0.0, 0.4])
    tot = {}
    for symmetry in (ExchangeSymmetry.SYMMETRIC, ExchangeSymmetry.ANTISYMMETRIC):
        cfg = frozen_config(symmetry=symmetry, r0=np.array([0.0, 0.0, 12.5]),
                            p0=np.array([0.0, 0.0, 0.4]))
        tot[symmetry] = avg_hamiltonian(PhaseState(r, p, 0.0, cfg)).total
    vals = list(tot.values())
    assert abs(vals[0] / vals[1] - 1.0) < 1e-6


def test_coulomb_below_bound():
    cfg = frozen_config(r0=np.array([0.0, 0.0, 1.0]))
    bound = coulomb_bound(cfg)
    for z in np.linspace(0.0, 12.0, 60):
        bd = avg_hamiltonian(PhaseState(np.array([0.0, 0.0, z]), cfg.p0, 0.0, cfg))
        assert bd.coulomb_direct + bd.coulomb_exchange <= bound * (1.0 + 1e-12)


def test_coulomb_bound_at_origin_for_static_symmetric():
    cfg = frozen_config()
    bound = coulomb_bound(cfg)
    at_zero = avg_hamiltonian(PhaseState(np.zeros(3), np.zeros(3), 0.0, cfg))
    assert abs(bound - (at_zero.coulomb_direct + at_zero.coulomb_exchange)) < 1e-9


def test_coulomb_bound_scaling():
    b1 = coulomb_bound(frozen_config(sigma=1.0))
    b2 = coulomb_bound(frozen_config(sigma=2.0))
    assert abs(b2 / b1 - 0.5) < 0.01


def test_coulomb_bound_no_coupling():
    assert coulomb_bound(frozen_config(coupling=0.0)) == 0.0


def test_oracle_term_equivalence_sample():
    # spot check; the full 50-state sweep runs in the acceptance suite
    for seed in (20000, 20041, 20082):
        state = oracle.draw_phase_state(seed)
        for rep in oracle.oracle_coulomb(state) + oracle.oracle_kinetic(state):
            assert oracle.report_passes(rep), (rep.quantity, rep.rel_err)


def test_initial_state_convention():
    cfg = frozen_config(r0=np.array([0.0, 0.0, 5.0]), p0=np.array([0.0, 0.0, -0.5]))
    state = initial_state(cfg)
    np.testing.assert_allclose(state.r, [0.0, 0.0, 10.0])
    np.testing.assert_allclose(state.p, [0.0, 0.0, -0.5])
    assert float(np.linalg.norm(state.r)) == 10.0


def test_degenerate_antisymmetric_raises():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 1.0]), np.zeros(3),
                     ExchangeSymmetry.ANTISYMMETRIC, 1.0, frozen_width=True)
    state = PhaseState(np.array([0.0, 0.0, 1e-9]), np.zeros(3), 0.0, cfg)
    with pytest.raises(Exception):
        avg_hamiltonian(state)
