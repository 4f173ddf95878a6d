"""Tests for the averaged Hamiltonian and its gradients."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from coherentpair import meanfield, numerics, oracle
from coherentpair.errors import DegenerateState
from coherentpair.meanfield import PhaseState, avg_hamiltonian, initial_state
from coherentpair.pairstate import ExchangeSymmetry, PairConfig

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
    g d_term) / (1 + g), with g = exp(-x^2) and x = 2 s |p|.  At s = 2^153
    and kappa = sqrt(pi) s the prefactor x_pref is exactly 1, and pp =
    (x / 2s)^2 gives x back exactly; the derivative enters dE/dpp as
    4 s^2 (F/x)' = 2^308 (F/x)', far above the kinetic 1.  Where g
    underflows (x > 27) both values come back bit for bit; below, within
    a few ulps of g.
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


def near(threshold):
    """Floats within a few ulps, or within a part in 1e6, of ``threshold``."""
    return (st.integers(-4, 4).map(lambda k: threshold * (1.0 + k * 2.0 ** -52))
            | st.floats(threshold * (1.0 - 1e-6), threshold * (1.0 + 1e-6)))


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# z2 = rho / 4 s^2 and x = 2 s |p| on both sides of every series switch of
# the kernel, anywhere between, where e_r = exp(-z2) turns subnormal and
# underflows to 0, far beyond, and past the float range (inf: rho / 4 s^2
# overflows for a finite rho)
Z2 = (near(1e-6) | near(1e-4) | log_uniform(1e-12, 1e3) | st.floats(700.0, 760.0)
      | log_uniform(1e3, 1e300) | st.just(0.0) | st.just(math.inf))
X = near(1e-4) | near(1e-3) | near(8.0) | near(100.0) | log_uniform(1e-12, 1e200) | st.just(0.0)


def outcome(core, *args):
    """The floats a kernel returns, by ``float.hex``, or the type of what it raises."""
    try:
        parts, de_drho, de_dpp = core(*args)
    except Exception as exc:  # the kernels must fail alike, whatever the failure
        return type(exc)
    return [float.hex(v) for v in (*parts, de_drho, de_dpp)]


@settings(max_examples=3000, deadline=None)
@given(
    z2=Z2,
    x=X,
    s=log_uniform(1e-150, 1e150),
    sign=st.sampled_from([-1, 0, 1]),
    float_sign=st.booleans(),
    kappa=st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3) | log_uniform(1e-300, 1e300),
)
# x_pref (F/x)' times 4 overflows where times 4 s^2 would not: dE/dpp is -inf
@example(z2=0.0, x=1e-5, s=1e-10, sign=1, float_sign=True, kappa=1.5e298)
def test_core_is_the_kernel_it_replaced_bit_for_bit(z2, x, s, sign, float_sign, kappa):
    rho = z2 * (4.0 * s * s)
    if z2 == math.inf:
        # 8 s^2 times the largest float: finite, with rho / 4 s^2 = inf, below s = 0.35
        rho = min(sys.float_info.max, 8.0 * s * s * sys.float_info.max)
    y = x / (2.0 * s)
    pp = y * y
    want = outcome(reference_kernel._core, rho, pp, s, sign, kappa)
    args = (rho, pp, s, float(sign) if float_sign else sign, kappa)
    assert outcome(meanfield._core, *args) == want
    # without the energy terms, the same gradient
    if isinstance(want, list):
        parts, de_drho, de_dpp = meanfield._core(*args, False)
        assert [float.hex(de_drho), float.hex(de_dpp)] == want[5:]
        assert parts is None or [float.hex(v) for v in parts] == want[:5]


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
