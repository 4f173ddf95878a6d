"""Property tests of trajectory integration.

A head-on start, whose x and y components are all +0.0, is stepped on
(r_z, p_z) alone; the same start with p_x = -0.0 is stepped on all six
floats.  Over drawn widths, offsets, momenta, couplings and spins both
give the same run bit for bit, or fail with the same error.  Any other
start is stepped by ``numerics.rk4_step``, which must give the samples of
the numpy-array RK4 loop bit for bit, or fail at the step where that loop
fails.

Scale covariance (see ``test_symmetries``) holds over drawn starts to
round-off for any lam; the bitwise cases at lam = 2 and 1/2 stay fixed
there, since a drawn subnormal term loses bits when scaled.  Over the same
well-conditioned starts, a run stepped back from -T with p flipped ends
where the run from 0 began, to within RK4's error at the step used.

The attractive classical traveltime is drawn over every decade of d0, p
and |k|: it is never nan and stays between the limits of its closed form.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from coherentpair import dynamics  # noqa: E402
from coherentpair.errors import CoherentPairError  # noqa: E402
from coherentpair.meanfield import PhaseState, initial_state  # noqa: E402
from coherentpair.pairstate import ExchangeSymmetry, PairConfig  # noqa: E402

from test_dynamics import (  # noqa: E402
    assert_axis_run_is_the_six_float_run, integrate_arrays, six_float_reference,
)
from test_symmetries import tensor_entries  # noqa: E402


def run_or_error(state, *args):
    try:
        return dynamics.integrate(state, *args)
    except CoherentPairError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(
    sigma=st.floats(0.2, 5.0),
    r0=st.floats(0.5, 20.0),
    p=st.floats(0.01, 3.0),
    coupling=st.floats(-3.0, 3.0),
    symmetry=st.sampled_from(list(ExchangeSymmetry)),
    frozen=st.booleans(),
    stop=st.booleans(),
)
def test_head_on_axis_loop_matches_the_six_float_loop(sigma, r0, p, coupling, symmetry,
                                                       frozen, stop):
    cfg = PairConfig(sigma, np.array([0.0, 0.0, r0]), np.array([0.0, 0.0, -p]), symmetry,
                     coupling, frozen_width=frozen)
    state = initial_state(cfg)
    t_free = dynamics.free_traveltime(2.0 * r0, 2.0 * p)
    args = (t_free / 100.0, 2.5 * t_free, stop)
    axis = run_or_error(state, *args)
    six = run_or_error(six_float_reference(state), *args)
    if isinstance(axis, tuple) or isinstance(six, tuple):
        assert axis == six
    else:
        assert_axis_run_is_the_six_float_run(axis, six)


def counted_run(state, *args):
    """(trajectory, None), or (None, k) when ``integrate`` fails in step k.

    Every step calls ``dynamics._core`` four times, and a failing step
    calls it one to four times, so the calls made tell the step.
    """
    core = mock.Mock(wraps=dynamics._core)
    with mock.patch.object(dynamics, "_core", core):
        try:
            return dynamics.integrate(state, *args), None
        except CoherentPairError:
            return None, (core.call_count - 1) // 4


# moderate magnitudes, and now and then one far out, where a run may leave
# the float range or meet N -> 1
def magnitude(lo, hi):
    return st.floats(lo, hi) | st.floats(1e-160, 1e160)


# x and y components as fractions of the z magnitude, signed zeros included
FRACTION = st.sampled_from([-0.0, 0.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    sigma=magnitude(0.2, 5.0),
    r0=magnitude(0.5, 20.0),
    p=magnitude(0.01, 3.0),
    fractions=st.tuples(FRACTION, FRACTION, FRACTION, FRACTION),
    coupling=st.floats(-3.0, 3.0),
    symmetry=st.sampled_from(list(ExchangeSymmetry)),
    frozen=st.booleans(),
    stop=st.booleans(),
)
def test_oblique_runs_match_the_array_rk4_bit_for_bit(sigma, r0, p, fractions, coupling,
                                                      symmetry, frozen, stop):
    fx, fy, gx, gy = fractions
    t_free = dynamics.free_traveltime(2.0 * r0, 2.0 * p)
    dt = t_free / 100.0
    assume(sys.float_info.min <= dt and math.isfinite(2.5 * t_free))
    try:
        cfg = PairConfig(sigma, np.array([fx * r0, fy * r0, r0]),
                         np.array([gx * p, gy * p, -p]), symmetry, coupling,
                         frozen_width=frozen)
    except ValueError:  # sigma^2 outside the normal range
        assume(False)
    state = initial_state(cfg)
    # +0.0 in all four is a head-on start, which the axis loop steps
    xy = np.concatenate([state.r[:2], state.p[:2]])
    assume(np.signbit(xy).any() or xy.any())
    rx, ry, rz = state.r.tolist()
    stop_at = math.sqrt(rx * rx + ry * ry + rz * rz) if stop else None
    traj, k = counted_run(state, dt, 2.5 * t_free, stop)
    with np.errstate(all="ignore"):
        if k is None:
            for got, want in zip((traj.t, traj.r, traj.p, traj.width),
                                 integrate_arrays(state, dt, 2.5 * t_free, stop_at)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            return
        # the k steps before the failing one are the reference's, bit for bit
        want = integrate_arrays(state, dt, k * dt, stop_at)
        assert all(np.isfinite(w).all() for w in want)
        if k >= 2:
            prefix = dynamics.integrate(state, dt, k * dt, stop)
            for got, w in zip((prefix.t, prefix.r, prefix.p, prefix.width), want):
                assert np.array_equal(got, w)
        # and the reference fails in step k too: it raises or ends non-finite
        try:
            _, r_ref, p_ref, _ = integrate_arrays(state, dt, (k + 1) * dt, stop_at)
        except (ArithmeticError, CoherentPairError):
            return
        assert r_ref.shape[0] == k + 2
        assert not np.isfinite(np.concatenate([r_ref[-1], p_ref[-1]])).all()


@settings(max_examples=100, deadline=None)
@given(
    sigma=st.floats(0.5, 2.0),
    ratio=st.floats(4.0, 12.0),
    p=st.floats(0.1, 1.0),
    # a subnormal px has too few bits to scale (see test_symmetries)
    px=st.floats(-0.3, 0.3).filter(lambda v: v == 0.0 or abs(v) >= 1e-300),
    coupling=st.floats(0.5, 2.0),
    symmetry=st.sampled_from(list(ExchangeSymmetry)),
    frozen=st.booleans(),
    lam=st.sampled_from([3.0, 1.7, 0.3, 2.0, 0.5]),
)
def test_integrate_is_scale_covariant_over_drawn_starts(sigma, ratio, p, px, coupling,
                                                        symmetry, frozen, lam):
    """sigma, r0, p, kappa -> lam sigma, lam r0, p / lam, kappa / lam, to round-off.

    The draws keep each run well conditioned: a repelling pair (kappa >=
    0.5) that starts at least 4 widths apart (r0 = ratio * sigma) with
    |p| >= 0.1.  Slow, free or attracted pairs, and starts within a width,
    run 250 steps over which the flow amplifies the rounding of the scaled
    inputs: measured at lam = 0.3 or 3 from 1e-10 of a column up to order
    one, for an attracted pair whose orbit t_free / 100 does not resolve.

    Parallel spins lose more near contact: the kernel divides the exchange
    terms by 1 - N^2, and its gradient has lost about 1e-10 relative at
    N = 0.999 (against a 50-digit derivative).  So for them the bound
    grows by 1 / (1 - N^2)^2 at the run's largest overlap N.
    """
    r0 = ratio * sigma
    t_free = dynamics.free_traveltime(2.0 * r0, 2.0 * p)

    def run(scale):
        cfg = PairConfig(scale * sigma, scale * np.array([0.0, 0.0, r0]),
                         np.array([px, 0.0, -p]) / scale, symmetry, coupling / scale,
                         frozen_width=frozen)
        dt = scale * scale * (t_free / 100.0)
        return dynamics.integrate(initial_state(cfg), dt, scale * scale * (2.5 * t_free))

    base, scaled = run(1.0), run(lam)
    assert scaled.t.size == base.t.size
    bound = 1e-12
    if symmetry is ExchangeSymmetry.ANTISYMMETRIC:
        bound /= (1.0 - float(base.overlap.max()) ** 2) ** 2
    for got, want in (
        (scaled.t, base.t * lam * lam),
        (scaled.r, base.r * lam),
        (scaled.p, base.p / lam),
        (scaled.width, base.width * lam),
        (scaled.energy, base.energy / (lam * lam)),
        (scaled.overlap, base.overlap),
        (tensor_entries(scaled).T, tensor_entries(base).T * lam * lam),
    ):
        # relative to each column's largest magnitude; an all-zero column stays zero
        assert np.all(np.abs(got - want) <= bound * np.abs(want).max(axis=0))


@settings(max_examples=100, deadline=None)
@given(
    sigma=st.floats(0.5, 2.0),
    ratio=st.floats(4.0, 12.0),
    p=st.floats(0.1, 1.0),
    px=st.floats(-0.3, 0.3),
    coupling=st.floats(0.5, 2.0),
    symmetry=st.sampled_from(list(ExchangeSymmetry)),
    frozen=st.booleans(),
)
# in r the round trip errs 6.4e-10 here, more than a one-leg estimate (6.3e-10)
@example(sigma=1.0, ratio=8.0, p=0.875, px=0.0, coupling=1.0,
         symmetry=ExchangeSymmetry.DISTINGUISHABLE, frozen=True)
# the first halving divides the round trip's error by 13.6 here, the second by 28
@example(sigma=0.984375, ratio=4.0, p=0.1, px=0.0, coupling=0.5,
         symmetry=ExchangeSymmetry.SYMMETRIC, frozen=False)
def test_time_reversal_over_drawn_starts(sigma, ratio, p, px, coupling, symmetry, frozen):
    """A run from 0 to T, then from -T with p flipped, ends at the start with p flipped.

    E depends on p only through |p|^2 and the width is even in t, so both
    width laws are reversible.  The back leg is the forward RK4 step with
    -dt, which cancels RK4's leading local error (odd, order dt^5), so the
    round trip's error is of order dt^5, where one leg's is dt^4: halving dt
    from t_free / 200 divides it by 28-35 (median 32) wherever it stands ten
    times above the round-off floor, over the 288 corners of this box and
    150 random draws, where a one-leg error estimate falls 16-25 times.  On
    a few starts the leading term nearly cancels at t_free / 200 (13.6 at
    sigma 0.984, ratio 4, p 0.1, coupling 0.5, symmetric, spreading), so the
    assertion is a factor of at least 16 on one of the two halvings from
    t_free / 200, above the round-off floor of 2 eps a step of the finer
    run.  The error is the larger of r's and p's, each relative to its
    largest magnitude.  The box is the scale covariance test's.
    """
    r0 = ratio * sigma
    cfg = PairConfig(sigma, np.array([0.0, 0.0, r0]), np.array([px, 0.0, -p]), symmetry,
                     coupling, frozen_width=frozen)
    t_free = dynamics.free_traveltime(2.0 * r0, 2.0 * p)

    def round_trip(dt):
        """The round trip's error at step dt, and the round-off floor of its steps."""
        fwd = dynamics.integrate(initial_state(cfg), dt, 1.5 * t_free)
        back = dynamics.integrate(PhaseState(fwd.r[-1], -fwd.p[-1], -fwd.t[-1], cfg), dt,
                                  1.5 * t_free)
        error = max(np.abs(end - path[0]).max() / np.abs(path).max()
                    for path, end in ((fwd.r, back.r[-1]), (fwd.p, -back.p[-1])))
        return error, 2.0 * (fwd.t.size - 1) * sys.float_info.epsilon

    coarse, _ = round_trip(t_free / 200.0)
    fine, floor = round_trip(t_free / 400.0)
    if fine > coarse / 16.0 + floor:
        finer, floor = round_trip(t_free / 800.0)
        assert finer <= fine / 16.0 + floor


# positive floats of every decade, subnormals included
magnitudes = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
                       st.integers(-320, 308)).filter(lambda v: 0.0 < v < math.inf)


@settings(max_examples=500, deadline=None)
@given(d0=magnitudes, p=magnitudes, k=magnitudes)
def test_attractive_classical_traveltime_is_a_number_for_every_finite_energy(d0, p, k):
    """Coupling -k: no nan and no error while E is finite, and t within its limits.

    With x = p sqrt(d0 / k), t = (d0 / p) g(x), where 2/3 min(1, x) <= g(x)
    <= min(1, (pi/2) x).  So log t lies in [log(2/3) + min(A, B),
    min(A, log(pi/2) + B)] with A = log(d0 / p) and B = log(d0^3/2 / sqrt(k)).
    An inf or subnormal t must be one that those bounds allow.
    """
    v0 = 2.0 * p
    assume(math.isfinite(v0))
    p = 0.5 * v0
    if not math.isfinite(p * p - k / d0):
        with pytest.raises(ValueError, match="overflows"):
            dynamics.classical_traveltime(d0, v0, -k)
        return
    t = dynamics.classical_traveltime(d0, v0, -k)
    a = math.log(d0) - math.log(p)
    b = 1.5 * math.log(d0) - 0.5 * math.log(k)
    lo = math.log(2.0 / 3.0) + min(a, b)
    hi = min(a, math.log(math.pi / 2.0) + b)
    if t == math.inf:
        assert hi >= math.log(sys.float_info.max) - 1e-9
    elif t < sys.float_info.min:
        assert lo <= math.log(sys.float_info.min) + 1e-9
    else:
        assert lo - 1e-12 <= math.log(t) <= hi + 1e-12


@settings(max_examples=500, deadline=None)
@given(d0=magnitudes, p=magnitudes, k=magnitudes)
def test_repulsive_classical_traveltime_is_a_number_for_every_finite_energy(d0, p, k):
    """Coupling +k: an error where E = p^2 + k/d0 leaves the float range, else no nan.

    t = d0 p / E + k E^-3/2 asinh(x) is a sum of two non-negative terms, the
    first of which is at most d0 / p.
    """
    v0 = 2.0 * p
    assume(math.isfinite(v0))
    p = 0.5 * v0
    energy = p * p + k / d0
    if not 0.0 < energy < math.inf:
        with pytest.raises(ValueError, match="underflows" if energy == 0.0 else "overflows"):
            dynamics.classical_traveltime(d0, v0, k)
        return
    t = dynamics.classical_traveltime(d0, v0, k)
    assert t >= 0.0
