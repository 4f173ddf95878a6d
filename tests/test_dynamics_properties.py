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
there, since a drawn subnormal term loses bits when scaled.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from coherentpair import dynamics  # noqa: E402
from coherentpair.errors import CoherentPairError  # noqa: E402
from coherentpair.meanfield import initial_state  # noqa: E402
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
    args = (t_free / 100.0, 2.5 * t_free, 2.0 * r0 if stop else None)
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
    traj, k = counted_run(state, dt, 2.5 * t_free, stop_at)
    with np.errstate(all="ignore"):
        if k is None:
            for got, want in zip((traj.t, traj.r, traj.p, traj.sigma),
                                 integrate_arrays(state, dt, 2.5 * t_free, stop_at)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            return
        # the k steps before the failing one are the reference's, bit for bit
        want = integrate_arrays(state, dt, k * dt, stop_at)
        assert all(np.isfinite(w).all() for w in want)
        if k >= 2:
            prefix = dynamics.integrate(state, dt, k * dt, stop_at)
            for got, w in zip((prefix.t, prefix.r, prefix.p, prefix.sigma), want):
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
        (scaled.sigma, base.sigma * lam),
        (scaled.energy, base.energy / (lam * lam)),
        (scaled.overlap, base.overlap),
        (tensor_entries(scaled).T, tensor_entries(base).T * lam * lam),
    ):
        # relative to each column's largest magnitude; an all-zero column stays zero
        assert np.all(np.abs(got - want) <= bound * np.abs(want).max(axis=0))
