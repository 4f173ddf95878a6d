"""Property tests of trajectory integration.

A head-on start, whose x and y components are all +0.0, is stepped on
(r_z, p_z) alone; the same start with p_x = -0.0 is stepped on all six
floats.  Over drawn widths, offsets, momenta, couplings and spins both
give the same run bit for bit, or fail with the same error.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coherentpair import dynamics  # noqa: E402
from coherentpair.errors import CoherentPairError  # noqa: E402
from coherentpair.meanfield import initial_state  # noqa: E402
from coherentpair.pairstate import ExchangeSymmetry, PairConfig  # noqa: E402

from test_dynamics import (  # noqa: E402
    assert_axis_run_is_the_six_float_run, six_float_reference,
)


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
