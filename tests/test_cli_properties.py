"""Property test: every numeric flag value parses to a valid number or exits 2."""

import contextlib
import io
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coherentpair import cli  # noqa: E402

_POSITIVE = {"--sigma", "--dt", "--t-max", "--extent", "--horizon-factor"}
_FINITE = {"--r0", "--px", "--pz", "--coupling"}
_POSITIVE_INT = {"--n", "--steps", "--jobs"}
_SWEEP_ONLY = {"--horizon-factor", "--steps", "--jobs"}

_PARSER = cli.build_parser()
_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-10, max_value=10**6).map(str),
    st.text(max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(flag=st.sampled_from(sorted(_POSITIVE | _FINITE | _POSITIVE_INT)), text=_TEXT)
def test_numeric_flag_parses_or_exits_2(flag, text):
    if flag in _SWEEP_ONLY:
        argv = ["sweep-traveltime", "--p-min", "0.1", "--p-max", "0.3", "--steps", "2"]
    else:
        argv = ["density", "--times", "1.0"]
    argv += ["--output", "unused.txt", flag + "=" + text]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        assert f"argument {flag}" in err.getvalue().splitlines()[-1]
        return
    value = getattr(args, flag[2:].replace("-", "_"))
    if flag in _POSITIVE_INT:
        assert isinstance(value, int) and value > 0
    else:
        assert math.isfinite(value)
        assert flag in _FINITE or value > 0
