"""Property tests of the command line.

Every numeric flag value parses to a valid number or exits 2, and a whole
``sweep-traveltime`` run over drawn physical flags ends in an exit code,
never in an escaping exception.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

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
    elif flag == "--t-max":
        argv = ["simulate"]
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


_FLOAT = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    coupling=st.floats(-5.0, 5.0, **_FLOAT),
    r0=st.floats(-20.0, 20.0, **_FLOAT),
    p_min=st.floats(-2.0, 2.0, **_FLOAT),
    p_max=st.floats(-2.0, 2.0, **_FLOAT),
    spin=st.sampled_from(["antiparallel", "distinguishable", "parallel"]),
    frozen=st.booleans(),
)
# E = p^2 + k/d0 is exactly 0 at the last grid point p = 0.5
@example(coupling=-2.5, r0=5.0, p_min=0.25, p_max=0.5, spin="antiparallel", frozen=False)
def test_sweep_command_exits_with_a_code(coupling, r0, p_min, p_max, spin, frozen):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        argv = [
            "sweep-traveltime", f"--coupling={coupling!r}", f"--r0={r0!r}",
            f"--p-min={p_min!r}", f"--p-max={p_max!r}", "--spin", spin,
            "--dt", "0.1", "--t-max", "0.5", "--steps", "2", "--output", str(out),
        ] + (["--frozen-width"] if frozen else [])
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            assert len(out.read_text().splitlines()) == 3
