"""Property tests of the command line.

Every numeric flag value parses to a valid number or exits 2, a whole
``sweep-traveltime`` run over drawn physical flags ends in an exit code,
never in an escaping exception, and the row writer writes the bytes of
``"%.12g" % v`` for any 64-bit pattern.
"""

import contextlib
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
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


# (sep, end) of the commands' _write_rows calls: density, simulate and
# quadrupole rows, and the quadrupole verdict row
_ROW_SHAPES = [(" ", "\n"), (",", "\n"), (",", ",\n"), (",", ",oscillatory\n")]


def _per_value(table, sep, end):
    return "".join(sep.join("%.12g" % v for v in row) + end for row in table)


def _written(table, sep, end):
    fh = io.StringIO()
    cli._write_rows(fh, table, sep, end)
    return fh.getvalue()


@st.composite
def _bit_tables(draw):
    """Tables of raw 64-bit patterns: nan, inf, subnormals and -0.0 included."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows * cols, max_size=rows * cols))
    values = [struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits]
    return np.array(values).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(table=_bit_tables(), shape=st.sampled_from(_ROW_SHAPES))
def test_write_rows_matches_per_value_format(table, shape):
    assert _written(table, *shape) == _per_value(table, *shape)


def _adversarial():
    """Values at the edges of the writer's digit and style decisions."""
    # exact 12-digit ties, which "%" rounds half to even
    ties = [float(f"{n}e{q}") for n in (1234567890125, 1234567890115) for q in range(-3, 4)]
    # no ties, but |v| 10**(11 - e) rounds to within 6e-5 of one, or onto it,
    # in floating point: the "%" fallback writes them
    near_ties = [5.086314092915e-154, 6.028231487825e-226, 2.2009499885549998e-159]
    # 10**k and its neighbours: the exponent of the leading digit
    powers = np.array([float(f"1e{k}") for k in range(-308, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    # the fixed/exponent style boundaries just below 1e-4 and 1e12
    edges = [9.99999999999949e-5, 9.9999999999995e-5, 999999999999.4, 999999999999.5]
    extremes = [5e-324, np.finfo(float).tiny, np.finfo(float).max, 0.0, np.inf, np.nan]
    values = np.concatenate([ties, near_ties, near, edges, extremes])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("shape", _ROW_SHAPES)
def test_write_rows_adversarial_values(shape):
    values = _adversarial()
    for table in (values.reshape(1, -1), values.reshape(-1, 1), values.reshape(-1, 6)):
        assert _written(table, *shape) == _per_value(table, *shape)


@pytest.mark.parametrize("cols", [1, 3, 16])
@pytest.mark.parametrize("extra", [0, 1], ids=["one-chunk", "one-chunk-and-a-row"])
def test_write_rows_chunk_seams(cols, extra):
    # a chunk holds whole rows, so with one column "a row" is one value
    per_chunk = cli._CHUNK // cols * cols
    rng = np.random.default_rng(cols)
    table = rng.standard_normal((per_chunk // cols + extra, cols))
    table *= 10.0 ** rng.integers(-8, 14, table.shape)
    # a tie takes the "%" fallback: at the first and last slot of each chunk
    slots = sorted({0, per_chunk - 1, min(per_chunk, table.size - 1), table.size - 1})
    table.reshape(-1)[slots] = 123456789012.5
    for shape in _ROW_SHAPES:
        assert _written(table, *shape) == _per_value(table, *shape)
