"""Tests for the command-line interface."""

import os
import re
import shlex
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import coherentpair
from coherentpair import cli, dynamics, observables


def run(args):
    return cli.main(args)


def test_help_exits_zero():
    for sub in ("simulate", "sweep-traveltime", "quadrupole", "density", "validate"):
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--no-such-flag"])
    assert exc.value.code == 2


def test_invalid_config_exit_code(tmp_path):
    # parses, but an antisymmetric pair with r0 = p0 = 0 vanishes identically
    out = tmp_path / "x.csv"
    code = run(["simulate", "--spin", "parallel", "--r0", "0", "--pz", "0",
                "--output", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--sigma", "-1.0"],
    ["simulate", "--t-max", "inf"],
    ["simulate", "--dt", "nan"],
    ["simulate", "--pz", "nan"],
    ["simulate", "--coupling", "-inf"],
    ["sweep-traveltime", "--p-min", "0.1", "--p-max", "0.3", "--steps", "3",
     "--horizon-factor", "nan"],
    ["sweep-traveltime", "--p-min", "0.1", "--p-max", "0.3", "--steps", "3",
     "--jobs", "0"],
    ["sweep-traveltime", "--p-min", "0.1", "--p-max", "0.3", "--steps", "1.5"],
    ["density", "--extent", "0", "--times", "1.0"],
    ["density", "--n", "-4", "--times", "1.0"],
    ["density", "--times", "-5"],
])
def test_bad_flag_value_exits_2_with_one_line(tmp_path, capsys, args):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        run(args + ["--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"coherentpair {args[0]}: error: argument --")
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["sweep-traveltime", "--p-min", "0.2", "--p-max", "0.4", "--steps", "3"], "--px"),
    (["sweep-traveltime", "--p-min", "0.2", "--p-max", "0.4", "--steps", "3"], "--pz"),
    (["density", "--times", "1.0"], "--t-max"),
])
def test_unread_flag_is_rejected(tmp_path, capsys, args, flag):
    # a sweep sets every momentum from its grid; density integrates to its last time
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        run(args + [flag, "0.5", "--output", str(out)])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"coherentpair: error: unrecognized arguments: {flag} 0.5"
    assert not out.exists()


def test_runtime_failure_exit_code(tmp_path, capsys):
    # parallel spins at near-coincidence: the pair state degenerates
    out = tmp_path / "deg.csv"
    code = run(["simulate", "--spin", "parallel", "--r0", "1e-7", "--pz", "0",
                "--dt", "0.01", "--t-max", "0.1", "--output", str(out)])
    assert code == 3
    assert "runtime failure" in capsys.readouterr().err


def test_simulate_header_and_free_motion(tmp_path):
    out = tmp_path / "run.csv"
    code = run([
        "simulate", "--sigma", "1.0", "--r0", "5.0", "--pz", "-0.5",
        "--spin", "distinguishable", "--coupling", "0.0", "--frozen-width",
        "--dt", "0.01", "--t-max", "5.0", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rx,ry,rz,px,py,pz,sigma_t,overlap,E_total,E_coul,Dxx,Dyy,Dzz,Dxz"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    t, rz, pz = rows[:, 0], rows[:, 3], rows[:, 6]
    assert np.max(np.abs(rz - (10.0 - 1.0 * t))) < 1e-9
    assert np.max(np.abs(pz + 0.5)) < 1e-12


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--pz", "-0.3", "--dt", "0.02", "--t-max", "4.0"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once_and_reused(tmp_path):
    # a process that calls main repeatedly shares one parser; no call leaves
    # state in it that changes the next one
    assert cli.build_parser() is cli.build_parser()
    seeds = tmp_path / "seeds.json"
    seeds.write_text('{"overlap": [10000], "coulomb": [], "kinetic": [], "moments": []}')
    args = ["simulate", "--pz", "-0.3", "--dt", "0.02", "--t-max", "4.0", "--output"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(args + [str(a)]) == 0
    assert run(["validate", "--seed-list", str(seeds)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert cli.build_parser() is cli.build_parser()


def test_negative_exponent_value_is_attached_with_equals(tmp_path):
    # argparse reads a lone "-1e-3" as a flag, so it needs "--pz=-1e-3"
    tail = ["--dt", "0.1", "--t-max", "1"]
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--pz", "-1e-3", *tail, "--output", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert run(["simulate", "--pz=-1e-3", *tail, "--output", str(tmp_path / "a.csv")]) == 0
    assert run(["simulate", "--pz", "-0.001", *tail, "--output", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_structure_and_jobs_invariance(tmp_path):
    base = [
        "sweep-traveltime", "--sigma", "1.0", "--r0", "5.0", "--spin", "antiparallel",
        "--p-min", "0.1", "--p-max", "0.3", "--steps", "3",
        "--horizon-factor", "2.5",
    ]
    a = tmp_path / "s1.csv"
    b = tmp_path / "s2.csv"
    assert run(base + ["--jobs", "1", "--output", str(a)]) == 0
    assert run(base + ["--jobs", "2", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "p,t_coherent,t_classical,t_free,regime"
    assert len(lines) == 4
    regimes = [line.split(",")[-1] for line in lines[1:]]
    for r in regimes:
        assert r in {"classical", "passthrough", "frozen", "noreturn"}
    # NoReturn rows carry an empty traveltime column
    for line in lines[1:]:
        parts = line.split(",")
        if parts[-1] in {"frozen", "noreturn"}:
            assert parts[1] == ""


def test_sweep_single_step(tmp_path):
    out = tmp_path / "one.csv"
    code = run([
        "sweep-traveltime", "--spin", "antiparallel", "--p-min", "0.5",
        "--p-max", "0.5", "--steps", "1", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    p, t_coh, t_cl, t_free, regime = lines[1].split(",")
    assert float(p) == 0.5
    # d0 = 2 r0 = 10 and v0 = 2p = 1, so the free return time is 2 d0 / v0
    assert float(t_free) == 20.0
    assert regime == "passthrough"
    assert float(t_coh) > 0


def test_sweep_attractive_zero_energy_keeps_every_column(tmp_path, capsys):
    # E = p^2 + k/d0 = 0.25 - 2.5/10 = 0: the attracted pair passes through and
    # comes back in (2/3) d0^3/2 / sqrt(|k|) = 40/3
    out = tmp_path / "zero.csv"
    code = run([
        "sweep-traveltime", "--coupling", "-2.5", "--r0", "5", "--p-min", "0.5",
        "--p-max", "0.5", "--steps", "1", "--output", str(out),
    ])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    p, t_coh, t_cl, t_free, regime = lines[1].split(",")
    assert (p, t_cl, t_free, regime) == ("0.5", "13.3333333333", "20", "passthrough")
    assert float(t_coh) > 0


@pytest.mark.parametrize("r0", ["0", "-5", "-0.0"])
def test_sweep_rejects_a_non_positive_offset(tmp_path, capsys, monkeypatch, r0):
    # d0 = 2 r0 <= 0 fits no point; the sweep must not start
    monkeypatch.setattr(cli.dynamics, "_sweep_point", None)
    out = tmp_path / "x.csv"
    code = run([
        "sweep-traveltime", f"--r0={r0}", "--spin", "parallel", "--p-min", "0.2",
        "--p-max", "0.4", "--steps", "3", "--output", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid configuration:") and "r0" in err[0]
    assert not out.exists()


def test_quadrupole_verdict_on_last_row(tmp_path):
    out = tmp_path / "q.csv"
    code = run([
        "quadrupole", "--pz", "-0.5", "--dt", "0.05", "--t-max", "130.0",
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,Dxx,Dyy,Dzz,Dxz,verdict"
    body = lines[1:]
    assert all(line.endswith(",") for line in body[:-1])
    assert body[-1].split(",")[-1] == "monotone"


def test_density_file_layout(tmp_path):
    out = tmp_path / "grid.txt"
    code = run([
        "density", "--pz", "-0.5", "--dt", "0.05",
        "--plane", "xz", "--extent", "8.0", "--n", "16",
        "--times", "0.0", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 17
    assert lines[0].startswith("# t=0 extent=8 n=16")
    grid = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    assert grid.shape == (16, 16)
    # mirrored configuration: the matrix equals its own 180 degree rotation
    assert np.max(np.abs(grid - np.rot90(grid, 2))) < 1e-10 * float(grid.max())


def test_density_multiple_times(tmp_path):
    out = tmp_path / "g.txt"
    code = run([
        "density", "--pz", "-1.0", "--dt", "0.02", "--plane", "xz",
        "--extent", "30.0", "--n", "16", "--times", "10.0", "30.0",
        "--output", str(out),
    ])
    assert code == 0
    first = tmp_path / "g_000.txt"
    second = tmp_path / "g_001.txt"
    assert first.exists() and second.exists()
    assert first.read_text().splitlines()[0].startswith("# t=10")


def test_density_time_below_the_step(tmp_path):
    # t + dt rounds to dt here; the trajectory must still run past t
    common = ["density", "--dt", "0.01", "--n", "16", "--output"]
    tiny, zero = tmp_path / "tiny.txt", tmp_path / "zero.txt"
    assert run(common + [str(tiny), "--times", "1e-20"]) == 0
    assert run(common + [str(zero), "--times", "0"]) == 0
    lines = tiny.read_text().splitlines()
    assert len(lines) == 17 and lines[0] == "# t=1e-20 extent=10 n=16"
    # the nearest sample is the initial state
    assert lines[1:] == zero.read_text().splitlines()[1:]


@pytest.mark.parametrize("args", [
    ["simulate", "--t-max", "1e300", "--dt", "0.01"],
    ["density", "--times", "1e300"],
])
def test_huge_horizon_exits_2_before_stepping(tmp_path, capsys, args):
    out = tmp_path / "x.out"
    start = time.perf_counter()
    code = run(args + ["--output", str(out)])
    assert time.perf_counter() - start < 10.0
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "step" in err[0] and "budget" in err[0]
    assert not out.exists()


_SWEEP = ["sweep-traveltime", "--p-min", "0.2", "--p-max", "0.4", "--steps", "2"]


@pytest.mark.parametrize("args, code, prefix", [
    # sigma^2 underflows to 0 or overflows to inf: rejected with the configuration
    (["simulate", "--sigma", "1e-200"], 2, "invalid configuration:"),
    (["density", "--sigma", "1e-200", "--times", "1"], 2, "invalid configuration:"),
    (_SWEEP + ["--sigma", "1e-200"], 2, "invalid configuration:"),
    (["simulate", "--sigma", "1e200"], 2, "invalid configuration:"),
    # the width (omega t)^2 overflows on the first step
    (["simulate", "--t-max", "1e300", "--dt", "1e294"], 3, "runtime failure:"),
    (["density", "--times", "1e300", "--dt", "1e294"], 3, "runtime failure:"),
    # no stepping: the density normalisation (2 pi sigma^2)^-1.5 overflows
    (["density", "--sigma", "1e-150", "--times", "0"], 3, "runtime failure:"),
    # 2 extent / n overflows: every cell centre is inf, and 0 * inf leaves nan
    (["density", "--extent", "1e308", "--n", "16", "--times", "0"], 3, "runtime failure:"),
])
def test_extreme_finite_input_fails_with_one_line(tmp_path, capsys, args, code, prefix):
    out = tmp_path / "x.out"
    assert run(args + ["--output", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--pz", "-0.5", "--dt", "0.1", "--t-max", "0.3"],
    ["quadrupole", "--pz", "-0.5", "--dt", "0.1", "--t-max", "0.3"],
    ["density", "--pz", "-0.5", "--dt", "0.1", "--times", "0.3"],
    _SWEEP,
], ids=lambda args: args[0])
def test_offset_beyond_half_the_float_range_exits_2(tmp_path, capsys, monkeypatch, args):
    # the separation 2 r0 overflows: rejected with the configuration, before
    # any sweep point runs
    monkeypatch.setattr(cli.dynamics, "_sweep_point", None)
    out = tmp_path / "x.out"
    assert run(args + ["--r0", "9e307", "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid configuration:")
    assert "r0" in err[0] and "2*r0" in err[0]
    assert not out.exists()


def test_sweep_point_whose_squared_separation_overflows_is_quiet(tmp_path, capsys):
    # the p = 1e-150 pair recedes to |r| ~ 4e298: its |r|^2 is inf, as in
    # the stop rule's float sum, and no numpy warning is printed.  The
    # p = 1e-160 point's width reaches 1.25e159 on the first step; the
    # kernel's sigma_x^2 overflows there and its gradient is nan
    out = tmp_path / "x.csv"
    argv = ["sweep-traveltime", "--p-min", "1e-160", "--p-max", "1e-150", "--steps", "2"]
    assert run(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text() == (
        "p,t_coherent,t_classical,t_free,regime\n"
        "1e-160,,,,error:the RK4 step from t=0 produced a non-finite state\n"
        "1e-150,,2e-148,1e+151,noreturn\n"
    )


def test_density_grid_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # numpy raises a MemoryError subclass for a grid it cannot allocate; the
    # allocation is faked, since a real attempt on a host that overcommits
    # memory may run out of it instead of failing
    zeros = np.zeros
    message = "Unable to allocate 21.8 TiB for an array with shape (1000000, 1000000, 3)"

    def fake_zeros(shape, *args, **kwargs):
        if shape == (1000000, 1000000, 3):
            raise MemoryError(message)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(observables.np, "zeros", fake_zeros)
    out = tmp_path / "x.out"
    assert run(["density", "--n", "1000000", "--times", "1", "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"invalid configuration: {message}"]
    assert not out.exists()


def test_density_normalization_overflow_names_the_width(tmp_path, capsys):
    out = tmp_path / "x.out"
    assert run(["density", "--sigma", "1e-150", "--times", "0", "--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime failure:") and "1e-150" in err[0]
    assert not out.exists()


def test_density_extent_overflow_names_the_extent(tmp_path, capsys):
    out = tmp_path / "x.out"
    args = ["density", "--extent", "1e308", "--n", "16", "--times", "0", "0.5"]
    assert run(args + ["--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime failure:") and "extent=1e+308" in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("extent", ["1e155", "1e200"])
def test_density_huge_finite_extent_writes_zeros_quietly(tmp_path, capsys, extent):
    # the cell centres square to inf, so the density is exactly 0 everywhere
    out = tmp_path / "x.out"
    assert run(["density", "--extent", extent, "--n", "16", "--times", "0",
                "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    grid = np.loadtxt(out)
    assert grid.shape == (16, 16) and not grid.any()


# the first header column with a nan or inf: (simulate, quadrupole)
_DXX = {"simulate": "Dxx", "quadrupole": "Dxx"}
_P_SQUARED = {"simulate": "E_total", "quadrupole": "Dxx"}


@pytest.mark.parametrize("command", ["simulate", "quadrupole"])
@pytest.mark.parametrize("flags, named, column", [
    # sigma^4 overflows in the tensor, and inf * 0 leaves nan
    pytest.param(["--sigma", "1e80", "--pz", "0"], "sigma=1e+80", _DXX, id="1e80-0-sigma=1e+80"),
    pytest.param(
        ["--sigma", "1e80", "--pz", "-0.5"], "sigma=1e+80", _DXX, id="1e80--0.5-sigma=1e+80"
    ),
    pytest.param(
        ["--sigma", "1e120", "--pz", "0"], "sigma=1e+120", _DXX, id="1e120-0-sigma=1e+120"
    ),
    # the energy and its gradient stay finite, the tensor does not
    pytest.param(
        ["--sigma", "1e120", "--pz", "-0.5"], "sigma=1e+120", _DXX, id="1e120--0.5-sigma=1e+120"
    ),
    # the steps stay finite, |p|^2 overflows in the energy columns and the tensor
    pytest.param(["--coupling", "1e306"], "sigma=1", _P_SQUARED, id="coupling-1e306"),
    pytest.param(["--coupling", "1e200"], "sigma=1", _P_SQUARED, id="coupling-1e200"),
    # no exchange terms: the state stays finite, |p|^2 = 1e320 does not
    pytest.param(["--pz=-1e160", "--spin", "distinguishable"], "sigma=1", _P_SQUARED,
                 id="pz-1e160-distinguishable"),
    # the separation 2 r0 = 1.6e308 is finite, the tensor's r0^2 is not
    pytest.param(["--r0", "8e307"], "sigma=1", _DXX, id="r0-8e307"),
])
def test_non_finite_table_fails_before_writing(tmp_path, capsys, command, flags, named, column):
    out = tmp_path / "x.csv"
    argv = [command, *flags, "--t-max", "1", "--dt", "0.1"]
    assert run(argv + ["--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime failure:")
    assert "float range" in err[0] and named in err[0]
    assert f" in column {column[command]} at width " in err[0]
    assert not out.exists()


@pytest.mark.parametrize("spin", ["antiparallel", "parallel", "distinguishable"])
@pytest.mark.parametrize("pz", ["-1e160", "-1e308"])
# the head-on start is stepped on (r_z, p_z) alone, the oblique one on six floats
@pytest.mark.parametrize("px", [[], ["--px", "0.01"]], ids=["head-on", "oblique"])
def test_non_finite_state_fails_before_writing(tmp_path, capsys, spin, pz, px):
    out = tmp_path / "x.csv"
    argv = ["simulate", f"--pz={pz}", *px, "--spin", spin, "--dt", "0.1", "--t-max", "1"]
    assert run(argv + ["--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime failure:")
    # distinguishable packets have no exchange terms: at -1e160 the state
    # stays finite and only |p|^2 in the output table overflows
    if spin != "distinguishable" or pz == "-1e308":
        assert err[0] == "runtime failure: the RK4 step from t=0 produced a non-finite state"
    assert not out.exists()


def test_sweep_point_with_overflowing_width_is_an_error_row(tmp_path):
    # the width 5e293 at t = dt is finite; its square in the kernel is not
    out = tmp_path / "sweep.csv"
    assert run(_SWEEP + ["--t-max", "1e300", "--dt", "1e294", "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [
        f"{p},,,,error:the RK4 step from t=0 produced a non-finite state" for p in ("0.2", "0.4")
    ]


def test_density_rows_match_per_cell_format(tmp_path, monkeypatch):
    n = 16
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, tiny, tiny / 3.0, 5e-324, 1.0, 1.0 / 3.0, 2.0 / 3.0,
              123456789012.5, 1e300, np.finfo(float).max, 1e-5, 0.1, 7.0, 1e12, 1e11]
    grid = np.array([np.roll(values, k) for k in range(n)])
    monkeypatch.setattr(observables, "density_grid", lambda *args: grid)
    out = tmp_path / "grid.txt"
    code = run(["density", "--n", str(n), "--times", "0", "--output", str(out)])
    assert code == 0
    rows = out.read_text().split("\n")[1:-1]
    assert rows == [" ".join(cli._fmt(v) for v in row) for row in grid]


# values whose "%.12g" and format(v, ".12g") spellings are worth comparing
_AWKWARD = [0.0, -0.0, np.finfo(float).tiny, 5e-324, 1.0 / 3.0, 123456789012.5,
            1e300, np.finfo(float).max, 1e-5, 0.1, 1e12, 1e11]


def _capture_run(monkeypatch):
    """Record the trajectory a command integrates and give its tensor awkward values."""
    seen = {}
    integrate = dynamics.integrate

    def recording(*args, **kwargs):
        seen["traj"] = integrate(*args, **kwargs)
        return seen["traj"]

    def awkward_series(traj):
        n = traj.t.size
        columns = [np.resize(np.roll(_AWKWARD, k), n) for k in range(4)]
        seen["tensor"] = observables.QuadrupoleTensor(*columns)
        return seen["tensor"]

    monkeypatch.setattr(dynamics, "integrate", recording)
    monkeypatch.setattr(observables, "quadrupole_timeseries", awkward_series)
    return seen


def test_simulate_rows_match_per_value_format(tmp_path, monkeypatch):
    seen = _capture_run(monkeypatch)
    out = tmp_path / "sim.csv"
    code = run(["simulate", "--px", "-0.0", "--pz", "-0.3", "--dt", "0.1", "--t-max", "2",
                "--output", str(out)])
    assert code == 0
    traj, tensor = seen["traj"], seen["tensor"]
    lines = out.read_text().split("\n")
    assert lines[0] == cli.SIMULATE_HEADER and lines[-1] == ""
    rows = lines[1:-1]
    assert len(rows) == traj.t.size
    for i, row in enumerate(rows):
        values = [traj.t[i], *traj.r[i], *traj.p[i], traj.width[i], traj.overlap[i],
                  traj.energy[i, 5], traj.energy[i, 3] + traj.energy[i, 4],
                  tensor.d_xx[i], tensor.d_yy[i], tensor.d_zz[i], tensor.d_xz[i]]
        assert row == ",".join(cli._fmt(float(v)) for v in values)
    assert rows[0].split(",")[4] == "-0"


def test_quadrupole_rows_match_per_value_format(tmp_path, monkeypatch):
    seen = _capture_run(monkeypatch)
    verdict = observables.SeriesVerdict(observables.SeriesKind.OSCILLATORY, 2)
    monkeypatch.setattr(observables, "detect", lambda series: verdict)
    out = tmp_path / "quad.csv"
    code = run(["quadrupole", "--px", "-0.0", "--dt", "0.1", "--t-max", "2",
                "--output", str(out)])
    assert code == 0
    traj, tensor = seen["traj"], seen["tensor"]
    lines = out.read_text().split("\n")
    assert lines[0] == cli.QUADRUPOLE_HEADER and lines[-1] == ""
    rows = lines[1:-1]
    assert len(rows) == traj.t.size
    for i, row in enumerate(rows):
        values = [traj.t[i], tensor.d_xx[i], tensor.d_yy[i], tensor.d_zz[i], tensor.d_xz[i]]
        label = "oscillatory" if i == len(rows) - 1 else ""
        assert row == ",".join(cli._fmt(float(v)) for v in values) + "," + label
    assert all(row.endswith(",") for row in rows[:-1])
    assert rows[1].split(",")[1] == "-0"  # d_xx = -0.0 on the second sample


def test_quadrupole_one_row_series_writes_its_verdict_on_the_first_row(tmp_path, monkeypatch):
    # the rows before the verdict row form an empty table
    values = (5e-324, -0.0, 123456789012.5, 1e-5)
    tensor = observables.QuadrupoleTensor(*(np.array([v]) for v in values))
    traj = types.SimpleNamespace(t=np.array([0.0]))
    monkeypatch.setattr(cli, "_run_trajectory", lambda args: (traj, tensor))
    verdict = observables.SeriesVerdict(observables.SeriesKind.OSCILLATORY, 0)
    monkeypatch.setattr(observables, "detect", lambda series: verdict)
    out = tmp_path / "quad.csv"
    assert run(["quadrupole", "--output", str(out)]) == 0
    row = "0,4.94065645841e-324,-0,123456789012,1e-05,oscillatory"
    assert out.read_text() == cli.QUADRUPOLE_HEADER + "\n" + row + "\n"


def test_validate_small_seed_list(tmp_path, capsys):
    import json

    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({
        "overlap": [10000],
        "coulomb": [20000],
        "kinetic": [30000],
        "moments": [40000],
    }))
    code = run(["validate", "--seed-list", str(seeds)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS overlap" in out
    assert "checks passed" in out


@pytest.mark.parametrize("content", [
    "{}",
    '{"overlap": ["x"], "coulomb": [], "kinetic": [], "moments": []}',
    "[1, 2]",
    '{"overlap": [1.5], "coulomb": [], "kinetic": [], "moments": []}',
    # json.load recurses once per level
    "[" * 100000 + "]" * 100000,
], ids=["empty", "string", "array", "float", "deep"])
def test_validate_malformed_seed_list_exits_2(tmp_path, capsys, content):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(content)
    code = run(["validate", "--seed-list", str(seeds)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid configuration:")


_README = Path(__file__).resolve().parents[1] / "README.md"
_RUN_COMMANDS = ("simulate", "quadrupole", "sweep-traveltime", "density")


def readme_commands() -> list[list[str]]:
    """argv of every run command in the README's sh blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", _README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if len(words) > 1 and words[0] == "coherentpair" and words[1] in _RUN_COMMANDS:
                commands.append(words[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(_RUN_COMMANDS)
    for argv in commands:
        assert run(argv) == 0, argv
        out = Path(argv[argv.index("--output") + 1])
        # several density times write name_000.ext, name_001.ext, ...
        written = [out] if out.exists() else sorted(Path().glob(f"{out.stem}_*{out.suffix}"))
        assert written and all(path.stat().st_size > 0 for path in written), argv


def test_runtime_imports_only_numpy():
    # the README's dependency claim: scipy, mpmath and hypothesis are test-only;
    # a sweep runs in this process, so no process pool is imported either
    src = str(Path(coherentpair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, coherentpair.cli, coherentpair.oracle; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = {name.partition(".")[0] for name in out.split()}
    assert "numpy" in loaded
    assert not loaded & {"scipy", "mpmath", "hypothesis", "pytest", "concurrent",
                         "multiprocessing"}


def test_readme_export_count():
    counts = re.findall(r"exports (\d+) names", _README.read_text())
    assert counts == [str(len(coherentpair.__all__))]
