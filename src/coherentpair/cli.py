"""Command-line front end.

Subcommands: simulate, sweep-traveltime, quadrupole, density, validate.
Exit codes: 0 success, 2 usage / invalid configuration, 3 runtime failure.
All outputs are deterministic functions of the flag set; sweep ordering is
independent of --jobs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics, meanfield, observables, oracle
from .errors import CoherentPairError, NonFinite
from .observables import Plane
from .pairstate import ExchangeSymmetry, PairConfig
from .wavepacket import SpreadLaw

SIMULATE_HEADER = "t,rx,ry,rz,px,py,pz,sigma_t,overlap,E_total,E_coul,Dxx,Dyy,Dzz,Dxz"
SWEEP_HEADER = "p,t_coherent,t_classical,t_free,regime"
QUADRUPOLE_HEADER = "t,Dxx,Dyy,Dzz,Dxz,verdict"

_SPIN_TO_SYMMETRY = {
    # parallel spins force the antisymmetric spatial part and vice versa
    "parallel": ExchangeSymmetry.ANTISYMMETRIC,
    "antiparallel": ExchangeSymmetry.SYMMETRIC,
    "distinguishable": ExchangeSymmetry.DISTINGUISHABLE,
}


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _write_rows(fh, table: np.ndarray, sep: str, end: str = "\n") -> None:
    """Write every row of a 2-D ``table``, its values joined by ``sep``.

    ``"%.12g" % v`` writes the same bytes as ``_fmt(v)``.
    """
    template = sep.join(["%.12g"] * table.shape[1])
    for row in table.tolist():
        fh.write(template % tuple(row) + end)


def _checked(convert, kind: str, ok):
    """argparse type: ``convert`` the text and require ``ok`` of the value."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected a {kind}, got {text!r}")
        return value

    return parse


_finite = _checked(float, "finite number", math.isfinite)
_positive = _checked(float, "finite positive number", lambda v: 0 < v < math.inf)
_nonnegative = _checked(float, "finite non-negative number", lambda v: 0 <= v < math.inf)
_positive_int = _checked(int, "positive integer", lambda v: v > 0)


def _add_config_flags(sub: argparse.ArgumentParser, *unread: str) -> None:
    def add(flag: str, **spec) -> None:
        if flag not in unread:
            sub.add_argument(flag, **spec)

    add("--sigma", type=_positive, default=1.0, help="packet width (Bohr)")
    add(
        "--r0", type=_finite, default=5.0,
        help="initial packet-center offset along z; centers sit at +/- r0",
    )
    add("--px", type=_finite, default=0.0, help="initial relative momentum, x")
    add("--pz", type=_finite, default=-0.5, help="initial relative momentum, z")
    add(
        "--spin", choices=sorted(_SPIN_TO_SYMMETRY), default="antiparallel",
        help="mutual spin orientation (selects the spatial symmetry)",
    )
    add("--coupling", type=_finite, default=1.0, help="Coulomb strength e0^2")
    add("--dt", type=_positive, default=0.01, help="integration step")
    add("--t-max", type=_positive, default=20.0, help="integration horizon")
    add(
        "--frozen-width", action="store_true",
        help="pin sigma_x(t) = sigma (no spreading)",
    )
    add("--output", required=True, help="output file path")


def _config_from_args(args) -> PairConfig:
    law = SpreadLaw.frozen_width() if args.frozen_width else None
    return PairConfig(
        args.sigma,
        np.array([0.0, 0.0, args.r0]),
        np.array([args.px, 0.0, args.pz]),
        _SPIN_TO_SYMMETRY[args.spin],
        args.coupling,
        law,
    )


def _run_trajectory(args):
    state = meanfield.initial_state(_config_from_args(args))
    traj = dynamics.integrate(state, args.dt, args.t_max)
    # a width whose fourth power overflows leaves inf * 0 = nan in the
    # tensor; _finite_table reports it as one error, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return traj, observables.quadrupole_timeseries(traj)


def _finite_table(columns, sigma: float) -> np.ndarray:
    table = np.column_stack(columns)
    if not np.isfinite(table).all():
        raise NonFinite(f"the output table left the float range at width sigma={_fmt(sigma)}")
    return table


def _cmd_simulate(args) -> int:
    traj, tensor = _run_trajectory(args)
    energy = traj.energy
    table = _finite_table((
        traj.t, traj.r, traj.p, traj.sigma, traj.overlap,
        energy[:, 5], energy[:, 3] + energy[:, 4],
        tensor.d_xx, tensor.d_yy, tensor.d_zz, tensor.d_xz,
    ), args.sigma)
    with Path(args.output).open("w") as fh:
        fh.write(SIMULATE_HEADER + "\n")
        _write_rows(fh, table, ",")
    return 0


def _cmd_quadrupole(args) -> int:
    traj, tensor = _run_trajectory(args)
    table = _finite_table((traj.t, tensor.d_xx, tensor.d_yy, tensor.d_zz, tensor.d_xz), args.sigma)
    verdict = observables.detect(tensor)
    with Path(args.output).open("w") as fh:
        fh.write(QUADRUPOLE_HEADER + "\n")
        # the verdict column is empty except on the last row
        _write_rows(fh, table[:-1], ",", ",\n")
        _write_rows(fh, table[-1:], ",", f",{verdict.kind.value}\n")
    return 0


def _cmd_sweep(args) -> int:
    if not (args.p_min < args.p_max or args.steps == 1):
        raise ValueError("need p-min < p-max (or a single step)")
    if args.p_min <= 0:
        raise ValueError("momenta must be positive")
    if args.r0 <= 0:
        raise ValueError("r0 must be positive: every point starts at separation 2 r0")
    config = _config_from_args(args)
    grid = np.linspace(args.p_min, args.p_max, args.steps)
    records = dynamics.sweep_traveltime(
        config, grid, dt=args.dt, t_max=args.t_max, jobs=args.jobs,
        horizon_factor=args.horizon_factor,
    )
    lines = [SWEEP_HEADER]
    for rec in records:
        if rec.error is not None:
            lines.append(f"{_fmt(rec.p)},,,,error:{rec.error}")
            continue
        t_coh = "" if rec.t_coherent is None else _fmt(rec.t_coherent)
        lines.append(
            f"{_fmt(rec.p)},{t_coh},{_fmt(rec.t_classical)},{_fmt(rec.t_free)},{rec.regime.value}"
        )
    Path(args.output).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_density(args) -> int:
    config = _config_from_args(args)
    times = sorted(set(args.times))
    state = meanfield.initial_state(config)
    if times[-1] > 0:
        # at least two steps, so that a time below dt still gives t_max > dt
        traj = dynamics.integrate(state, args.dt, max(times[-1], args.dt) + args.dt)
    out = Path(args.output)
    for idx, t in enumerate(times):
        if t == 0.0:
            snap = state
        else:
            i = int(np.argmin(np.abs(traj.t - t)))
            snap = traj.state(i)
        grid = observables.density_grid(snap, Plane(args.plane), args.extent, args.n)
        if len(times) == 1:
            path = out
        else:
            path = out.with_name(f"{out.stem}_{idx:03d}{out.suffix}")
        with path.open("w") as fh:
            fh.write(f"# t={_fmt(t)} extent={_fmt(args.extent)} n={args.n}\n")
            _write_rows(fh, grid, " ")
    return 0


def _cmd_validate(args) -> int:
    results, ok = oracle.run_validation(args.seed_list)
    for report, passed in results:
        status = "PASS" if passed else "FAIL"
        note = f" ({report.note})" if report.note else ""
        print(
            f"{status} {report.quantity}: analytic={report.analytic:.10g} "
            f"numeric={report.numeric:.10g} rel_err={report.rel_err:.3e} "
            f"nodes={report.nodes_used}{note}"
        )
    counts = f"{sum(1 for _, p in results if p)}/{len(results)} checks passed"
    print(counts)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherentpair",
        description="Mean-field central impact of two identical coherent electrons (atomic units)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    _add_config_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_quad = sub.add_parser("quadrupole", help="quadrupole time series to CSV")
    _add_config_flags(p_quad)
    p_quad.set_defaults(func=_cmd_quadrupole)

    p_sweep = sub.add_parser("sweep-traveltime", help="traveltime vs momentum sweep")
    _add_config_flags(p_sweep, "--px", "--pz")
    p_sweep.add_argument("--p-min", type=_finite, required=True)
    p_sweep.add_argument("--p-max", type=_finite, required=True)
    p_sweep.add_argument("--steps", type=_positive_int, required=True)
    p_sweep.add_argument("--jobs", type=_positive_int, default=1)
    p_sweep.add_argument(
        "--horizon-factor", type=_positive, default=50.0,
        help="default horizon as a multiple of the free traveltime",
    )
    # each point sets its momentum; this one only keeps the template valid
    p_sweep.set_defaults(t_max=None, dt=None, px=0.0, pz=-0.5)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_dens = sub.add_parser("density", help="density grids at selected times")
    _add_config_flags(p_dens, "--t-max")
    p_dens.add_argument("--plane", choices=[p.value for p in Plane], default="xz")
    p_dens.add_argument("--extent", type=_positive, default=10.0)
    p_dens.add_argument("--n", type=_positive_int, default=64)
    p_dens.add_argument("--times", type=_nonnegative, nargs="+", required=True)
    p_dens.set_defaults(func=_cmd_density)

    p_val = sub.add_parser("validate", help="run the oracle suite")
    p_val.add_argument("--seed-list", default=None, help="JSON file with seed lists")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (CoherentPairError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
