"""Command-line front end.

Subcommands: simulate, sweep-traveltime, quadrupole, density, validate.
Exit codes: 0 success, 2 usage / invalid configuration, 3 runtime failure.
All outputs are deterministic functions of the flag set.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import dynamics, meanfield, observables, oracle
from .errors import CoherentPairError, NonFinite
from .observables import Plane
from .pairstate import ExchangeSymmetry, PairConfig

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


_CHUNK = 8192  # values per _records call: about 1.2 MB of temporaries
_ZEROS = np.uint64(0x3030303030303030)  # b"0" in every byte


@cache
def _format_tables():
    """Lookup tables of ``_write_rows``: text as NUL-padded little-endian words."""
    # the four digits of 0..9999, then the same with trailing zeros blank
    ten = np.arange(48, 58, dtype=np.uint8)
    digits = np.stack(np.meshgrid(ten, ten, ten, ten, indexing="ij"), -1).reshape(10_000, 4)
    trailing = digits == 48
    for j in (2, 1, 0):
        trailing[:, j] &= trailing[:, j + 1]
    groups = np.concatenate([digits, digits * ~trailing]).view(np.uint32).ravel().astype(np.uint64)
    # 10**k at index k + 300, each correctly rounded by Python's int arithmetic
    powers = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-300, 301)])
    # style c: the text has c digits before the point (1..12), or it reads
    # "0." to "0.000" and then the digits (13..16).  Per style, byte masks of
    # the 16-byte body as two words: the digits before the point, the digits
    # after it (moved one byte right), and the point
    point = np.where(np.arange(17) > 12, -1, np.arange(17))[:, None]
    byte = np.arange(16)
    masks = np.stack([byte < point, byte > np.maximum(point, 0), byte == point])
    masks = (masks * np.array([255, 255, 46])[:, None, None]).astype(np.uint8)
    masks = masks.view(np.uint64).transpose(0, 2, 1).copy()
    prefix = [s + ("0." + "0" * (c - 13) if c > 12 else "") for s in ("", "-") for c in range(17)]
    # per exponent x = -324..308 of the leading digit, at index x + 324: the
    # style C's %g picks and the suffix "e+05", "e-123"
    x = np.arange(-324, 309)
    fixed = (-4 <= x) & (x < 12)
    styles = np.where(fixed, np.where(x < 0, 12 - x, x + 1), 1)
    suffix = np.zeros((x.size, 8), np.uint8)
    suffix[:, :2] = np.stack([np.full(x.size, ord("e")), np.where(x < 0, ord("-"), ord("+"))], -1)
    suffix[:, 2:5] = digits[np.abs(x), 1:] * (np.abs(x)[:, None] >= [100, 0, 0])
    suffix = np.where(fixed, 0, suffix.view(np.uint64).ravel())
    return groups, powers, masks, np.array(prefix, "S8").view(np.uint64), styles, suffix


def _records(rows: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The NUL-padded text of each value of ``rows`` as a row of words.

    ``tails`` holds the last words of each column's records: its separator.
    """
    groups, powers, (keep, shift, point), prefix, styles, suffix = _format_tables()
    v = rows.ravel()
    finite, zero = np.isfinite(v), v == 0
    a = np.where(finite & ~zero, np.abs(v), 1.0)
    tiny = a < 1e-280
    a[tiny] *= 1e100
    # floor(log10) is off by at most one, next to a power of ten
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * powers[311 - e]
    e += (y >= 1e12).astype(np.intp) - (y < 1e11)
    y = a * powers[311 - e]
    m = np.rint(y)
    bad = ~finite | (np.abs(y - m) > 0.499)
    carry = m == 1e12
    m[carry] = 1e11
    m[zero] = 0
    x = np.where(zero | bad, 324, e + carry - 100 * tiny + 324)
    # m as three groups of four digits, with its trailing zeros blank
    g1, r = np.divmod(m.astype(np.intp), 10**8)
    g2, g3 = np.divmod(r, 10**4)
    lo = groups[g1 + 10_000 * (r == 0)] | groups[g2 + 10_000 * (g3 == 0)] << 32
    hi = groups[g3 + 10_000]
    c = styles[x]
    after_lo = lo << 8 & shift[0, c]
    after_hi = (hi << 8 | lo >> 56) & shift[1, c]
    has_point = (after_lo | after_hi) != 0
    rec = np.empty((v.size, 3 + tails.shape[1]), np.uint64)
    rec[:, 0] = prefix[c + 17 * np.signbit(v)]
    rec[:, 1] = ((lo | _ZEROS) & keep[0, c]) | after_lo | point[0, c] * has_point
    rec[:, 2] = ((hi | _ZEROS) & keep[1, c]) | after_hi | point[1, c] * has_point
    rec.reshape(*rows.shape, -1)[:, :, 3:] = tails
    rec[:, 3] |= suffix[x]
    # the fallback text fills the prefix, body and suffix bytes, 8 + 16 + 5
    idx = np.flatnonzero(bad)
    text = np.array(["%.12g" % val for val in v[idx].tolist()], "S29")
    rec.view(np.uint8)[idx, :29] = text.view(np.uint8).reshape(-1, 29)
    return rec


def _write_rows(fh, table: np.ndarray, sep: str, end: str = "\n") -> None:
    """Write every row of a 2-D ``table``, its values joined by ``sep``.

    The text is exactly ``"".join(sep.join("%.12g" % v for v in row) + end
    for row in table)``; ``sep`` and ``end`` hold no NUL.  The 12 digits of
    a finite nonzero v are ``m = rint(y)``, ``y = |v| 10**(11 - e)`` for e
    the exponent of its leading digit (|v| < 1e-280 is scaled by 1e100
    first).  At most four roundings of 2**-53 put ``y`` within 4.5e-4 of
    exact, so ``m`` is correctly rounded when ``|y - m| <= 0.499``.  The
    other values, nan, inf and those within 1e-3 of a tie (which ``%``
    rounds half to even), about 0.2% of a density table, are written by
    ``"%.12g" % v``.
    """
    rows, cols = table.shape
    # record words: prefix, body (2), then the suffix in bytes 0-4 and the
    # column's sep, or end in the last column, from byte 5
    tails = [b"\0" * 5 + text.encode() for text in [sep] * (cols - 1) + [end]]
    width = (max(map(len, tails)) + 7) // 8
    tails = np.array(tails, f"S{8 * width}").view(np.uint64).reshape(cols, width)
    step = max(1, _CHUNK // cols)
    for start in range(0, rows, step):
        # chained, so each buffer is freed as soon as the next stage holds the text
        text = _records(table[start:start + step], tails).tobytes().translate(None, b"\0")
        fh.write(text.decode())


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
    return PairConfig(
        args.sigma,
        np.array([0.0, 0.0, args.r0]),
        np.array([args.px, 0.0, args.pz]),
        _SPIN_TO_SYMMETRY[args.spin],
        args.coupling,
        args.frozen_width,
    )


def _run_trajectory(args):
    state = meanfield.initial_state(_config_from_args(args))
    traj = dynamics.integrate(state, args.dt, args.t_max)
    # a width whose fourth power overflows leaves inf * 0 = nan in the
    # tensor; _finite_table reports it as one error, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return traj, observables.quadrupole_timeseries(traj)


def _finite_table(columns, header: str, sigma: float) -> np.ndarray:
    table = np.column_stack(columns)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        # the first column of the header that holds a nan or inf
        name = header.split(",")[int(np.argmin(finite))]
        raise NonFinite(
            f"the output table left the float range in column {name} at width sigma={_fmt(sigma)}"
        )
    return table


def _cmd_simulate(args) -> int:
    traj, tensor = _run_trajectory(args)
    # a huge momentum overflows |p|^2 in the overlap and energy columns;
    # _finite_table reports it as one error, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        energy = traj.energy
        columns = (
            traj.t, traj.r, traj.p, traj.width, traj.overlap,
            energy[:, 5], energy[:, 3] + energy[:, 4],
            tensor.d_xx, tensor.d_yy, tensor.d_zz, tensor.d_xz,
        )
    table = _finite_table(columns, SIMULATE_HEADER, args.sigma)
    with Path(args.output).open("w") as fh:
        fh.write(SIMULATE_HEADER + "\n")
        _write_rows(fh, table, ",")
    return 0


def _cmd_quadrupole(args) -> int:
    traj, tensor = _run_trajectory(args)
    table = _finite_table(
        (traj.t, tensor.d_xx, tensor.d_yy, tensor.d_zz, tensor.d_xz), QUADRUPOLE_HEADER, args.sigma
    )
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
        config, grid, dt=args.dt, t_max=args.t_max, horizon_factor=args.horizon_factor,
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
    # an extent near the float limit makes every cell centre inf and 0 * inf
    # nan: one error before any file opens, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        snaps = [state if t == 0.0 else traj.state(int(np.argmin(np.abs(traj.t - t)))) for t in times]
        grids = [observables.density_grid(s, Plane(args.plane), args.extent, args.n) for s in snaps]
    if not all(np.isfinite(grid).all() for grid in grids):
        raise NonFinite(f"the density grid left the float range at extent={_fmt(args.extent)}")
    out = Path(args.output)
    for idx, (t, grid) in enumerate(zip(times, grids)):
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
    # a sweep runs in one process; --jobs is still checked, then ignored
    p_sweep.add_argument("--jobs", type=_positive_int, default=1, help=argparse.SUPPRESS)
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
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: numpy cannot allocate an array that large, say at a huge --n
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (CoherentPairError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
