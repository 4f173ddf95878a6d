"""Mean-field Hamilton dynamics, traveltimes, baselines and regimes.

The canonical equations dr/dt = dE/dp, dp/dt = -dE/dr are integrated with
fixed-step RK4; the width sigma_x(t) follows the prescribed spread law, so
the system is non-autonomous unless the width is frozen.  Separation is
d(t) = |r(t)| and the traveltime is the first return to the initial
separation after the approach.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import meanfield, numerics
from .errors import DegenerateState, MalformedTrajectory, NonFinite
from .meanfield import PhaseState, breakdown_from_params, _core
from .pairstate import ExchangeSymmetry, PairConfig, overlap_from_params
from .wavepacket import SpreadLaw

# largest t_max / dt, the RK4 step count, one ``integrate`` call accepts; it
# fails before stepping on horizons that would never finish
MAX_STEPS = 10_000_000

ENERGY_COLUMNS = (
    "kinetic_classical",
    "kinetic_uncertainty",
    "kinetic_exchange",
    "coulomb_direct",
    "coulomb_exchange",
    "total",
)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Columnar time series of one integration run.

    ``energy`` columns follow :data:`ENERGY_COLUMNS`.
    """

    config: PairConfig
    dt: float
    t_max: float
    t: np.ndarray
    r: np.ndarray
    p: np.ndarray
    sigma: np.ndarray
    overlap: np.ndarray
    energy: np.ndarray

    @property
    def separation(self) -> np.ndarray:
        return np.linalg.norm(self.r, axis=1)

    def state(self, i: int) -> PhaseState:
        return PhaseState(self.r[i], self.p[i], float(self.t[i]), self.config)


class Outcome(enum.Enum):
    RETURN = "return"
    NO_RETURN = "noreturn"


@dataclass(frozen=True)
class TraveltimeResult:
    outcome: Outcome
    t_return: float | None
    d_init: float
    d_min: float


class Regime(enum.Enum):
    """Qualitative impact type of one trajectory.

    NO_RETURN covers horizons where the pair has not yet returned but the
    separation-to-width criterion for the frozen regime is not met.
    """

    CLASSICAL_LIKE = "classical"
    PASS_THROUGH = "passthrough"
    FROZEN = "frozen"
    NO_RETURN = "noreturn"


def _width_fn(config: PairConfig):
    law = config.law
    sigma = config.sigma

    if law.frozen:

        def frozen(_t: float) -> float:
            return sigma

        return frozen

    omega = law.omega

    def spreading(t: float) -> float:
        return sigma * math.sqrt(1.0 + (omega * t) ** 2)

    return spreading


def _deriv_factory(config: PairConfig, gradient: str):
    """(y6, t) -> dy6/dt for y6 = (rx, ry, rz, px, py, pz)."""
    sign = config.symmetry.sign
    kappa = config.coupling
    width = _width_fn(config)

    if gradient == "analytic":

        def deriv(y: np.ndarray, t: float) -> np.ndarray:
            # Python floats keep the scalar kernel off numpy's scalar types
            rx, ry, rz, px, py, pz = y.tolist()
            s = width(t)
            rho = rx * rx + ry * ry + rz * rz
            pp = px * px + py * py + pz * pz
            _, de_drho, de_dpp = _core(rho, pp, s, sign, kappa)
            gr = 2.0 * de_drho
            gp = 2.0 * de_dpp
            return np.array([gp * px, gp * py, gp * pz, -gr * rx, -gr * ry, -gr * rz])

        return deriv

    if gradient == "numeric":

        def deriv_numeric(y: np.ndarray, t: float) -> np.ndarray:
            state = PhaseState(y[:3], y[3:], t, config)
            gr = meanfield.grad_r(state)
            gp = meanfield.grad_p(state)
            return np.concatenate([gp, -gr])

        return deriv_numeric

    raise ValueError("gradient must be 'analytic' or 'numeric'")


def integrate(
    initial: PhaseState,
    dt: float,
    t_max: float,
    gradient: str = "analytic",
    stop_at_separation: float | None = None,
) -> Trajectory:
    """RK4 integration with one recorded sample per step.

    ``gradient`` selects the analytic fast path (default; validated against
    the central-difference gradients) or the numeric one.  If
    ``stop_at_separation`` is given, integration ends early once the
    separation exceeds it after having dipped below (sweep shortcut).
    """
    if dt <= 0 or t_max <= dt:
        raise ValueError("need dt > 0 and t_max > dt")
    if not t_max / dt <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {t_max / dt:.3g} exceeds the budget of {MAX_STEPS} steps")
    config = initial.config
    deriv = _deriv_factory(config, gradient)
    width = _width_fn(config)
    sign = config.symmetry.sign
    kappa = config.coupling

    n_steps = int(round(t_max / dt))
    y = np.concatenate([initial.r, initial.p]).astype(float)

    ts = [0.0]
    ys = [y.copy()]
    dipped = False
    t = 0.0
    for _ in range(n_steps):
        y = numerics.rk4_step(y, t, dt, deriv)
        t += dt
        ts.append(t)
        ys.append(y.copy())
        if stop_at_separation is not None:
            d = float(np.linalg.norm(y[:3]))
            if d < stop_at_separation:
                dipped = True
            elif dipped and d > stop_at_separation * 1.05:
                break

    tarr = np.array(ts)
    yarr = np.array(ys)
    rarr = yarr[:, :3]
    parr = yarr[:, 3:]
    sarr = np.array([width(tv) for tv in tarr])
    oarr = np.empty_like(tarr)
    earr = np.empty((tarr.size, 6))
    for i in range(tarr.size):
        rho = float(np.dot(rarr[i], rarr[i]))
        pp = float(np.dot(parr[i], parr[i]))
        oarr[i] = overlap_from_params(0.25 * rho, pp, float(sarr[i]))
        bd = breakdown_from_params(rho, pp, float(sarr[i]), sign, kappa)
        earr[i] = (
            bd.kinetic_classical,
            bd.kinetic_uncertainty,
            bd.kinetic_exchange,
            bd.coulomb_direct,
            bd.coulomb_exchange,
            bd.total,
        )
    if not (np.all(np.isfinite(rarr)) and np.all(np.isfinite(parr))):
        raise NonFinite("trajectory blew up")
    return Trajectory(config, dt, t_max, tarr, rarr, parr, sarr, oarr, earr)


def traveltime(traj: Trajectory) -> TraveltimeResult:
    """First return to the initial separation after the approach.

    The crossing time is linearly interpolated between samples; requires
    the initial motion to be inward (r . p < 0 at t = 0).
    """
    d = traj.separation
    d_init = float(d[0])
    if d_init <= 0.0:
        raise MalformedTrajectory("initial separation must be positive")
    if float(np.dot(traj.r[0], traj.p[0])) >= 0.0:
        raise MalformedTrajectory("initial motion is not inward")
    below = False
    d_min = d_init
    for k in range(1, d.size):
        dk = float(d[k])
        if dk < d_min:
            d_min = dk
        if dk < d_init:
            below = True
        elif below and dk >= d_init:
            prev = float(d[k - 1])
            frac = (d_init - prev) / (dk - prev) if dk > prev else 1.0
            t_ret = float(traj.t[k - 1]) + frac * (float(traj.t[k]) - float(traj.t[k - 1]))
            return TraveltimeResult(Outcome.RETURN, t_ret, d_init, d_min)
    return TraveltimeResult(Outcome.NO_RETURN, None, d_init, d_min)


def free_traveltime(d0: float, v0: float) -> float:
    """Return time of a non-interacting pair: 2 d0 / v0."""
    if d0 <= 0 or v0 <= 0:
        raise ValueError("d0 and v0 must be positive")
    return 2.0 * d0 / v0


def classical_traveltime(d0: float, v0: float, coupling: float = 1.0) -> float:
    """Return time of the classical Coulomb collision (reduced mass m/2).

    t = 2 int_{d_min}^{d0} dd / sqrt((2/mu)(E - k/d)) with
    E = mu v0^2 / 2 + k/d0 and turning point d_min = k/E; the square-root
    endpoint singularity is removed by the substitution d = d_min + u^2,
    which turns the integrand into 2 sqrt(mu d / (2 E)).
    """
    if d0 <= 0 or v0 <= 0:
        raise ValueError("d0 and v0 must be positive")
    if coupling == 0.0:
        return free_traveltime(d0, v0)
    mu = 0.5
    energy = 0.5 * mu * v0 * v0 + coupling / d0
    d_min = coupling / energy

    def integrand(u: float) -> float:
        # E - k/d = E u^2 / d exactly, since E d_min = k; with dd = 2 u du
        # the factor u cancels instead of vanishing in the difference
        d = d_min + u * u
        if d <= 0.0:
            return 0.0
        return 2.0 * math.sqrt(mu * d / (2.0 * energy))

    u_max = math.sqrt(max(d0 - d_min, 0.0))
    if u_max == 0.0:
        return 0.0
    return 2.0 * numerics.integrate_1d(integrand, 0.0, u_max)


def classify(
    traj: Trajectory,
    result: TraveltimeResult,
    frozen_ratio: float = 1.0,
    passthrough_fraction: float = 0.1,
) -> Regime:
    """Impact regime of a finished trajectory.

    Return with a deep minimum (d_min < passthrough_fraction * sigma) is a
    pass-through, any other return is a classical-like reflection.  Without
    a return the trajectory is frozen when d(t)/sigma_x(t) stays below
    ``frozen_ratio`` over the final quarter, otherwise NO_RETURN.
    """
    sigma = traj.config.sigma
    if result.outcome is Outcome.RETURN:
        if result.d_min < passthrough_fraction * sigma:
            return Regime.PASS_THROUGH
        return Regime.CLASSICAL_LIKE
    d = traj.separation
    start = (3 * d.size) // 4
    ratio = d[start:] / traj.sigma[start:]
    if float(np.max(ratio)) < frozen_ratio:
        return Regime.FROZEN
    return Regime.NO_RETURN


@dataclass(frozen=True)
class SweepRecord:
    """One momentum point of a traveltime sweep."""

    p: float
    t_coherent: float | None
    t_classical: float
    t_free: float
    regime: Regime | None
    d_min: float | None = None
    error: str | None = None


def _sweep_point(args) -> SweepRecord:
    (sigma, r0z, p_val, symmetry, coupling, frozen, dt, t_max, horizon) = args
    try:
        law = SpreadLaw.frozen_width() if frozen else None
        config = PairConfig(
            sigma,
            np.array([0.0, 0.0, r0z]),
            np.array([0.0, 0.0, -p_val]),
            ExchangeSymmetry(symmetry),
            coupling,
            law,
        )
        d0 = 2.0 * r0z
        v0 = 2.0 * p_val
        t_free = free_traveltime(d0, v0)
        t_cl = classical_traveltime(d0, v0, coupling)
        horizon_t = t_max if t_max is not None else horizon * t_free
        step = dt if dt is not None else t_free / 400.0
        traj = integrate(
            meanfield.initial_state(config),
            step,
            horizon_t,
            stop_at_separation=d0,
        )
        result = traveltime(traj)
        regime = classify(traj, result)
        return SweepRecord(p_val, result.t_return, t_cl, t_free, regime, result.d_min)
    except (DegenerateState, NonFinite, MalformedTrajectory, ValueError) as exc:
        return SweepRecord(p_val, None, math.nan, math.nan, None, None, str(exc))


def sweep_traveltime(
    config: PairConfig,
    p_grid,
    dt: float | None = None,
    t_max: float | None = None,
    jobs: int = 1,
    horizon_factor: float = 50.0,
) -> list[SweepRecord]:
    """One record per grid momentum; per-record errors never abort the sweep.

    Each point integrates an inward head-on trajectory from the template's
    offset (packets at +/- r0) with |p| from the grid; records are returned
    in grid order regardless of the worker count.
    """
    p_grid = [float(p) for p in p_grid]
    if not p_grid:
        raise ValueError("empty momentum grid")
    r0z = float(config.r0[2])
    args = [
        (
            config.sigma,
            r0z,
            p,
            config.symmetry.value,
            config.coupling,
            config.law.frozen,
            dt,
            t_max,
            horizon_factor,
        )
        for p in p_grid
    ]
    if jobs <= 1:
        return [_sweep_point(a) for a in args]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_point, args))
