"""Mean-field Hamilton dynamics, traveltimes, baselines and regimes.

The canonical equations dr/dt = dE/dp, dp/dt = -dE/dr are integrated with
fixed-step RK4 at the config's width sigma_x(t), which spreads freely
unless it is frozen, so the system is non-autonomous unless the width is
frozen.  Each step makes four kernel calls, and the stage-1 call at each
sample also gives that sample's energy terms, so reading a trajectory's
energies costs one more kernel call.  A head-on start (x and y
components all +0.0, as in every sweep point) is stepped on (r_z, p_z)
alone, with the same samples bit for bit; any other start, -0.0
components included, by ``numerics.rk4_step`` on all six floats.
Separation is d(t) = |r(t)| and the traveltime is the first
return to the initial separation after the approach.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import meanfield, numerics
from .errors import CoherentPairError, MalformedTrajectory, NonFinite
from .meanfield import PhaseState, _core
from .pairstate import PairConfig, overlap_from_params

# largest t_max / dt, the RK4 step count, one ``integrate`` call accepts; it
# fails before stepping on horizons that would never finish
MAX_STEPS = 10_000_000

# regime thresholds of ``classify``, in units of the culmination width sigma
PASSTHROUGH_FRACTION = 0.1
FROZEN_RATIO = 1.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Path of one integration run: r, p and the width at every sample time.

    ``overlap`` and ``energy`` are derived from the path when first read,
    then kept.  ``stage1`` holds the energy terms of every sample that
    started an RK4 step (all but the last), as the step's stage-1 ``_core``
    call returned them; ``energy`` reuses them and computes the rest.
    """

    config: PairConfig
    t: np.ndarray
    r: np.ndarray
    p: np.ndarray
    sigma: np.ndarray
    stage1: list = field(repr=False)

    @property
    def separation(self) -> np.ndarray:
        return np.linalg.norm(self.r, axis=1)

    def state(self, i: int) -> PhaseState:
        return PhaseState(self.r[i], self.p[i], float(self.t[i]), self.config)

    @cached_property
    def overlap(self) -> np.ndarray:
        """Packet overlap N at every sample."""
        return overlap_from_params(0.25 * _squares(self.r), _squares(self.p), self.sigma)

    @cached_property
    def energy(self) -> np.ndarray:
        """Energy terms at every sample, one row per sample.

        Columns: kinetic_classical, kinetic_uncertainty, kinetic_exchange,
        coulomb_direct, coulomb_exchange, total.
        """
        sign = self.config.symmetry.sign
        kappa = self.config.coupling
        rows = list(self.stage1)
        n = len(rows)
        rest = zip(_squares(self.r[n:]).tolist(), _squares(self.p[n:]).tolist(),
                   self.sigma[n:].tolist())
        for rho, pp, s in rest:
            # meanfield._core, not this module's alias: the benchmark tracer
            # counts energy and right-hand-side calls apart
            rows.append(meanfield._core(rho, pp, s, sign, kappa)[0])
        terms = np.array(rows)
        # EnergyBreakdown.total: the five terms summed left to right
        total = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3] + terms[:, 4]
        return np.column_stack((terms, total))


def _squares(v: np.ndarray) -> np.ndarray:
    """Squared norm of every row of an (n, 3) array, summed as the RHS sums it."""
    return v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]


class Outcome(enum.Enum):
    RETURN = "return"
    NO_RETURN = "noreturn"


@dataclass(frozen=True)
class TraveltimeResult:
    outcome: Outcome
    t_return: float | None
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


def integrate(
    initial: PhaseState,
    dt: float,
    t_max: float,
    stop_at_separation: float | None = None,
) -> Trajectory:
    """RK4 integration with one recorded sample per step.

    The run starts at ``initial.t`` and takes round(t_max / dt) steps.
    The right-hand side is the analytic gradient from ``meanfield._core``
    at the config's width ``config.width(t)``; the tests hold it to
    central differences of the energy.  If ``stop_at_separation`` is given,
    integration ends on the first sample back at or beyond it after having
    dipped below, the sample on which ``traveltime`` finds the return.

    Each step is ``numerics.rk4_step`` on the six floats of (r, p); it keeps
    the energy terms of its stage-1 ``_core`` call for ``Trajectory.energy``.

    A head-on start, whose r_x, r_y, p_x and p_y are all +0.0, is stepped
    on (r_z, p_z) alone, by the same stages fused on two floats.  Those
    four stay +0.0 in the six-float stages: each of their rates is a
    finite gradient times +0.0, a signed zero, and +0.0 plus a signed
    zero is +0.0.  So every rho, |p|^2 and sample is the six-float one,
    and the x and y columns come out +0.0.  A -0.0 component does not
    qualify: it stays -0.0 while its rate is -0.0 and turns +0.0 when the
    rate is +0.0, so its sign follows the gradients.  A non-finite
    gradient makes the x and y rates NaN where the z rates may be inf,
    and from there the two steps may fail differently; so a step that
    raises or ends non-finite on the axis is redone by ``rk4_step``, and
    fails as it does there.
    """
    if dt <= 0 or t_max <= dt:
        raise ValueError("need dt > 0 and t_max > dt")
    if not t_max / dt <= MAX_STEPS:
        raise ValueError(f"t_max / dt = {t_max / dt:.3g} exceeds the budget of {MAX_STEPS} steps")
    config = initial.config
    width = config.width
    sign = config.symmetry.sign
    kappa = config.coupling
    n_steps = int(round(t_max / dt))
    h = 0.5 * dt
    sixth = dt / 6.0
    stage_terms = []

    def deriv(y, t):
        """dy/dt for y = (rx, ry, rz, px, py, pz) at time t; keeps the energy terms."""
        rx, ry, rz, px, py, pz = y
        # _core is read from the module at every call: the benchmark tracer
        # counts right-hand-side calls by patching it there
        terms, de_drho, de_dpp = _core(
            rx * rx + ry * ry + rz * rz, px * px + py * py + pz * pz, width(t), sign, kappa
        )
        stage_terms.append(terms)
        gr = 2.0 * de_drho
        gp = 2.0 * de_dpp
        return gp * px, gp * py, gp * pz, -gr * rx, -gr * ry, -gr * rz

    def full_step(y, t, s):
        """Stage-1 energy terms, the state and the width one step after (y, t)."""
        stage_terms.clear()
        # read from the module, where the benchmark tracer counts its calls
        y = numerics.rk4_step(y, t, dt, deriv)
        return stage_terms[0], y, width(t + dt)

    def axis_step(y, t, s):
        """``full_step`` of a state whose x and y entries are +0.0.

        The stages are those of ``deriv`` without the +0.0 terms (0 + 0 +
        rz * rz is rz * rz), with ``_core`` read from the module as there.
        A step that fails here is redone by ``full_step``.
        """
        rz, pz = y[2], y[5]
        try:
            terms, de_drho, de_dpp = _core(rz * rz, pz * pz, s, sign, kappa)
            a3 = 2.0 * de_dpp * pz
            a6 = -(2.0 * de_drho) * rz
            s_half = width(t + h)
            z, q = rz + h * a3, pz + h * a6
            _, de_drho, de_dpp = _core(z * z, q * q, s_half, sign, kappa)
            b3 = 2.0 * de_dpp * q
            b6 = -(2.0 * de_drho) * z
            z, q = rz + h * b3, pz + h * b6
            _, de_drho, de_dpp = _core(z * z, q * q, s_half, sign, kappa)
            c3 = 2.0 * de_dpp * q
            c6 = -(2.0 * de_drho) * z
            s_next = width(t + dt)
            z, q = rz + dt * c3, pz + dt * c6
            _, de_drho, de_dpp = _core(z * z, q * q, s_next, sign, kappa)
            d3 = 2.0 * de_dpp * q
            d6 = -(2.0 * de_drho) * z
        except (ArithmeticError, CoherentPairError):
            return full_step(y, t, s)
        rz += sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        pz += sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
        if not (math.isfinite(rz) and math.isfinite(pz)):
            return full_step(y, t, s)
        return terms, (0.0, 0.0, rz, 0.0, 0.0, pz), s_next

    y = tuple(initial.r.tolist() + initial.p.tolist())
    # +0.0 only: copysign tells -0.0 apart, == does not
    head_on = all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in (y[0], y[1], y[3], y[4]))
    step = axis_step if head_on else full_step
    t = float(initial.t)
    ts = [t]
    ys = [y]
    stage1 = []
    dipped = False
    try:
        s = width(t)
        sigmas = [s]
        for _ in range(n_steps):
            terms, y, s = step(y, t, s)
            stage1.append(terms)
            t = t + dt
            ts.append(t)
            ys.append(y)
            sigmas.append(s)
            if stop_at_separation is not None:
                # the expression Trajectory.separation evaluates, bit for bit
                rx, ry, rz = y[:3]
                d = math.sqrt(rx * rx + ry * ry + rz * rz)
                if d < stop_at_separation:
                    dipped = True
                elif dipped:
                    break
    except ArithmeticError as exc:
        # a width or energy term left the float range: huge t, tiny or huge sigma
        raise NonFinite(
            f"the RK4 step from t={t:.6g} left the float range ({type(exc).__name__})"
        ) from exc

    yarr = np.array(ys)
    return Trajectory(config, np.array(ts), yarr[:, :3], yarr[:, 3:], np.array(sigmas), stage1)


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
    below = np.flatnonzero(d < d_init)
    if below.size:
        back = np.flatnonzero(d[below[0]:] >= d_init)
        if back.size:
            # the sample before the return is below d_init, so dk > prev
            k = int(below[0] + back[0])
            prev, dk = float(d[k - 1]), float(d[k])
            frac = (d_init - prev) / (dk - prev)
            t_ret = float(traj.t[k - 1]) + frac * (float(traj.t[k]) - float(traj.t[k - 1]))
            return TraveltimeResult(Outcome.RETURN, t_ret, float(d[:k + 1].min()))
    return TraveltimeResult(Outcome.NO_RETURN, None, float(d.min()))


def free_traveltime(d0: float, v0: float) -> float:
    """Return time of a non-interacting pair: 2 d0 / v0."""
    if d0 <= 0 or v0 <= 0:
        raise ValueError("d0 and v0 must be positive")
    return 2.0 * d0 / v0


def classical_traveltime(d0: float, v0: float, coupling: float = 1.0) -> float:
    """Return time of the classical Coulomb collision (reduced mass m/2).

    t = 2 int dd / sqrt((2/mu)(E - k/d)) over the inbound leg, with
    E = mu v0^2 / 2 + k/d0 = p^2 + k/d0 at p = v0 / 2.  A repulsive pair
    (k > 0, so E > 0) turns at d_min = k/E, and the integral has the closed
    form t = d0 p / E + k E^-3/2 asinh(p sqrt(d0 / k)): two positive terms,
    so nothing cancels as p -> 0, where d_min -> d0.
    An attractive pair (k < 0) falls through d = 0 at any E, so its leg runs
    from 0 to d0; d = d0 s^2 turns the integrand into
    2 d0^3/2 s^2 sqrt(mu / (2 Q)) on [0, 1], with Q = E d0 s^2 - k =
    a s^2 - k (1 - s^2) and a = mu v0^2 d0 / 2.  Q is a sum of two
    non-negative terms that never vanish together, so the integrand is smooth.
    """
    if d0 <= 0 or v0 <= 0:
        raise ValueError("d0 and v0 must be positive")
    if coupling == 0.0:
        return free_traveltime(d0, v0)
    if coupling < 0.0:
        mu = 0.5
        a = 0.5 * mu * v0 * v0 * d0
        if not a > 0.0:
            raise ValueError("mu v0^2 d0 / 2 underflows to 0")

        def through(s: float) -> float:
            q = a * s * s - coupling * (1.0 - s * s)
            return 2.0 * s * s * math.sqrt(mu / (2.0 * q))

        return 2.0 * d0 * math.sqrt(d0) * numerics.integrate_1d(through, 0.0, 1.0)
    p = 0.5 * v0
    energy = p * p + coupling / d0
    # k / E / sqrt(E) and one square root per factor of the asinh argument:
    # neither E^1.5 nor d0 / k can overflow
    arg = p * math.sqrt(d0) / math.sqrt(coupling)
    return d0 * p / energy + coupling / energy / math.sqrt(energy) * math.asinh(arg)


def classify(traj: Trajectory, result: TraveltimeResult) -> Regime:
    """Impact regime of a finished trajectory.

    Return with a deep minimum (d_min < PASSTHROUGH_FRACTION * sigma) is a
    pass-through, any other return is a classical-like reflection.  Without
    a return the trajectory is frozen when d(t)/sigma_x(t) stays below
    FROZEN_RATIO over the final quarter, otherwise NO_RETURN.
    """
    sigma = traj.config.sigma
    if result.outcome is Outcome.RETURN:
        if result.d_min < PASSTHROUGH_FRACTION * sigma:
            return Regime.PASS_THROUGH
        return Regime.CLASSICAL_LIKE
    d = traj.separation
    start = (3 * d.size) // 4
    ratio = d[start:] / traj.sigma[start:]
    if float(np.max(ratio)) < FROZEN_RATIO:
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


def _sweep_point(
    template: PairConfig,
    dt: float | None,
    t_max: float | None,
    horizon_factor: float,
    p_val: float,
) -> SweepRecord:
    try:
        r0z = float(template.r0[2])
        config = replace(
            template, r0=np.array([0.0, 0.0, r0z]), p0=np.array([0.0, 0.0, -p_val])
        )
        d0 = 2.0 * r0z
        v0 = 2.0 * p_val
        t_free = free_traveltime(d0, v0)
        t_cl = classical_traveltime(d0, v0, config.coupling)
        horizon_t = t_max if t_max is not None else horizon_factor * t_free
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
    except (CoherentPairError, ValueError) as exc:
        return SweepRecord(p_val, None, math.nan, math.nan, None, None, str(exc))


def sweep_traveltime(
    config: PairConfig,
    p_grid,
    dt: float | None = None,
    t_max: float | None = None,
    horizon_factor: float = 50.0,
) -> list[SweepRecord]:
    """One record per grid momentum, in grid order; per-record errors never abort the sweep.

    Each point integrates an inward head-on trajectory from the template's
    offset along z (packets at +/- r0) with |p| from the grid; spin, width,
    ``frozen_width`` and coupling come from the template.
    """
    p_grid = [float(p) for p in p_grid]
    if not p_grid:
        raise ValueError("empty momentum grid")
    return [_sweep_point(config, dt, t_max, horizon_factor, p) for p in p_grid]
