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
from dataclasses import astuple, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import meanfield, numerics
from .errors import CoherentPairError, MalformedTrajectory, NonFinite
from .meanfield import PhaseState, _core, avg_hamiltonian
from .pairstate import PairConfig, overlap_from_params

# largest t_max / dt, the RK4 step count, one ``integrate`` call accepts; it
# fails before stepping on horizons that would never finish
MAX_STEPS = 10_000_000

# regime thresholds of ``classify``, in units of the culmination width sigma
PASSTHROUGH_FRACTION = 0.1
FROZEN_RATIO = 1.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Path of one integration run: r and p at every sample time.

    ``separation``, ``width``, ``overlap`` and ``energy`` are derived from
    the path and its config when first read, then kept.  ``stage1`` holds
    the energy terms of every sample that started an RK4 step (all but the
    last), as the step's stage-1 ``_core`` call returned them; ``energy``
    reuses them and takes the rest from ``avg_hamiltonian``.
    """

    config: PairConfig
    t: np.ndarray
    r: np.ndarray
    p: np.ndarray
    stage1: list = field(repr=False)

    @cached_property
    def separation(self) -> np.ndarray:
        return np.sqrt(_squares(self.r))

    def state(self, i: int) -> PhaseState:
        return PhaseState(self.r[i], self.p[i], float(self.t[i]), self.config)

    @cached_property
    def width(self) -> np.ndarray:
        """Packet width sigma_x(t) at every sample, as ``PhaseState.width`` gives it."""
        return np.array([self.config.width(t) for t in self.t.tolist()])

    @cached_property
    def overlap(self) -> np.ndarray:
        """Packet overlap N at every sample."""
        return overlap_from_params(0.25 * _squares(self.r), _squares(self.p), self.width)

    @cached_property
    def energy(self) -> np.ndarray:
        """Energy terms at every sample, one row per sample.

        Columns: kinetic_classical, kinetic_uncertainty, kinetic_exchange,
        coulomb_direct, coulomb_exchange, total.
        """
        rows = self.stage1 + [astuple(avg_hamiltonian(self.state(i)))
                              for i in range(len(self.stage1), self.t.size)]
        terms = np.array(rows)
        # EnergyBreakdown.total: the five terms summed left to right
        total = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3] + terms[:, 4]
        return np.column_stack((terms, total))


def _squares(v: np.ndarray) -> np.ndarray:
    """Squared norm of every row of an (n, 3) array, summed as the RHS sums it.

    A square beyond the float range is inf, as in the stop rule's float sum.
    """
    with np.errstate(over="ignore"):
        return v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]


@dataclass(frozen=True)
class TraveltimeResult:
    """``t_return`` is the time of the first return to the initial
    separation, None if the run never returns; ``d_min`` is the smallest
    separation up to that sample, or over the whole run."""

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
    stop_at_return: bool = False,
) -> Trajectory:
    """RK4 integration with one recorded sample per step.

    The run starts at ``initial.t`` and takes round(t_max / dt) steps.
    The right-hand side is the analytic gradient from ``meanfield._core``
    at the config's width ``config.width(t)``; the tests hold it to
    central differences of the energy.  With ``stop_at_return``,
    integration ends on the first sample back at or beyond the initial
    separation after having dipped below, the sample on which ``traveltime``
    finds the return.

    Each step is ``numerics.rk4_step`` on the six floats of (r, p), except
    that a head-on start, whose r_x, r_y, p_x and p_y are all +0.0, is
    stepped on (r_z, p_z) alone, by the same stages fused on two floats.
    Those four stay +0.0 in the six-float stages: each of their rates is a
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
    sign = float(config.symmetry.sign)
    kappa = config.coupling
    n_steps = int(round(t_max / dt))
    h = 0.5 * dt
    sixth = dt / 6.0
    stage_terms = []
    core, rk4_step = _core, numerics.rk4_step

    def deriv(y, t):
        """dy/dt for y = (rx, ry, rz, px, py, pz) at time t; keeps the energy terms."""
        rx, ry, rz, px, py, pz = y
        terms, de_drho, de_dpp = core(
            rx * rx + ry * ry + rz * rz, px * px + py * py + pz * pz, width(t), sign, kappa
        )
        stage_terms.append(terms)
        gr = 2.0 * de_drho
        gp = 2.0 * de_dpp
        return gp * px, gp * py, gp * pz, -gr * rx, -gr * ry, -gr * rz

    def full_step(y, t, s=None):
        """Stage-1 energy terms, the state one step after (y, t) and None."""
        stage_terms.clear()
        y = rk4_step(y, t, dt, deriv)
        return stage_terms[0], y, None

    def axis_step(y, t, s):
        """``full_step`` of a state whose x and y entries are +0.0, at width s = width(t).

        The stages are those of ``deriv`` without the +0.0 terms (0 + 0 +
        rz * rz is rz * rz); the later three skip the energy terms.  Its
        third item is width(t + dt), the next step's s, as the loop's next t
        is t + dt.  A step that raises or ends non-finite here is redone by
        ``full_step``.
        """
        rz, pz = y[2], y[5]
        s_half = width(t + h)
        s_end = width(t + dt)
        try:
            terms, de_drho, de_dpp = core(rz * rz, pz * pz, s, sign, kappa)
            a3 = 2.0 * de_dpp * pz
            a6 = -(2.0 * de_drho) * rz
            z, q = rz + h * a3, pz + h * a6
            _, de_drho, de_dpp = core(z * z, q * q, s_half, sign, kappa, False)
            b3 = 2.0 * de_dpp * q
            b6 = -(2.0 * de_drho) * z
            z, q = rz + h * b3, pz + h * b6
            _, de_drho, de_dpp = core(z * z, q * q, s_half, sign, kappa, False)
            c3 = 2.0 * de_dpp * q
            c6 = -(2.0 * de_drho) * z
            z, q = rz + dt * c3, pz + dt * c6
            _, de_drho, de_dpp = core(z * z, q * q, s_end, sign, kappa, False)
            d3 = 2.0 * de_dpp * q
            d6 = -(2.0 * de_drho) * z
            rz += sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
            pz += sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
            if math.isfinite(rz) and math.isfinite(pz):
                return terms, (0.0, 0.0, rz, 0.0, 0.0, pz), s_end
        except (ArithmeticError, CoherentPairError):
            pass
        return full_step(y, t)[:2] + (s_end,)

    y = tuple(initial.r.tolist() + initial.p.tolist())
    # +0.0 only: copysign tells -0.0 apart, == does not
    head_on = all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in (y[0], y[1], y[3], y[4]))
    step = axis_step if head_on else full_step
    # d = |r| as Trajectory.separation evaluates it, bit for bit, here and
    # in the stop rule, so the run stops where traveltime finds the return
    d0 = math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])
    t = float(initial.t)
    s = width(t)
    ts = [t]
    ys = [y]
    stage1 = []
    dipped = False
    try:
        for _ in range(n_steps):
            terms, y, s = step(y, t, s)
            stage1.append(terms)
            t = t + dt
            ts.append(t)
            ys.append(y)
            if stop_at_return:
                rx, ry, rz = y[:3]
                d = math.sqrt(rx * rx + ry * ry + rz * rz)
                if d < d0:
                    dipped = True
                elif dipped:
                    break
    except ArithmeticError as exc:
        # an energy term left the float range: huge t, tiny or huge sigma
        raise NonFinite(
            f"the RK4 step from t={t:.6g} left the float range ({type(exc).__name__})"
        ) from exc

    yarr = np.array(ys)
    return Trajectory(config, np.array(ts), yarr[:, :3], yarr[:, 3:], stage1)


def traveltime(traj: Trajectory) -> TraveltimeResult:
    """First return to the initial separation after the approach.

    The crossing time is linearly interpolated between samples; requires
    the initial motion to be inward (r . p < 0 at t = 0).
    """
    d = traj.separation
    d_init = float(d[0])
    if d_init <= 0.0:
        raise MalformedTrajectory("initial separation must be positive")
    # in Python floats, where a product past the float range is inf without a warning
    (rx, ry, rz), (px, py, pz) = traj.r[0].tolist(), traj.p[0].tolist()
    if rx * px + ry * py + rz * pz >= 0.0:
        raise MalformedTrajectory("initial motion is not inward")
    below = np.flatnonzero(d < d_init)
    if below.size:
        back = np.flatnonzero(d[below[0]:] >= d_init)
        if back.size:
            if d_init == math.inf:  # (2 r0)^2 overflowed: the crossing would be inf / inf
                raise MalformedTrajectory("initial separation is not finite")
            # the sample before the return is below d_init, so dk > prev
            k = int(below[0] + back[0])
            prev, dk = float(d[k - 1]), float(d[k])
            frac = (d_init - prev) / (dk - prev)
            t_ret = float(traj.t[k - 1]) + frac * (float(traj.t[k]) - float(traj.t[k - 1]))
            return TraveltimeResult(t_ret, float(d[:k + 1].min()))
    return TraveltimeResult(None, float(d.min()))


def free_traveltime(d0: float, v0: float) -> float:
    """Return time of a non-interacting pair: 2 d0 / v0."""
    if d0 <= 0 or v0 <= 0:
        raise ValueError("d0 and v0 must be positive")
    return 2.0 * d0 / v0


def _fall_shape(w: float) -> float:
    """h(u) = int_0^1 sqrt(s / (1 + u s)) ds at u = w - 1 > -1 (G&R 2.26).

    Both closed forms cancel near u = 0; below |u| = 0.25 the series
    sum C(-1/2, n) u^n / (n + 3/2) takes over (the tail past n = 29 is
    < 1e-18).  1 + u is never formed, and atan2 stands in for
    asin(sqrt(-u)), whose argument nears 1 as u -> -1.
    """
    u = w - 1.0
    if abs(u) < 0.25:  # C(-1/2, n) = C(2n, n) (-1/4)^n
        return sum(math.comb(2 * n, n) * (-0.25 * u) ** n / (n + 1.5) for n in range(30))
    r, e = math.sqrt(w), math.sqrt(abs(u))
    if u > 0.0:
        return (r - math.asinh(e) / e) / u
    return (math.atan2(e, r) / e - r) / -u


def classical_traveltime(d0: float, v0: float, coupling: float = 1.0) -> float:
    """Return time of the classical Coulomb collision (reduced mass m/2).

    t = 2 int dd / sqrt((2/mu)(E - k/d)) = int sqrt(d) dd / sqrt(E d - k) over
    the inbound leg, with E = mu v0^2 / 2 + k/d0 = p^2 + k/d0 at p = v0 / 2.
    With x = p sqrt(d0 / |k|), a repulsive pair (k > 0, so E > 0) turns at
    d_min = k/E, and t = d0 p / E + k E^-3/2 asinh(x): two positive terms,
    so nothing cancels as p -> 0, where d_min -> d0.  An attractive pair
    (k < 0) falls through d = 0 at any E, so its leg runs from 0 to d0, and
    d = d0 s gives t = d0^3/2 |k|^-1/2 h(x^2 - 1) (``_fall_shape``), which is
    d0 / p to 2.3e-19 past x = 1e10.
    """
    if d0 <= 0 or v0 <= 0:
        raise ValueError("d0 and v0 must be positive")
    if coupling == 0.0:
        return free_traveltime(d0, v0)
    p = 0.5 * v0
    energy = p * p + coupling / d0
    if not math.isfinite(energy):
        raise ValueError("E = p^2 + k/d0 overflows")
    # one square root per factor: neither d0 / |k|, E^1.5 nor d0^1.5 can overflow
    x = p * math.sqrt(d0) / math.sqrt(abs(coupling))
    if coupling > 0.0:
        if energy == 0.0:
            raise ValueError("E = p^2 + k/d0 underflows")
        # past the float range d0 p / E is d0 / E * p, and where x overflows the
        # asinh term is below asinh(x) / x^2 < 1e-600 of it
        flight = d0 * p / energy if d0 * p < math.inf else d0 / energy * p
        if x == math.inf:
            return flight
        return flight + coupling / energy / math.sqrt(energy) * math.asinh(x)
    if x > 1e10:
        return d0 / p
    return d0 * (math.sqrt(d0) / math.sqrt(-coupling) * _fall_shape(x * x))


def classify(traj: Trajectory, result: TraveltimeResult) -> Regime:
    """Impact regime of a finished trajectory.

    Return with a deep minimum (d_min < PASSTHROUGH_FRACTION * sigma) is a
    pass-through, any other return is a classical-like reflection.  Without
    a return the trajectory is frozen when d(t)/sigma_x(t) stays below
    FROZEN_RATIO over the final quarter, otherwise NO_RETURN.
    """
    if result.t_return is not None:
        if result.d_min < PASSTHROUGH_FRACTION * traj.config.sigma:
            return Regime.PASS_THROUGH
        return Regime.CLASSICAL_LIKE
    d = traj.separation
    start = (3 * d.size) // 4
    ratio = d[start:] / traj.width[start:]
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
        traj = integrate(meanfield.initial_state(config), step, horizon_t, stop_at_return=True)
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
