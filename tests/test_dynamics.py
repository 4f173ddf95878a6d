"""Tests for trajectory integration, traveltimes and regimes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from coherentpair import dynamics, meanfield, numerics, pairstate
from coherentpair.dynamics import Regime
from coherentpair.errors import MalformedTrajectory, NonFinite
from coherentpair.meanfield import PhaseState, initial_state
from coherentpair.pairstate import ExchangeSymmetry, PairConfig

from test_meanfield import grad_p, grad_r


def make_config(p=0.5, sigma=1.0, d0=10.0, symmetry=ExchangeSymmetry.SYMMETRIC,
                coupling=1.0, frozen=False):
    return PairConfig(sigma, np.array([0.0, 0.0, d0 / 2.0]),
                      np.array([0.0, 0.0, -p]), symmetry, coupling, frozen_width=frozen)


# a head-on start, which integrate steps on (r_z, p_z) alone, and an oblique
# one, which it steps on all six floats
_STARTS = {"head-on": (0.0, 0.0), "oblique": (0.037, 0.011)}


def start_state(start, **config):
    cfg = make_config(**config)
    px, py = _STARTS[start]
    return initial_state(replace(cfg, p0=np.array([px, py, cfg.p0[2]])))


def test_free_motion_exact():
    cfg = make_config(p=0.5, symmetry=ExchangeSymmetry.DISTINGUISHABLE,
                      coupling=0.0, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), 0.01, 10.0)
    assert traj.t.size == 1001
    expected = 10.0 - 1.0 * traj.t  # dr/dt = 2p with p_z = -0.5
    assert float(np.max(np.abs(traj.r[:, 2] - expected))) < 1e-9
    np.testing.assert_allclose(traj.p, np.tile([0.0, 0.0, -0.5], (1001, 1)), atol=1e-12)


@pytest.mark.parametrize("symmetry, frozen, pz", [
    (ExchangeSymmetry.SYMMETRIC, False, -0.3284),
    (ExchangeSymmetry.SYMMETRIC, True, -0.2129),
    (ExchangeSymmetry.ANTISYMMETRIC, False, -0.1811),
    (ExchangeSymmetry.ANTISYMMETRIC, True, +0.3765),
    (ExchangeSymmetry.DISTINGUISHABLE, False, -0.3),
    (ExchangeSymmetry.DISTINGUISHABLE, True, -0.3),
], ids=lambda v: getattr(v, "value", v))
def test_only_the_distinguishable_pair_drifts_freely(symmetry, frozen, pz):
    # at kappa = 0 the exchange terms still act on an overlapping pair (N =
    # 0.27 here): the numbers describe the model, they are not a gate on it
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 1.5]), np.array([0.0, 0.0, -0.3]), symmetry,
                     0.0, frozen_width=frozen)
    traj = dynamics.integrate(initial_state(cfg), 0.01, 20.0)
    assert abs(traj.p[-1, 2] - pz) < 1e-4


def test_time_reversal():
    cfg = make_config(p=0.4, frozen=True)
    fwd = dynamics.integrate(initial_state(cfg), 0.01, 12.0)
    back_start = PhaseState(fwd.r[-1], -fwd.p[-1], 0.0, cfg)
    back = dynamics.integrate(back_start, 0.01, 12.0)
    r_err = np.linalg.norm(back.r[-1] - fwd.r[0]) / np.linalg.norm(fwd.r[0])
    p_err = np.linalg.norm(back.p[-1] + fwd.p[0]) / np.linalg.norm(fwd.p[0])
    assert r_err < 1e-6 and p_err < 1e-6


def test_frozen_width_energy_conservation():
    cfg = make_config(p=0.5, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), 0.01, 30.0)
    energy = traj.energy[:, 5]
    drift = float(np.max(np.abs(energy - energy[0]))) / abs(energy[0])
    assert drift < 1e-6


def test_step_halving_convergence():
    cfg = make_config(p=0.3)

    def final(dt):
        traj = dynamics.integrate(initial_state(cfg), dt, 24.0)
        return np.concatenate([traj.r[-1], traj.p[-1]])

    f1, f2, f4 = final(0.2), final(0.1), final(0.05)
    scale = float(np.linalg.norm(f4))
    d1 = float(np.linalg.norm(f1 - f2))
    d2 = float(np.linalg.norm(f2 - f4))
    assert d1 / scale < 1e-6
    assert 16.0 / 1.3 < d1 / d2 < 16.0 * 1.3


def test_gradient_modes_agree():
    # the analytic RHS against an RK4 loop over the central-difference gradients
    cfg = make_config(p=0.4)
    a = dynamics.integrate(initial_state(cfg), 0.05, 5.0)

    def deriv_numeric(y, t):
        state = PhaseState(y[:3], y[3:], t, cfg)
        return np.concatenate([grad_p(state), -grad_r(state)])

    y = np.concatenate([a.r[0], a.p[0]])
    ys = [y]
    t = 0.0
    for _ in range(a.t.size - 1):
        y = numerics.rk4_step(y, t, 0.05, deriv_numeric)
        t += 0.05
        ys.append(y)
    n = np.array(ys)
    assert float(np.max(np.abs(a.r - n[:, :3]))) < 1e-6
    assert float(np.max(np.abs(a.p - n[:, 3:]))) < 1e-6


def rk4_step_arrays(state, t, dt, deriv):
    """The numpy-array RK4 step ``numerics.rk4_step`` replaced."""
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(deriv(y, t), dtype=float)
    k2 = np.asarray(deriv(y + 0.5 * dt * k1, t + 0.5 * dt), dtype=float)
    k3 = np.asarray(deriv(y + 0.5 * dt * k2, t + 0.5 * dt), dtype=float)
    k4 = np.asarray(deriv(y + dt * k3, t + dt), dtype=float)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_arrays(initial, dt, t_max, stop_at_separation=None):
    """``integrate`` over numpy arrays: (t, r, p, width) of every sample."""
    config = initial.config
    width = config.width
    sign, kappa = config.symmetry.sign, config.coupling

    def deriv(y, t):
        rx, ry, rz, px, py, pz = y.tolist()
        rho = rx * rx + ry * ry + rz * rz
        pp = px * px + py * py + pz * pz
        _, de_drho, de_dpp = meanfield._core(rho, pp, width(t), sign, kappa)
        gr = 2.0 * de_drho
        gp = 2.0 * de_dpp
        return np.array([gp * px, gp * py, gp * pz, -gr * rx, -gr * ry, -gr * rz])

    y = np.concatenate([initial.r, initial.p]).astype(float)
    ts, ys = [0.0], [y.copy()]
    dipped = False
    t = 0.0
    for _ in range(int(round(t_max / dt))):
        y = rk4_step_arrays(y, t, dt, deriv)
        t += dt
        ts.append(t)
        ys.append(y.copy())
        if stop_at_separation is not None:
            rx, ry, rz = y[:3].tolist()
            d = math.sqrt(rx * rx + ry * ry + rz * rz)
            if d < stop_at_separation:
                dipped = True
            elif dipped:
                break
    tarr, yarr = np.array(ts), np.array(ys)
    sarr = np.array([width(tv) for tv in tarr])
    return tarr, yarr[:, :3], yarr[:, 3:], sarr


@pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
@pytest.mark.parametrize("frozen", [False, True], ids=["spreading", "frozen"])
@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
def test_integrate_matches_the_array_rk4_bit_for_bit(symmetry, frozen, stop):
    starts = {
        "head-on": ([0.0, 0.0, 5.0], [0.0, 0.0, -0.3]),
        "oblique": ([0.4, -0.3, 5.0], [0.037, 0.011, -0.3]),
        "signed-zero": ([-0.0, 0.0, 5.0], [0.0, -0.0, -0.3]),
        # -0.0 entries that stay -0.0 while the pair repels: -0.0 is no head-on start
        "signed-zero-kept": ([-0.0, 0.0, 5.0], [-0.0, 0.0, -0.3]),
    }
    for name, (r0, p0) in starts.items():
        cfg = replace(make_config(symmetry=symmetry, frozen=frozen),
                      r0=np.array(r0), p0=np.array(p0))
        state = initial_state(cfg)
        t_free = dynamics.free_traveltime(10.0, 0.6)
        d0 = float(np.linalg.norm(state.r)) if stop else None
        args = (state, t_free / 200.0, 2.5 * t_free, d0)
        traj = dynamics.integrate(*args[:3], stop_at_return=stop)
        for got, want in zip((traj.t, traj.r, traj.p, traj.width), integrate_arrays(*args)):
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name
        if stop:  # the return ends the run before its 500 steps
            assert traj.t.size <= 500, name


def per_sample_columns(traj):
    """Overlap and energy columns by the per-sample loop integrate once ran."""
    sign = traj.config.symmetry.sign
    kappa = traj.config.coupling
    overlap = np.empty_like(traj.t)
    energy = np.empty((traj.t.size, 6))
    for i in range(traj.t.size):
        rho = float(np.dot(traj.r[i], traj.r[i]))
        pp = float(np.dot(traj.p[i], traj.p[i]))
        s = float(traj.width[i])
        overlap[i] = pairstate.overlap_from_params(0.25 * rho, pp, s)
        bd = meanfield.EnergyBreakdown(*meanfield._core(rho, pp, s, sign, kappa)[0])
        energy[i] = (bd.kinetic_classical, bd.kinetic_uncertainty, bd.kinetic_exchange,
                     bd.coulomb_direct, bd.coulomb_exchange, bd.total)
    return overlap, energy


@pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
@pytest.mark.parametrize("frozen", [False, True])
def test_energy_and_overlap_are_computed_on_first_read(monkeypatch, symmetry, frozen, stop):
    calls = []
    core = meanfield._core

    def counted(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(meanfield, "_core", counted)
    cfg = make_config(p=0.3, symmetry=symmetry, frozen=frozen)
    state = initial_state(cfg)
    traj = dynamics.integrate(state, 0.1, 100.0 if stop else 12.0, stop)
    if stop:  # the return ends the run before its 1000 steps
        assert traj.t.size < 1000
    assert calls == []
    overlap, energy = per_sample_columns(traj)
    calls.clear()
    assert np.array_equal(traj.energy, energy)
    # integrate kept every sample's stage-1 energy terms but the last one's
    assert len(calls) <= 1
    assert traj.energy is traj.energy and len(calls) <= 1
    assert np.array_equal(traj.overlap, overlap)
    np.testing.assert_array_equal(traj.width, [cfg.width(float(t)) for t in traj.t])


@pytest.mark.parametrize("frozen", [False, True], ids=["spreading", "frozen"])
@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
def test_avg_hamiltonian_of_a_sample_is_its_energy_row(symmetry, frozen):
    # an oblique run, where a dot product and the right-hand side's sum of
    # squares round differently on some samples
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.2, 0.0, -0.4]), symmetry,
                     frozen_width=frozen)
    traj = dynamics.integrate(initial_state(cfg), 0.05, 60.0)
    assert traj.t.size == 1201
    for i in range(traj.t.size):
        bd = meanfield.avg_hamiltonian(traj.state(i))
        row = (bd.kinetic_classical, bd.kinetic_uncertainty, bd.kinetic_exchange,
               bd.coulomb_direct, bd.coulomb_exchange, bd.total)
        assert np.array_equal(traj.energy[i], row), i
        # the stop rule's distance in integrate
        rx, ry, rz = traj.r[i].tolist()
        assert traj.separation[i] == math.sqrt(rx * rx + ry * ry + rz * rz), i


def six_float_reference(state):
    """The same start with p_x = -0.0, which integrate steps on all six floats."""
    return replace(state, p=np.array([-0.0, *state.p[1:]]))


def assert_axis_run_is_the_six_float_run(axis, six):
    """Bitwise equality of a head-on run and its six-float reference."""
    assert np.signbit(six.p[0, 0])
    for name in ("t", "r", "p", "width", "energy", "overlap"):
        assert np.array_equal(getattr(axis, name), getattr(six, name)), name
    # the axis loop's x and y columns are +0.0 throughout
    assert not np.signbit(axis.r[:, :2]).any() and not np.signbit(axis.p[:, :2]).any()
    res_axis, res_six = dynamics.traveltime(axis), dynamics.traveltime(six)
    assert res_axis == res_six
    regime = dynamics.classify(axis, res_axis)
    assert regime is dynamics.classify(six, res_six)
    return regime


@pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
@pytest.mark.parametrize("frozen", [False, True], ids=["spreading", "frozen"])
@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
def test_head_on_axis_loop_matches_the_six_float_loop_bit_for_bit(symmetry, frozen, stop):
    regimes = set()
    for p in (0.1, 0.15, 1.0):
        state = initial_state(make_config(p=p, symmetry=symmetry, frozen=frozen))
        t_free = dynamics.free_traveltime(10.0, 2.0 * p)
        args = (t_free / 200.0, 2.5 * t_free, stop)
        axis = dynamics.integrate(state, *args)
        six = dynamics.integrate(six_float_reference(state), *args)
        regimes.add(assert_axis_run_is_the_six_float_run(axis, six))
    # with a spreading width the symmetric and distinguishable pairs return
    # at p = 0.1, stall at 0.15 and pass through at 1.0
    if not frozen and symmetry is not ExchangeSymmetry.ANTISYMMETRIC:
        assert regimes == {Regime.CLASSICAL_LIKE, Regime.FROZEN, Regime.PASS_THROUGH}


@pytest.mark.parametrize("symmetry, frozen, sigma, pz, r0, message", [
    # dr/dt = 2 dE/d|p|^2 p_z = -inf at p_z = -1e308
    (ExchangeSymmetry.SYMMETRIC, False, 1.0, -1e308, 5.0, "produced a non-finite state"),
    # |r| = 2e-104 makes dE/drho = -inf; two stages on, the axis sees
    # |r|^2 = inf and the six-float loop nan, and both take the kernel's
    # point-charge exit
    (ExchangeSymmetry.SYMMETRIC, True, 1.5e-154, -0.3, 1e-104, "produced a non-finite state"),
    # the direct slope's 2 d^3 underflows to 0 at d = 1e-110: the kernel raises
    (ExchangeSymmetry.SYMMETRIC, True, 1e-150, -0.3, 5e-111,
     "left the float range (ZeroDivisionError)"),
], ids=["inf-velocity", "inf-gradient", "zero-cube"])
def test_a_failing_head_on_step_fails_as_the_six_float_loop(symmetry, frozen, sigma, pz,
                                                            r0, message):
    cfg = PairConfig(sigma, np.array([0.0, 0.0, r0]), np.array([0.0, 0.0, pz]), symmetry,
                     frozen_width=frozen)
    state = initial_state(cfg)
    errors = []
    for start in (state, six_float_reference(state)):
        with pytest.raises(NonFinite) as exc:
            dynamics.integrate(start, 0.1, 1.0)
        errors.append(str(exc.value))
    assert errors == [f"the RK4 step from t=0 {message}"] * 2


@pytest.mark.parametrize("start", list(_STARTS))
def test_every_step_makes_four_rhs_calls_and_energies_one_more(monkeypatch, start):
    # bench/tracer.py counts dynamics._core calls as right-hand sides and
    # meanfield._core calls as energies
    calls = {"rhs": 0, "energy": 0}

    def counting(kind, core):
        def counted(*args):
            calls[kind] += 1
            return core(*args)
        return counted

    monkeypatch.setattr(dynamics, "_core", counting("rhs", dynamics._core))
    monkeypatch.setattr(meanfield, "_core", counting("energy", meanfield._core))
    for stop in (False, True):
        calls.update(rhs=0, energy=0)
        traj = dynamics.integrate(start_state(start, p=0.3), 0.1, 100.0, stop)
        assert calls == {"rhs": 4 * (traj.t.size - 1), "energy": 0}
        assert traj.energy.shape == (traj.t.size, 6)
        assert calls == {"rhs": 4 * (traj.t.size - 1), "energy": 1}


@pytest.mark.parametrize("start", list(_STARTS))
def test_a_run_continued_from_a_sample_is_the_rest_of_the_run(start):
    # the clock, and with it the spreading width, starts at the state's t
    traj = dynamics.integrate(start_state(start, p=0.3), 0.05, 20.0)
    k = 150
    rest = dynamics.integrate(traj.state(k), 0.05, 20.0 - traj.t[k])
    assert rest.width[0] > 3.0 * traj.width[0]
    for name in ("t", "r", "p", "width", "energy"):
        got, want = getattr(rest, name), getattr(traj, name)[k:]
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


def test_traveltime_free_flight():
    cfg = make_config(p=0.5, symmetry=ExchangeSymmetry.DISTINGUISHABLE,
                      coupling=0.0, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), 0.01, 30.0)
    res = dynamics.traveltime(traj)
    # separation rate is 2|p| = 1, so return after 2 d0 / (2 p) = 20
    assert res.t_return is not None
    assert abs(res.t_return - 20.0) < 1e-6
    assert res.d_min < 0.02


def test_traveltime_requires_inward_motion():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 0.3]))
    traj = dynamics.integrate(initial_state(cfg), 0.05, 2.0)
    with pytest.raises(MalformedTrajectory):
        dynamics.traveltime(traj)


def traveltime_loop(traj):
    """(t_return, d_min) by the per-sample loop traveltime once ran."""
    d = traj.separation
    d_init = float(d[0])
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
            return t_ret, d_min
    return None, d_min


def separation_path(d):
    """A hand-made trajectory along z whose separation is ``d``, moving inward."""
    d = np.asarray(d, dtype=float)
    r = np.zeros((d.size, 3))
    r[:, 2] = d
    p = np.zeros((d.size, 3))
    p[0, 2] = -1.0
    return dynamics.Trajectory(make_config(), 0.1 * np.arange(d.size), r, p, [])


@pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry), ids=lambda sym: sym.value)
def test_traveltime_matches_the_per_sample_loop(symmetry, stop):
    outcomes = set()
    for p in (0.05, 0.14, 0.2, 0.5, 1.0, 3.0):
        for frozen in (False, True):
            cfg = make_config(p=p, symmetry=symmetry, frozen=frozen)
            state = initial_state(cfg)
            t_free = dynamics.free_traveltime(10.0, 2.0 * p)
            # a horizon short of the free return time gives the no-return cases
            for horizon in (0.6, 3.0):
                traj = dynamics.integrate(state, t_free / 100.0, horizon * t_free, stop)
                res = dynamics.traveltime(traj)
                want = traveltime_loop(traj)
                assert (res.t_return, res.d_min) == want, (p, frozen, horizon)
                outcomes.add(res.t_return is None)
    assert outcomes == {False, True}


def test_hand_built_path_reads_one_width_law():
    # a path built without integrate carries no width of its own: its
    # overlap and energy rows at t = 10 are both at config.width(10), where
    # the uncertainty term is 3 / (8 * 26) = 0.0144 (0.375 at width 1)
    cfg = make_config()
    r = np.array([[0.0, 0.0, 10.0], [0.0, 0.0, 4.0]])
    p = np.array([[0.0, 0.0, -0.5], [0.0, 0.0, -0.2]])
    traj = dynamics.Trajectory(cfg, np.array([0.0, 10.0]), r, p, [])
    s = cfg.width(10.0)
    assert s == math.sqrt(26.0)
    assert np.array_equal(traj.width, [1.0, s])
    assert traj.overlap[1] == pairstate.overlap_from_params(0.25 * 16.0, 0.2 * 0.2, s)
    bd = meanfield.avg_hamiltonian(traj.state(1))
    assert bd.kinetic_uncertainty == 3.0 / (8.0 * s * s)
    assert 0.0144 < bd.kinetic_uncertainty < 0.0145
    row = (bd.kinetic_classical, bd.kinetic_uncertainty, bd.kinetic_exchange,
           bd.coulomb_direct, bd.coulomb_exchange, bd.total)
    assert np.array_equal(traj.energy[1], row)


@pytest.mark.parametrize("d", [
    [2.0, 1.5, 1.0, 1.5, 2.0, 2.5],
    [2.0, 1.0, 2.5, 0.5, 3.0],
    [2.0, 1.0, 0.5, 0.5, 1.0],
    [2.0, 2.0, 1.0, 2.0],
    [2.0, 2.5, 1.0, 1.9],
    [2.0],
], ids=["touch", "first-return", "no-return", "flat-start", "out-first", "one-sample"])
def test_traveltime_matches_the_per_sample_loop_on_hand_made_paths(d):
    traj = separation_path(d)
    res = dynamics.traveltime(traj)
    assert (res.t_return, res.d_min) == traveltime_loop(traj)


def test_free_traveltime():
    assert dynamics.free_traveltime(1.0, 1.0) == 2.0
    assert dynamics.free_traveltime(3.0, 1.0) == 3.0 * dynamics.free_traveltime(1.0, 1.0)
    for d0, v0 in ((2.0, 0.5), (7.0, 3.0)):
        assert abs(dynamics.free_traveltime(d0, v0) * v0 - 2.0 * d0) < 1e-14


def test_classical_traveltime_free_limit():
    assert dynamics.classical_traveltime(4.0, 0.8, 0.0) == 10.0
    # quadrature-verified deviations from the free value: 1.96% at a kinetic
    # energy of 100 barrier units, below 1% only from ~400 units up
    d0 = 10.0
    for mult, gate in ((100.0, 0.021), (400.0, 0.01)):
        v0 = math.sqrt(2.0 * mult * 1.0 / d0 / 0.5)
        t = dynamics.classical_traveltime(d0, v0, 1.0)
        assert abs(t / dynamics.free_traveltime(d0, v0) - 1.0) < gate


def classical_return_time(d0, p, coupling):
    """Closed form of the reduced-mass Coulomb return time at v0 = 2 p.

    With E = p^2 + k/d0: t = d0 p / E + k E^-3/2 ln((sqrt(E d0) + p sqrt(d0)) / sqrt(k)).
    """
    energy = p * p + coupling / d0
    return d0 * p / energy + coupling * energy ** -1.5 * math.log(
        (math.sqrt(energy * d0) + p * math.sqrt(d0)) / math.sqrt(coupling)
    )


@pytest.mark.parametrize("coupling", [0.5, 1.0, 2.0])
def test_classical_traveltime_closed_form(coupling):
    # near the turning point E - k/d used to cancel; p = 0.12 at r0 = 5
    # (d0 = 10) was 2.2e-8 off
    cases = [(float(p), float(d0)) for p in np.linspace(0.05, 2.0, 14)
             for d0 in np.linspace(2.0, 20.0, 7)]
    cases.append((0.12, 10.0))
    for p, d0 in cases:
        got = dynamics.classical_traveltime(d0, 2.0 * p, coupling)
        want = classical_return_time(d0, p, coupling)
        assert abs(got / want - 1.0) <= 1e-10, (p, d0)


def repulsive_return_time_mp(d0, p, coupling):
    """2 int_dmin^d0 dd / sqrt((2/mu)(E - k/d)) at mu = 1/2 by mpmath at 40 digits.

    With W = d0 - d_min = p^2 d0 / E (no cancellation) and d = d0 - W s^2,
    the integrand 2 sqrt((d_min + W s^2) / E) sqrt(W) ds is smooth on [0, 1]
    apart from a kink of width sqrt(d_min / W), which gets its own break
    point.  mpmath's quadrature misjudges convergence on integrands far from
    unit size, so sqrt(W / E) stays outside the integral.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        d0, p, k = mp.mpf(d0), mp.mpf(p), mp.mpf(coupling)
        energy = p * p + k / d0
        d_min = k / energy
        w = p * p * d0 / energy
        points = [0, mp.sqrt(d_min / w), 1] if d_min < w else [0, 1]
        integral = mp.quad(lambda s: mp.sqrt(d_min + w * s * s), points)
        return float(2 * mp.sqrt(w / energy) * integral)


@pytest.mark.parametrize("coupling", [1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300])
def test_classical_traveltime_repulsive_against_mpmath(coupling):
    # the quadrature in d = d_min + u^2 over [0, sqrt(d0 - k/E)] cancelled as
    # p -> 0: at k = 1 it was 9.3e-4 off at p = 1e-7 and returned 0 at 1e-9
    for p in np.logspace(-9.0, 3.0, 13):
        got = dynamics.classical_traveltime(10.0, 2.0 * p, coupling)
        want = repulsive_return_time_mp(10.0, p, coupling)
        assert abs(got / want - 1.0) <= 1e-14, p


def attractive_return_time(d0, v0, coupling):
    """2 int_0^d0 dd / sqrt((2/mu)(E - k/d)) at mu = 1/2 by scipy's quad.

    The attracted pair falls through d = 0 and climbs back to d0; the
    integrand vanishes like sqrt(d) at d = 0, which quad resolves directly.
    """
    integrate = pytest.importorskip("scipy.integrate")
    energy = 0.25 * v0 * v0 + coupling / d0

    def f(d):
        return math.sqrt(d / (4.0 * (energy * d - coupling))) if d > 0.0 else 0.0

    return 2.0 * integrate.quad(f, 0.0, d0, epsabs=0.0, epsrel=1e-13, limit=400)[0]


@pytest.mark.parametrize("coupling", [-2.5, -1.0, -0.3, -0.05])
def test_classical_traveltime_attractive_against_quad(coupling):
    # E = p^2 + k/d0 <= 0 included: at k = -2.5 every p below 0.5 / sqrt(d0 / 10)
    for p in np.linspace(0.05, 2.0, 14):
        for d0 in np.linspace(2.0, 20.0, 7):
            got = dynamics.classical_traveltime(d0, 2.0 * p, coupling)
            want = attractive_return_time(d0, 2.0 * p, coupling)
            assert abs(got / want - 1.0) <= 1e-9, (p, d0)


def attractive_return_time_mp(d0, p, coupling):
    """int_0^d0 sqrt(d) dd / sqrt(E d - k) at k < 0 by mpmath at 50 digits.

    d = d0 sin^2(th) gives 2 d0^3/2 |k|^-1/2 int_0^pi/2 sin^2 cos dth / q with
    q = sqrt(x^2 sin^2 + cos^2) and x^2 = p^2 d0 / |k|: smooth, with no end
    point singularity at E d0 = k.  For x > 1 the bend at th ~ 1/x gets cuts
    every eight decades, and each piece is mapped onto [0, 1] and divided by
    its midpoint value, since mpmath misjudges convergence on integrands far
    from unit size.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        d0, p, k = mp.mpf(d0), mp.mpf(p), -mp.mpf(coupling)
        xx = p * p * d0 / k

        def f(th):
            s, c = mp.sin(th), mp.cos(th)
            return s * s * c / mp.sqrt(xx * s * s + c * c)

        cuts = [mp.pi / 2]
        while xx * cuts[-1] ** 2 > 1:
            cuts.append(cuts[-1] / mp.mpf(1e8))
        cuts.append(mp.mpf(0))
        total = 0
        for a, b in zip(cuts[1:], cuts):
            mid = f((a + b) / 2)
            total += (b - a) * mid * mp.quad(lambda y: f(a + (b - a) * y) / mid, [0, 1])
        return 2 * d0 * mp.sqrt(d0) / mp.sqrt(k) * total


@pytest.mark.parametrize("coupling", [-1e-300, -1e-100, -1e-10, -1.0, -1e10, -1e100, -1e300])
def test_classical_traveltime_attractive_against_mpmath(coupling):
    # the adaptive Simpson quadrature read 49.858 for 49.673 at d0 = 10,
    # k = -1, p = 1e-14, and 5.5e-10 for 4.97e-149 at k = -1e300, p = 1e-5
    mp = pytest.importorskip("mpmath")
    for p in (1e-300, 1e-150, 1e-60, 1e-20, 1e-9, 1e-5, 0.01, 0.3, 1.0, 7.0, 1e3):
        got = dynamics.classical_traveltime(10.0, 2.0 * p, coupling)
        want = attractive_return_time_mp(10.0, p, coupling)
        assert abs(mp.mpf(got) / want - 1) <= 1e-14, p


@pytest.mark.parametrize("w", [0.75, 0.95, 1.05, 1.25])
def test_classical_traveltime_attractive_across_the_series_switch(w):
    # at d0 = 1, k = -1 the float u = p * p - 1: the series runs for
    # |u| < 0.25, and |u| = 0.05 is where the closed forms lost 3.9e-14
    mp = pytest.importorskip("mpmath")
    p = math.sqrt(w)
    ps = [p]
    for _ in range(4):
        ps = [math.nextafter(ps[0], 0.0)] + ps + [math.nextafter(ps[-1], 2.0)]
    squares = [q * q for q in ps]
    assert min(squares) < w < max(squares)
    for q in ps:
        got = dynamics.classical_traveltime(1.0, 2.0 * q, -1.0)
        want = attractive_return_time_mp(1.0, q, -1.0)
        assert abs(mp.mpf(got) / want - 1) <= 1e-14, q


def test_classical_traveltime_attractive_at_any_energy():
    # E = 0 at d0 = 10, v0 = 1, k = -2.5: the fall from rest, (2/3) d0^3/2 / sqrt(|k|)
    assert abs(dynamics.classical_traveltime(10.0, 1.0, -2.5) / (40.0 / 3.0) - 1.0) < 1e-12
    # E = -0.1875 < 0 and E > 0 both return
    slow = dynamics.classical_traveltime(10.0, 0.5, -2.5)
    fast = dynamics.classical_traveltime(10.0, 2.0, -2.5)
    assert slow > 40.0 / 3.0 > fast > 0.0
    # the kink the old form put inside the interval: 5.3 % off here, 0 at d0 = 20
    assert abs(dynamics.classical_traveltime(10.0, 0.4, -0.3) - 35.2081566998) < 1e-9
    assert abs(dynamics.classical_traveltime(20.0, 0.1, -0.05) - 800.0 / 3.0) < 1e-9
    # p -> 0 is the fall from rest at E = k/d0: (pi/2) d0^3/2 / sqrt(|k|); the
    # quadrature raised "underflows" here and read 185086.8 at p = 1e-20
    for v0 in (1e-300, 2e-20):
        assert dynamics.classical_traveltime(10.0, v0, -1.0) == pytest.approx(
            49.6729413289805, rel=1e-15)


def test_classical_traveltime_overflowing_energy_is_an_error():
    # below the overflow the pair barely feels the barrier: t is the free time
    t = dynamics.classical_traveltime(10.0, 2.6e154, 1.0)
    assert abs(t / dynamics.free_traveltime(10.0, 2.6e154) - 1.0) < 1e-15
    # an energy p^2 + k/d0 of inf divided both terms of t to 0.0
    with pytest.raises(ValueError, match="overflows"):
        dynamics.classical_traveltime(10.0, 2.7e154, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        dynamics.classical_traveltime(1e-10, 1.0, 1e300)
    # the attractive branch checks the same E
    with pytest.raises(ValueError, match="overflows"):
        dynamics.classical_traveltime(10.0, 2.7e154, -1.0)
    with pytest.raises(ValueError, match="overflows"):
        dynamics.classical_traveltime(1e-10, 1.0, -1e300)


@pytest.mark.parametrize("d0, p, coupling", [
    (1e300, 1e150, 1e-300),  # k E^-3/2 underflows to 0 where asinh(x) overflows: 0 * inf
    (1e300, 1e150, 1.0),  # asinh(x) overflows alone
    (3.5e278, 4.3e113, 5e3),  # d0 p overflows: inf / E
])
def test_classical_traveltime_repulsive_past_the_float_range(d0, p, coupling):
    # both terms were nan or inf; the time is the free d0 / p to 1e-16 here
    got = dynamics.classical_traveltime(d0, 2.0 * p, coupling)
    assert abs(got / repulsive_return_time_mp(d0, p, coupling) - 1.0) <= 1e-15
    assert abs(got / (d0 / p) - 1.0) <= 1e-15


def test_classical_traveltime_underflowing_energy_is_an_error():
    # p^2 = 1e-400 and k/d0 = 1e-400 both underflow, and E = 0 divided by zero
    with pytest.raises(ValueError, match="E = p\\^2 \\+ k/d0 underflows"):
        dynamics.classical_traveltime(1e100, 2e-200, 1e-300)
    # the attractive branch divides by no E: E = 0 there is the fall from rest
    assert dynamics.classical_traveltime(1e100, 2e-200, -1e-300) > 0.0


def test_classical_traveltime_monotone():
    # strictly decreasing beyond the shallow-entry peak near v0 ~ 0.6
    # (slower pairs turn around right at d0, so t -> 0 as v0 -> 0)
    times = [dynamics.classical_traveltime(10.0, v, 1.0) for v in np.linspace(0.8, 3.0, 12)]
    assert all(a > b for a, b in zip(times, times[1:]))


def test_classify_passthrough_free():
    cfg = make_config(p=0.5, symmetry=ExchangeSymmetry.DISTINGUISHABLE,
                      coupling=0.0, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), 0.01, 30.0)
    res = dynamics.traveltime(traj)
    assert dynamics.classify(traj, res) is Regime.PASS_THROUGH


def test_classify_classical_reflection():
    cfg = make_config(p=0.35, sigma=0.1, symmetry=ExchangeSymmetry.DISTINGUISHABLE,
                      frozen=True)
    t_free = dynamics.free_traveltime(10.0, 0.7)
    traj = dynamics.integrate(initial_state(cfg), t_free / 2000.0, 3.0 * t_free,
                              stop_at_return=True)
    res = dynamics.traveltime(traj)
    assert res.t_return is not None
    assert dynamics.classify(traj, res) is Regime.CLASSICAL_LIKE
    # quantitative classical limit lives in the acceptance suite
    t_cl = dynamics.classical_traveltime(10.0, 0.7, 1.0)
    assert abs(res.t_return / t_cl - 1.0) < 0.02


def test_classify_frozen_window():
    cfg = make_config(p=0.14)
    t_free = dynamics.free_traveltime(10.0, 0.28)
    traj = dynamics.integrate(initial_state(cfg), t_free / 400.0, 2.5 * t_free)
    res = dynamics.traveltime(traj)
    assert res.t_return is None
    assert dynamics.classify(traj, res) is Regime.FROZEN


def test_sweep_single_point_consistency():
    cfg = make_config(p=0.5)
    records = dynamics.sweep_traveltime(cfg, [0.5], horizon_factor=5.0)
    assert len(records) == 1
    rec = records[0]
    t_free = dynamics.free_traveltime(10.0, 1.0)
    assert abs(rec.t_free - t_free) < 1e-12
    traj = dynamics.integrate(initial_state(make_config(p=0.5)), t_free / 400.0,
                              5.0 * t_free, stop_at_return=True)
    res = dynamics.traveltime(traj)
    assert abs(rec.t_coherent - res.t_return) < 1e-9


def test_sweep_honours_the_template_frozen_width():
    # every point inherits the template's frozen width, not the free spreading
    template = make_config(p=0.5, frozen=True)
    rec, = dynamics.sweep_traveltime(template, [0.2], horizon_factor=2.5)
    t_free = dynamics.free_traveltime(10.0, 0.4)
    cfg = make_config(p=0.2, frozen=True)
    traj = dynamics.integrate(initial_state(cfg), t_free / 400.0, 2.5 * t_free,
                              stop_at_return=True)
    res = dynamics.traveltime(traj)
    assert (rec.t_coherent, rec.d_min) == (res.t_return, res.d_min)
    assert rec.regime is dynamics.classify(traj, res)
    natural, = dynamics.sweep_traveltime(make_config(), [0.2], horizon_factor=2.5)
    assert (natural.t_coherent, natural.d_min) != (rec.t_coherent, rec.d_min)


def test_sweep_error_capture():
    # antisymmetric pair with r0 = 0 template and p from grid is fine; force an
    # error with a zero momentum grid point instead
    cfg = make_config(p=0.5)
    records = dynamics.sweep_traveltime(cfg, [0.0], horizon_factor=2.0)
    assert records[0].error is not None


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("symmetry", [ExchangeSymmetry.SYMMETRIC, ExchangeSymmetry.ANTISYMMETRIC])
def test_early_stop_ends_on_the_return_sample(symmetry, frozen):
    # the sweep's early stop must leave traveltime and classify unchanged; the
    # oblique start leaves the z axis, where |r| may round either way at d0
    head_on = [[0.0, 0.0, -p] for p in (0.10, 0.15, 0.20, 0.25, 0.30, 0.5)]
    for p0 in head_on + [[0.037, 0.011, -0.3]]:
        cfg = replace(make_config(symmetry=symmetry, frozen=frozen), p0=np.array(p0))
        p = float(np.linalg.norm(p0))
        t_free = dynamics.free_traveltime(10.0, 2.0 * p)
        args = (initial_state(cfg), t_free / 400.0, 2.5 * t_free)
        full = dynamics.integrate(*args)
        stopped = dynamics.integrate(*args, stop_at_return=True)
        res_full = dynamics.traveltime(full)
        res_stop = dynamics.traveltime(stopped)
        assert res_stop == res_full, p0
        assert dynamics.classify(stopped, res_stop) is dynamics.classify(full, res_full)
        n = stopped.t.size
        np.testing.assert_array_equal(stopped.r, full.r[:n])
        d = stopped.separation
        if res_full.t_return is not None:
            # d dips below d0 and the path ends on the first sample back at d0
            first = int(np.argmax(d < 10.0))
            assert first > 0 and np.all(d[first:-1] < 10.0) and d[-1] >= 10.0, p0
            assert n < full.t.size
        else:
            assert n == full.t.size


@pytest.mark.parametrize("r0, p, dt, t_max", [
    (5.0, 0.3, 0.1, 100.0),
    # (2 r0)^2 overflows: the separation is inf from the start, and the
    # return is the first sample whose |r|^2 overflows again
    (7e153, 1e152, 1.0, 200.0),
    # (2 r0)^2 is subnormal: the separation is 2 r0 to 5 digits only
    (1e-160, 1e-160, 0.01, 3.0),
], ids=["normal", "square-overflows", "square-subnormal"])
def test_a_stopped_run_ends_back_at_the_separation_traveltime_starts_from(r0, p, dt, t_max):
    cfg = PairConfig(1.0, np.array([0.0, 0.0, r0]), np.array([0.0, 0.0, -p]),
                     ExchangeSymmetry.DISTINGUISHABLE, 0.0, frozen_width=True)
    full = dynamics.integrate(initial_state(cfg), dt, t_max)
    stopped = dynamics.integrate(initial_state(cfg), dt, t_max, stop_at_return=True)
    d = full.separation
    assert (float(d[0]) == 2.0 * r0) == (r0 == 5.0)
    first = int(np.argmax(d < d[0]))
    back = first + int(np.argmax(d[first:] >= d[0]))
    assert 0 < first < back == stopped.t.size - 1 < full.t.size - 1
    np.testing.assert_array_equal(stopped.r, full.r[:back + 1])


@pytest.mark.parametrize("start", list(_STARTS))
def test_integrate_step_budget(start):
    state = start_state(start, p=0.5)
    with pytest.raises(ValueError, match="^t_max / dt = 1e[+]302 exceeds the budget"):
        dynamics.integrate(state, 0.01, 1e300)
    with pytest.raises(ValueError, match="^t_max / dt = inf exceeds the budget"):
        dynamics.integrate(state, 1e-300, 1e300)
    with pytest.raises(ValueError, match="^t_max / dt = 1e[+]07 exceeds the budget"):
        dynamics.integrate(state, 1.0, dynamics.MAX_STEPS + 1.0)


@pytest.mark.parametrize("start", list(_STARTS))
def test_integrate_beyond_the_float_range_raises_non_finite(start):
    # within the step budget; the force at t = 0, acting for half a step,
    # moves |r| and |p| to about 5e293 and 5e291, whose squares overflow
    with pytest.raises(NonFinite, match="^the RK4 step from t=0 produced a non-finite state$"):
        dynamics.integrate(start_state(start, p=0.5), 1e294, 1e300)
    # a tiny width spreads at sigma omega = 5e149: (omega t)^2 overflows
    # from the first step on, the width 5e149 t does not, and up to t = 0.1
    # the kernel still holds its square, so the run completes
    traj = dynamics.integrate(start_state(start, sigma=1e-150), 0.01, 0.1)
    assert traj.t.size == 11 and np.isfinite(traj.r).all() and np.isfinite(traj.p).all()
    assert traj.width[0] == 1e-150
    np.testing.assert_allclose(traj.width[1:], 5e149 * traj.t[1:], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("r0", [5.0, 2e4])
def test_tiny_frozen_width_is_the_classical_collision(r0):
    # at sigma = 1e-150 every exchange term is exp(-d^2/4 sigma^2) = 0 and
    # the direct Coulomb term is 1/d: all spins return at t_classical.  From
    # r0 = 2e4 on d^2/4 sigma^2 overflows; p / sqrt(r0/5) keeps the orbit's
    # shape, so the derived step t_free/400 resolves d_min as well at both r0
    grid = [p / math.sqrt(r0 / 5.0) for p in (0.2, 0.6, 1.0)]
    sweeps = [
        dynamics.sweep_traveltime(
            make_config(sigma=1e-150, d0=2.0 * r0, symmetry=sym, frozen=True), grid)
        for sym in ExchangeSymmetry
    ]
    assert sweeps[0] == sweeps[1] == sweeps[2]
    for rec in sweeps[0]:
        assert rec.error is None and rec.regime is dynamics.Regime.CLASSICAL_LIKE
        assert abs(rec.t_coherent / rec.t_classical - 1.0) < 1e-5


def test_sweep_huge_horizon_is_an_error_record():
    records = dynamics.sweep_traveltime(make_config(p=0.5), [0.5], horizon_factor=1e300)
    assert records[0].t_coherent is None and records[0].regime is None
    assert "budget" in records[0].error


def passthrough_delay(sigma, d0, coupling):
    """C = (1/2 d0) int_0^d0 [V(d) - V(d0)] dd with V(d) = coupling erf(d/2 sigma)/d."""
    def v(d):
        if d == 0.0:
            return coupling / (math.sqrt(math.pi) * sigma)
        return coupling * math.erf(d / (2.0 * sigma)) / d

    val, _ = quad(lambda d: v(d) - v(d0), 0.0, d0, epsabs=0.0, epsrel=1e-13)
    return val / (2.0 * d0)


@pytest.mark.parametrize("frozen", [False, True], ids=["spreading", "frozen"])
@pytest.mark.parametrize("sigma, r0, coupling", [(1.0, 5.0, 1.0), (0.5, 5.0, 1.0), (2.0, 3.0, 0.5)])
def test_fast_pair_passes_through_with_the_first_order_delay(sigma, r0, coupling, frozen):
    # At high momentum the packets pass through each other: energy
    # conservation with the bounded direct potential V (the exchange terms
    # fall like exp(-4 sigma^2 p^2)) gives p^2 (t/t_free - 1) -> C + O(1/p^2).
    # At default sweep settings the residual shrinks by 3.59-4.06 per
    # doubling of p from 32 to 128 and is at most 1.4e-3 C at p = 128
    # (sigma = 0.5, spreading); below p = 32 that case is not yet asymptotic.
    c = passthrough_delay(sigma, 2.0 * r0, coupling)
    grid = (32.0, 64.0, 128.0)
    for sym in ExchangeSymmetry:
        template = make_config(sigma=sigma, d0=2.0 * r0, symmetry=sym, coupling=coupling,
                               frozen=frozen)
        records = dynamics.sweep_traveltime(template, grid)
        assert all(rec.regime is Regime.PASS_THROUGH for rec in records), sym
        residual = [abs(p * p * (rec.t_coherent / rec.t_free - 1.0) - c)
                    for p, rec in zip(grid, records)]
        for coarse, fine in zip(residual, residual[1:]):
            assert 3.5 < coarse / fine < 4.5, (sym, residual)
        assert residual[-1] < 2e-3 * c, (sym, residual)
