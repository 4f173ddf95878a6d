"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Documented runs (the CLI one-liners in the README) are reproduced here
through the library API with identical parameters.
"""

import math

import numpy as np

from coherentpair import cli, dynamics, observables, oracle
from coherentpair.dynamics import Regime
from coherentpair.meanfield import PhaseState, avg_hamiltonian, initial_state
from coherentpair.observables import SeriesKind, detect, tensor_from_params
from coherentpair.pairstate import ExchangeSymmetry, PairConfig

from test_meanfield import coulomb_bound
from test_observables import invert_p, invert_r0, tensor_norm, tensor_trace

SQRT_PI = math.sqrt(math.pi)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def test_criterion_01_overlap_oracle():
    seeds = oracle.load_seed_lists()["overlap"]
    assert len(seeds) == 100
    worst = 0.0
    for seed in seeds:
        config, t = oracle.draw_pair_config(seed)
        rep = oracle.oracle_overlap(config, t)
        worst = max(worst, rep.rel_err)
    report(1, "overlap closed form vs quadrature on 100 configs",
           worst <= 1e-8, f"worst rel err {worst:.2e}")


def test_criterion_02_coulomb_oracle():
    seeds = oracle.load_seed_lists()["coulomb"]
    assert len(seeds) == 50
    worst = 0.0
    ok = True
    for seed in seeds:
        state = oracle.draw_phase_state(seed)
        for rep in oracle.oracle_coulomb(state):
            if abs(rep.numeric) < 1e-12 and abs(rep.analytic) < 1e-12:
                continue
            worst = max(worst, rep.rel_err)
            ok = ok and rep.rel_err <= 1e-6
    anchor_cfg = PairConfig(1.0, symmetry=ExchangeSymmetry.SYMMETRIC,
                            frozen_width=True)
    anchor = avg_hamiltonian(PhaseState(np.zeros(3), np.zeros(3), 0.0, anchor_cfg))
    anchor_err = abs((anchor.coulomb_direct + anchor.coulomb_exchange) - 1.0 / SQRT_PI)
    ok = ok and anchor_err <= 1e-6
    report(2, "Coulomb terms vs quadrature on 50 configs + 1/sqrt(pi) anchor",
           ok, f"worst rel err {worst:.2e}, anchor err {anchor_err:.2e}")


def test_criterion_02b_kinetic_terms_oracle():
    # companion to criterion 2: the remaining averaged-Hamiltonian terms
    seeds = oracle.load_seed_lists()["kinetic"]
    worst = 0.0
    ok = True
    for seed in seeds:
        state = oracle.draw_phase_state(seed)
        for rep in oracle.oracle_kinetic(state):
            if abs(rep.numeric) < 1e-12 and abs(rep.analytic) < 1e-12:
                continue
            worst = max(worst, rep.rel_err)
            ok = ok and rep.rel_err <= 1e-6
    report(2, "kinetic terms vs quadrature on 50 configs (companion)",
           ok, f"worst rel err {worst:.2e}")


def test_criterion_03_quadrupole_oracle():
    seeds = oracle.load_seed_lists()["moments"]
    assert len(seeds) == 20
    worst = 0.0
    ok = True
    for seed in seeds:
        state = oracle.draw_phase_state(seed)
        tensor = observables.quadrupole_tensor(state)
        if abs(tensor_trace(tensor)) > 1e-10 * tensor_norm(tensor):
            ok = False
        for rep in oracle.oracle_moments(state):
            if abs(rep.numeric) < 1e-12 and abs(rep.analytic) < 1e-12:
                continue
            worst = max(worst, rep.rel_err)
            ok = ok and rep.rel_err <= 1e-6
    report(3, "quadrupole components vs quadrature on 20 configs + tracelessness",
           ok, f"worst rel err {worst:.2e}")


def test_criterion_04_spreading_law():
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0):
        rep = oracle.oracle_spreading(sigma)
        worst = max(worst, rep.rel_err)
    report(4, "fitted spreading rate equals 1/(2 sigma^2) within 1e-4",
           worst <= 1e-4, f"worst rel err {worst:.2e}")


def test_criterion_05_coulomb_boundedness():
    bounds = {}
    for sigma in (0.5, 1.0, 2.0):
        cfg = PairConfig(sigma, symmetry=ExchangeSymmetry.SYMMETRIC,
                         frozen_width=True)
        bounds[sigma] = coulomb_bound(cfg)
    finite = all(math.isfinite(b) and b > 0 for b in bounds.values())
    products = [b * s for s, b in bounds.items()]
    scaling = max(products) / min(products) - 1.0
    report(5, "Coulomb maximum finite and scaling as 1/sigma across factor 4",
           finite and scaling < 0.01, f"scaling spread {scaling:.2e}")


def test_criterion_06_free_motion_and_energy_drift():
    free_cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -0.5]),
                          ExchangeSymmetry.DISTINGUISHABLE, 0.0, frozen_width=True)
    traj = dynamics.integrate(initial_state(free_cfg), 0.01, 10.0)
    pos_err = float(np.max(np.abs(traj.r[:, 2] - (10.0 - traj.t))))
    inter_cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -0.5]),
                           ExchangeSymmetry.SYMMETRIC, 1.0, frozen_width=True)
    traj2 = dynamics.integrate(initial_state(inter_cfg), 0.01, 30.0)
    energy = traj2.energy[:, 5]
    drift = float(np.max(np.abs(energy - energy[0]))) / abs(energy[0])
    report(6, "free motion exact to 1e-9 over 1000 steps; frozen-width drift <= 1e-6",
           pos_err <= 1e-9 and drift <= 1e-6,
           f"pos err {pos_err:.2e}, drift {drift:.2e}")


def test_criterion_07_classical_limit():
    d0 = 10.0
    sigma = 0.01 * d0
    worst = 0.0
    for v0 in (0.6, 0.8, 1.0, 1.4, 2.0):
        cfg = PairConfig(sigma, np.array([0.0, 0.0, d0 / 2]),
                         np.array([0.0, 0.0, -v0 / 2]),
                         ExchangeSymmetry.DISTINGUISHABLE, 1.0, frozen_width=True)
        t_free = dynamics.free_traveltime(d0, v0)
        traj = dynamics.integrate(initial_state(cfg), t_free / 4000.0, 3.0 * t_free,
                                  stop_at_return=True)
        res = dynamics.traveltime(traj)
        t_cl = dynamics.classical_traveltime(d0, v0, 1.0)
        worst = max(worst, abs(res.t_return / t_cl - 1.0))
    report(7, "sigma = 0.01 d0 traveltime within 2% of the classical Coulomb value",
           worst <= 0.02, f"worst dev {worst:.2%}")


def test_criterion_08_free_limit():
    d0 = 10.0
    bound = coulomb_bound(PairConfig(1.0, symmetry=ExchangeSymmetry.SYMMETRIC,
                                     frozen_width=True))
    products = []
    ratios = []
    for p in (7.6, 9.0, 11.0, 14.0, 18.0):
        assert p * p >= 100.0 * bound
        cfg = PairConfig(1.0, np.array([0.0, 0.0, d0 / 2]), np.array([0.0, 0.0, -p]),
                         ExchangeSymmetry.SYMMETRIC, 1.0)
        v0 = 2.0 * p
        t_free = dynamics.free_traveltime(d0, v0)
        traj = dynamics.integrate(initial_state(cfg), t_free / 2000.0, 4.0 * t_free,
                                  stop_at_return=True)
        res = dynamics.traveltime(traj)
        products.append(res.t_return * p)
        ratios.append(res.t_return / t_free)
    spread = max(products) / min(products) - 1.0
    free_dev = max(abs(r - 1.0) for r in ratios)
    report(8, "t * p constant within 5% at energies >= 100x the Coulomb bound",
           spread <= 0.05 and free_dev <= 0.05,
           f"t*p spread {spread:.2%}, free dev {free_dev:.2%}")


SWEEP_GRID = np.linspace(0.10, 0.30, 11)
SWEEP_KW = dict(horizon_factor=2.5)


def test_criterion_09_special_window():
    template = lambda sym: PairConfig(1.0, np.array([0.0, 0.0, 5.0]),
                                      np.array([0.0, 0.0, -0.1]), sym, 1.0)
    sym_recs = dynamics.sweep_traveltime(template(ExchangeSymmetry.SYMMETRIC),
                                         SWEEP_GRID, **SWEEP_KW)
    anti_recs = dynamics.sweep_traveltime(template(ExchangeSymmetry.ANTISYMMETRIC),
                                          SWEEP_GRID, **SWEEP_KW)
    stuck = [rec.regime in (Regime.FROZEN, Regime.NO_RETURN) for rec in sym_recs]
    idx = [i for i, flag in enumerate(stuck) if flag]
    contiguous = bool(idx) and idx == list(range(idx[0], idx[-1] + 1))
    interior = bool(idx) and idx[0] > 0 and idx[-1] < len(stuck) - 1
    anti_all_return = all(rec.t_coherent is not None for rec in anti_recs)
    detail = (f"window p in [{SWEEP_GRID[idx[0]]:.2f}, {SWEEP_GRID[idx[-1]]:.2f}]"
              if idx else "no window")
    report(9, "antiparallel sweep has a contiguous NoReturn/Frozen window, "
              "parallel sweep returns everywhere",
           contiguous and interior and anti_all_return, detail)


def test_criterion_10_quadrupole_verdicts():
    typical_cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -0.5]),
                             ExchangeSymmetry.SYMMETRIC, 1.0)
    typical = dynamics.integrate(initial_state(typical_cfg), 0.05, 130.0)
    v_typ = detect(observables.quadrupole_timeseries(typical))

    frozen_cfg = PairConfig(1.0, np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -0.14]),
                            ExchangeSymmetry.SYMMETRIC, 1.0)
    frozen = dynamics.integrate(initial_state(frozen_cfg), 0.1, 400.0)
    v_fro = detect(observables.quadrupole_timeseries(frozen))

    # the frozen run sits inside the criterion-9 window
    res = dynamics.traveltime(
        dynamics.integrate(initial_state(frozen_cfg), 0.1,
                           2.5 * dynamics.free_traveltime(10.0, 0.28))
    )
    ok = (v_typ.kind is SeriesKind.MONOTONE_AFTER_TRANSIENT
          and v_fro.kind is SeriesKind.OSCILLATORY
          and v_fro.extrema_count >= 2
          and res.t_return is None)
    report(10, "typical run monotone, frozen run oscillatory (>= 2 extrema)",
           ok, f"typical={v_typ.kind.value}, frozen={v_fro.kind.value} "
               f"({v_fro.extrema_count} extrema)")


def test_criterion_11_inversion_roundtrips():
    sigma = 1.0
    # dispersed regime: offset 10 sigma, momentum 10 x hbar/(2 sigma)
    a = 10.0 * sigma
    p_big = 10.0 * 0.5 / sigma
    tensor = tensor_from_params(np.array([0.0, 0.0, a]),
                                np.array([0.0, 0.0, p_big]), sigma, 1)
    est = invert_r0(tensor)
    r0_err = abs(est.value - a) / a
    # overlapping regime: offset 0.01 sigma, momenta well below hbar/(2 sigma)
    a_small = 0.01 * sigma
    px = 0.05 * 0.5 / sigma
    pz = 0.03 * 0.5 / sigma
    tensor = tensor_from_params(np.array([0.0, 0.0, a_small]),
                                np.array([px, 0.0, pz]), sigma, 1)
    got_px, got_pz = invert_p(tensor, sigma)
    px_err = abs(got_px - px) / px
    pz_err = abs(got_pz - pz) / pz
    report(11, "inversion roundtrips: offset within 1%, momenta within 2%",
           r0_err <= 0.01 and px_err <= 0.02 and pz_err <= 0.02,
           f"r0 {r0_err:.2%}, px {px_err:.2%}, pz {pz_err:.2%}")


def test_criterion_12_determinism(tmp_path):
    sim_args = ["simulate", "--pz", "-0.4", "--dt", "0.02", "--t-max", "6.0"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(sim_args + ["--output", str(a)]) == 0
    assert cli.main(sim_args + ["--output", str(b)]) == 0
    sim_ok = a.read_bytes() == b.read_bytes()

    sweep_args = ["sweep-traveltime", "--spin", "antiparallel", "--p-min", "0.12",
                  "--p-max", "0.2", "--steps", "3", "--horizon-factor", "2.5"]
    c = tmp_path / "c.csv"
    d = tmp_path / "d.csv"
    assert cli.main(sweep_args + ["--jobs", "1", "--output", str(c)]) == 0
    assert cli.main(sweep_args + ["--jobs", "3", "--output", str(d)]) == 0
    sweep_ok = c.read_bytes() == d.read_bytes()
    report(12, "simulate and sweep outputs bit-identical, independent of --jobs",
           sim_ok and sweep_ok)
