"""Tests for the oracle module itself."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from coherentpair import oracle
from coherentpair.meanfield import PhaseState
from coherentpair.numerics import gauss_legendre
from coherentpair.pairstate import ExchangeSymmetry, PairConfig
from reference_amplitudes import axis_element, coulomb_channel


def test_draws_are_deterministic():
    a_cfg, a_t = oracle.draw_pair_config(987)
    b_cfg, b_t = oracle.draw_pair_config(987)
    assert a_t == b_t
    assert a_cfg.sigma == b_cfg.sigma
    np.testing.assert_array_equal(a_cfg.r0, b_cfg.r0)
    np.testing.assert_array_equal(a_cfg.p0, b_cfg.p0)
    s1 = oracle.draw_phase_state(55)
    s2 = oracle.draw_phase_state(55)
    np.testing.assert_array_equal(s1.r, s2.r)
    np.testing.assert_array_equal(s1.p, s2.p)


def test_seed_lists_committed():
    lists = oracle.load_seed_lists()
    assert list(lists) == ["overlap", "coulomb", "kinetic", "moments"]
    assert lists["overlap"] == [10000 + 37 * k for k in range(100)]
    assert lists["coulomb"] == [20000 + 41 * k for k in range(50)]
    assert lists["kinetic"] == [30000 + 43 * k for k in range(50)]
    assert lists["moments"] == [40000 + 47 * k for k in range(20)]
    assert all(type(v) is int for seeds in lists.values() for v in seeds)


def test_seed_list_from_file(tmp_path):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({"overlap": [1], "coulomb": [], "kinetic": [], "moments": []}))
    lists = oracle.load_seed_lists(str(path))
    assert lists["overlap"] == [1]


@pytest.mark.parametrize("content", [
    "{}",
    '{"overlap": ["x"], "coulomb": [], "kinetic": [], "moments": []}',
    "[1, 2]",
    '{"overlap": [1.0], "coulomb": [], "kinetic": [], "moments": []}',
    '{"overlap": [true], "coulomb": [], "kinetic": [], "moments": []}',
    '{"overlap": 1, "coulomb": [], "kinetic": [], "moments": []}',
], ids=["empty", "string", "array", "float", "bool", "not-a-list"])
def test_malformed_seed_list_is_a_value_error(tmp_path, content):
    path = tmp_path / "seeds.json"
    path.write_text(content)
    with pytest.raises(ValueError, match="seed"):
        oracle.load_seed_lists(str(path))


def test_overlap_oracle_identical_packets():
    cfg = PairConfig(1.0)
    rep = oracle.oracle_overlap(cfg, 0.0)
    assert abs(rep.analytic - 1.0) < 1e-12
    assert rep.rel_err < 1e-10


def test_overlap_oracle_separated_and_moving():
    rep = oracle.oracle_overlap(PairConfig(1.0, np.array([0.0, 0.0, 1.0])), 0.0)
    assert abs(rep.numeric - math.exp(-0.5)) < 1e-8
    cfg = PairConfig(1.0, np.array([0.3, 0.0, 0.7]), np.array([0.2, 0.0, 0.4]))
    rep = oracle.oracle_overlap(cfg, 0.0)
    assert rep.rel_err < 1e-8


def test_coulomb_oracle_anchor():
    cfg = PairConfig(1.0, symmetry=ExchangeSymmetry.SYMMETRIC, frozen_width=True)
    state = PhaseState(np.zeros(3), np.zeros(3), 0.0, cfg)
    eng = oracle._Engine(state)
    val = eng.expect(eng._coulomb)
    assert abs(val - 1.0 / math.sqrt(math.pi)) < 1e-8


def test_coulomb_oracle_point_charge_limit():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 10.0]), symmetry=ExchangeSymmetry.SYMMETRIC,
                     frozen_width=True)
    state = PhaseState(np.array([0.0, 0.0, 20.0]), np.zeros(3), 0.0, cfg)
    reports = oracle.oracle_coulomb(state)
    direct = reports[0]
    assert abs(direct.numeric - 1.0 / 20.0) < 1e-6
    assert direct.rel_err < 1e-6


def _recording(fn, results):
    """fn, appending each result to ``results``."""
    def wrapper(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]
    return wrapper


def _spreading_variances(sigma):
    """The oracle's grid x and its variances at the nine times, each time
    evolved from t = 0 by its own exp(-i k^2 t / 2) row."""
    length = 80.0 * sigma
    dx = length / oracle._SPREAD_GRID
    x = np.linspace(-0.5 * length, 0.5 * length, oracle._SPREAD_GRID, endpoint=False)
    psi0 = (2.0 * math.pi * sigma * sigma) ** -0.25 * np.exp(-x * x / (4.0 * sigma * sigma))
    k = 2.0 * math.pi * np.fft.fftfreq(oracle._SPREAD_GRID, d=dx)
    psi0_hat = np.fft.fft(psi0)
    var = []
    for t in np.linspace(0.0, 4.0 * sigma * sigma, oracle._SPREAD_TIMES):
        dens = np.abs(np.fft.ifft(psi0_hat * np.exp(-0.5j * k * k * t))) ** 2
        var.append(np.sum(dens * x * x) / np.sum(dens))
    return x, np.array(var)


# 0.5, 1 and 2 are the sigmas validate runs; 0.7 and 3.1 are no powers of two
@pytest.mark.parametrize("sigma, expect", [
    (0.5, 2.0), (0.7, 0.5 / 0.49), (1.0, 0.5), (2.0, 0.125), (3.1, 0.5 / 9.61),
])
def test_spreading_oracle(monkeypatch, sigma, expect):
    # the stepped propagator row against a fresh exp row per time: the nine
    # variances agree to at most 6.9e-16 relative (sigma = 1) over these sigmas
    packets = []
    monkeypatch.setattr(np.fft, "ifft", _recording(np.fft.ifft, packets))
    rep = oracle.oracle_spreading(sigma)
    monkeypatch.undo()
    assert abs(rep.analytic - expect) < 1e-15
    assert rep.rel_err <= 1e-14
    assert rep.nodes_used == 36864
    x, want = _spreading_variances(sigma)
    assert len(packets) == oracle._SPREAD_TIMES
    dens = np.abs(np.array(packets)) ** 2
    got = np.sum(dens * x * x, axis=1) / np.sum(dens, axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_every_reported_quantity_has_its_own_gate(tmp_path):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({family: [start] for family, (start, _, _)
                                in oracle._DEFAULT_SEEDS.items()}))
    results, _ = oracle.run_validation(str(path))
    assert {rep.quantity for rep, _ in results} <= set(oracle._GATES)
    assert oracle._GATES["coulomb_coincident_anchor"] == 1e-6
    with pytest.raises(KeyError):
        oracle.report_passes(oracle.OracleReport("no_such_quantity", 1.0, 1.0, 0))


def test_report_small_value_floor():
    rep = oracle.OracleReport("coulomb_exchange", 1e-20, 3e-20, 10)
    assert oracle.report_passes(rep)
    rep = oracle.OracleReport("coulomb_exchange", 1.0, 2.0, 10)
    assert not oracle.report_passes(rep)


def test_run_validation_small_list(tmp_path):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({
        "overlap": [10000, 10037],
        "coulomb": [20000],
        "kinetic": [30000],
        "moments": [40000],
    }))
    results, ok = oracle.run_validation(str(path))
    assert ok, [f"{r.quantity}:{r.rel_err:.2e}" for r, p in results if not p]
    # every closed form has at least one counterpart in the enumeration
    names = {r.quantity for r, _ in results}
    assert {"overlap", "coulomb_direct", "coulomb_exchange", "kinetic_classical",
            "kinetic_uncertainty", "kinetic_exchange", "quadrupole_Dxx",
            "quadrupole_Dzz", "spreading_rate"} <= names
    # quadrature work per report, fixed by the node counts of each rule
    assert [(r.quantity, r.nodes_used) for r, _ in results] == [
        ("overlap", 480), ("overlap", 480),
        ("coulomb_direct", 791232), ("coulomb_exchange", 1582464),
        ("kinetic_classical", 2880), ("kinetic_uncertainty", 2880), ("kinetic_exchange", 5760),
        ("quadrupole_Dxx", 5120), ("quadrupole_Dyy", 5120), ("quadrupole_Dzz", 5120),
        ("quadrupole_Dxz", 5120), ("pair_norm", 5120),
        ("spreading_rate", 36864), ("spreading_rate", 36864), ("spreading_rate", 36864),
        ("packet_kinetic", 960), ("packet_kinetic", 960),
        ("coulomb_coincident_anchor", 1582464),
    ]


def test_run_validation_default_seeds():
    # the default run of ``validate``: every report passes, and the ordered
    # (quantity, nodes) list is fixed by the seed progressions and node counts
    results, ok = oracle.run_validation()
    assert ok and len(results) == 456
    work = [(r.quantity, r.nodes_used) for r, _ in results]
    assert sum(nodes for _, nodes in work) == 121515776
    digest = hashlib.sha256(repr(work).encode()).hexdigest()
    assert digest == "5c6aa4e75cde6b4dded3b530d5412acd2f5caab2c8abc20cc9433c17e31f80a3"


def _count_coulomb_combos(monkeypatch):
    calls = []
    combo = oracle._Engine.coulomb_combo

    def counted(self, key):
        calls.append(key)
        return combo(self, key)

    monkeypatch.setattr(oracle._Engine, "coulomb_combo", counted)
    return calls


@pytest.mark.parametrize("symmetry, expected", [
    (ExchangeSymmetry.SYMMETRIC, 2),
    (ExchangeSymmetry.ANTISYMMETRIC, 2),
    (ExchangeSymmetry.DISTINGUISHABLE, 1),
])
def test_coulomb_integrates_each_combo_once(monkeypatch, symmetry, expected):
    calls = _count_coulomb_combos(monkeypatch)
    cfg = PairConfig(0.9, np.array([0.0, 0.0, 1.2]), np.array([0.2, 0.0, -0.3]), symmetry,
                     frozen_width=True)
    state = PhaseState(np.array([0.3, 0.0, 2.1]), np.array([0.1, 0.0, -0.4]), 0.0, cfg)
    reports = oracle.oracle_coulomb(state)
    # the direct combo and, with exchange, the exchange combo; never a relabelled copy
    assert calls == [((1, 2), (1, 2)), ((1, 2), (2, 1))][:expected]
    assert all(oracle.report_passes(rep) for rep in reports)


def test_anchor_coulomb_integrates_two_combos(monkeypatch):
    calls = _count_coulomb_combos(monkeypatch)
    cfg = PairConfig(1.0, symmetry=ExchangeSymmetry.SYMMETRIC, frozen_width=True)
    state = PhaseState(np.zeros(3), np.zeros(3), 0.0, cfg)
    eng = oracle._Engine(state)
    eng.expect(eng._coulomb)
    assert len(calls) == 2


_COMBOS = (((1, 2), (1, 2)), ((1, 2), (2, 1)))


def _anchor_state():
    cfg = PairConfig(1.0, symmetry=ExchangeSymmetry.SYMMETRIC, frozen_width=True)
    return PhaseState(np.zeros(3), np.zeros(3), 0.0, cfg)


@pytest.mark.parametrize("combo", _COMBOS)
def test_shared_axis_channels_are_exact(combo):
    # a combo after the other one reuses its equal axis channels; a fresh engine has none
    other = _COMBOS[1 - _COMBOS.index(combo)]
    states = [oracle.draw_phase_state(seed) for seed in range(20000, 20020)]
    # an axis with no offset but a momentum, and one with an offset but none,
    # where a key missing either number would merge unequal channels
    states.append(PhaseState(np.zeros(3), np.array([0.3, 0.0, -0.2]), 0.0, PairConfig(1.0)))
    c = np.array([0.4, 0.0, 1.1])
    states.append(PhaseState(2.0 * c, np.zeros(3), 0.0,
                             PairConfig(0.8, c, symmetry=ExchangeSymmetry.ANTISYMMETRIC)))
    for state in states + [_anchor_state()]:
        shared = oracle._Engine(state)
        shared.coulomb_combo(other)
        before = shared.nodes_used
        got = shared.coulomb_combo(combo)
        fresh = oracle._Engine(state)
        assert got == fresh.coulomb_combo(combo)
        assert shared.nodes_used - before == fresh.nodes_used


def _count_axis_channels(monkeypatch):
    calls = []
    channel = oracle._Engine._axis_channel

    def counted(self, combo, ax):
        calls.append((combo, ax))
        return channel(self, combo, ax)

    monkeypatch.setattr(oracle._Engine, "_axis_channel", counted)
    return calls


def test_anchor_coulomb_evaluates_one_axis_channel(monkeypatch):
    # two combos x three axes with equal inputs: one channel
    calls = _count_axis_channels(monkeypatch)
    eng = oracle._Engine(_anchor_state())
    eng.expect(eng._coulomb)
    assert len(calls) == 1


def test_coulomb_seed_shares_its_y_channel(monkeypatch):
    # every drawn packet has y = 0 and k_y = 0, so both combos share one y channel
    calls = _count_axis_channels(monkeypatch)
    state = oracle.draw_phase_state(20000)
    assert state.config.symmetry is not ExchangeSymmetry.DISTINGUISHABLE
    oracle.oracle_coulomb(state)
    assert len(calls) == 5


# draw 0 is symmetric, draw 1 antisymmetric
@pytest.mark.parametrize("seed", [0, 1])
def test_relative_momentum_vanishes_in_the_symmetrized_state(seed):
    state = oracle.draw_phase_state(seed)
    assert state.config.symmetry.sign == (1, -1)[seed]
    assert np.any(state.p != 0.0)
    eng = oracle._Engine(state)
    assert np.all(eng.expect_p_rel() == 0.0)


@pytest.mark.parametrize("combo", _COMBOS)
def test_axis_channel_matches_complex_product(combo):
    # the product-rule factoring and the width-free Gaussian blocks against all
    # four Gaussians multiplied node by node, at the engine's own u and t nodes
    yy, wy = gauss_legendre(48, -7.0, 7.0)
    gauss_y = np.exp(-yy * yy) * wy
    worst = 0.0
    for seed in range(20000, 20020):
        state = oracle.draw_phase_state(seed)
        s = state.width
        for ax in range(3):
            eng = oracle._Engine(state)
            u0, (uu, wm), scaled = eng._axis_factors(combo, ax)
            ref_u0, ref_m = coulomb_channel(eng, combo, ax)
            assert u0 == ref_u0
            ref_uu, ref_wu = gauss_legendre(96, u0 - 14.0 * s, u0 + 14.0 * s)
            np.testing.assert_allclose(uu, ref_uu, rtol=0.0, atol=1e-14 * s)
            pairs = [(wm, ref_wu * ref_m(uu))]
            for tn, got in zip(oracle._unit_rules().t_hat / s, scaled, strict=True):
                pairs.append((got, (ref_m(yy[None, :] / tn[:, None]) @ gauss_y) / tn))
            for got, want in pairs:
                assert got.shape == want.shape
                worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
            assert eng.nodes_used == 56 * (96 + 3 * 32 * 48)
    assert worst <= 1e-13


@pytest.mark.parametrize("family", ["coulomb", "kinetic", "moments"])
def test_element_table_matches_per_element_quadrature(family):
    # all 60 one-axis elements of an engine against one quadrature per element
    start, step, _ = oracle._DEFAULT_SEEDS[family]
    keys = [(a, b, ax, poly, deriv) for a in (1, 2) for b in (1, 2) for ax in range(3)
            for poly, deriv in oracle._INSERTIONS]
    assert len(keys) == 60
    for seed in range(start, start + 10 * step, step):
        eng = oracle._Engine(oracle.draw_phase_state(seed))
        want = [axis_element(eng, *key) for key in keys]
        got = []
        for key in keys:
            before = eng.nodes_used
            got.append(eng.elem(*key))
            assert eng.nodes_used - before == 160
            assert eng.elem(*key) == got[-1] and eng.nodes_used - before == 160
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.max(np.abs(got)))


def _validation_states(tmp_path, monkeypatch):
    """The state of every engine a validate run over two seeds per family builds."""
    states = []

    class Recorded(oracle._Engine):
        def __init__(self, state):
            super().__init__(state)
            states.append(state)

    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({family: [start, start + step] for family, (start, step, _)
                                in oracle._DEFAULT_SEEDS.items()}))
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_Engine", Recorded)
        oracle.run_validation(str(path))
    return states


def test_element_table_bras_are_the_direct_bras(tmp_path, monkeypatch):
    # the table reads phi_a on the nodes of (a, b) off its ket phi_a on the
    # nodes of (b, a): both intervals must give the same floats
    states = _validation_states(tmp_path, monkeypatch)
    # overlap, coulomb, kinetic (product and pair state on one engine),
    # moments, the two packet kinetics and the coincident anchor
    assert len(states) == 2 * (1 + 1 + 1 + 1) + 2 + 1
    axis_values = oracle._axis_values
    rules, kets = [], []
    monkeypatch.setattr(oracle, "gauss_legendre", _recording(gauss_legendre, rules))
    monkeypatch.setattr(oracle, "_axis_values", _recording(axis_values, kets))
    for state in states:
        rules.clear()
        kets.clear()
        eng = oracle._Engine(state)
        table = eng._elements
        # one node rule and one Gaussian evaluation per table
        assert len(rules) == len(kets) == 1
        (x, w), base = rules[0], kets[0]
        assert x.shape == base.shape == (2, 2, 3, 160)
        assert x.tobytes() == x.swapaxes(0, 1).tobytes()
        direct = np.empty_like(base)
        for a in range(2):
            for b in range(2):
                for ax in range(3):
                    ca, ka = eng.factor(a + 1, ax)
                    direct[a, b, ax] = w[a, b, ax] * np.conj(axis_values(eng.s, ca, ka,
                                                                         x[a, b, ax]))
        assert direct.tobytes() == (w * np.conj(base.swapaxes(0, 1))).tobytes()
        assert np.sum(direct * base, axis=-1).tobytes() == table[0, 0].tobytes()


def test_drawn_coulomb_channels_stay_in_the_factorisation_domain():
    # |u0|/s <= |r|/s <= (4.2 + 0.9) sigma / sigma, and the split
    # exponentials of every drawn state neither overflow nor go invalid
    worst = 0.0
    for seed in range(20000, 22000):
        state = oracle.draw_phase_state(seed)
        eng = oracle._Engine(state)
        for combo in _COMBOS:
            for ax in range(3):
                u0, _, _ = eng._axis_channel(combo, ax)
                worst = max(worst, abs(u0) / eng.s)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            oracle.oracle_coulomb(state)
    assert worst <= 5.1


def _two_engine_reference(state):
    """The kinetic and direct Coulomb numbers from a separate product engine.

    The product state is the pair on a ``DISTINGUISHABLE`` copy of the
    config, read by its own engine; the pair state by another.
    """
    product = replace(state, config=replace(state.config,
                                            symmetry=ExchangeSymmetry.DISTINGUISHABLE))
    eng_prod = oracle._Engine(product)
    p_vec = eng_prod.expect_p_rel()
    t_prod = eng_prod.expect_p_rel_squared()
    classical = float(np.dot(p_vec, p_vec))
    kinetic = [(classical, eng_prod.nodes_used), (t_prod - classical, eng_prod.nodes_used)]
    if state.config.symmetry is not ExchangeSymmetry.DISTINGUISHABLE:
        eng_pair = oracle._Engine(state)
        kinetic.append((eng_pair.expect_p_rel_squared() - t_prod, eng_pair.nodes_used))
    coulomb = oracle._Engine(product)
    return kinetic, state.config.coupling * coulomb.expect(coulomb._coulomb)


@pytest.mark.parametrize("symmetry", list(ExchangeSymmetry))
@pytest.mark.parametrize("family", ["coulomb", "kinetic", "moments"])
def test_product_state_of_one_engine_is_the_distinguishable_engine(family, symmetry):
    # validate never draws a DISTINGUISHABLE state, so every draw is recast
    # to each symmetry; the sign-0 sums must match the separate product
    # engine bit for bit, nodes included
    start, step, _ = oracle._DEFAULT_SEEDS[family]
    for seed in range(start, start + 4 * step, step):
        drawn = oracle.draw_phase_state(seed)
        state = replace(drawn, config=replace(drawn.config, symmetry=symmetry))
        kinetic, direct = _two_engine_reference(state)
        got = oracle.oracle_kinetic(state)
        assert [(rep.numeric, rep.nodes_used) for rep in got] == kinetic
        assert oracle.oracle_coulomb(state)[0].numeric == direct


def test_product_sums_read_only_the_diagonal_elements():
    # the product state's sums stop at the a = b elements; the pair state's
    # mixed orders then read the a != b ones
    eng = oracle._Engine(oracle.draw_phase_state(30000))
    assert eng.sign != 0
    eng.expect_p_rel_squared(0)
    assert eng.nodes_used == 2880
    eng.expect_p_rel_squared()
    assert eng.nodes_used == 5760
