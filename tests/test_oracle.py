"""Tests for the oracle module itself."""

import json
import math

import numpy as np
import pytest

from coherentpair import oracle
from coherentpair.meanfield import PhaseState
from coherentpair.pairstate import ExchangeSymmetry, PairConfig
from coherentpair.wavepacket import SpreadLaw


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
    assert len(lists["overlap"]) == 100
    assert len(lists["coulomb"]) == 50
    assert len(lists["kinetic"]) == 50
    assert len(lists["moments"]) == 20


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
    cfg = PairConfig(1.0, symmetry=ExchangeSymmetry.SYMMETRIC, law=SpreadLaw.frozen_width())
    state = PhaseState(np.zeros(3), np.zeros(3), 0.0, cfg)
    eng = oracle._Engine(oracle._PairGeometry.from_state(state))
    val = eng.expect_coulomb()
    assert abs(val - 1.0 / math.sqrt(math.pi)) < 1e-8


def test_coulomb_oracle_point_charge_limit():
    cfg = PairConfig(1.0, np.array([0.0, 0.0, 10.0]), symmetry=ExchangeSymmetry.SYMMETRIC,
                     law=SpreadLaw.frozen_width())
    state = PhaseState(np.array([0.0, 0.0, 20.0]), np.zeros(3), 0.0, cfg)
    reports = oracle.oracle_coulomb(state)
    direct = reports[0]
    assert abs(direct.numeric - 1.0 / 20.0) < 1e-6
    assert direct.rel_err < 1e-6


def test_spreading_oracle():
    for sigma, expect in ((1.0, 0.5), (2.0, 0.125)):
        rep = oracle.oracle_spreading(sigma)
        assert abs(rep.analytic - expect) < 1e-15
        assert rep.rel_err < 1e-4


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
                     law=SpreadLaw.frozen_width())
    state = PhaseState(np.array([0.3, 0.0, 2.1]), np.array([0.1, 0.0, -0.4]), 0.0, cfg)
    reports = oracle.oracle_coulomb(state)
    # the direct combo and, with exchange, the exchange combo; never a relabelled copy
    assert calls == [((1, 2), (1, 2)), ((1, 2), (2, 1))][:expected]
    assert all(oracle.report_passes(rep) for rep in reports)


def test_anchor_coulomb_integrates_two_combos(monkeypatch):
    calls = _count_coulomb_combos(monkeypatch)
    cfg = PairConfig(1.0, symmetry=ExchangeSymmetry.SYMMETRIC, law=SpreadLaw.frozen_width())
    state = PhaseState(np.zeros(3), np.zeros(3), 0.0, cfg)
    eng = oracle._Engine(oracle._PairGeometry.from_state(state))
    eng.expect_coulomb()
    assert len(calls) == 2


# draw 0 is symmetric, draw 1 antisymmetric
@pytest.mark.parametrize("seed", [0, 1])
def test_relative_momentum_vanishes_in_the_symmetrized_state(seed):
    state = oracle.draw_phase_state(seed)
    assert state.config.symmetry.sign == (1, -1)[seed]
    assert np.any(state.p != 0.0)
    eng = oracle._Engine(oracle._PairGeometry.from_state(state))
    assert np.all(eng.expect_p_rel() == 0.0)
