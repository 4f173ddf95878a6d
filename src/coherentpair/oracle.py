"""Independent brute-force verifiers for every closed form in the package.

All checks integrate the explicit Gaussian wave functions directly and
never reuse the closed-form expressions they verify.  The six-dimensional
pair integrals reduce to products of one-dimensional Gauss-Legendre sums
because every integrand is axis-separable; the Coulomb kernel is made
separable through the identity 1/|u| = (2/sqrt(pi)) int_0^inf
exp(-t^2 |u|^2) dt.  Everything is deterministic: fixed node counts,
fixed seed lists, no Monte Carlo.  One expansion over particle orders
(``_Engine._pair_sum``) serves the product, symmetric and antisymmetric states.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import observables
from .meanfield import PhaseState, avg_hamiltonian
from .numerics import gauss_legendre
from .pairstate import ExchangeSymmetry, PairConfig, overlap
from .wavepacket import PacketParams, SpreadLaw, kinetic_energy, spreading_rate

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one analytic-vs-quadrature comparison."""

    quantity: str
    analytic: float
    numeric: float
    nodes_used: int
    note: str = ""

    @property
    def rel_err(self) -> float:
        return abs(self.analytic - self.numeric) / max(abs(self.numeric), 1e-300)


# ---------------------------------------------------------------------------
# separable pair-integral engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PairGeometry:
    """Explicit mirrored pair at one instant: width s, centers +/- c, momenta +/- k."""

    s: float
    c: np.ndarray
    k: np.ndarray
    sign: int

    @classmethod
    def from_state(cls, state: PhaseState) -> "_PairGeometry":
        return cls(state.width, 0.5 * state.r, state.p.copy(), state.config.symmetry.sign)

    def factor(self, which: int, ax: int) -> tuple[float, float, float]:
        # (s, center, momentum) of the per-axis Gaussian factor
        if which == 1:
            return self.s, float(self.c[ax]), float(self.k[ax])
        return self.s, float(-self.c[ax]), float(-self.k[ax])


def _axis_values(s: float, c: float, k: float, x: np.ndarray) -> np.ndarray:
    norm = (2.0 * math.pi * s * s) ** -0.25
    return norm * np.exp(-((x - c) ** 2) / (4.0 * s * s) + 1j * k * x)


def _axis_deriv(s: float, c: float, k: float, x: np.ndarray, order: int) -> np.ndarray:
    # analytic derivatives of the explicit Gaussian factor
    base = _axis_values(s, c, k, x)
    g1 = -(x - c) / (2.0 * s * s) + 1j * k
    if order == 0:
        return base
    if order == 1:
        return g1 * base
    if order == 2:
        return (g1 * g1 - 1.0 / (2.0 * s * s)) * base
    raise ValueError("derivative order must be 0, 1 or 2")


# Gauss-Legendre nodes of every one-axis matrix element
_AXIS_NODES = 160


class _Engine:
    """Caches the per-axis 1D matrix elements of one pair geometry."""

    def __init__(self, geom: _PairGeometry):
        self.geom = geom
        self.nodes_used = 0
        self._cache: dict[tuple, complex] = {}

    def _grid(self, a: int, b: int, ax: int) -> tuple[np.ndarray, np.ndarray]:
        s, ca, _ = self.geom.factor(a, ax)
        _, cb, _ = self.geom.factor(b, ax)
        lo = min(ca, cb) - 12.0 * s
        hi = max(ca, cb) + 12.0 * s
        return gauss_legendre(_AXIS_NODES, lo, hi)

    def elem(self, a: int, b: int, ax: int, poly: int = 0, deriv: int = 0) -> complex:
        """<phi_a | x^poly d^deriv | phi_b> on one axis."""
        key = (a, b, ax, poly, deriv)
        got = self._cache.get(key)
        if got is not None:
            return got
        x, w = self._grid(a, b, ax)
        sa, ca, ka = self.geom.factor(a, ax)
        sb, cb, kb = self.geom.factor(b, ax)
        bra = np.conj(_axis_values(sa, ca, ka, x))
        ket = _axis_deriv(sb, cb, kb, x, deriv)
        if poly:
            ket = ket * x ** poly
        val = complex(np.sum(w * bra * ket))
        self.nodes_used += x.size
        self._cache[key] = val
        return val

    def one_body(self, a: int, b: int, ops: dict[int, tuple[int, int]]) -> complex:
        """Product over axes of elem with insertions given per axis."""
        out = 1.0 + 0.0j
        for ax in range(3):
            poly, deriv = ops.get(ax, (0, 0))
            out *= self.elem(a, b, ax, poly, deriv)
        return out

    # ----- pair-level sums -------------------------------------------------

    def _pair_sum(self, element):
        """Sum of element(bra, ket) over the particle orders (a1, a2) of bra and ket.

        Psi = phi_1(x1) phi_2(x2) + sign phi_2(x1) phi_1(x2): the product state
        has the order (1, 2) only, and a mixed bra/ket pair carries the sign.
        Direct terms come first, so an element odd under a particle swap sums to 0.
        """
        sign = self.geom.sign
        total = element((1, 2), (1, 2))
        if sign:
            total += element((2, 1), (2, 1))
            total += sign * (element((1, 2), (2, 1)) + element((2, 1), (1, 2)))
        return total

    def _product(self, bra, ket, ops1=None, ops2=None) -> complex:
        """Matrix element of one pair order with insertions on particle 1 and 2."""
        return self.one_body(bra[0], ket[0], ops1 or {}) * self.one_body(bra[1], ket[1], ops2 or {})

    def _norm(self) -> float:
        return self._pair_sum(self._product).real

    def expect_one_body_sum(self, ops: dict[int, tuple[int, int]]) -> float:
        """<sum_i O(i)> for a one-particle operator given by ``ops``."""
        num = self._pair_sum(
            lambda bra, ket: self._product(bra, ket, ops) + self._product(bra, ket, None, ops)
        )
        return (num / self._norm()).real

    def expect_p1_dot_p2(self) -> float:
        """<p_1 . p_2> assembled from single-derivative matrix elements."""

        def element(bra, ket):
            # (-i)(-i) = -1 per axis
            return -sum(self._product(bra, ket, {ax: (0, 1)}, {ax: (0, 1)}) for ax in range(3))

        return (self._pair_sum(element) / self._norm()).real

    def expect_p_rel(self) -> np.ndarray:
        """<(p_1 - p_2)/2> (vector); vanishes in the symmetrized state."""
        norm = self._norm()
        out = np.zeros(3)
        for ax in range(3):
            ops = {ax: (0, 1)}
            num = self._pair_sum(
                lambda bra, ket: self._product(bra, ket, ops) - self._product(bra, ket, None, ops)
            )
            out[ax] = (-0.5j * num / norm).real
        return out

    def expect_p_rel_squared(self) -> float:
        """<p_rel^2> = (<p_1^2> + <p_2^2> - 2 <p_1 . p_2>) / 4."""
        lap = 0.0
        for ax in range(3):
            lap += self.expect_one_body_sum({ax: (0, 2)})
        p1p2 = self.expect_p1_dot_p2()
        return 0.25 * (-lap - 2.0 * p1p2)

    # ----- Coulomb kernel ---------------------------------------------------

    def _axis_channel(self, combo, ax: int):
        """Per-axis factors of one bra-ket combo: callable m(u) and its data.

        m(u) = int conj(phi_a1)(w + u) phi_b1(w + u) conj(phi_a2)(w)
               phi_b2(w) dw, evaluated by a fixed Gauss-Legendre rule in w
        for any array of u values.
        """
        (a1, a2), (b1, b2) = combo
        s = self.geom.s
        _, ca1, ka1 = self.geom.factor(a1, ax)
        _, cb1, kb1 = self.geom.factor(b1, ax)
        _, ca2, ka2 = self.geom.factor(a2, ax)
        _, cb2, kb2 = self.geom.factor(b2, ax)
        c_a = 0.5 * (ca1 + cb1)
        c_b = 0.5 * (ca2 + cb2)
        u0 = c_a - c_b
        ww, wwgt = gauss_legendre(56, c_b - 10.0 * s, c_b + 10.0 * s)
        inner = wwgt * np.conj(_axis_values(s, ca2, ka2, ww)) * _axis_values(s, cb2, kb2, ww)

        def m_of_u(u: np.ndarray) -> np.ndarray:
            x1 = ww + u[..., None]
            vals = np.conj(_axis_values(s, ca1, ka1, x1)) * _axis_values(s, cb1, kb1, x1)
            self.nodes_used += x1.size
            return vals @ inner

        return u0, m_of_u

    def coulomb_combo(self, combo) -> float:
        """int conj(Psi_bra) Psi_ket / |x1 - x2| over both particles.

        Uses 1/|u| = (2/sqrt(pi)) int exp(-t^2 u^2) dt, which keeps every
        factor axis-separable.  Small t is handled on a fixed u grid; for
        t above ~1/(2 s) the kernel is narrower than that grid resolves,
        so the substitution u = y/t is integrated on a fixed y grid
        instead (exact for every t).  The t tail uses tau = 1/t.
        """
        s = self.geom.s
        channels = [self._axis_channel(combo, ax) for ax in range(3)]
        u_extent = max(abs(u0) for u0, _ in channels) + 16.0 * s

        # fixed-grid data for the small-t segments
        fixed = []
        for u0, m_of_u in channels:
            uu, wu = gauss_legendre(96, u0 - 14.0 * s, u0 + 14.0 * s)
            fixed.append((uu, wu * m_of_u(uu)))

        def kernel_fixed(tnodes: np.ndarray) -> np.ndarray:
            prod = np.ones(tnodes.size, dtype=complex)
            for uu, wm in fixed:
                prod *= np.exp(-np.outer(tnodes, uu) ** 2) @ wm
            return prod

        yy, wy = gauss_legendre(48, -7.0, 7.0)
        gauss_y = np.exp(-yy * yy) * wy

        def kernel_scaled(tnodes: np.ndarray) -> np.ndarray:
            # K(t) = (1/t) int m(y/t) exp(-y^2) dy per axis
            prod = np.ones(tnodes.size, dtype=complex)
            u_grid = yy[None, :] / tnodes[:, None]
            for _, m_of_u in channels:
                prod *= (m_of_u(u_grid) @ gauss_y) / tnodes
            return prod

        t_switch = 0.5 / s
        acc = 0.0 + 0.0j
        # small-t segments on the fixed grid
        breaks = sorted({0.0, min(0.5 / u_extent, t_switch), t_switch})
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            if hi <= lo:
                continue
            tn, tw = gauss_legendre(32, lo, hi)
            acc += np.sum(tw * kernel_fixed(tn))
        # scaled segments up to t_hi, then the 1/t tail
        t_hi = 24.0 / s
        for lo, hi in ((t_switch, 4.0 / s), (4.0 / s, t_hi)):
            tn, tw = gauss_legendre(32, lo, hi)
            acc += np.sum(tw * kernel_scaled(tn))
        tau, wtau = gauss_legendre(32, 0.0, 1.0 / t_hi)
        mask = tau > 0
        tt = 1.0 / tau[mask]
        acc += np.sum((wtau[mask] * tt * tt) * kernel_scaled(tt))
        return float((2.0 / _SQRT_PI) * acc.real)

    def _coulomb(self, bra, ket) -> float:
        """Cached ``coulomb_combo``, each distinct combo integrated once.

        Swapping both orders relabels the integration variables x1 <-> x2,
        which leaves the kernel unchanged, so every key starts with packet 1.
        """
        if bra[0] == 2:
            bra, ket = bra[::-1], ket[::-1]
        key = ("coulomb", bra, ket)
        if key not in self._cache:
            self._cache[key] = self.coulomb_combo((bra, ket))
        return self._cache[key]

    def expect_coulomb(self) -> float:
        """<1/|x1 - x2|> in the pair state."""
        return self._pair_sum(self._coulomb) / self._norm()

    def coulomb_direct_term(self) -> float:
        """Bare direct integral <rho_1 rho_2 / |x1 - x2|> (no exchange)."""
        return self._coulomb((1, 2), (1, 2)) / self._product((1, 2), (1, 2)).real


# ---------------------------------------------------------------------------
# individual oracles
# ---------------------------------------------------------------------------

def oracle_overlap(config: PairConfig, t: float = 0.0) -> OracleReport:
    """3D quadrature of conj(Psi_1) Psi_2 against the closed-form overlap."""
    s = config.law.width(config.sigma, t)
    c = config.r0 + config.p0 * t
    geom = _PairGeometry(s, c, config.p0.copy(), config.symmetry.sign)
    eng = _Engine(geom)
    numeric = abs(eng.one_body(1, 2, {}))
    analytic = overlap(config, t)
    return OracleReport("overlap", analytic, numeric, eng.nodes_used)


def oracle_coulomb(state: PhaseState) -> list[OracleReport]:
    """Direct and exchange Coulomb terms against relative-coordinate quadrature."""
    kappa = state.config.coupling
    breakdown = avg_hamiltonian(state)
    eng = _Engine(_PairGeometry.from_state(state))
    direct_num = kappa * eng.coulomb_direct_term()
    reports = [
        OracleReport("coulomb_direct", breakdown.coulomb_direct, direct_num, eng.nodes_used)
    ]
    if state.config.symmetry is not ExchangeSymmetry.DISTINGUISHABLE:
        total_num = kappa * eng.expect_coulomb()
        reports.append(
            OracleReport(
                "coulomb_exchange",
                breakdown.coulomb_exchange,
                total_num - direct_num,
                eng.nodes_used,
            )
        )
    return reports


def oracle_kinetic(state: PhaseState) -> list[OracleReport]:
    """Kinetic terms against derivative quadrature (m = 1: T = <p_rel^2>).

    Mapping: the classical term is |<p_rel>|^2 of the product state, the
    uncertainty term is the product-state variance, and the exchange term
    is the symmetrized-minus-product difference.
    """
    breakdown = avg_hamiltonian(state)
    eng_prod = _Engine(replace(_PairGeometry.from_state(state), sign=0))
    p_vec = eng_prod.expect_p_rel()
    t_prod = eng_prod.expect_p_rel_squared()
    classical_num = float(np.dot(p_vec, p_vec))
    reports = [
        OracleReport("kinetic_classical", breakdown.kinetic_classical, classical_num,
                     eng_prod.nodes_used),
        OracleReport("kinetic_uncertainty", breakdown.kinetic_uncertainty,
                     t_prod - classical_num, eng_prod.nodes_used),
    ]
    if state.config.symmetry is not ExchangeSymmetry.DISTINGUISHABLE:
        eng_sym = _Engine(_PairGeometry.from_state(state))
        t_sym = eng_sym.expect_p_rel_squared()
        reports.append(
            OracleReport("kinetic_exchange", breakdown.kinetic_exchange,
                         t_sym - t_prod, eng_sym.nodes_used)
        )
    return reports


def oracle_moments(state: PhaseState) -> list[OracleReport]:
    """Quadrupole components against direct moment quadrature."""
    eng = _Engine(_PairGeometry.from_state(state))
    m = np.zeros((3, 3))
    for i in range(3):
        m[i, i] = eng.expect_one_body_sum({i: (2, 0)})
    for i, j in ((0, 1), (0, 2), (1, 2)):
        m[i, j] = m[j, i] = eng.expect_one_body_sum({i: (1, 0), j: (1, 0)})
    trace = float(np.trace(m))
    tensor = observables.quadrupole_tensor(state)
    names = ("Dxx", "Dyy", "Dzz")
    reports = []
    for i, name in enumerate(names):
        numeric = 3.0 * m[i, i] - trace
        analytic = (tensor.d_xx, tensor.d_yy, tensor.d_zz)[i]
        reports.append(OracleReport(f"quadrupole_{name}", analytic, numeric, eng.nodes_used))
    reports.append(OracleReport("quadrupole_Dxz", tensor.d_xz, m[0, 2], eng.nodes_used))
    reports.append(OracleReport("pair_norm", 1.0, eng.expect_one_body_sum({}) / 2.0,
                                eng.nodes_used, note="0th moment / 2"))
    return reports


def oracle_packet_kinetic(params: PacketParams) -> OracleReport:
    """Single-packet mean kinetic energy <p^2>/2m from derivative quadrature."""
    geom = _PairGeometry(params.sigma, params.r0.copy(), params.p0.copy(), 0)
    eng = _Engine(geom)
    norm = eng.one_body(1, 1, {})
    lap = sum((eng.one_body(1, 1, {ax: (0, 2)}) / norm).real for ax in range(3))
    return OracleReport("packet_kinetic", kinetic_energy(params), -0.5 * lap,
                        eng.nodes_used)


# grid points and fitted times of the spreading oracle
_SPREAD_GRID = 4096
_SPREAD_TIMES = 9


def oracle_spreading(sigma: float) -> OracleReport:
    """Fit the variance growth of a 1D grid Fourier evolution.

    Free-particle split-free evolution: psi_hat(k, t) = psi_hat(k, 0)
    exp(-i k^2 t / 2).  The fitted rate is compared with 1/(2 sigma^2).
    """
    analytic = spreading_rate(PacketParams(sigma))
    length = 80.0 * sigma
    dx = length / _SPREAD_GRID
    x = np.linspace(-0.5 * length, 0.5 * length, _SPREAD_GRID, endpoint=False)
    psi0 = (2.0 * math.pi * sigma * sigma) ** -0.25 * np.exp(-x * x / (4.0 * sigma * sigma))
    k = 2.0 * math.pi * np.fft.fftfreq(_SPREAD_GRID, d=dx)
    psi0_hat = np.fft.fft(psi0)
    times = np.linspace(0.0, 4.0 * sigma * sigma, _SPREAD_TIMES)
    var = np.empty_like(times)
    for i, t in enumerate(times):
        psi = np.fft.ifft(psi0_hat * np.exp(-0.5j * k * k * t))
        dens = np.abs(psi) ** 2
        norm = np.sum(dens) * dx
        var[i] = np.sum(dens * x * x) * dx / norm
    # var(t) = sigma^2 (1 + omega^2 t^2): least squares in t^2
    tt = times ** 2
    slope = float(np.dot(tt - tt.mean(), var - var.mean()) / np.dot(tt - tt.mean(), tt - tt.mean()))
    omega_fit = math.sqrt(max(slope, 0.0)) / sigma
    return OracleReport("spreading_rate", analytic, omega_fit, _SPREAD_GRID * _SPREAD_TIMES)


# ---------------------------------------------------------------------------
# seed lists and validation entry point
# ---------------------------------------------------------------------------

def _splitmix64(seed: int):
    state = seed & 0xFFFFFFFFFFFFFFFF

    def nxt() -> float:
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z = z ^ (z >> 31)
        return z / 2.0 ** 64

    return nxt


def load_seed_lists(path: str | None = None) -> dict[str, list[int]]:
    """Seed lists committed with the package, or from an explicit file.

    The file holds a JSON object whose families ``overlap``, ``coulomb``,
    ``kinetic`` and ``moments`` are lists of integers; anything else raises
    ValueError.
    """
    if path is None:
        text = resources.files("coherentpair.data").joinpath("seed_lists.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    lists = json.loads(text)
    if not isinstance(lists, dict):
        raise ValueError("seed list file must hold a JSON object")
    for family in ("overlap", "coulomb", "kinetic", "moments"):
        seeds = lists.get(family)
        # bool is an int subclass, but JSON true/false is no seed
        if not (isinstance(seeds, list) and all(type(v) is int for v in seeds)):
            raise ValueError(f"seed family {family!r} must be a list of integers")
    return lists


def draw_pair_config(seed: int) -> tuple[PairConfig, float]:
    """Deterministic config draw for the overlap oracle: (config, time)."""
    rng = _splitmix64(seed)
    sigma = 0.6 + 1.2 * rng()
    a_mag = 2.2 * sigma * rng()
    th_a = math.pi * rng()
    p_mag = 0.75 / sigma * rng()
    th_p = math.pi * rng()
    sym = ExchangeSymmetry.SYMMETRIC if rng() < 0.5 else ExchangeSymmetry.ANTISYMMETRIC
    if sym is ExchangeSymmetry.ANTISYMMETRIC and a_mag < 0.5 * sigma:
        a_mag += 0.6 * sigma
    r0 = a_mag * np.array([math.sin(th_a), 0.0, math.cos(th_a)])
    p0 = p_mag * np.array([math.sin(th_p), 0.0, math.cos(th_p)])
    t = 2.0 * sigma * sigma * rng()
    return PairConfig(sigma, r0, p0, sym), t


def draw_phase_state(seed: int) -> PhaseState:
    """Deterministic phase-state draw for the term-by-term oracles."""
    config, t = draw_pair_config(seed)
    rng = _splitmix64(seed ^ 0xD1B54A32D192ED03)
    r_mag = 2.0 * config.sigma * (0.1 + 2.0 * rng())
    th_r = math.pi * rng()
    p_mag = 0.7 / config.sigma * rng()
    th_p = math.pi * rng()
    r = r_mag * np.array([math.sin(th_r), 0.0, math.cos(th_r)])
    p = p_mag * np.array([math.sin(th_p), 0.0, math.cos(th_p)])
    if config.symmetry is ExchangeSymmetry.ANTISYMMETRIC and r_mag < 0.8 * config.sigma:
        r = r + np.array([0.0, 0.0, 0.9 * config.sigma])
    return PhaseState(r, p, t, config)


_GATES = {
    "overlap": 1e-8,
    "coulomb_direct": 1e-6,
    "coulomb_exchange": 1e-6,
    "kinetic_classical": 1e-6,
    "kinetic_uncertainty": 1e-6,
    "kinetic_exchange": 1e-6,
    "quadrupole_Dxx": 1e-6,
    "quadrupole_Dyy": 1e-6,
    "quadrupole_Dzz": 1e-6,
    "quadrupole_Dxz": 1e-6,
    "pair_norm": 1e-7,
    "packet_kinetic": 1e-8,
    "spreading_rate": 1e-4,
}

# exchange-family terms can be exponentially small; below this absolute
# size a relative gate is meaningless and an absolute one applies instead
_ABS_FLOOR = 1e-12


def report_passes(report: OracleReport) -> bool:
    if abs(report.numeric) < _ABS_FLOOR and abs(report.analytic) < _ABS_FLOOR:
        return True
    return report.rel_err <= _GATES.get(report.quantity, 1e-6)


def run_validation(seed_path: str | None = None) -> tuple[list[tuple[OracleReport, bool]], bool]:
    """Run every oracle over the committed seed lists.

    Returns the individual reports with their pass flags and the overall
    verdict.  This is the backend of the ``validate`` CLI subcommand.
    """
    seeds = load_seed_lists(seed_path)
    results: list[tuple[OracleReport, bool]] = []

    def add(report: OracleReport) -> None:
        results.append((report, report_passes(report)))

    for seed in seeds["overlap"]:
        config, t = draw_pair_config(seed)
        add(oracle_overlap(config, t))
    for seed in seeds["coulomb"]:
        state = draw_phase_state(seed)
        for rep in oracle_coulomb(state):
            add(rep)
    for seed in seeds["kinetic"]:
        state = draw_phase_state(seed)
        for rep in oracle_kinetic(state):
            add(rep)
    for seed in seeds["moments"]:
        state = draw_phase_state(seed)
        for rep in oracle_moments(state):
            add(rep)
    for sigma in (0.5, 1.0, 2.0):
        add(oracle_spreading(sigma))
    for sigma, p0 in ((1.0, np.zeros(3)), (0.7, np.array([0.5, 0.1, -0.3]))):
        add(oracle_packet_kinetic(PacketParams(sigma, np.zeros(3), p0)))
    # anchor: coincident symmetric pair, sigma = 1 -> Coulomb 1/sqrt(pi)
    anchor = PhaseState(
        np.zeros(3), np.zeros(3), 0.0,
        PairConfig(1.0, symmetry=ExchangeSymmetry.SYMMETRIC, law=SpreadLaw.frozen_width()),
    )
    bd = avg_hamiltonian(anchor)
    eng = _Engine(_PairGeometry.from_state(anchor))
    add(OracleReport("coulomb_coincident_anchor", bd.coulomb, eng.expect_coulomb(),
                     eng.nodes_used, note="expected 1/sqrt(pi)"))
    ok = all(flag for _, flag in results)
    return results, ok
