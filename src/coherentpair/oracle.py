"""Independent brute-force verifiers for every closed form in the package.

All checks integrate the explicit Gaussian wave functions directly and
never reuse the closed-form expressions they verify.  The six-dimensional
pair integrals reduce to products of one-dimensional Gauss-Legendre sums
because every integrand is axis-separable; the Coulomb kernel is made
separable through the identity 1/|u| = (2/sqrt(pi)) int_0^inf
exp(-t^2 |u|^2) dt.  Its per-axis factor multiplies the two particle-1
Gaussians by the Gaussian product rule (Boys 1950) into one real Gaussian
and a plane-wave phase, so the quadrature runs in real arithmetic; that is
algebra of the explicit exponents, not a closed form under test.  Each
distinct per-axis Coulomb channel is integrated once per engine, and a
combo that reuses one still counts the rule's nodes in ``nodes_used``.
In units of the width each Gaussian block is a block built once per
process (``_unit_rules``) times factors of one channel, so a channel costs
one real matrix product per rule.  The one-axis matrix elements of
an engine come from one table, built on its first read.
Everything is deterministic: fixed node counts, fixed seed lists, no Monte
Carlo.  An engine reads the ``PhaseState`` the dynamics integrates, and
one expansion over particle orders (``_Engine.expect``) serves the state's
symmetric or antisymmetric pair and, at sign 0, its product state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import observables
from .meanfield import PhaseState, avg_hamiltonian
from .numerics import gauss_legendre
from .pairstate import ExchangeSymmetry, PairConfig, kinetic_energy, overlap

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

def _axis_values(s: float, c: float, k: float, x: np.ndarray) -> np.ndarray:
    norm = (2.0 * math.pi * s * s) ** -0.25
    return norm * np.exp(-((x - c) ** 2) / (4.0 * s * s) + 1j * k * x)


# Gauss-Legendre nodes of every one-axis matrix element
_AXIS_NODES = 160
# the (poly, deriv) insertions of the one-axis elements the oracles read
_INSERTIONS = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2))


@dataclass(frozen=True)
class _UnitRules:
    """The Coulomb quadrature rules of a channel in units of the width s.

    A channel's w nodes are c_b + 10 s x, its fixed u grid u0 + 14 s u and
    its scaled t segments t_hat / s, with u = y / t = s v and v = y / t_hat.
    The Gaussian of particle 1 at offset d = w - c_a + u is
    exp(-(d/s)^2 / 2): on the fixed grid d/s = 10 x + 14 u, the same for
    every channel, and on the scaled segments
    d/s = 10 x + v - b with b = u0/s, so ``scaled`` holds the b = 0 blocks.
    """

    x: np.ndarray          # w nodes on [-1, 1], (56,)
    wx: np.ndarray
    u: np.ndarray          # fixed u nodes on [-1, 1], (96,)
    wu: np.ndarray
    fixed: np.ndarray      # exp(-(10 x + 14 u)^2 / 2), (96, 56)
    t_hat: np.ndarray      # nodes and weights of the three scaled segments, (3, 32)
    wt_hat: np.ndarray
    v: np.ndarray          # y / t_hat, (3, 32, 48)
    gauss_y: np.ndarray    # exp(-y^2) y weights, (48,)
    scaled: np.ndarray     # exp(-(10 x + v)^2 / 2), (3, 32 * 48, 56)


@cache
def _unit_rules() -> _UnitRules:
    """The width-free Coulomb rules and Gaussian blocks, built once per process.

    The scaled segments cover t_hat in (0.5, 4), (4, 24) and the tail
    t_hat > 24, which runs over tau = 1/t_hat; Gauss-Legendre nodes are
    interior.
    """
    x, wx = gauss_legendre(56, -1.0, 1.0)
    u, wu = gauss_legendre(96, -1.0, 1.0)
    fixed = 10.0 * x + 14.0 * u[:, None]
    fixed *= fixed
    fixed *= -0.5
    np.exp(fixed, out=fixed)
    segments = [gauss_legendre(32, 0.5, 4.0), gauss_legendre(32, 4.0, 24.0)]
    tau, wtau = gauss_legendre(32, 0.0, 1.0 / 24.0)
    tt = 1.0 / tau
    segments.append((tt, wtau * tt * tt))
    t_hat, wt_hat = (np.stack(col) for col in zip(*segments))
    y, wy = gauss_legendre(48, -7.0, 7.0)
    v = y / t_hat[..., None]
    # the (3, 32, 48, 56) block in one buffer
    scaled = 10.0 * x + v[..., None]
    scaled *= scaled
    scaled *= -0.5
    np.exp(scaled, out=scaled)
    rules = _UnitRules(x, wx, u, wu, fixed, t_hat, wt_hat, v, np.exp(-y * y) * wy,
                       scaled.reshape(3, -1, x.size))
    # every engine in the process reads these arrays
    for arr in vars(rules).values():
        arr.flags.writeable = False
    return rules


class _Engine:
    """Caches the per-axis 1D matrix elements and Coulomb channels of one phase state.

    The explicit pair: packets of width s at centres +/- c = +/- r/2 with
    momenta +/- k = +/- p, combined with the sign of the state's symmetry.
    """

    def __init__(self, state: PhaseState):
        self.s = state.width
        self.c = 0.5 * state.r
        self.k = state.p
        self.sign = state.config.symmetry.sign
        self.nodes_used = 0
        self._cache: dict[tuple, object] = {}

    def factor(self, which: int, ax: int) -> tuple[float, float]:
        # (center, momentum) of the per-axis Gaussian factor; its width is s
        if which == 1:
            return float(self.c[ax]), float(self.k[ax])
        return float(-self.c[ax]), float(-self.k[ax])

    @cached_property
    def _elements(self) -> dict[tuple[int, int], np.ndarray]:
        """Every one-axis element, indexed [a - 1, b - 1, axis] per (poly, deriv) insertion.

        Each (a, b, axis) entry is a 160-node Gauss-Legendre sum over
        [min(c_a, c_b) - 12 s, max(c_a, c_b) + 12 s] of conj(phi_a) times
        x^poly d^deriv phi_b, the derivatives taken analytically.  The kets
        are evaluated once, and the bras are read off them: the nodes of
        (a, b) and (b, a) are the same floats, so phi_a there is base[b, a].
        """
        s = self.s
        centres = np.stack((self.c, -self.c))[..., None]
        momenta = np.stack((self.k, -self.k))[..., None]
        ca, cb, kb = centres[:, None], centres[None], momenta[None]
        # gauss_legendre broadcasts over the (2, 2, 3) interval ends
        x, w = gauss_legendre(_AXIS_NODES, np.minimum(ca, cb) - 12.0 * s,
                              np.maximum(ca, cb) + 12.0 * s)
        base = _axis_values(s, cb, kb, x)
        bra = w * np.conj(base.swapaxes(0, 1))
        g1 = -(x - cb) / (2.0 * s * s) + 1j * kb
        kets = (base, base * x, base * x ** 2, g1 * base, (g1 * g1 - 1.0 / (2.0 * s * s)) * base)
        return {op: np.sum(bra * ket, axis=-1) for op, ket in zip(_INSERTIONS, kets)}

    def elem(self, a: int, b: int, ax: int, poly: int = 0, deriv: int = 0) -> complex:
        """<phi_a | x^poly d^deriv | phi_b> on one axis; a first read counts its nodes."""
        key = (a, b, ax, poly, deriv)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = complex(self._elements[poly, deriv][a - 1, b - 1, ax])
            self.nodes_used += _AXIS_NODES
        return got

    def one_body(self, a: int, b: int, ops: dict[int, tuple[int, int]]) -> complex:
        """Product over axes of elem with insertions given per axis."""
        out = 1.0 + 0.0j
        for ax in range(3):
            poly, deriv = ops.get(ax, (0, 0))
            out *= self.elem(a, b, ax, poly, deriv)
        return out

    # ----- pair-level sums -------------------------------------------------

    def _product(self, bra, ket, ops1=None, ops2=None) -> complex:
        """Matrix element of one pair order with insertions on particle 1 and 2."""
        return self.one_body(bra[0], ket[0], ops1 or {}) * self.one_body(bra[1], ket[1], ops2 or {})

    def expect(self, element, sign: int | None = None):
        """<O> from element(bra, ket) summed over the particle orders (a1, a2) of bra and ket.

        Psi = phi_1(x1) phi_2(x2) + sign phi_2(x1) phi_1(x2) with the state's sign,
        or order (1, 2) alone at ``sign=0``, the product state; a mixed bra/ket
        pair carries the sign, and the norm is the same sum of ``_product``.
        Direct terms come first, so an element odd under a particle swap sums to 0.
        """
        if sign is None:
            sign = self.sign

        def pair_sum(term):
            total = term((1, 2), (1, 2))
            if sign:
                total += term((2, 1), (2, 1))
                total += sign * (term((1, 2), (2, 1)) + term((2, 1), (1, 2)))
            return total

        return pair_sum(element) / pair_sum(self._product).real

    def expect_one_body_sum(self, ops: dict[int, tuple[int, int]],
                            sign: int | None = None) -> float:
        """<sum_i O(i)> for a one-particle operator given by ``ops``."""
        return self.expect(
            lambda bra, ket: self._product(bra, ket, ops) + self._product(bra, ket, None, ops), sign
        ).real

    def expect_p_rel(self, sign: int | None = None) -> np.ndarray:
        """<(p_1 - p_2)/2> (vector); vanishes in the symmetrized state."""
        out = np.zeros(3)
        for ax in range(3):
            ops = {ax: (0, 1)}
            mean = self.expect(lambda bra, ket: self._product(bra, ket, ops)
                               - self._product(bra, ket, None, ops), sign)
            out[ax] = (-0.5j * mean).real
        return out

    def expect_p_rel_squared(self, sign: int | None = None) -> float:
        """<p_rel^2> = (<p_1^2> + <p_2^2> - 2 <p_1 . p_2>) / 4."""
        lap = 0.0
        for ax in range(3):
            lap += self.expect_one_body_sum({ax: (0, 2)}, sign)

        def p1_dot_p2(bra, ket):
            # single-derivative elements, (-i)(-i) = -1 per axis
            return -sum(self._product(bra, ket, {ax: (0, 1)}, {ax: (0, 1)}) for ax in range(3))

        return 0.25 * (-lap - 2.0 * self.expect(p1_dot_p2, sign).real)

    # ----- Coulomb kernel ---------------------------------------------------

    def _axis_channel(self, combo, ax: int):
        """Per-axis data of one bra-ket combo: (u0, dk, inner).

        The channel is m(u) = int conj(phi_a1)(w + u) phi_b1(w + u)
        conj(phi_a2)(w) phi_b2(w) dw, by the 56-node w rule of
        ``_unit_rules`` on c_b +/- 10 s.

        By the Gaussian product rule (Boys 1950) the particle-1 factor is
        conj(phi_a1)(x) phi_b1(x) = A exp(-(x - c_a)^2 / (2 s^2)) exp(i dk x)
        with c_a = (c_a1 + c_b1)/2, dk = k_b1 - k_a1 and
        A = (2 pi s^2)^-1/2 exp(-(c_a1 - c_b1)^2 / (8 s^2)).  At x = w + u
        the phase splits: A exp(i dk w) joins the w weights and the
        particle-2 factors in ``inner``, the real and imaginary parts as the
        columns of one real (56, 2) matrix, and exp(i dk u) leaves the w sum,
        so m(u) = exp(i dk u) sum_w exp(-(w - c_a + u)^2 / (2 s^2)) inner(w)
        and u0 = c_a - c_b.  This only rewrites the exponent of the explicit
        wave functions; no closed form under test enters.

        Domain: ``_axis_factors`` splits the scaled Gaussian into width-free
        factors with exponents up to about 10 |b|, b = u0/s, so their
        rounding grows with |b| and exp(10 b x) overflows past |b| ~ 70.
        Drawn states have |b| <= 5.1: |r| <= 4.2 sigma + 0.9 sigma and
        s >= sigma.
        """
        (a1, a2), (b1, b2) = combo
        s = self.s
        rules = _unit_rules()
        ca1, ka1 = self.factor(a1, ax)
        cb1, kb1 = self.factor(b1, ax)
        ca2, ka2 = self.factor(a2, ax)
        cb2, kb2 = self.factor(b2, ax)
        c_b = 0.5 * (ca2 + cb2)
        u0 = 0.5 * (ca1 + cb1) - c_b
        dk = kb1 - ka1
        ww = c_b + 10.0 * s * rules.x
        amp = math.exp(-((ca1 - cb1) ** 2) / (8.0 * s * s)) / math.sqrt(2.0 * math.pi * s * s)
        inner = (amp * 10.0 * s * rules.wx * np.exp(1j * dk * ww)
                 * np.conj(_axis_values(s, ca2, ka2, ww)) * _axis_values(s, cb2, kb2, ww))
        return u0, dk, np.stack((inner.real, inner.imag), axis=1)

    def _axis_factors(self, combo, ax: int):
        """Evaluated factors of one axis channel, each distinct channel once.

        Returns (u0, (uu, wu m(uu)), K) with K[i] = (1/t) int m(y/t)
        exp(-y^2) dy at the nodes t = t_hat / s of scaled segment i.  With
        b = u0/s, the scaled Gaussian exp(-(10 x + v - b)^2 / 2) is the
        width-free block exp(-(10 x + v)^2 / 2) times exp(10 b x), which
        joins ``inner``, times exp(b v - b^2 / 2), which leaves the w sum
        with the phase exp(i dk s v); the fixed block needs no factor.  So a
        channel costs one real matrix product per rule.  The key holds the centre and
        momentum of the channel's four packet factors, every number it reads
        besides the engine's s, so combos whose factors coincide on this
        axis (a y axis with no offset or momentum, or the coincident anchor)
        share one evaluation.  Float keys treat 0.0 and -0.0 as equal, which
        only flips the sign of zeros inside the channel.  Every read adds the
        nodes of both blocks to ``nodes_used``, hit or miss.
        """
        (a1, a2), (b1, b2) = combo
        rules = _unit_rules()
        self.nodes_used += rules.fixed.size + rules.scaled.size
        key = ("axis", *(v for which in (a1, b1, a2, b2) for v in self.factor(which, ax)))
        factors = self._cache.get(key)
        if factors is None:
            s = self.s
            u0, dk, inner = self._axis_channel(combo, ax)
            uu = u0 + 14.0 * s * rules.u
            re_im = rules.fixed @ inner
            fixed = (uu, 14.0 * s * rules.wu * (re_im[:, 0] + 1j * re_im[:, 1])
                     * np.exp(1j * dk * uu))
            b = u0 / s
            re_im = rules.scaled @ (np.exp(10.0 * b * rules.x)[:, None] * inner)
            m = ((re_im[..., 0] + 1j * re_im[..., 1]).reshape(rules.v.shape)
                 * np.exp((b + 1j * dk * s) * rules.v - 0.5 * b * b))
            scaled = (m @ rules.gauss_y) / (rules.t_hat / s)
            factors = self._cache[key] = (u0, fixed, scaled)
        return factors

    def coulomb_combo(self, combo) -> float:
        """int conj(Psi_bra) Psi_ket / |x1 - x2| over both particles.

        Uses 1/|u| = (2/sqrt(pi)) int exp(-t^2 u^2) dt, which keeps every
        factor axis-separable.  Below t = 1/(2 s) each channel's fixed u grid
        is used, split at 1/(2 u_extent) < 1/(32 s); above it the kernel is
        narrower than that grid resolves, so u = y/t is integrated on the
        scaled segments of ``_unit_rules`` instead (exact for every t).  Each
        distinct axis channel is integrated once per engine
        (``_axis_factors``); ``nodes_used`` counts the rule's nodes per
        channel, hit or miss.
        """
        s = self.s
        channels = [self._axis_factors(combo, ax) for ax in range(3)]
        u_extent = max(abs(u0) for u0, _, _ in channels) + 16.0 * s
        acc = 0.0 + 0.0j
        for lo, hi in ((0.0, 0.5 / u_extent), (0.5 / u_extent, 0.5 / s)):
            tn, tw = gauss_legendre(32, lo, hi)
            prod = np.ones(tn.size, dtype=complex)
            for _, (uu, wm), _ in channels:
                prod *= np.exp(-np.outer(tn, uu) ** 2) @ wm
            acc += np.sum(tw * prod)
        for i, tw in enumerate(_unit_rules().wt_hat / s):
            prod = np.ones(tw.size, dtype=complex)
            for _, _, scaled in channels:
                prod *= scaled[i]
            acc += np.sum(tw * prod)
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


# ---------------------------------------------------------------------------
# individual oracles
# ---------------------------------------------------------------------------

def oracle_overlap(config: PairConfig, t: float = 0.0) -> OracleReport:
    """3D quadrature of conj(Psi_1) Psi_2 against the closed-form overlap."""
    # r = 2 c halves back to the centres c exactly
    eng = _Engine(PhaseState(2.0 * (config.r0 + config.p0 * t), config.p0, t, config))
    numeric = abs(eng.one_body(1, 2, {}))
    analytic = overlap(config, t)
    return OracleReport("overlap", analytic, numeric, eng.nodes_used)


def oracle_coulomb(state: PhaseState) -> list[OracleReport]:
    """Direct and exchange Coulomb terms against relative-coordinate quadrature."""
    kappa = state.config.coupling
    breakdown = avg_hamiltonian(state)
    eng = _Engine(state)
    # the bare direct integral <rho_1 rho_2 / |x1 - x2|> is the product state's
    direct_num = kappa * eng.expect(eng._coulomb, 0)
    reports = [
        OracleReport("coulomb_direct", breakdown.coulomb_direct, direct_num, eng.nodes_used)
    ]
    if state.config.symmetry is not ExchangeSymmetry.DISTINGUISHABLE:
        total_num = kappa * eng.expect(eng._coulomb)
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
    is the symmetrized-minus-product difference.  One engine serves both, the
    product state first: its sums read only the a = b one-axis elements, so
    its ``nodes_used`` leaves out the mixed ones the pair state reads next.
    """
    breakdown = avg_hamiltonian(state)
    eng = _Engine(state)
    p_vec = eng.expect_p_rel(0)
    t_prod = eng.expect_p_rel_squared(0)
    classical_num = float(np.dot(p_vec, p_vec))
    reports = [
        OracleReport("kinetic_classical", breakdown.kinetic_classical, classical_num,
                     eng.nodes_used),
        OracleReport("kinetic_uncertainty", breakdown.kinetic_uncertainty,
                     t_prod - classical_num, eng.nodes_used),
    ]
    if state.config.symmetry is not ExchangeSymmetry.DISTINGUISHABLE:
        t_sym = eng.expect_p_rel_squared()
        reports.append(
            OracleReport("kinetic_exchange", breakdown.kinetic_exchange,
                         t_sym - t_prod, eng.nodes_used)
        )
    return reports


def oracle_moments(state: PhaseState) -> list[OracleReport]:
    """Quadrupole components against direct moment quadrature."""
    eng = _Engine(state)
    m_aa = [eng.expect_one_body_sum({i: (2, 0)}) for i in range(3)]
    m_xz = eng.expect_one_body_sum({0: (1, 0), 2: (1, 0)})
    trace = m_aa[0] + m_aa[1] + m_aa[2]
    tensor = observables.quadrupole_timeseries(state)
    names = ("Dxx", "Dyy", "Dzz")
    reports = []
    for i, name in enumerate(names):
        numeric = 3.0 * m_aa[i] - trace
        analytic = (tensor.d_xx, tensor.d_yy, tensor.d_zz)[i]
        reports.append(OracleReport(f"quadrupole_{name}", analytic, numeric, eng.nodes_used))
    reports.append(OracleReport("quadrupole_Dxz", tensor.d_xz, m_xz, eng.nodes_used))
    reports.append(OracleReport("pair_norm", 1.0, eng.expect_one_body_sum({}) / 2.0,
                                eng.nodes_used, note="0th moment / 2"))
    return reports


def oracle_packet_kinetic(sigma: float, p0: np.ndarray) -> OracleReport:
    """Mean kinetic energy <p^2>/2m of one packet at the origin, from derivative quadrature."""
    # at t = 0 the width is exactly sigma
    single = PairConfig(sigma, symmetry=ExchangeSymmetry.DISTINGUISHABLE)
    eng = _Engine(PhaseState(np.zeros(3), p0, 0.0, single))
    norm = eng.one_body(1, 1, {})
    lap = sum((eng.one_body(1, 1, {ax: (0, 2)}) / norm).real for ax in range(3))
    return OracleReport("packet_kinetic", kinetic_energy(sigma, p0), -0.5 * lap,
                        eng.nodes_used)


# grid points and fitted times of the spreading oracle
_SPREAD_GRID = 4096
_SPREAD_TIMES = 9


def oracle_spreading(sigma: float) -> OracleReport:
    """Fit the variance growth of a 1D grid Fourier evolution.

    Free split-step Fourier steps over the equally spaced times t_i = i t_1,
    psi_hat(k, t_i) = psi_hat(k, t_{i-1}) exp(-i k^2 t_1 / 2), with one row on
    fftfreq's first N/2 + 1 wavenumbers mirrored onto the rest (same k^2).  The
    fitted rate is compared with ``PairConfig(sigma).omega`` = 1/(2 sigma^2).
    """
    analytic = PairConfig(sigma).omega
    length = 80.0 * sigma
    dx = length / _SPREAD_GRID
    x = np.linspace(-0.5 * length, 0.5 * length, _SPREAD_GRID, endpoint=False)
    psi0 = (2.0 * math.pi * sigma * sigma) ** -0.25 * np.exp(-x * x / (4.0 * sigma * sigma))
    k = 2.0 * math.pi * np.fft.fftfreq(_SPREAD_GRID, d=dx)[: _SPREAD_GRID // 2 + 1]
    times = np.linspace(0.0, 4.0 * sigma * sigma, _SPREAD_TIMES)
    row = np.exp(-0.5j * k * k * times[1])
    row = np.concatenate((row, row[-2:0:-1]))
    psi_hat = np.fft.fft(psi0)
    var = np.empty_like(times)
    for i in range(_SPREAD_TIMES):
        if i:
            psi_hat *= row
        dens = np.abs(np.fft.ifft(psi_hat)) ** 2
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


# default seed families of ``validate``: (start, step, count) of each progression
_DEFAULT_SEEDS = {
    "overlap": (10000, 37, 100),
    "coulomb": (20000, 41, 50),
    "kinetic": (30000, 43, 50),
    "moments": (40000, 47, 20),
}


def load_seed_lists(path: str | None = None) -> dict[str, list[int]]:
    """The default seed lists, or those of an explicit file.

    The file holds a JSON object whose families ``overlap``, ``coulomb``,
    ``kinetic`` and ``moments`` are lists of integers; anything else raises
    ValueError.
    """
    if path is None:
        return {family: list(range(start, start + step * count, step))
                for family, (start, step, count) in _DEFAULT_SEEDS.items()}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lists = json.load(fh)
        except RecursionError:
            # json nests one Python call per array or object level
            raise ValueError("seed list file nests too deeply") from None
    if not isinstance(lists, dict):
        raise ValueError("seed list file must hold a JSON object")
    for family in _DEFAULT_SEEDS:
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
    "coulomb_coincident_anchor": 1e-6,
}

# exchange-family terms can be exponentially small; below this absolute
# size a relative gate is meaningless and an absolute one applies instead
_ABS_FLOOR = 1e-12


def report_passes(report: OracleReport) -> bool:
    if abs(report.numeric) < _ABS_FLOOR and abs(report.analytic) < _ABS_FLOOR:
        return True
    return report.rel_err <= _GATES[report.quantity]


def run_validation(seed_path: str | None = None) -> tuple[list[tuple[OracleReport, bool]], bool]:
    """Run every oracle over the default seed lists, or those of ``seed_path``.

    Returns the individual reports with their pass flags and the overall
    verdict.  This is the backend of the ``validate`` CLI subcommand.
    """
    seeds = load_seed_lists(seed_path)
    reports = [oracle_overlap(*draw_pair_config(seed)) for seed in seeds["overlap"]]
    # the families' oracles are read at call time, where a tracer may wrap them
    for family, check in (("coulomb", oracle_coulomb), ("kinetic", oracle_kinetic),
                          ("moments", oracle_moments)):
        for seed in seeds[family]:
            reports += check(draw_phase_state(seed))
    reports += [oracle_spreading(sigma) for sigma in (0.5, 1.0, 2.0)]
    for sigma, p0 in ((1.0, np.zeros(3)), (0.7, np.array([0.5, 0.1, -0.3]))):
        reports.append(oracle_packet_kinetic(sigma, p0))
    # anchor: coincident symmetric pair, sigma = 1 -> Coulomb 1/sqrt(pi)
    anchor = PhaseState(
        np.zeros(3), np.zeros(3), 0.0,
        PairConfig(1.0, symmetry=ExchangeSymmetry.SYMMETRIC, frozen_width=True),
    )
    eng = _Engine(anchor)
    reports.append(OracleReport("coulomb_coincident_anchor", avg_hamiltonian(anchor).coulomb,
                                eng.expect(eng._coulomb), eng.nodes_used,
                                note="expected 1/sqrt(pi)"))
    results = [(rep, report_passes(rep)) for rep in reports]
    return results, all(flag for _, flag in results)
