"""Numbers in the README's prose, recomputed from the code.

Each test reads its numbers out of the README by the words around them and
recomputes them, to the precision the README prints: an edit to either the
text or the code that moves a number fails here.  A number the code no
longer gives is fixed in the README, never by widening a comparison.
"""

import csv
import math
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from coherentpair import cli, dynamics, observables
from coherentpair.meanfield import PhaseState, avg_hamiltonian, initial_state
from coherentpair.pairstate import ExchangeSymmetry, PairConfig
from test_cli import readme_commands

# the README as one line, so that a pattern does not depend on where the text wraps
_TEXT = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())


def claim(pattern):
    """The groups of the README's one match of ``pattern``."""
    found = re.findall(pattern, _TEXT)
    assert len(found) == 1, (pattern, found)
    return found[0]


def sweep(path, argv):
    """Rows of one ``sweep-traveltime`` run written to ``path``, as the CSV's strings."""
    assert cli.main(["sweep-traveltime", *argv, "--output", str(path)]) == 0
    with path.open() as f:
        return list(csv.DictReader(f))


def decimals(number):
    """Digits after the point in the README's spelling of ``number``."""
    return len(number.partition(".")[2])


def test_tiny_sigma_rows_pass_through_at_the_quoted_time(tmp_path):
    args, label, t_coherent, t_free, p = claim(
        r"`sweep-traveltime (--sigma 1e-150 --r0 5 --p-min [^`]*)` runs\. [^:]*: "
        r"every row reads `(\w+)`, with `t_coherent` ([\d.]+) against `t_free` (\d+) "
        r"at `p = ([\d.]+)`")
    rows = sweep(tmp_path / "tiny.csv", shlex.split(args))
    assert {row["regime"] for row in rows} == {label} == {"passthrough"}
    row, = [row for row in rows if float(row["p"]) == float(p)]
    assert f"{float(row['t_coherent']):.{decimals(t_coherent)}f}" == t_coherent
    assert row["t_free"] == t_free


def test_tiny_frozen_rows_are_the_classical_collision_to_the_quoted_error(tmp_path):
    args, label, bound = claim(
        r"`sweep-traveltime (--sigma 1e-150 --r0 5 --frozen-width [^`]*)` gives the same "
        r"`(\w+)` rows for every spin, within a relative (\S+) of `t_classical`")
    sweeps = [sweep(tmp_path / f"{spin}.csv", shlex.split(args) + ["--spin", spin])
              for spin in sorted(cli._SPIN_TO_SYMMETRY)]
    assert sweeps[0] == sweeps[1] == sweeps[2]
    assert {row["regime"] for row in sweeps[0]} == {label} == {"classical"}
    worst = max(abs(float(row["t_coherent"]) / float(row["t_classical"]) - 1.0)
                for row in sweeps[0])
    # the README rounds the worst error up to one digit
    assert worst < float(bound) and f"{worst:.0e}" == f"{float(bound):.0e}"


def test_frozen_window_returns_at_the_quoted_multiples_with_a_longer_horizon(tmp_path):
    lo, hi = claim(r"The anti-parallel \(spatially symmetric\) sweep labels "
                   r"`p = ([\d.]+)\.\.([\d.]+)` `frozen`")
    factor, ratio_lo, ratio_hi, first = claim(
        r"with `--horizon-factor (\S+)` the same pairs come back after ([\d.]+)-([\d.]+) "
        r"free return times, and every point from ([\d.]+) up reads `passthrough`")
    argv, = [argv[1:] for argv in readme_commands()
             if argv[0] == "sweep-traveltime" and "antiparallel" in argv]
    argv = argv[:argv.index("--output")] + argv[argv.index("--output") + 2:]
    window = sweep(tmp_path / "window.csv", argv)
    frozen = [row["p"] for row in window if row["regime"] == "frozen"]
    assert frozen and frozen == [
        row["p"] for row in window if float(lo) <= float(row["p"]) <= float(hi)]
    argv[argv.index("--horizon-factor") + 1] = factor
    longer = sweep(tmp_path / "longer.csv", argv)
    ratios = [float(row["t_coherent"]) / float(row["t_free"])
              for row in longer if float(lo) <= float(row["p"]) <= float(hi)]
    assert f"{min(ratios):.{decimals(ratio_lo)}f}" == ratio_lo
    assert f"{max(ratios):.{decimals(ratio_hi)}f}" == ratio_hi
    assert [row["regime"] == "passthrough" for row in longer] == [
        float(row["p"]) >= float(first) for row in longer]


def window_template():
    """Template config and momentum grid of the README's anti-parallel window sweep."""
    argv, = [argv for argv in readme_commands()
             if argv[0] == "sweep-traveltime" and "antiparallel" in argv]
    args = cli.build_parser().parse_args(argv)
    return cli._config_from_args(args), np.linspace(args.p_min, args.p_max, args.steps)


def head_on_run(template, p, t_max, stop_at_return=False):
    """A sweep point's head-on run at momentum p and step t_free / 400, up to t_max."""
    config = replace(template, p0=np.array([0.0, 0.0, -p]))
    t_free = dynamics.free_traveltime(2.0 * float(template.r0[2]), 2.0 * p)
    return dynamics.integrate(initial_state(config), t_free / 400.0, t_max, stop_at_return)


def test_frozen_window_pairs_recede_at_the_quoted_momenta():
    lo, hi = claim(r"The anti-parallel \(spatially symmetric\) sweep labels "
                   r"`p = ([\d.]+)\.\.([\d.]+)` `frozen`")
    first, last, t_end, share_lo, share_hi = claim(
        r"recede, with `p_z -> (-[\d.]+)\.\.(-[\d.]+)` by t = (\d+), (\d+)-(\d+)% of `p`")
    template, grid = window_template()
    momenta = [p for p in grid if float(lo) <= p <= float(hi)]
    assert len(momenta) == 4
    runs = [head_on_run(template, p, float(t_end)) for p in momenta]
    assert all(round(traj.t[-1]) == int(t_end) for traj in runs)
    p_z = [float(traj.p[-1, 2]) for traj in runs]
    # the recession speeds up with p, so the window's ends are the range's
    assert p_z == sorted(p_z, reverse=True) and p_z[0] < 0.0
    assert f"{p_z[0]:.{decimals(first)}f}" == first
    assert f"{p_z[-1]:.{decimals(last)}f}" == last
    shares = [-100.0 * pz / p for pz, p in zip(p_z, momenta)]
    assert f"{min(shares):.0f}" == share_lo and f"{max(shares):.0f}" == share_hi


def test_recession_vanishes_near_the_quoted_momentum():
    horizon, p_star = claim(
        r"A bisection on whether `r_z` changes sign before the pair returns, with a "
        r"horizon of `T = (\d+)`, puts it at about ([\d.]+) for this pair")
    template, _ = window_template()

    def crosses(p):
        traj = head_on_run(template, p, float(horizon), stop_at_return=True)
        return bool((traj.r[:, 2] < 0.0).any())

    lo, hi = 0.10, 0.12
    assert not crosses(lo) and crosses(hi)
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if crosses(mid) else (mid, hi)
    assert f"{lo:.{decimals(p_star)}f}" == f"{hi:.{decimals(p_star)}f}" == p_star, (lo, hi)


def listed(text):
    """The items of a README list such as ``1, 2, 4 and 8``."""
    return re.split(r", | and ", text)


def rounds_to(value, number):
    """Whether ``value`` rounds to the README's ``number`` at the digits it prints."""
    digits = len(re.sub(r"e.*|\.", "", number).lstrip("0"))
    return float(f"{value:.{digits - 1}e}") == float(number)


def test_exchange_terms_at_contact_take_the_quoted_values():
    sigma_k, d, coulomb, momenta, kinetic, p_kinetic = claim(
        r"at `sigma = k = (\S+)`, `d = (\S+)`, anti-parallel: ([\d.e\-, ]+ and \S+) at "
        r"p = ([\d, ]+ and \d+), while the kinetic one is (\S+) at p = (\d+)\)")
    config = PairConfig(float(sigma_k), np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -1.0]),
                        ExchangeSymmetry.SYMMETRIC, float(sigma_k))

    def terms(p):
        state = PhaseState(np.array([0.0, 0.0, float(d)]), np.array([0.0, 0.0, float(p)]),
                           0.0, config)
        return avg_hamiltonian(state)

    for value, p in zip(listed(coulomb), listed(momenta), strict=True):
        assert rounds_to(terms(p).coulomb_exchange, value), (p, value)
    # the README quotes the kinetic term's size; the term itself is negative
    assert terms(p_kinetic).kinetic_exchange < 0.0
    assert rounds_to(-terms(p_kinetic).kinetic_exchange, kinetic)


def test_delay_law_constant_and_the_sweep_errors_take_the_quoted_values():
    sigma, d0, k, c_text, errors, momenta, lo, hi = claim(
        r"At `sigma = (\S+)`, `d0 = (\S+)`, `k = (\S+)`, `C = ([\d.]+)`, and a default-step "
        r"sweep of the anti-parallel pair is off by ([\d.e\-, ]+ and \S+) at "
        r"p = ([\d, ]+ and \d+): ([\d.]+)-([\d.]+) times less per doubling of p")
    sigma, d0, k = float(sigma), float(d0), float(k)

    def potential(d):
        return k * math.erf(d / (2.0 * sigma)) / d

    # V(d) - V(d0) has the finite limit k / (sqrt(pi) sigma) - V(d0) at d = 0
    area, _ = quad(lambda d: potential(d) - potential(d0), 0.0, d0, epsabs=1e-13, epsrel=1e-13)
    c = area / (2.0 * d0)
    assert rounds_to(c, c_text)
    config = PairConfig(sigma, np.array([0.0, 0.0, d0 / 2.0]), np.array([0.0, 0.0, -1.0]),
                        ExchangeSymmetry.SYMMETRIC, k)
    records = dynamics.sweep_traveltime(config, [float(p) for p in listed(momenta)])
    off = [abs(rec.p ** 2 * (rec.t_coherent / rec.t_free - 1.0) - c) for rec in records]
    for value, text in zip(off, listed(errors), strict=True):
        assert rounds_to(value, text), (value, text)
    shrink = [a / b for a, b in zip(off, off[1:])]
    assert f"{min(shrink):.1f}" == lo and f"{max(shrink):.1f}" == hi


def test_density_files_hold_the_distinct_times_in_increasing_order(tmp_path):
    times, first, t_first, second, t_second = claim(
        r"`--times ([\d ]+)` writes `(\S+)` \(t = (\S+)\) and `(\S+)` \(t = (\S+)\)")
    common = ["density", "--n", "16"]
    out = tmp_path / "name.txt"
    assert cli.main(common + ["--times", *times.split(), "--output", str(out)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [first, second]
    for name, t in ((first, t_first), (second, t_second)):
        alone = tmp_path / "alone" / f"{t}.txt"
        alone.parent.mkdir(exist_ok=True)
        assert cli.main(common + ["--times", t, "--output", str(alone)]) == 0
        assert (tmp_path / name).read_text() == alone.read_text()
        assert alone.read_text().startswith(f"# t={t} ")


def test_density_grid_is_the_sample_nearest_the_requested_time(tmp_path):
    t, dt, nearest = claim(r"`--times (\S+) --dt (\S+)` writes the t = (\S+) grid")
    common = ["density", "--n", "16", "--dt", dt]
    asked, sample = tmp_path / "asked.txt", tmp_path / "sample.txt"
    assert cli.main(common + ["--times", t, "--output", str(asked)]) == 0
    assert cli.main(common + ["--times", nearest, "--output", str(sample)]) == 0
    header, *grid = asked.read_text().splitlines()
    assert header.startswith(f"# t={t} ")
    assert grid == sample.read_text().splitlines()[1:]


def test_a_run_ends_after_round_t_max_over_dt_steps(tmp_path):
    t_max, dt, steps, t_end = claim(
        r"`--t-max (\S+) --dt (\S+)` takes (\w+) step and ends at t = (\S+)\.")
    assert round(float(t_max) / float(dt)) == {"one": 1}[steps]
    for command in ("simulate", "quadrupole"):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--t-max", t_max, "--dt", dt, "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2 and rows[-1].split(",")[0] == t_end, command


def test_quadrupole_verdict_holds_at_both_quoted_horizons(tmp_path):
    args, turns, verdict, short, long = claim(
        r"`quadrupole ([^`]+)` turns (\w+) times and reads `(\w+)` at `--t-max (\S+)` "
        r"and at `--t-max (\S+)`")
    for t_max in (short, long):
        out = tmp_path / f"{t_max}.csv"
        assert cli.main(["quadrupole", *shlex.split(args), "--t-max", t_max,
                         "--output", str(out)]) == 0
        with out.open() as f:
            rows = list(csv.DictReader(f))
        series = np.array([float(row["Dzz"]) for row in rows])
        tensor = observables.QuadrupoleTensor(-series / 2, -series / 2, series,
                                              np.zeros_like(series))
        assert observables.detect(tensor).extrema_count == {"three": 3}[turns], t_max
        assert rows[-1]["verdict"] == verdict == "oscillatory", t_max
