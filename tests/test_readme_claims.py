"""Numbers in the README's prose, recomputed from the code.

Each test reads its numbers out of the README by the words around them and
recomputes them, to the precision the README prints: an edit to either the
text or the code that moves a number fails here.  A number the code no
longer gives is fixed in the README, never by widening a comparison.
"""

import csv
import re
import shlex
from pathlib import Path

from coherentpair import cli
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
