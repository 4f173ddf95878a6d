"""Drawn inputs of ``meanfield._core``, and a census of what a kernel makes of them.

The mixtures below are the ones the kernel's outcome test draws from: a =
rho / 4s^2 and x = 2 s |p| on both sides of every series switch of the
kernel, anywhere between, where exp(-a) turns subnormal and underflows to 0,
far beyond, and past the float range.  Each is defined once, as a
hypothesis strategy and a plain sampler of the same components (each branch
of a union equally likely), since hypothesis takes about 2 ms an example.
``draw`` takes a fixed-seed sample, and ``outcome`` names a kernel's result
on one input: finite, inf (some value +-inf, none nan), nan, or the
exception raised.  Run as a script it prints the counts of each for
``meanfield._core``:

    PYTHONPATH=src python tests/kernel_census.py [n] [seed]
"""

import math
import random
import sys
import time
from collections import Counter

from hypothesis import strategies as st

from coherentpair import meanfield


def floats(lo, hi, f=float):
    """f of a float uniform in [lo, hi], as (strategy, sampler)."""
    return st.floats(lo, hi).map(f), lambda rng: f(rng.uniform(lo, hi))


def just(v):
    return st.just(v), lambda rng: v


def one_of(*parts):
    return st.one_of(*(p[0] for p in parts)), lambda rng: rng.choice(parts)[1](rng)


def near(threshold):
    """Floats within a few ulps, or within a part in 1e6, of ``threshold``."""
    def ulps(k):
        return threshold * (1.0 + k * 2.0 ** -52)
    return one_of((st.integers(-4, 4).map(ulps), lambda rng: ulps(rng.randint(-4, 4))),
                  floats(threshold * (1.0 - 1e-6), threshold * (1.0 + 1e-6)))


def log_uniform(lo, hi):
    return floats(math.log(lo), math.log(hi), math.exp)


# inf stands for a finite rho with rho / 4s^2 = inf
Z2 = one_of(near(1e-6), near(1e-4), log_uniform(1e-12, 1e3), floats(700.0, 760.0),
            log_uniform(1e3, 1e300), just(0.0), just(math.inf))
X = one_of(near(1e-4), near(1e-3), near(8.0), near(100.0), log_uniform(1e-12, 1e200), just(0.0))
S = log_uniform(1e-150, 1e150)
SIGN = st.sampled_from([-1, 0, 1]), lambda rng: rng.choice([-1.0, 0.0, 1.0])
KAPPA = one_of((st.sampled_from([0.0, 1.0, -1.0]), lambda rng: rng.choice([0.0, 1.0, -1.0])),
               floats(-1e3, 1e3), log_uniform(1e-300, 1e300))


def kernel_args(z2, x, s, sign, kappa):
    """The kernel's (rho, pp, s, sign, kappa) for a = z2 and x = 2 s |p|."""
    rho = z2 * (4.0 * s * s)
    if z2 == math.inf:
        # 8 s^2 times the largest float: finite, with rho / 4 s^2 = inf, below s = 0.35
        rho = min(sys.float_info.max, 8.0 * s * s * sys.float_info.max)
    y = x / (2.0 * s)
    return rho, y * y, s, sign, kappa


def draw(n, draw_seed=0):
    """n kernel inputs from the mixtures above, the same ones for the same seed."""
    rng = random.Random(draw_seed)
    return [kernel_args(*(mix[1](rng) for mix in (Z2, X, S, SIGN, KAPPA))) for _ in range(n)]


def outcome(core, args):
    """'finite', 'inf' or 'nan' for what ``core(*args)`` returns, else the exception's name."""
    try:
        parts, de_drho, de_dpp = core(*args)
    except Exception as exc:  # the census counts every failure by its kind
        return type(exc).__name__
    values = (*(parts or ()), de_drho, de_dpp)
    if all(math.isfinite(v) for v in values):
        return "finite"
    return "nan" if any(math.isnan(v) for v in values) else "inf"


def main(argv):
    n = int(argv[0]) if argv else 30000
    draw_seed = int(argv[1]) if len(argv) > 1 else 0
    start = time.perf_counter()
    inputs = draw(n, draw_seed)
    counts = Counter(outcome(meanfield._core, args) for args in inputs)
    elapsed = time.perf_counter() - start
    kinds = ", ".join(f"{kind} {counts[kind]}" for kind in sorted(counts))
    print(f"- `meanfield._core` outcomes on {n} drawn inputs (seed {draw_seed}): "
          f"{kinds}; {elapsed:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
