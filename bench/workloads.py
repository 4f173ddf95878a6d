"""Seeded workload generators for the benchmark.

Each workload is a fixed stratified design: item ``i`` of a pass always
draws every parameter from the same slice of its range, and the seed picks
the value inside that slice and the order in which the items run.  Seeds
therefore change every input the program sees but not the mix of work in a
pass, which keeps throughput comparable from seed to seed.

The program only ever receives the generated argv (plus ``--output`` or
``--seed-list`` paths filled in by the runner).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("trajectory", "sweep", "oracle", "density")

# what one unit of work is, per workload, and the name it is reported under
WORK_METRIC = {
    "trajectory": ("samples_per_s", "rows/s"),
    "sweep": ("points_per_s", "points/s"),
    "oracle": ("checks_per_s", "reports/s"),
    "density": ("cells_per_s", "cells/s"),
}


@dataclass(frozen=True)
class Item:
    """One CLI call: ``key`` names its slot in the design, ``args`` its argv."""

    key: str
    command: str
    args: tuple[str, ...]
    work: int
    meta: dict = field(default_factory=dict, compare=False, hash=False)


def _num(x: float) -> str:
    # repr round-trips, so the CLI parses back exactly the float drawn here
    return repr(float(x))


def _slice(rng: random.Random, rank: int, count: int, lo: float, hi: float) -> float:
    """A value inside the ``rank``-th of ``count`` equal slices of [lo, hi)."""
    return lo + (hi - lo) * (rank + rng.random()) / count


def _trajectory(rng: random.Random) -> list[Item]:
    """20 simulate/quadrupole calls of 1000-4000 RK4 steps."""
    k = 20
    items = []
    for i in range(k):
        command = ("simulate", "quadrupole")[i % 2]
        spin = ("antiparallel", "parallel")[(i // 2) % 2]
        frozen = (i // 4) % 2 == 1
        steps = int(_slice(rng, (7 * i + 3) % k, k, 1000, 4000))
        p_rank = (11 * i + 5) % k
        if p_rank < 5:  # a quarter of the items sit in the stall window
            pz = _slice(rng, p_rank, 5, 0.12, 0.2)
        else:
            pz = _slice(rng, p_rank - 5, k - 5, 0.2, 1.0)
        dt = _slice(rng, (3 * i + 7) % k, k, 0.05, 0.1)
        args = [
            command, "--sigma", "1", "--r0", "5", "--pz", _num(-pz),
            "--spin", spin, "--dt", _num(dt), "--t-max", _num(steps * dt),
        ]
        if frozen:
            args.append("--frozen-width")
        items.append(
            Item(f"trajectory-{i:02d}", command, tuple(args), steps + 1,
                 {"rows": steps + 1, "frozen": frozen})
        )
    return items


def _sweep(rng: random.Random) -> list[Item]:
    """4 sweep-traveltime grids of 16-32 points: a half fraction of
    spin x width x horizon factor, so each level appears twice.

    Grid sizes are fixed per row and the momentum window only shifts by a
    few hundredths: how many points stall until the horizon (400 x the
    horizon factor RK4 steps, against ~550 for a point that returns)
    dominates a grid's cost, and wide windows would make it seed-dependent.
    """
    design = (
        # spin, frozen width, horizon factor, points, lowest p_min, p_max - p_min
        ("antiparallel", False, 2.5, 27, 0.10, 0.20),
        ("antiparallel", True, 10.0, 16, 0.20, 0.40),
        ("parallel", False, 10.0, 32, 0.12, 0.30),
        ("parallel", True, 2.5, 21, 0.30, 0.50),
    )
    items = []
    for i, (spin, frozen, horizon, steps, low, width) in enumerate(design):
        p_min = low + 0.02 * rng.random()
        p_max = p_min + width + 0.04 * rng.random()
        args = [
            "sweep-traveltime", "--sigma", "1", "--r0", "5", "--spin", spin,
            "--p-min", _num(p_min), "--p-max", _num(p_max), "--steps", str(steps),
            "--horizon-factor", _num(horizon), "--jobs", "1",
        ]
        if frozen:
            args.append("--frozen-width")
        items.append(
            Item(f"sweep-{i:02d}", "sweep-traveltime", tuple(args), steps,
                 {"p_min": p_min, "p_max": p_max, "steps": steps})
        )
    return items


# reports per seed of each oracle family, and the fixed reports every
# validate run adds (3 spreading rates, 2 packet kinetics, 1 anchor)
_ORACLE_REPORTS = {"overlap": 1, "coulomb": 2, "kinetic": 3, "moments": 5}
_ORACLE_FIXED_REPORTS = 6


def _oracle(rng: random.Random) -> list[Item]:
    """24 validate calls, each on its own generated seed list."""
    k = 24
    items = []
    for i in range(k):
        counts = {
            "overlap": 2 + (5 * i) % 7,
            "coulomb": i % 3,
            "kinetic": 1 + (i // 3) % 4,
            "moments": 1 + (7 * i + 2) % 4,
        }
        seeds = {
            family: [rng.randrange(1, 2 ** 31) for _ in range(n)]
            for family, n in counts.items()
        }
        reports = _ORACLE_FIXED_REPORTS + sum(
            _ORACLE_REPORTS[f] * n for f, n in counts.items()
        )
        items.append(
            Item(f"oracle-{i:02d}", "validate", ("validate",), reports,
                 {"seed_list": seeds, "reports": reports})
        )
    return items


def _density(rng: random.Random) -> list[Item]:
    """6 density calls: all three planes, n = 128-256, 2-4 positive times."""
    k = 6
    items = []
    for i in range(k):
        plane = ("xz", "xy", "yz")[i % 3]
        spin = ("antiparallel", "parallel")[i % 2]
        frozen = i >= 3
        n = int(_slice(rng, (5 * i + 1) % k, k, 128, 257))
        n_times = 2 + (i // 2) % 3
        horizon = _slice(rng, (i + 2) % k, k, 5.0, 20.0)
        times = [horizon * (j + 0.05 + 0.95 * rng.random()) / n_times for j in range(n_times)]
        times = sorted(round(t, 6) for t in times)
        pz = _slice(rng, (i + 3) % k, k, 0.12, 1.0)
        dt = _slice(rng, (i + 4) % k, k, 0.02, 0.1)
        extent = _slice(rng, (5 * i + 3) % k, k, 8.0, 40.0)
        args = [
            "density", "--sigma", "1", "--r0", "5", "--pz", _num(-pz),
            "--spin", spin, "--dt", _num(dt), "--plane", plane,
            "--extent", _num(extent), "--n", str(n),
            "--times", *(_num(t) for t in times),
        ]
        if frozen:
            args.append("--frozen-width")
        items.append(
            Item(f"density-{i:02d}", "density", tuple(args), n * n * n_times,
                 {"n": n, "times": times, "extent": extent})
        )
    return items


_GENERATORS = {
    "trajectory": _trajectory,
    "sweep": _sweep,
    "oracle": _oracle,
    "density": _density,
}

# the first, tiny call a fresh interpreter makes when ``setup_s`` is timed;
# "{out}" is replaced by a path inside the run's work directory
SETUP_ARGS = {
    "trajectory": ["simulate", "--dt", "0.1", "--t-max", "0.2", "--output", "{out}/setup.csv"],
    "sweep": [
        "sweep-traveltime", "--p-min", "0.5", "--p-max", "0.5", "--steps", "1",
        "--dt", "0.1", "--t-max", "0.5", "--output", "{out}/setup.csv",
    ],
    "oracle": ["validate", "--seed-list", "{out}/setup_seeds.json"],
    "density": [
        "density", "--dt", "0.05", "--n", "16", "--times", "0.1",
        "--output", "{out}/setup.txt",
    ],
}
SETUP_SEED_LIST = {"overlap": [], "coulomb": [], "kinetic": [], "moments": []}


def generate(workload: str, seed: int) -> list[Item]:
    """The items of one pass, in the order the seed gives them."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    items = _GENERATORS[workload](rng)
    rng.shuffle(items)
    return items
