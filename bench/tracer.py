"""In-memory span tracer for the benchmark's traced run.

Wrappers are installed on the module attributes the program's callers
look up (``dynamics._core`` for the RHS, ``meanfield._core`` for energies,
...) and removed again when the traced pass ends; no program file changes.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and item id;
* a *leaf* (hot functions such as ``erf``, ``dawson`` and ``_core``) is only
  aggregated, as calls and self time, into the span that encloses it.

Leaves may nest in leaves but never enclose a span.  A span's self time is
its duration minus the time its child spans cover and minus the time spent
in leaves directly under it; a leaf's self time is its duration minus the
wrapped calls nested in it.  Spans stay in memory and are written out once,
at the end, by ``write``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    leaf_s: float = 0.0  # time in leaf calls directly under this span
    leaves: dict = field(default_factory=dict)  # leaf name -> [calls, self_s]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus child-span cover and leaf time.

    Child intervals are clipped to the parent and merged, so overlapping or
    out-of-range children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered - s.leaf_s
    return out


class Tracer:
    """Collects spans, leaf aggregates, counters and samples for one pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[int]] = {}
        self.item: str | None = None
        self._frames: list[list] = []  # [start, nested_s, span or None]
        self._open: list[Span] = []
        self._root = Span(-1, "(root)", 0.0, 0.0, None, None)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: int) -> None:
        self.samples.setdefault(name, []).append(value)

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self._open)

    def span(self, name: str, fn, after=None, before=None):
        """Wrap ``fn`` so each call records a span.

        ``before(args, kwargs)`` may return replacement arguments;
        ``after(result)`` sees the return value (for work counters).
        """
        frames, open_spans, clock = self._frames, self._open, self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = open_spans[-1].id if open_spans else None
            sp = Span(len(self.spans), name, 0.0, 0.0, parent, self.item)
            self.spans.append(sp)
            frame = [clock(), 0.0, sp]
            sp.start = frame[0]
            frames.append(frame)
            open_spans.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                open_spans.pop()
                frames.pop()
                if frames:
                    frames[-1][1] += sp.end - sp.start
            if after is not None:
                after(result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot ``fn``: calls and self time go to the enclosing span."""
        frames, open_spans, clock, root = self._frames, self._open, self.clock, self._root

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0, None]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                frames.pop()
                if frames:
                    parent = frames[-1]
                    parent[1] += dur
                    if parent[2] is not None:
                        parent[2].leaf_s += dur
                owner = open_spans[-1] if open_spans else root
                agg = owner.leaves.get(name)
                if agg is None:
                    agg = owner.leaves[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[1]

        return wrapper

    def counter(self, name: str, fn, predicate=None):
        """Wrap ``fn`` to count calls (optionally only where ``predicate(*args)``)."""

        def wrapper(*args, **kwargs):
            if predicate is None or predicate(*args):
                self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries ---------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self_s) over spans and leaves alike."""
        selfs = self_times(self.spans)
        out: dict[str, list] = {}
        for s in self.spans + [self._root]:
            if s.id >= 0:
                acc = out.setdefault(s.name, [0, 0.0])
                acc[0] += 1
                acc[1] += selfs[s.id]
            for name, (calls, self_s) in s.leaves.items():
                acc = out.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: Path, extra: dict) -> None:
        """Write every span, with its self time and leaf aggregates, as JSON."""
        selfs = self_times(self.spans)
        spans = [
            {
                "id": s.id, "name": s.name, "item": s.item, "parent": s.parent,
                "start_s": s.start - self.origin, "end_s": s.end - self.origin,
                "self_s": selfs[s.id],
                "leaves": {k: {"calls": c, "self_s": t} for k, (c, t) in s.leaves.items()},
            }
            for s in self.spans
        ]
        doc = dict(extra, counts=self.counts, samples=self.samples, spans=spans)
        path.write_text(json.dumps(doc) + "\n")


@contextmanager
def installed(patches):
    """Set each ``(owner, attr, wrapper)`` for the duration of the block.

    Every original attribute is put back on exit, also when the block
    raises, in the reverse order of installation.
    """
    originals = []
    try:
        for owner, attr, wrapper in patches:
            originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def program_patches(tracer: Tracer, modules: dict) -> list[tuple]:
    """The wrappers of the traced run, keyed to the attributes callers use.

    ``modules`` maps short names (``dynamics``, ``numerics``, ...) to the
    imported program modules.  The ``cli`` span is opened by the runner
    around each ``cli.main`` call.
    """
    dyn = modules["dynamics"]
    mf = modules["meanfield"]
    num = modules["numerics"]
    obs = modules["observables"]
    pair = modules["pairstate"]
    orc = modules["oracle"]
    t = tracer

    def after_integrate(traj):
        steps = int(traj.t.size) - 1
        t.count("dynamics.rk4_steps", steps)
        if t.inside("dynamics.sweep_traveltime"):
            t.sample("dynamics.steps_per_point", steps)

    def before_integrate_1d(args, kwargs):
        f, rest = args[0], args[1:]
        return (t.counter("numerics.integrate_1d.nodes", f),) + rest, kwargs

    def after_density_grid(grid):
        t.count("observables.density_grid.cells", int(grid.size))

    def report_passes(report, _orig=orc.report_passes):
        t.count("oracle.nodes", int(report.nodes_used))
        passed = _orig(report)
        if not passed:
            t.count("oracle.gate_failures")
        return passed

    overlap = t.leaf("pairstate.overlap_from_params", pair.overlap_from_params)
    dawson = t.leaf(
        "numerics.dawson",
        t.counter("numerics.dawson.series_calls", num.dawson, lambda x: abs(x) <= 8.0),
    )
    patches = [
        (dyn, "_core", t.leaf("meanfield.core_rhs", dyn._core)),
        (mf, "_core", t.leaf("meanfield.core_energy", mf._core)),
        (num, "erf", t.leaf("numerics.erf", num.erf)),
        (num, "dawson", dawson),
        (num, "rk4_step", t.leaf("numerics.rk4_step", num.rk4_step)),
        (num, "integrate_1d",
         t.span("numerics.integrate_1d", num.integrate_1d, before=before_integrate_1d)),
        (dyn, "integrate", t.span("dynamics.integrate", dyn.integrate, after=after_integrate)),
        (dyn, "traveltime", t.span("dynamics.traveltime", dyn.traveltime)),
        (dyn, "classify", t.span("dynamics.classify", dyn.classify)),
        (dyn, "sweep_traveltime", t.span("dynamics.sweep_traveltime", dyn.sweep_traveltime)),
        (dyn, "classical_traveltime",
         t.span("dynamics.classical_traveltime", dyn.classical_traveltime)),
        (obs, "quadrupole_timeseries",
         t.span("observables.quadrupole_timeseries", obs.quadrupole_timeseries)),
        (obs, "tensor_from_params", t.leaf("observables.tensor_from_params", obs.tensor_from_params)),
        (obs, "detect", t.span("observables.detect", obs.detect)),
        (obs, "density_grid",
         t.span("observables.density_grid", obs.density_grid, after=after_density_grid)),
        (obs, "density_from_params", t.leaf("pairstate.density_from_params", obs.density_from_params)),
        (dyn, "overlap_from_params", overlap),
        (mf, "overlap_from_params", overlap),
        (obs, "overlap_from_params", overlap),
        (pair, "overlap_from_params", overlap),
        (orc._Engine, "coulomb_combo", t.span("oracle.coulomb_combo", orc._Engine.coulomb_combo)),
        (orc, "gauss_legendre", t.leaf("numerics.gauss_legendre", orc.gauss_legendre)),
        (orc, "report_passes", report_passes),
    ]
    for family in ("overlap", "coulomb", "kinetic", "moments", "spreading", "packet_kinetic"):
        fn_name = f"oracle_{family}"
        patches.append(
            (orc, fn_name, t.span(f"oracle.family.{family}", getattr(orc, fn_name)))
        )
    return patches
