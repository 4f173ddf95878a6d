"""Benchmark of the coherentpair CLI, one workload per run.

    python3 bench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

The items of a workload are generated from ``--seed`` (see workloads.py)
and driven through ``coherentpair.cli.main(argv)`` in this process, one at
a time: a closed loop with one caller, ``--jobs 1`` and BLAS/OpenMP threads
capped at ``nproc``.  Every item's outputs are checked (checks.py).

``--trace 0`` times whole passes over the items for about ``--seconds``
(at least two passes) and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass over the same items,
requires identical outputs from both, and reports the per-layer metrics of
the traced pass (tracer.py).  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

DEFAULT_SEED = 1
SETUP_REPS = 7
MIN_PASSES = 2
# no new pass is started after this many seconds, even below MIN_PASSES,
# so that a much slower program still finishes well inside three minutes
PASS_DEADLINE_S = 90.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "units/s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "fail_ratio": "1",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "meanfield.core_rhs.calls": "calls",
    "meanfield.core_rhs.self_s": "s",
    "meanfield.core_energy.calls": "calls",
    "meanfield.core_energy.self_s": "s",
    "numerics.erf.calls": "calls",
    "numerics.erf.self_s": "s",
    "numerics.dawson.calls": "calls",
    "numerics.dawson.self_s": "s",
    "numerics.dawson.series_share": "1",
    "numerics.rk4_step.calls": "calls",
    "numerics.rk4_step.self_s": "s",
    "dynamics.rk4_steps": "steps",
    "dynamics.integrate.calls": "calls",
    "dynamics.integrate.self_s": "s",
    "dynamics.steps_per_point.p50": "steps",
    "dynamics.steps_per_point.max": "steps",
    "dynamics.traveltime.self_s": "s",
    "dynamics.classify.self_s": "s",
    "dynamics.sweep_traveltime.self_s": "s",
    "dynamics.classical_traveltime.self_s": "s",
    "numerics.integrate_1d.calls": "calls",
    "numerics.integrate_1d.nodes": "nodes",
    "numerics.integrate_1d.self_s": "s",
    "observables.quadrupole_timeseries.self_s": "s",
    "observables.tensor_from_params.calls": "calls",
    "observables.tensor_from_params.self_s": "s",
    "observables.detect.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "observables.density_grid.self_s": "s",
    "observables.density_grid.cells": "cells",
    "pairstate.density_from_params.calls": "calls",
    "pairstate.density_from_params.self_s": "s",
    "pairstate.overlap_from_params.calls": "calls",
    "oracle.coulomb_combo.calls": "calls",
    "oracle.coulomb_combo.self_s": "s",
    "oracle.nodes": "nodes",
    "numerics.gauss_legendre.calls": "calls",
    **{
        f"oracle.family.{f}.self_s": "s"
        for f in ("overlap", "coulomb", "kinetic", "moments", "spreading", "packet_kinetic")
    },
    "oracle.gate_failures": "count",
    "trace.overhead": "1",
}

# work counts recorded in every run's provenance; they repeat exactly
WORK_COUNTS = (
    "dynamics.rk4_steps",
    "meanfield.core_rhs.calls",
    "oracle.nodes",
    "observables.density_grid.cells",
)

_SETUP_CODE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import coherentpair.cli as cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "print(json.dumps({'setup_s': time.perf_counter() - t0, 'rc': rc}))\n"
)


@dataclass
class Result:
    """One executed item: its latency, outcome and output fingerprint."""

    key: str
    elapsed: float
    work: int
    problems: list[str]
    bytes_out: int = 0
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Context:
    """What every item of a run shares."""

    workload: str
    workdir: Path
    cli_main: object
    checks: object
    references: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# running and checking one item
# ---------------------------------------------------------------------------

def _prepare(item, ctx: Context) -> tuple[list[str], list[Path]]:
    """argv and output paths of an item; stale outputs are removed first."""
    argv = list(item.args)
    if item.command == "validate":
        seeds = ctx.workdir / f"{item.key}.json"
        seeds.write_text(json.dumps(item.meta["seed_list"]))
        argv += ["--seed-list", str(seeds)]
        paths = []
    else:
        suffix = ".txt" if item.command == "density" else ".csv"
        out = ctx.workdir / f"{item.key}{suffix}"
        argv += ["--output", str(out)]
        paths = ctx.checks.output_paths(item, out)
    for path in paths:
        path.unlink(missing_ok=True)
    return argv, paths


def run_item(item, ctx: Context, main=None, fingerprint: bool = False) -> Result:
    """Run one item through ``main`` (default ``cli.main``) and check it."""
    main = main or ctx.cli_main
    argv, paths = _prepare(item, ctx)
    stdout, stderr = io.StringIO(), io.StringIO()
    crash = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed item, never the end of the run
        rc, crash = -1, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start

    text = stdout.getvalue()
    problems = [crash] if crash else ctx.checks.check(item, rc, paths, text)
    if rc != 0 and stderr.getvalue():
        problems.append(stderr.getvalue().strip())
    if not problems and item.key in ctx.references:
        problems = ctx.checks.compare(
            ctx.checks.digest(item, paths, text), ctx.references[item.key], item.key
        )
    existing = [p for p in paths if p.exists()]
    result = Result(
        item.key, elapsed, item.work, problems,
        len(text.encode()) + sum(p.stat().st_size for p in existing),
    )
    if fingerprint:
        h = hashlib.sha256(text.encode())
        for path in existing:
            h.update(path.read_bytes())
        result.fingerprint = h.hexdigest()
    return result


def run_pass(items, ctx: Context, main=None, fingerprint: bool = False) -> list[Result]:
    return [run_item(item, ctx, main, fingerprint) for item in items]


# ---------------------------------------------------------------------------
# set-up time, tracing and provenance
# ---------------------------------------------------------------------------

def measure_setup(ctx: Context) -> tuple[list[float], int]:
    """Fresh-interpreter import plus first tiny call, SETUP_REPS times.

    Returns the times of the calls that succeeded and the failure count.
    """
    argv = [a.replace("{out}", str(ctx.workdir)) for a in workloads.SETUP_ARGS[ctx.workload]]
    (ctx.workdir / "setup_seeds.json").write_text(json.dumps(workloads.SETUP_SEED_LIST))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, failures = [], 0
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        try:
            got = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            got = {"rc": None}
        if proc.returncode == 0 and got["rc"] == 0:
            times.append(got["setup_s"])
        else:
            failures += 1
            print(f"setup call failed: {proc.stderr.strip()[-400:]}", file=sys.stderr)
    return times, failures


def program_modules() -> dict:
    from coherentpair import cli, dynamics, meanfield, numerics, observables, oracle, pairstate

    return {
        "cli": cli, "dynamics": dynamics, "meanfield": meanfield, "numerics": numerics,
        "observables": observables, "oracle": oracle, "pairstate": pairstate,
    }


def traced_pass(items, ctx: Context, fingerprint: bool = False):
    """One pass with every wrapper installed; returns (results, tracer)."""
    import tracer as tracing

    tr = tracing.Tracer()
    main = tr.span("cli", ctx.cli_main)
    results = []
    with tracing.installed(tracing.program_patches(tr, program_modules())):
        for item in items:
            tr.item = item.key
            result = run_item(item, ctx, main, fingerprint)
            tr.count("cli.bytes_out", result.bytes_out)
            results.append(result)
    return results, tr


def layer_metrics(tr, overhead: float) -> dict[str, float]:
    """Every per-layer metric of LAYER_UNITS from one traced pass."""
    totals = tr.span_totals()
    steps = tr.samples.get("dynamics.steps_per_point", [])
    dawson_calls = totals.get("numerics.dawson", (0, 0.0))[0]
    special = {
        "dynamics.steps_per_point.p50": statistics.median(steps) if steps else 0,
        "dynamics.steps_per_point.max": max(steps) if steps else 0,
        "numerics.dawson.series_share": (
            tr.counts.get("numerics.dawson.series_calls", 0) / dawson_calls
            if dawson_calls else 0.0
        ),
        "trace.overhead": overhead,
    }
    out = {}
    for name in LAYER_UNITS:
        base, _, stat = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif stat == "calls":
            out[name] = totals.get(base, (0, 0.0))[0]
        elif stat == "self_s":
            out[name] = totals.get(base, (0, 0.0))[1]
        else:
            out[name] = tr.counts.get(name, 0)
    return out


def work_counts(tr) -> dict[str, int]:
    layers = layer_metrics(tr, 0.0)
    return {name: layers[name] for name in WORK_COUNTS}


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "coherentpair").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, load_start, counts: dict, scope: str) -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_counts": counts,
        "work_counts_scope": scope,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def tail_percentile(n_items: int) -> int:
    """Percentile reported as ``item_ms.tail`` for a pass of ``n_items``.

    The highest percentile with at least ten samples beyond it in the
    MIN_PASSES passes every run makes; where that would not lie above the
    75th, the 90th is used and the output states how few lie beyond it.
    """
    n = n_items * MIN_PASSES
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    return pct if pct >= 75 else 90


def end_to_end(items, setup_times, passes, failed, attempted) -> dict:
    """End-to-end metrics of a timed run, with the details printed beside them."""
    latencies = [r.elapsed * 1000.0 for p in passes for r in p]
    rates = [
        sum(r.work for r in p if r.ok) / sum(r.elapsed for r in p) for p in passes
    ]
    pct = tail_percentile(len(items))
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    beyond = sum(1 for v in latencies if v > tail)
    return {
        "setup_s": (
            statistics.median(setup_times), f"median of {len(setup_times)} fresh interpreters"
        ),
        "work_per_s": (
            statistics.median(rates),
            f"median of {len(rates)} passes: " + " ".join(f"{r:.5g}" for r in rates),
        ),
        "item_ms.p50": (statistics.median(latencies), f"n={len(latencies)}"),
        "item_ms.tail": (tail, f"p{pct}, n={len(latencies)}, {beyond} beyond"),
        "fail_ratio": (failed / attempted, f"{failed}/{attempted}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "ru_maxrss"),
    }


def timed_run(ctx: Context, items, seconds: float):
    """Set-up timing, one traced warm-up item, then whole timed passes."""
    setup_times, setup_failures = measure_setup(ctx)
    if not setup_times:
        raise RuntimeError("no fresh interpreter completed the set-up call")
    warm_item = min(items, key=lambda it: (it.work, it.key))
    warm, tr = traced_pass([warm_item], ctx)
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # a pass starts while more than half of it fits in ``seconds``
        half_pass = elapsed / len(passes) / 2 if passes else 0.0
        if len(passes) >= MIN_PASSES and elapsed + half_pass >= seconds:
            break
        if passes and elapsed >= PASS_DEADLINE_S:
            break
        passes.append(run_pass(items, ctx))
    results = warm + [r for p in passes for r in p]
    attempted = len(results) + len(setup_times) + setup_failures
    failed = sum(1 for r in results if not r.ok) + setup_failures
    metrics = end_to_end(items, setup_times, passes, failed, attempted)
    return metrics, results, attempted, failed, work_counts(tr), f"warm-up item {warm_item.key}"


def layer_run(ctx: Context, items, args):
    """An untraced and a traced pass over the same items; outputs must match."""
    run_item(min(items, key=lambda it: (it.work, it.key)), ctx)  # fills caches
    plain = run_pass(items, ctx, fingerprint=True)
    traced, tr = traced_pass(items, ctx, fingerprint=True)
    for a, b in zip(plain, traced):
        if a.fingerprint != b.fingerprint:
            b.problems.append("traced output differs from the untraced output")
    overhead = sum(r.elapsed for r in traced) / sum(r.elapsed for r in plain)
    metrics = layer_metrics(tr, overhead)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tr.write(trace_path, {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    results = plain + traced
    failed = sum(1 for r in results if not r.ok)
    return metrics, results, len(results), failed, work_counts(tr), f"traced pass ({trace_path.name})"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _declared_metrics() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_threads() -> None:
    """BLAS/OpenMP threads capped at nproc, before numpy is imported."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(os.cpu_count() or 1))


def load_program():
    """Import coherentpair from this checkout's src/, or raise ImportError."""
    if not (SRC / "coherentpair" / "cli.py").is_file():
        raise ImportError(f"no coherentpair source under {SRC}")
    sys.path.insert(0, str(SRC))
    import coherentpair.cli

    if Path(coherentpair.cli.__file__).resolve().parent != SRC / "coherentpair":
        raise ImportError(f"coherentpair imported from {coherentpair.cli.__file__}")
    return coherentpair.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    try:
        cli = load_program()
    except ImportError as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import checks

    load_start = list(os.getloadavg())
    declared = _declared_metrics()
    references = {}
    if args.seed == DEFAULT_SEED and REFERENCES.is_file():
        references = json.loads(REFERENCES.read_text())["items"]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    ctx = Context(args.workload, workdir, cli.main, checks, references)
    items = workloads.generate(args.workload, args.seed)
    try:
        if args.trace:
            metrics, results, attempted, failed, counts, scope = layer_run(ctx, items, args)
            units = LAYER_UNITS
            wanted = [m["name"] for m in declared["per_layer"]]
            shown = {k: (v, "") for k, v in metrics.items()}
        else:
            shown, results, attempted, failed, counts, scope = timed_run(ctx, items, args.seconds)
            units = END_TO_END_UNITS
            wanted = [m["name"] for m in declared["end_to_end"]]
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(items)} items per pass, "
          f"trace {args.trace}")
    work_name, work_unit = workloads.WORK_METRIC[args.workload]
    for name, (value, note) in shown.items():
        label, unit = name, units[name]
        if name == "work_per_s":
            label, unit = work_name, work_unit
        print(f"  {label:<44} {_fmt(value):>14} {unit:<8} {note}")
    for r in results:
        if not r.ok:
            print(f"  FAILED {r.key}: {'; '.join(r.problems)[:600]}")
    print("provenance " + json.dumps(provenance(args, load_start, counts, scope)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": shown[name][0], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
