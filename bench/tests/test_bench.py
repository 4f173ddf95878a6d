"""Self-tests of the benchmark; run with ``python3 -m pytest -q bench/tests``.

They sit outside ``tests/`` so that the Tier-1 run never collects them.
Program runs here use tiny hand-made items, so the whole file takes
seconds rather than a benchmark's minutes.
"""

from __future__ import annotations

import io
import json
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads
from coherentpair import cli

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_items(workload: str) -> list[workloads.Item]:
    """One small item of the workload's kind, with the meta its checks read."""
    if workload == "trajectory":
        return [
            workloads.Item("t-sim", "simulate", (
                "simulate", "--pz", "-0.5", "--dt", "0.1", "--t-max", "3.0", "--frozen-width",
            ), 31, {"rows": 31, "frozen": True}),
            workloads.Item("t-quad", "quadrupole", (
                "quadrupole", "--pz", "-0.5", "--dt", "0.1", "--t-max", "3.0",
            ), 31, {"rows": 31, "frozen": False}),
        ]
    if workload == "sweep":
        return [workloads.Item("s", "sweep-traveltime", (
            "sweep-traveltime", "--p-min", "0.8", "--p-max", "1.0", "--steps", "2",
            "--horizon-factor", "1.5", "--jobs", "1",
        ), 2, {"p_min": 0.8, "p_max": 1.0, "steps": 2})]
    if workload == "oracle":
        seeds = {"overlap": [11], "coulomb": [], "kinetic": [12], "moments": []}
        return [workloads.Item("o", "validate", ("validate",), 10,
                               {"seed_list": seeds, "reports": 10})]
    return [workloads.Item("d", "density", (
        "density", "--pz", "-0.5", "--dt", "0.1", "--n", "16", "--extent", "10",
        "--times", "0.5", "1.0",
    ), 512, {"n": 16, "times": [0.5, 1.0], "extent": 10.0})]


def run_main(monkeypatch, argv, items, program=None) -> tuple[list[str], dict]:
    monkeypatch.setattr(run.workloads, "generate", lambda workload, seed: items)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    if program is not None:
        monkeypatch.setattr(run, "load_program", lambda: program)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for seed in (1, 2, 97):
        first = workloads.generate(workload, seed)
        again = workloads.generate(workload, seed)
        assert [(i.key, i.args, i.work, i.meta) for i in first] == [
            (i.key, i.args, i.work, i.meta) for i in again
        ]
    one = {i.key: (i.args, i.meta) for i in workloads.generate(workload, 1)}
    two = {i.key: (i.args, i.meta) for i in workloads.generate(workload, 2)}
    assert one.keys() == two.keys()
    assert all(one[key] != two[key] for key in one)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_argv_parses(workload):
    parser = cli.build_parser()
    for item in workloads.generate(workload, 5):
        extra = ["--seed-list", "x.json"] if item.command == "validate" else ["--output", "x"]
        args = parser.parse_args(list(item.args) + extra)
        assert args.command == item.command


def test_trajectory_design_covers_the_stated_ranges():
    items = workloads.generate("trajectory", 3)
    steps = [i.meta["rows"] - 1 for i in items]
    pz = [abs(float(i.args[i.args.index("--pz") + 1])) for i in items]
    assert 1000 <= min(steps) and max(steps) < 4000
    assert min(pz) < 0.2 and max(pz) > 0.8
    assert {i.command for i in items} == {"simulate", "quadrupole"}
    assert any(i.meta["frozen"] for i in items) and not all(i.meta["frozen"] for i in items)


# ---------------------------------------------------------------------------
# metrics and units
# ---------------------------------------------------------------------------

def test_declared_metrics_have_the_runner_units():
    for metric in DECLARED["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    for metric in DECLARED["per_layer"]:
        assert run.LAYER_UNITS[metric["name"]] == metric["unit"]
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(monkeypatch, workload, trace):
    _, result = run_main(
        monkeypatch,
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        tiny_items(workload),
    )
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_trace_run_reports_every_layer_metric(monkeypatch):
    lines, _ = run_main(
        monkeypatch, ["--workload", "trajectory", "--seed", "3", "--seconds", "0", "--trace", "1"],
        tiny_items("trajectory"),
    )
    shown = {line.split()[0] for line in lines if line.startswith("  ")}
    assert set(run.LAYER_UNITS) <= shown
    prov = json.loads(next(l for l in lines if l.startswith("provenance "))[len("provenance "):])
    assert set(prov["work_counts"]) == set(run.WORK_COUNTS)
    assert prov["work_counts"]["dynamics.rk4_steps"] == 60
    assert prov["work_counts"]["meanfield.core_rhs.calls"] == 4 * 60


# ---------------------------------------------------------------------------
# failures are counted, never fatal
# ---------------------------------------------------------------------------

def test_corrupted_output_counts_in_fail_ratio(monkeypatch):
    def corrupting_main(argv):
        rc = cli.main(argv)
        out = Path(argv[argv.index("--output") + 1])
        out.write_text(out.read_text().replace("verdict", "verdikt", 1))
        return rc

    items = tiny_items("trajectory")
    lines, result = run_main(
        monkeypatch, ["--workload", "trajectory", "--seconds", "0", "--trace", "0"],
        items, program=types.SimpleNamespace(main=corrupting_main),
    )
    # the quadrupole item fails on every run (warm-up or timed), the
    # simulate item never does, and the run goes on to the end
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    ratio = next(l for l in lines if l.split()[:1] == ["fail_ratio"])
    assert float(ratio.split()[1]) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)
    assert any("FAILED t-quad" in l and "header" in l for l in lines)
    assert not any("FAILED t-sim" in l for l in lines)


def test_crashing_item_is_a_failure_not_an_abort(tmp_path):
    def crashing_main(argv):
        raise RuntimeError("boom")

    ctx = run.Context("trajectory", tmp_path, crashing_main, checks)
    result = run.run_item(tiny_items("trajectory")[0], ctx)
    assert not result.ok and "boom" in result.problems[0]


def test_reference_mismatch_is_a_failure(tmp_path):
    item = tiny_items("sweep")[0]
    ctx = run.Context("sweep", tmp_path, cli.main, checks, {item.key: []})
    assert not run.run_item(item, ctx).ok
    ctx.references = {}
    assert run.run_item(item, ctx).ok


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        tracer.Span(0, "a", 0.0, 10.0, None, "i", leaf_s=1.0),
        tracer.Span(1, "b", 1.0, 4.0, 0, "i", leaf_s=0.5),
        tracer.Span(2, "c", 3.0, 6.0, 0, "i"),  # overlaps b
        tracer.Span(3, "d", 8.0, 12.0, 0, "i"),  # runs past a's end
        tracer.Span(4, "e", 2.0, 3.0, 1, "i"),
    ]
    selfs = tracer.self_times(spans)
    # a: 10 - |[1, 6] u [8, 10]| - 1 = 2;  b: 3 - 1 - 0.5 = 1.5
    assert selfs == {0: 2.0, 1: 1.5, 2: 3.0, 3: 4.0, 4: 1.0}


def test_tracer_nesting_with_a_scripted_clock():
    ticks = iter([0.0, 0.0, 1.0, 2.0, 4.0, 7.0, 10.0])
    tr = tracer.Tracer(clock=lambda: next(ticks))
    inner = tr.leaf("l2", lambda: None)
    middle = tr.leaf("l1", lambda: inner())
    outer = tr.span("s", lambda: middle())
    outer()
    # s: 0..10 with l1 (1..7) directly under it; l1 holds l2 (2..4)
    assert tr.span_totals() == {"s": (1, 4.0), "l1": (1, 4.0), "l2": (1, 2.0)}
    assert tr.spans[0].leaf_s == 6.0


def test_wrappers_are_removed_after_tracing(tmp_path):
    modules = run.program_modules()
    patches = tracer.program_patches(tracer.Tracer(), modules)
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in patches}
    ctx = run.Context("", tmp_path, cli.main, checks)
    for workload in workloads.WORKLOADS:
        results, tr = run.traced_pass(tiny_items(workload), ctx)
        assert all(r.ok for r in results)
        assert tr.spans
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"

    with pytest.raises(RuntimeError):
        with tracer.installed(patches):
            assert modules["dynamics"]._core is not before[(modules["dynamics"], "_core")]
            raise RuntimeError("inside the traced block")
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original


def test_traced_outputs_match_untraced(tmp_path):
    ctx = run.Context("", tmp_path, cli.main, checks)
    for workload in workloads.WORKLOADS:
        items = tiny_items(workload)
        plain = run.run_pass(items, ctx, fingerprint=True)
        traced, _ = run.traced_pass(items, ctx, fingerprint=True)
        assert [r.fingerprint for r in plain] == [r.fingerprint for r in traced]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def test_classical_return_time_closed_form():
    # k -> 0 is free motion; for k > 0 compare with a fine midpoint rule
    assert checks.classical_return_time(10.0, 0.5, 0.0) == pytest.approx(20.0)
    d0, p, k = 10.0, 0.3, 1.0
    energy = p * p + k / d0
    d_min = k / energy
    n = 200_000
    h = (d0 - d_min) ** 0.5 / n
    total = 0.0
    for j in range(n):  # d = d_min + u^2 removes the turning-point singularity
        u = (j + 0.5) * h
        d = d_min + u * u
        total += 2.0 * u * d ** 0.5 / (energy * d - k) ** 0.5 * h
    assert checks.classical_return_time(d0, p, k) == pytest.approx(total, rel=1e-8)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(20) == 75
    assert run.tail_percentile(24) == 79
    assert run.tail_percentile(4) == 90
