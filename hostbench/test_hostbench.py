"""Tests of the benchmark itself: tracer arithmetic, patching, reproducibility.

Run from the repository root: ``python3 -m pytest hostbench`` (a few
minutes: the reproducibility tests run every workload).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import WALL_BOUNDARIES, Boundary, Tracer

#: Never used while the benchmark was written; checks it generalises.
HELD_OUT_SEED = 90210
#: The set-up boundaries' self time is outside the traced ``wall_s``.
SETUP_SELF = ("workload.trace_build.self_s", "perf.profile_build.self_s")
#: Two hash seeds under which sets of pool names iterate in different
#: orders, so the repeat test also catches results that depend on it.
HASH_SEEDS = ("1", "2")


def _run(*args: str, cwd: str = run.ROOT, hash_seed: str = "") -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed} if hash_seed else None
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "hostbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )


def _declared(kind: str) -> set:
    """Metric names BENCHMARK.json declares under ``kind``."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


def _result(*args: str, hash_seed: str = "") -> dict:
    completed = _run(*args, hash_seed=hash_seed)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(
        (Boundary("a", ()), Boundary("b", ()), Boundary("c", (), leaf=True)),
        clock=lambda: next(ticks),
    )
    tracer.enter(0, False)  # a: 0 .. 10
    tracer.enter(1, False)  # b: 1 .. 5
    tracer.enter(2, True)  # c (leaf under b): 2 .. 4
    tracer.exit()
    tracer.exit()
    tracer.enter(2, True)  # c (leaf under a): 6 .. 7
    tracer.exit()
    tracer.exit()

    assert tracer.totals() == {"a": (1, 5.0), "b": (1, 2.0), "c": (2, 3.0)}
    assert tracer.self_total() == 10.0  # self times tile the root span
    assert tracer.spans == [(1, 0, 0, 1, 1.0, 5.0), (0, -1, 0, 0, 0.0, 10.0)]
    assert tracer.leaves == {(1, 2): [1, 2.0, 2.0], (0, 2): [1, 1.0, 1.0]}


def _sites():
    """Every binding a wall tracer may patch, as (owner, name) -> object."""
    import repro.api.observers as observers
    from tracer import _repro_modules, _subclasses

    sites = {}
    for module in _repro_modules():
        for name, value in vars(module).items():
            sites[(module.__name__, name)] = value
    classes = [observers.Observer, *_subclasses(observers.Observer)]
    for boundary in WALL_BOUNDARIES:
        for target in boundary.targets:
            module_name, qualname = target.split(":")
            if "." in qualname:
                module = sys.modules[module_name]
                classes.append(getattr(module, qualname.split(".")[0]))
    for cls in classes:
        for name, value in vars(cls).items():
            sites[(cls, name)] = value
    return sites


def test_patched_import_sites_count_once_and_unpatch_restores():
    import repro.core.pool_manager as pool_manager
    import repro.experiments.fluid as fluid
    import repro.metrics.latency as latency
    from repro.llm.catalog import LLAMA2_70B
    from repro.perf.profiler import get_default_profile
    from repro.workload.request import Request

    profile = get_default_profile(LLAMA2_70B)
    request = Request(arrival_time=0.0, input_tokens=500, output_tokens=200)
    before = _sites()
    tracer = Tracer(WALL_BOUNDARIES)
    with tracer.installed():
        assert pool_manager.plan_sharding is fluid.plan_sharding
        assert pool_manager.plan_sharding is not before[("repro.core.optimizer", "plan_sharding")]
        pool_manager.plan_sharding(profile, "MM", 16, 1000.0)
        assert tracer.totals()["core.plan_sharding"][0] == 1
        fluid.plan_sharding(profile, "MM", 16, 1000.0)
        assert tracer.totals()["core.plan_sharding"][0] == 2
        # classify_request calls classify_length inside the workload
        # layer; only the call from metrics.latency is counted.
        latency.classify_request(request)
        assert tracer.totals()["workload.classify"][0] == 1
    after = _sites()
    assert after.keys() == before.keys()
    changed = [site for site, value in before.items() if after[site] is not value]
    assert changed == []


def test_step_clock_keeps_each_chunks_fastest_time_and_restores_the_steps():
    from repro.api.engine import SimulationEngine
    from repro.api.fluid_engine import FluidEngine

    originals = (SimulationEngine.step, FluidEngine.step)
    inputs = workloads.setup("fluid_week_sweep", 2)
    log = run.PassLog()
    clock = run.StepClock()
    with clock.installed():
        walls = [run.timed_pass(inputs, log, f"pass{i}", clock) for i in range(2)]
    assert (SimulationEngine.step, FluidEngine.step) == originals
    assert log.failed == 0
    # 12 scenarios of 144 bins; each engine runs one final step that ends it.
    assert len(clock.fastest) == 12 * 145 + 1
    assert 0.0 < clock.total() <= min(walls)


# ----------------------------------------------------------------------
# Reproducibility and correctness of whole runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tracing_does_not_change_results(workload):
    inputs = workloads.setup(workload, 2)
    untraced = [r.result() for r in workloads.run_pass(inputs)]
    with Tracer(WALL_BOUNDARIES).installed():
        traced = [r.result() for r in workloads.run_pass(inputs)]
    assert None not in untraced
    assert traced == untraced


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_and_accounts_for_its_wall_time(workload):
    result = _result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _declared("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    wall_self = sum(v for n, v in metrics.items() if n.endswith(".self_s") and n not in SETUP_SELF)
    assert wall_self + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert metrics["trace.unattributed_s"] >= 0.0


@pytest.mark.parametrize("workload", [
    "event_peak_hour",
    "event_policy_sweep",
    pytest.param("fluid_week_sweep", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="FluidRunner.steps sums pool power over a set of pool names, so "
               "result.energy_kwh depends on the interpreter's hash seed")),
])
def test_same_seed_traced_runs_repeat_exactly(workload):
    first, second = (
        _result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", hash_seed=hash_seed)
        for hash_seed in HASH_SEEDS
    )
    exact = [
        name for name in first["metrics"]
        if name.startswith("result.") or name.endswith((".calls", "_built", "_ratio"))
        or name.startswith("api.scenarios.")
    ]
    assert len(exact) > 20
    differing = [name for name in exact if first["metrics"][name] != second["metrics"][name]]
    assert differing == []


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_held_out_seed_has_no_failures(workload):
    result = _result("--workload", workload, "--seed", str(HELD_OUT_SEED), "--seconds", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "hostbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _run("--workload", "event_peak_hour", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
