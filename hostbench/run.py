"""Host-speed benchmark of the DynamoLLM simulator: one command per workload.

Usage (from the repository root)::

    python3 hostbench/run.py --workload event_peak_hour --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s`` — set-up time (``import repro``, the profile build and
  the trace builds) with each of those phases at its fastest over five
  set-ups: the measuring process's and four in fresh interpreters
  started at even intervals through the ``--seconds`` window;
* ``wall_s`` — the host time of one pass, from the first
  ``run_scenario``/``run_grid`` call until every summary has returned,
  with each engine step at its fastest: the clock is read as every
  engine step starts, which splits a pass into the same chunks on every
  pass, and ``wall_s`` adds up each chunk's fastest time over the passes
  that fit in the window after one warm-up pass;
* ``sim_requests_per_s`` — simulated requests of one pass / ``wall_s``;
* ``peak_rss_mb`` — peak resident memory of the process that ran it.

``--trace 1`` runs untraced passes, then one traced pass, and reports
per-layer call counts and self times (see CATALOGUE.md); it writes every
span to ``hostbench/out/<workload>-seed<seed>.spans.jsonl``.

Every scenario's summary is checked (conservation and range
invariants, and identical results on every pass).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` scenario runs, and ``metrics`` with a value and unit each.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("event_peak_hour", "event_policy_sweep", "fluid_week_sweep")
#: Set-up is timed in this many fresh interpreters besides the main one,
#: started at even intervals through the timed window.
SETUP_PROBES = 4
#: Fewest timed passes per untraced run, however long they take.
MIN_PASSES = 5
#: Untraced passes a traced run times as its baseline.
BASELINE_PASSES = 5
PROBE_TIMEOUT_S = 120


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"hostbench: no simulator source at {SRC}/repro")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def timed_setup(workload: str, seed: int):
    """Import the simulator and build the workload's inputs.

    Returns the inputs and the seconds each set-up phase took: the
    import, the profile build, then each trace build.
    """
    stamps = [time.perf_counter()]
    import workloads  # imports repro: part of set-up by definition

    stamps.append(time.perf_counter())
    inputs = workloads.setup(workload, seed, lap=lambda: stamps.append(time.perf_counter()))
    return inputs, [end - begin for begin, end in zip(stamps, stamps[1:])]


def probe_setup(workload: str, seed: int) -> List[float]:
    """Time set-up's phases in a fresh interpreter, where no import is cached."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_phases_s"]


class PassLog:
    """Checks every pass's scenarios and keeps the first pass's results."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[List[Optional[Tuple[float, ...]]]] = None
        self.lines: List[str] = []

    def record(self, runs, label: str) -> List[Optional[Tuple[float, ...]]]:
        results = [run.result() for run in runs]
        for position, run in enumerate(runs):
            self.attempted += 1
            problems = run.problems()
            if self.reference is not None and results[position] != self.reference[position]:
                problems.append("result differs from the first pass with the same seed")
            if problems:
                self.failed += 1
                self.lines.append(f"FAIL {label} {run.key}: " + "; ".join(problems))
            elif self.reference is None:
                self.lines.append(f"ok   {label} {run.key}")
        if self.reference is None:
            self.reference = results
        return results


class StepClock:
    """Reads the clock as each engine step starts, and keeps each chunk's fastest time.

    A pass is deterministic, so every pass makes the same engine steps in
    the same order, and the clock readings split every pass into the same
    chunks (about 1 ms each on the event backend, 0.2 ms on the fluid
    one).  Other tenants of the host slow a process down in bursts of
    milliseconds to seconds; a whole pass rarely misses all of them, but
    each chunk is likely to run clear of them on one pass or another.
    The sum of the chunks' fastest times is therefore much steadier
    from run to run than the fastest whole pass (see CATALOGUE.md).
    """

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.fastest = None  # numpy array: each chunk's fastest time so far

    @contextlib.contextmanager
    def installed(self):
        from repro.api.engine import SimulationEngine
        from repro.api.fluid_engine import FluidEngine

        originals = [(cls, cls.step) for cls in (SimulationEngine, FluidEngine)]
        stamp, clock = self.stamps.append, time.perf_counter
        for cls, step in originals:
            @functools.wraps(step)
            def stamped(engine, _step=step):
                stamp(clock())
                return _step(engine)

            cls.step = stamped
        try:
            yield self
        finally:
            for cls, step in originals:
                cls.step = step

    def start(self) -> None:
        self.stamps.clear()
        self.stamps.append(time.perf_counter())

    def stop(self) -> Optional[str]:
        """Close the pass; returns a problem if its chunks differ from earlier passes'."""
        import numpy as np

        self.stamps.append(time.perf_counter())
        chunks = np.diff(np.asarray(self.stamps))
        if self.fastest is None:
            self.fastest = chunks
        elif len(chunks) != len(self.fastest):
            return f"made {len(chunks) - 1} engine steps, the first timed pass {len(self.fastest) - 1}"
        else:
            np.minimum(self.fastest, chunks, out=self.fastest)
        return None

    def total(self) -> float:
        return float(self.fastest.sum())


def timed_pass(inputs, log: PassLog, label: str, clock: Optional[StepClock] = None) -> float:
    import workloads

    gc.collect()
    if clock is not None:
        clock.start()
    start = time.perf_counter()
    runs = workloads.run_pass(inputs)
    wall = time.perf_counter() - start
    problem = clock.stop() if clock is not None else None
    log.record(runs, label)
    if problem:
        log.failed += 1
        log.lines.append(f"FAIL {label}: {problem}")
    return wall


def measure(args, inputs, setup_samples: List[List[float]]) -> Tuple[PassLog, Dict[str, Tuple[float, str]], List[str]]:
    log = PassLog()
    timed_pass(inputs, log, "warm-up")
    walls: List[float] = []
    clock = StepClock()
    start = time.perf_counter()
    deadline = start + args.seconds
    probe_at = [start + (i + 0.5) * args.seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
    with clock.installed():
        while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
            if probe_at and time.perf_counter() >= probe_at[0]:
                probe_at.pop(0)
                setup_samples.append(probe_setup(args.workload, args.seed))
            else:
                walls.append(timed_pass(inputs, log, f"pass{len(walls) + 1}", clock))
    # Contention from other tenants only ever adds time, so each chunk's
    # fastest time is the closest to the program's own.
    wall = clock.total()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each set-up phase at its fastest, for the same reason as wall_s.
    setup_s = sum(min(phase) for phase in zip(*setup_samples))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "sim_requests_per_s": (inputs.requests_per_pass / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"set-ups: {len(setup_samples)} ({', '.join(f'{sum(s):.3f}' for s in setup_samples)} s), "
        f"median {statistics.median(sum(s) for s in setup_samples):.3f} s",
        f"timed passes: {len(walls)} ({', '.join(f'{w:.3f}' for w in walls)} s), "
        f"{len(clock.fastest)} chunks each",
        f"simulated requests per pass: {inputs.requests_per_pass}",
    ]
    return log, metrics, notes


def measure_traced(args) -> Tuple[PassLog, Dict[str, Tuple[float, str]], List[str]]:
    import workloads  # not timed: a traced run reports no set-up time
    from tracer import SETUP_BOUNDARIES, WALL_BOUNDARIES, Tracer

    setup_tracer = Tracer(SETUP_BOUNDARIES)
    with setup_tracer.installed():
        inputs = workloads.setup(args.workload, args.seed)

    log = PassLog()
    timed_pass(inputs, log, "warm-up")
    untraced = min(timed_pass(inputs, log, f"pass{i + 1}") for i in range(BASELINE_PASSES))

    tracer = Tracer(WALL_BOUNDARIES)
    gc.collect()
    with tracer.installed():
        start = time.perf_counter()
        runs = workloads.run_pass(inputs)
        traced_wall = time.perf_counter() - start
    failed_before = log.failed
    results = log.record(runs, "traced")
    traced_failed = log.failed - failed_before

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
    with open(spans_path, "w") as handle:
        setup_tracer.write(handle, "setup")
        tracer.write(handle, "wall")

    metrics = layer_metrics(setup_tracer, tracer, traced_wall, untraced, len(runs), traced_failed)
    units = {"energy_kwh": "kWh", "gpu_hours": "h", "sim_hours": "h", "slo_attainment": "ratio"}
    for field, value in workloads.totals(results).items():
        metrics[f"result.{field}"] = (value, units.get(field, "count"))
    notes = [f"untraced wall (fastest of {BASELINE_PASSES}): {untraced:.3f} s", f"spans: {spans_path}"]
    return log, metrics, notes


def layer_metrics(setup_tracer, tracer, traced_wall: float, untraced_wall: float,
                  scenarios: int, failed: int) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced run (see CATALOGUE.md)."""
    setup = setup_tracer.totals()
    wall = tracer.totals()
    counters = {**setup_tracer.counters, **tracer.counters}
    m: Dict[str, Tuple[float, str]] = {}

    def both(name: str, source=wall) -> None:
        calls, own = source[name]
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (own, "s")

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    both("workload.trace_build", setup)
    m["workload.requests_built"] = (counters.get("workload.requests_built", 0), "count")
    m["workload.bins_built"] = (counters.get("workload.bins_built", 0), "count")
    both("workload.classify")
    m["perf.profile_build.self_s"] = (setup["perf.profile_build"][1], "s")
    both("perf.lookup")
    both("perf.latency_model")
    both("core.route")
    m["core.on_step.self_s"] = (wall["core.on_step"][1], "s")
    epochs = ("core.scale_epoch", "core.shard_epoch", "core.frequency_epoch")
    m["core.epoch.self_s"] = (sum(wall[name][1] for name in epochs), "s")
    for name in epochs:
        m[f"{name}.calls"] = (wall[name][0], "count")
    m["core.epoch.changed_ratio"] = (
        share(counters.get("core.epoch.changed", 0), counters.get("core.epoch.total", 0)), "ratio")
    both("core.plan_sharding")
    both("cluster.step")
    both("cluster.instance_step")
    m["cluster.instance_step.busy_ratio"] = (
        share(counters.get("cluster.instance_step.busy", 0), wall["cluster.instance_step"][0]), "ratio")
    both("experiments.fluid_bin")
    m["experiments.capacity_plan.self_s"] = (wall["experiments.capacity_plan"][1], "s")
    both("api.engine_step")
    m["api.observer.self_s"] = (wall["api.observer"][1], "s")
    m["api.summary.self_s"] = (wall["api.summary"][1], "s")
    m["api.scenarios.attempted"] = (scenarios, "count")
    m["api.scenarios.failed"] = (failed, "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.unattributed_s"] = (traced_wall - tracer.self_total(), "s")
    return m


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_only and not (args.seconds and args.seconds > 0):
        parser.error("--seconds must be given and positive")
    use_source_tree()

    if args.setup_only:
        _, phases = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_phases_s": phases}))
        return 0

    # Byte-compile first so no timed import pays for compilation.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    if args.trace:
        log, metrics, notes = measure_traced(args)
    else:
        inputs, phases = timed_setup(args.workload, args.seed)
        log, metrics, notes = measure(args, inputs, [phases])

    for line in log.lines + notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
