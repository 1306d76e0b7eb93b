"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload is one serial call pattern into the public ``repro.api``
entry points.  :func:`setup` builds everything a pass needs — the
energy-performance profile and the traces, from the benchmark's seed —
so that a timed pass starts at the first ``run_scenario`` /
``run_grid`` call and ends when every scenario's summary has returned.
Importing this module imports ``repro``; the benchmark times that
import as part of set-up.

Sizes were chosen so one pass takes well under a second on a 2-vCPU
host, so a 40 s run times each engine step on 30–90 passes.  See
CATALOGUE.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api import (
    BinnedTrace,
    InMemorySink,
    Scenario,
    TraceSpec,
    run_grid,
    run_scenario,
    sweep,
)
from repro.experiments.runner import ExperimentConfig
from repro.llm.catalog import LLAMA2_70B
from repro.metrics.summary import RunSummary
from repro.perf import profiler
from repro.workload.traces import Trace

#: The six systems the paper evaluates, in its order.
POLICIES = ("SinglePool", "MultiPool", "ScaleFreq", "ScaleInst", "ScaleShard", "DynamoLLM")
SERVICES = ("conversation", "coding")


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    backend: str
    services: Tuple[str, ...]
    policies: Tuple[str, ...]
    kind: str
    rate_scale: float
    duration_s: float
    lean: bool


#: The event traces run 330 s: one scale epoch (every 300 s), five shard
#: epochs and 66 frequency epochs of DynamoLLM.  The fluid traces run
#: the first 12 hours of the week: 144 five-minute bins.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="event_peak_hour",
            backend="event",
            services=SERVICES,
            policies=("DynamoLLM",),
            kind="one_hour",
            rate_scale=10.0,
            duration_s=330.0,
            lean=False,
        ),
        WorkloadSpec(
            name="event_policy_sweep",
            backend="event",
            services=("conversation",),
            policies=POLICIES,
            kind="one_hour",
            rate_scale=2.0,
            duration_s=330.0,
            lean=True,
        ),
        WorkloadSpec(
            name="fluid_week_sweep",
            backend="fluid",
            services=SERVICES,
            policies=POLICIES,
            kind="week",
            rate_scale=40.0,
            duration_s=43200.0,
            lean=True,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one pass of a workload reads, built once in set-up."""

    spec: WorkloadSpec
    config: ExperimentConfig
    traces: Tuple[Union[Trace, BinnedTrace], ...]

    @property
    def requests_per_pass(self) -> int:
        """Simulated requests one pass serves: routed requests on the
        event backend, the bins' request counts on the fluid one."""
        per_trace = sum(_request_count(trace) for trace in self.traces)
        return per_trace * len(self.spec.policies)


@dataclass
class ScenarioRun:
    """One scenario's outcome in one pass: a summary or the error raised."""

    key: str
    trace: Union[Trace, BinnedTrace]
    backend: str
    summary: Optional[RunSummary] = None
    error: Optional[str] = None

    def problems(self) -> List[str]:
        """Invariants the summary violates (empty when it is correct).

        These encode conservation and range rules only, never pinned
        values, so a correct model change cannot fail them.
        """
        if self.summary is None:
            return [f"raised {self.error}"]
        s = self.summary
        found = []
        if self.backend == "event":
            if s.routed_requests != len(self.trace):
                found.append(f"routed {s.routed_requests} != trace requests {len(self.trace)}")
            finished = s.latency.count - s.latency.squashed_count
            if finished + s.squashed_requests != s.routed_requests:
                found.append(
                    f"finished {finished} + squashed {s.squashed_requests} "
                    f"!= routed {s.routed_requests}"
                )
        elif s.duration_s != self.trace.duration:
            found.append(f"simulated {s.duration_s} s != binned horizon {self.trace.duration} s")
        for label, value in (("energy_kwh", s.energy_kwh), ("gpu_hours", s.gpu_hours)):
            if not (math.isfinite(value) and value > 0):
                found.append(f"{label} {value} is not finite and positive")
        attainment = s.slo_attainment()
        if not 0.0 <= attainment <= 1.0:
            found.append(f"slo_attainment {attainment} outside [0, 1]")
        return found

    def result(self) -> Optional[Tuple[float, ...]]:
        """The simulated statistics, in :data:`RESULT_FIELDS` order."""
        s = self.summary
        if s is None:
            return None
        return (
            s.routed_requests,
            s.squashed_requests,
            s.energy_kwh,
            s.gpu_hours,
            s.slo_attainment(),
            s.reconfigurations,
            s.duration_s / 3600.0,
        )


RESULT_FIELDS = (
    "routed_requests",
    "squashed_requests",
    "energy_kwh",
    "gpu_hours",
    "slo_attainment",
    "reconfigurations",
    "sim_hours",
)


def _request_count(trace: Union[Trace, BinnedTrace]) -> int:
    if isinstance(trace, BinnedTrace):
        return sum(b.request_count for b in trace.bins)
    return len(trace)


def setup(name: str, seed: int, lap: Callable[[], None] = lambda: None) -> Inputs:
    """Build the profile and the seeded traces of workload ``name``.

    ``lap`` is called after the profile and after each trace is built,
    so a caller can time those phases apart.
    """
    spec = WORKLOADS[name]
    # Through the module attribute, so a tracer patching it sees the call.
    config = ExperimentConfig(profile=profiler.get_default_profile(LLAMA2_70B))
    lap()
    traces: List[Union[Trace, BinnedTrace]] = []
    for service in spec.services:
        trace_spec = TraceSpec(
            kind=spec.kind,
            service=service,
            rate_scale=spec.rate_scale,
            duration_s=spec.duration_s,
            seed=seed,
        )
        if spec.backend == "fluid":
            traces.append(BinnedTrace(name=trace_spec.key, bins=trace_spec.build_bins()))
        else:
            traces.append(trace_spec.build())
        lap()
    return Inputs(spec=spec, config=config, traces=tuple(traces))


def run_pass(inputs: Inputs) -> List[ScenarioRun]:
    """Run every scenario of the workload once, serially, in one process."""
    spec = inputs.spec
    if spec.name == "event_peak_hour":
        # The single-figure path: one run_scenario call per service with
        # the default (full) observer set.
        runs = []
        for trace in inputs.traces:
            scenario = Scenario(policy="DynamoLLM", trace=trace, base_config=inputs.config)
            run = ScenarioRun(key=scenario.key, trace=trace, backend=spec.backend)
            try:
                run.summary = run_scenario(scenario, lean=spec.lean)
            except Exception as error:  # a failing scenario is reported, not fatal
                run.error = f"{type(error).__name__}: {error}"
            runs.append(run)
        return runs
    # The campaign path: one lean grid, shared-input preparation, and a
    # sink so a scenario that raises becomes a record, not an abort.
    grid = sweep(
        policies=spec.policies,
        traces=inputs.traces,
        backends=(spec.backend,),
        base_config=inputs.config,
    )
    sink = run_grid(grid, lean=spec.lean, sink=InMemorySink())
    runs = []
    for scenario in grid:
        run = ScenarioRun(key=scenario.key, trace=scenario.trace, backend=spec.backend)
        if scenario.key in sink.results:
            run.summary = sink.results[scenario.key]
        else:
            error = sink.errors.get(scenario.key)
            run.error = f"{type(error).__name__}: {error}" if error else "no result recorded"
        runs.append(run)
    return runs


def totals(results: Sequence[Optional[Tuple[float, ...]]]) -> Dict[str, float]:
    """Workload-level ``result.*`` values: sums, and mean SLO attainment."""
    present = [r for r in results if r is not None]
    out: Dict[str, float] = {}
    for position, field in enumerate(RESULT_FIELDS):
        values = [r[position] for r in present]
        if field == "slo_attainment":
            out[field] = sum(values) / len(values) if values else 0.0
        else:
            out[field] = sum(values)
    return out
