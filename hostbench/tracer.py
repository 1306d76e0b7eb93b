"""Layer tracing from outside the simulator: patch public calls, record spans.

The benchmark never edits ``src/``.  A :class:`Tracer` wraps the public
functions and methods named by a tuple of :class:`Boundary` entries,
records a span per call (name, start, end, parent span, scenario id),
and keeps per-boundary call counts and *self time* — a span's duration
minus the time its child spans cover.  Leaf boundaries that run
millions of times (profile lookups, request classification) are kept
as per-parent counts and totals instead of individual spans, so the
traced run's memory measures the simulator and not the tracer.

Module-level functions are patched at every ``repro`` module that
holds the same function object (``from x import f`` copies the
binding), not only in the defining module; :meth:`Tracer.uninstall`
restores every original object, including bindings made by modules
imported while the tracer was installed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Kinds of boundary.  ``call`` times each call; ``iterator`` times each
#: item drawn from the iterator the call returns (the call itself only
#: builds a generator); ``scenario`` times nothing and starts a new
#: scenario id, so every span of one simulated run shares that id.
CALL, ITERATOR, SCENARIO = "call", "iterator", "scenario"

#: Field order of the span and leaf records :meth:`Tracer.write` emits.
SPAN_FIELDS = ("kind", "id", "parent", "scenario", "name", "start_s", "end_s")
LEAF_FIELDS = ("kind", "parent", "name", "calls", "total_s", "self_s")


@dataclass(frozen=True)
class Boundary:
    """One traced boundary: a metric name and the callables it wraps.

    ``targets`` are ``"module:qualname"`` strings (``Class.method`` or a
    module-level function).  ``leaf`` boundaries are aggregated per
    parent span instead of recorded one span per call.  ``outside``
    counts only calls made from modules *outside* that package prefix
    (calls from inside it run unwrapped).  ``observe`` names a check
    the tracer runs on each returned value (see :meth:`Tracer._observe`).
    """

    name: str
    targets: Tuple[str, ...]
    kind: str = CALL
    leaf: bool = False
    outside: Optional[str] = None
    observe: Optional[str] = None


#: Boundaries of the set-up phase: building the profile and the traces.
SETUP_BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary(
        "workload.trace_build",
        ("repro.api.scenario:TraceSpec.build", "repro.api.scenario:TraceSpec.build_bins"),
        observe="trace_built",
    ),
    Boundary("perf.profile_build", ("repro.perf.profiler:get_default_profile",)),
)

#: Boundaries of the timed phase, from the first call into ``repro.api``
#: until the last summary is returned.
WALL_BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary(
        "api.scenario",
        (
            "repro.api.engine:SimulationEngine.__init__",
            "repro.api.fluid_engine:FluidEngine.__init__",
        ),
        kind=SCENARIO,
    ),
    Boundary(
        "workload.classify",
        (
            "repro.workload.classification:classify_request",
            "repro.workload.classification:classify_length",
            "repro.workload.classification:RequestType.from_name",
        ),
        leaf=True,
        outside="repro.workload",
    ),
    Boundary(
        "perf.lookup",
        (
            "repro.perf.profile:EnergyPerformanceProfile.entry",
            "repro.perf.profile:EnergyPerformanceProfile.max_load",
            "repro.perf.profile:EnergyPerformanceProfile.best_frequency",
            "repro.perf.profile:ProfileEntry.power_at",
            "repro.perf.profile:ProfileEntry.ttft_at",
            "repro.perf.profile:ProfileEntry.tbt_at",
        ),
        leaf=True,
    ),
    Boundary(
        "perf.latency_model",
        (
            "repro.perf.latency_model:LatencyModel.iteration_time",
            "repro.perf.latency_model:LatencyModel.prefill_time",
        ),
        leaf=True,
    ),
    Boundary("core.route", ("repro.core.framework:DynamoLLM.route",)),
    Boundary("core.on_step", ("repro.core.framework:DynamoLLM.on_step",)),
    Boundary(
        "core.scale_epoch",
        ("repro.core.cluster_manager:ClusterManager.scale_epoch",),
        observe="map_epoch",
    ),
    Boundary(
        "core.shard_epoch",
        ("repro.core.pool_manager:PoolManager.shard_epoch",),
        observe="shard_epoch",
    ),
    Boundary(
        "core.frequency_epoch",
        ("repro.core.instance_manager:InstanceManager.frequency_epoch",),
        observe="map_epoch",
    ),
    Boundary("core.plan_sharding", ("repro.core.optimizer:plan_sharding",)),
    Boundary("cluster.step", ("repro.cluster.cluster:GPUCluster.step",)),
    Boundary(
        "cluster.instance_step",
        ("repro.cluster.instance:InferenceInstance.step",),
        observe="instance_step",
    ),
    Boundary(
        "experiments.fluid_bin", ("repro.experiments.fluid:FluidRunner.steps",), kind=ITERATOR
    ),
    Boundary(
        "experiments.capacity_plan",
        (
            "repro.experiments.runner:resolve_static_servers",
            "repro.experiments.runner:load_fractions_from_trace",
            "repro.experiments.runner:pool_loads_from_trace",
            "repro.experiments.fluid:FluidRunner.static_budgets",
        ),
    ),
    Boundary(
        "api.engine_step",
        ("repro.api.engine:SimulationEngine.step", "repro.api.fluid_engine:FluidEngine.step"),
    ),
    Boundary("api.observer", ("repro.api.observers:Observer.on_*",)),
    Boundary(
        "api.summary",
        (
            "repro.api.engine:SimulationEngine.summary",
            "repro.api.fluid_engine:FluidEngine.summary",
            "repro.metrics.summary:RunSummary.compact",
        ),
    ),
)


def _caller_module() -> str:
    """Module of the code that called the wrapper calling this function."""
    return sys._getframe(2).f_globals.get("__name__", "")


class _Frame:
    __slots__ = ("index", "start", "child", "span", "nearest")

    def __init__(self, index: int, span: int, nearest: int) -> None:
        self.index = index
        self.start = 0.0
        self.child = 0.0  # time covered by direct child boundaries
        self.span = span  # this call's span id, or -1 for a leaf
        self.nearest = nearest  # nearest enclosing recorded span id


class Tracer:
    """Install wrappers at the given boundaries and account their time.

    Use as ``with tracer.installed(): ...``.  ``clock`` is injectable so
    the self-time arithmetic can be tested on synthetic timestamps.
    """

    def __init__(
        self,
        boundaries: Tuple[Boundary, ...],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.boundaries = boundaries
        self.clock = clock
        self.names: List[str] = [b.name for b in boundaries]
        self.calls = [0] * len(boundaries)
        self.self_s = [0.0] * len(boundaries)
        #: Recorded spans: (id, parent id, scenario id, boundary index, start, end).
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        #: Leaf aggregates keyed by (parent span id, boundary index):
        #: [calls, total seconds, self seconds].
        self.leaves: Dict[Tuple[int, int], List[float]] = {}
        #: Counters filled by the ``observe`` checks.
        self.counters: Dict[str, int] = {}
        self.scenario = 0
        self._stack: List[_Frame] = []
        self._next_span = 0
        self._last_maps: Dict[Tuple[int, int], Any] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused before uninstall rescans modules.
        self._originals: Dict[int, Tuple[Any, Any]] = {}

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def enter(self, index: int, leaf: bool) -> None:
        stack = self._stack
        nearest = stack[-1].nearest if stack else -1
        if leaf:
            span = -1
        else:
            span = self._next_span
            self._next_span += 1
        frame = _Frame(index, span, span if span >= 0 else nearest)
        stack.append(frame)
        frame.start = self.clock()

    def exit(self) -> None:
        end = self.clock()
        frame = self._stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        index = frame.index
        self.calls[index] += 1
        self.self_s[index] += own
        stack = self._stack
        if stack:
            stack[-1].child += duration
        if frame.span >= 0:
            parent = stack[-1].nearest if stack else -1
            self.spans.append((frame.span, parent, self.scenario, index, frame.start, end))
        else:
            key = (frame.nearest, index)
            totals = self.leaves.get(key)
            if totals is None:
                self.leaves[key] = [1, duration, own]
            else:
                totals[0] += 1
                totals[1] += duration
                totals[2] += own

    def cancel(self) -> None:
        """Drop the open frame; its time stays in the parent's self time."""
        self._stack.pop()

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """(calls, self seconds) per boundary name."""
        return {name: (calls, own) for name, calls, own in zip(self.names, self.calls, self.self_s)}

    def self_total(self) -> float:
        return sum(self.self_s)

    # ------------------------------------------------------------------
    # Checks on returned values
    # ------------------------------------------------------------------
    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, check: str, owner: Any, result: Any) -> None:
        if check == "trace_built":
            kind = "requests" if hasattr(result, "requests") else "bins"
            self._count(f"workload.{kind}_built", len(result))
        elif check == "instance_step":
            if result.prefill_tokens or result.decode_tokens:
                self._count("cluster.instance_step.busy")
        elif check == "shard_epoch":
            self._count("core.epoch.total")
            if any(result.values()):
                self._count("core.epoch.changed")
        elif check == "map_epoch":
            # A scale or frequency epoch changed something when its map
            # differs from the same controller's previous return; the
            # first epoch of a controller always counts as a change.
            self._count("core.epoch.total")
            key = (self.scenario, id(owner))
            if self._last_maps.get(key) != result:
                self._count("core.epoch.changed")
            self._last_maps[key] = dict(result)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, func: Callable, index: int, boundary: Boundary) -> Callable:
        tracer = self
        leaf, outside, check = boundary.leaf, boundary.outside, boundary.observe

        if boundary.kind == SCENARIO:

            @functools.wraps(func)
            def start_scenario(*args, **kwargs):
                tracer.scenario += 1
                tracer._last_maps.clear()
                return func(*args, **kwargs)

            return start_scenario

        if boundary.kind == ITERATOR:

            @functools.wraps(func)
            def traced_iterator(*args, **kwargs):
                return _TracedIterator(func(*args, **kwargs), tracer, index)

            return traced_iterator

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if outside is not None and _caller_module().startswith(outside):
                return func(*args, **kwargs)
            tracer.enter(index, leaf)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit()
            if check is not None:
                tracer._observe(check, args[0] if args else None, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for index, boundary in enumerate(self.boundaries):
            for target in boundary.targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." not in qualname:
                    self._patch_function(getattr(module, qualname), index, boundary)
                    continue
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                if attr.endswith("*"):
                    # Every subclass hook that overrides the base's: the
                    # base's own no-op hooks stay untouched, because the
                    # engines dispatch only to overriding observers.
                    for cls in _subclasses(owner):
                        for hook in sorted(cls.__dict__):
                            if hook.startswith(attr[:-1]) and callable(cls.__dict__[hook]):
                                self._patch_method(cls, hook, index, boundary)
                else:
                    self._patch_method(owner, attr, index, boundary)

    def _patch_method(self, owner: type, attr: str, index: int, boundary: Boundary) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(raw.__func__, index, boundary))
        else:
            wrapped = self._wrap(raw, index, boundary)
        self._originals[id(wrapped)] = (wrapped, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _patch_function(self, func: Callable, index: int, boundary: Boundary) -> None:
        wrapped = self._wrap(func, index, boundary)
        self._originals[id(wrapped)] = (wrapped, func)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # Modules imported while installed may have copied a wrapper.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._originals.clear()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, handle, phase: str) -> None:
        """Write this tracer's spans and leaf aggregates as JSON lines.

        A header object names the fields; then one array per span
        (``SPAN_FIELDS``) and one per leaf aggregate (``LEAF_FIELDS``),
        with ``name`` as an index into the header's ``names``.
        """
        header = {
            "phase": phase,
            "names": self.names,
            "span_fields": SPAN_FIELDS,
            "leaf_fields": LEAF_FIELDS,
        }
        handle.write(json.dumps(header) + "\n")
        for span in self.spans:
            handle.write(json.dumps(("span",) + span) + "\n")
        for (parent, index), (calls, total, own) in sorted(self.leaves.items()):
            handle.write(json.dumps(("leaf", parent, index, calls, total, own)) + "\n")


class _TracedIterator:
    """Times each item drawn; the exhausting draw is not a span."""

    def __init__(self, iterator: Iterator, tracer: Tracer, index: int) -> None:
        self._iterator = iterator
        self._tracer = tracer
        self._index = index

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._index, False)
        try:
            item = next(self._iterator)
        except StopIteration:
            tracer.cancel()
            raise
        except BaseException:
            tracer.exit()
            raise
        tracer.exit()
        return item


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
