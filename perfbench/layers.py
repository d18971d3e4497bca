"""Layer-attributed tracing from outside the program.

:class:`LayerTracer` wraps the public functions at each layer boundary of
:mod:`repro` for the length of a ``with`` block and restores them on exit;
the program's source is never touched.  Every wrapped call lands on one
stack, so each name gets a call count, a total time and a *self* time
(total minus the wrapped calls made inside it).  Coarse boundaries
(:data:`SPANS`) also record which wrapped span they ran under; hot leaves
(log queries, buffer operations, detector queries, automaton steps) are
only aggregated per name.  A call nested directly inside a call of the
same name (a detector delegating to its inner detector, a broadcast that
sends copy by copy) is folded into the outer call and not counted again.

:func:`layer_metrics` turns the aggregates, plus the finished runs, into
the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from types import FunctionType
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Coarse boundaries: these names record their parent span.
SPANS = (
    "workloads.run_scenario",
    "campaign.run_campaign",
    "runtime.round",
    "runtime.fire",
    "sim.step",
    "runtime.async",
    "props.batch_verdicts",
)

#: Substrate datagram tags with a per-slot metric.
TAGS = ("PREPARE", "PROMISE", "ACCEPT", "ACCEPTED", "NACK", "FORWARD", "DECIDE", "CATCHUP")

_TRACER_METHODS = (
    "begin_round", "end_round", "note_scanned", "note_skipped",
    "note_quorum_query", "note_gamma_query", "note_indicator_query",
    "note_wait", "note_transition", "summary",
)
_LOG_OTHER = (
    "pos", "bump_and_lock", "locked", "__contains__", "items", "messages",
    "records", "position_records_for", "stabilization_records_for",
)

#: ``(module, attribute path, metric name)``; an attribute path is
#: ``Class.method`` or a module-level function name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.runner", "run_scenario", "workloads.run_scenario"),
    ("repro.campaign.executor", "run_campaign", "campaign.run_campaign"),
    ("repro.runtime.scheduler", "Scheduler.round", "runtime.round"),
    ("repro.runtime.actors", "SharedObjectActor.fire", "runtime.fire"),
    ("repro.runtime.actors", "AutomatonActor.fire", "runtime.fire"),
    ("repro.runtime.actors", "SystemActor.fire", "runtime.fire"),
    ("repro.runtime.async_driver", "AsyncDriver.run", "runtime.async"),
    ("repro.sim.kernel", "Kernel.step_process", "sim.step"),
    ("repro.model.messages", "MessageBuffer.send", "model.buffer.send"),
    ("repro.model.messages", "MessageBuffer.broadcast", "model.buffer.send"),
    ("repro.model.messages", "MessageBuffer.receive", "model.buffer.receive"),
    ("repro.substrates.replicated_log", "ReplicatedLogAutomaton.on_step", "substrates.replicated_log"),
    ("repro.substrates.replicated_log", "ReplicatedLogAutomaton.append", "substrates.replicated_log"),
    ("repro.substrates.consensus", "ConsensusAutomaton.on_step", "substrates.consensus"),
    ("repro.substrates.consensus", "ConsensusAutomaton._handle", "substrates.consensus"),
    ("repro.substrates.consensus", "ConsensusAutomaton._progress", "substrates.consensus"),
    ("repro.substrates.consensus", "ConsensusAutomaton.propose", "substrates.consensus"),
    ("repro.core.engine", "MulticastSystem.quorum_ok", "detectors.quorum_ok"),
    ("repro.core.algorithm1", "Algorithm1Process._gamma_partners", "detectors.gamma_partners"),
    ("repro.core.algorithm1", "Algorithm1Process.try_actions", "core.try_actions"),
    ("repro.objects.log", "Log.precedes", "objects.log.precedes"),
    ("repro.objects.log", "Log.messages_before", "objects.log.messages_before"),
    ("repro.objects.log", "Log.append", "objects.log.append"),
    *(("repro.objects.log", f"Log.{name}", "objects.log.other") for name in _LOG_OTHER),
    ("repro.objects.consensus", "ConsensusObject.propose", "objects.consensus.propose"),
    ("repro.props.batch", "batch_verdicts", "props.batch_verdicts"),
    ("repro.workloads.spec", "ScenarioSpec.build_topology", "workloads.build"),
    ("repro.workloads.spec", "ScenarioSpec.build_pattern", "workloads.build"),
    ("repro.workloads.spec", "ScenarioSpec.spec_hash", "workloads.build"),
    ("repro.workloads.spec", "ScenarioSpec.to_json", "workloads.build"),
    ("repro.workloads.spec", "TopologySpec.build", "workloads.build"),
    ("repro.groups.topology", "GroupTopology.cyclic_families", "groups.families"),
    ("repro.groups.topology", "GroupTopology.families_of_group", "groups.families"),
    ("repro.groups.topology", "GroupTopology.families_of_process", "groups.families"),
    ("repro.groups.topology", "GroupTopology.cyclic_partners", "groups.families"),
    ("repro.faults.injector", "injector_for", "faults.injector"),
    *(("repro.metrics.trace", f"TraceRecorder.{name}", "metrics.tracer") for name in _TRACER_METHODS),
)

#: Every ``FailureDetector`` subclass that defines ``query`` in a module
#: of these packages is wrapped as ``detectors.query``.
DETECTOR_MODULES = ("repro.detectors", "repro.substrates.consensus", "repro.faults.injector")


def _public_methods(cls: type) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if isinstance(value, FunctionType)
        and (not name.startswith("_") or name == "__init__")
    ]


class LayerTracer:
    """Per-name call counts and times over wrapped layer boundaries."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        #: (parent span, span) -> [calls, total seconds]
        self.edges: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: Dict[str, int] = defaultdict(int)
        self.tags: Dict[str, int] = defaultdict(int)
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for module, path, name in TARGETS:
                self._wrap_target(module, path, name)
            injector = importlib.import_module("repro.faults.injector").FaultInjector
            for method in _public_methods(injector):
                self._wrap_attr(injector, method, "faults.injector")
            for cls in self._detector_classes():
                self._wrap_attr(cls, "query", "detectors.query")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @staticmethod
    def _detector_classes() -> List[type]:
        for module in DETECTOR_MODULES:
            importlib.import_module(module)
        from repro.detectors.base import FailureDetector

        found, todo = set(), [FailureDetector]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "query" in vars(cls) and cls.__module__.startswith(DETECTOR_MODULES):
                found.add(cls)
        return sorted(found, key=lambda c: (c.__module__, c.__qualname__))

    def _wrap_target(self, module_name: str, path: str, name: str) -> None:
        """Wrap one target; a target the program no longer has is an
        error, so a renamed boundary cannot silently drop out of a layer."""
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".", 1)
            cls = getattr(module, cls_name, None)
            if cls is None or attr not in vars(cls):
                raise LookupError(f"trace target {module_name}:{path} is gone")
            self._wrap_attr(cls, attr, name)
            return
        original = getattr(module, path, None)
        if original is None:
            raise LookupError(f"trace target {module_name}:{path} is gone")
        wrapper = self._wrapper(original, name)
        # Re-exports and ``from x import f`` copies share the object.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                vars(other).get(path) is original
            ):
                self._set(other, path, wrapper)

    def _wrap_attr(self, owner: type, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        if not isinstance(original, FunctionType):
            raise LookupError(
                f"trace target {owner.__module__}:{owner.__qualname__}.{attr} "
                f"is not a plain function"
            )
        self._set(owner, attr, self._wrapper(original, name))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- the wrapper -------------------------------------------------------------

    def _wrapper(self, original: Callable, name: str) -> Callable:
        stack = self._stack
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges if name in SPANS else None
        after = self._after_hook(original, name)
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if edges is not None:
                    edge = edges[(stack[-1][0] if stack else "", name)]
                    edge[0] += 1
                    edge[1] += elapsed
                if after is not None:
                    after(args, kwargs, result)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def _after_hook(self, original: Callable, name: str) -> Optional[Callable]:
        """Counters read from a wrapped call's arguments and result."""
        counters, tags = self.counters, self.tags
        func = getattr(original, "__name__", "")
        if name == "runtime.fire":
            def after(args, kwargs, result):
                if result:
                    counters["runtime.fires.productive"] += 1
        elif name == "core.try_actions":
            def after(args, kwargs, result):
                counters["core.actions"] += result or 0
        elif name == "model.buffer.send":
            def after(args, kwargs, result):
                tag = args[3] if len(args) > 3 else kwargs["tag"]
                sent = 0 if result is None else (len(result) if func == "broadcast" else 1)
                counters["model.datagrams"] += sent
                tags[tag] += sent
        elif name == "model.buffer.receive":
            def after(args, kwargs, result):
                if result is None:
                    counters["model.null_receives"] += 1
        elif name == "runtime.async":
            def after(args, kwargs, result):
                for key, value in args[0].last_transport_stats.items():
                    counters[f"async.{key}"] += value
        else:
            return None
        return after

    # -- reading -----------------------------------------------------------------

    def call(self, name: str, func: Callable, *args: Any) -> Any:
        """Run ``func`` as a traced call named ``name``."""
        return self._wrapper(func, name)(*args)

    def counts(self) -> Dict[str, int]:
        """Every exact count the tracer holds (call counts and counters)."""
        out = {f"calls:{name}": int(values[0]) for name, values in self.agg.items()}
        out.update({f"counter:{k}": v for k, v in self.counters.items()})
        out.update({f"tag:{k}": v for k, v in self.tags.items()})
        return out

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0,))[0])

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0))[1]

    def self_time(self, *names: str) -> float:
        return sum(self.agg.get(name, (0, 0.0, 0.0))[2] for name in names)

    def span_tree(self) -> List[Tuple[str, str, int, float]]:
        """``(parent, span, calls, total seconds)`` for every span edge."""
        return sorted(
            (parent, child, int(calls), total)
            for (parent, child), (calls, total) in self.edges.items()
        )


# -- per-layer metrics -----------------------------------------------------------

# What each group of per-layer metrics should move: an end-to-end
# metric and the workload where it shows.
_KB_RATE = "deliveries_per_s, msgs_per_round @ kernel-backlog"
_KB_DPS = "deliveries_per_s @ kernel-backlog"
_KB_SLOTS = "msgs_per_round, latency_rounds_p99 @ kernel-backlog"
_MS_ASYNC = "deliveries_per_s, completed_frac @ mixed-sweep"
_F1_DPS = "deliveries_per_s @ figure1-stream"
_MS_SETUP = "setup_s, deliveries_per_s @ mixed-sweep"

#: ``(metric, unit, has an async source, what it should move)``.  A
#: metric without an async source reads zero on async runs because
#: nothing on that backend feeds it: async has no lockstep rounds, no
#: kernel and no datagram buffer.  Async rows' ``trace`` block is all
#: zeros, so no metric here is read from it.
LAYER_METRICS: Tuple[Tuple[str, str, bool, str], ...] = (
    ("runtime.rounds", "count", False, _KB_RATE),
    ("runtime.round.self_s", "s", False, _KB_RATE),
    ("runtime.fires", "count", True, _KB_RATE),
    ("runtime.fire.productive_frac", "frac", True, _KB_RATE),
    ("runtime.async.self_s", "s", True, _MS_ASYNC),
    ("runtime.async.retries_scheduled", "count", True, _MS_ASYNC),
    ("runtime.async.retries_lost", "count", True, _MS_ASYNC),
    ("sim.steps", "count", False, _KB_DPS),
    ("sim.steps_per_delivery", "ratio", False, _KB_DPS),
    ("sim.null_step_frac", "frac", False, _KB_DPS),
    ("sim.step.self_s", "s", False, _KB_DPS),
    ("model.datagrams", "count", False, _KB_DPS),
    ("model.datagrams_per_delivery", "ratio", False, _KB_DPS),
    ("model.buffer.self_s", "s", False, _KB_DPS),
    ("substrates.replicated_log.self_s", "s", False, _KB_SLOTS),
    ("substrates.consensus.self_s", "s", False, _KB_SLOTS),
    ("substrates.slots_decided", "count", False, _KB_SLOTS),
    ("substrates.values_per_slot", "ratio", False, _KB_SLOTS),
    ("substrates.rounds_per_slot", "ratio", False, _KB_SLOTS),
    *((f"substrates.per_slot.{tag}", "ratio", False, _KB_SLOTS) for tag in TAGS),
    ("detectors.queries", "count", True, _F1_DPS),
    ("detectors.quorum_ok.calls", "count", True, _F1_DPS),
    ("detectors.gamma_partners.calls", "count", True, _F1_DPS),
    ("detectors.self_s", "s", True, _F1_DPS),
    ("core.try_actions.calls", "count", True, _F1_DPS),
    ("core.actions_per_call", "ratio", True, _F1_DPS),
    ("core.try_actions.self_s", "s", True, _F1_DPS),
    ("objects.precedes.calls", "count", True, _F1_DPS),
    ("objects.precedes_per_delivery", "ratio", True, _F1_DPS),
    ("objects.messages_before.calls", "count", True, _F1_DPS),
    ("objects.log.self_s", "s", True, _F1_DPS),
    ("objects.log.appends", "count", True, _F1_DPS),
    ("objects.consensus.proposes", "count", True, _F1_DPS),
    ("props.check_s", "s", True, _MS_SETUP),
    ("workloads.build_s", "s", True, _MS_SETUP),
    ("groups.families_s", "s", True, _MS_SETUP),
    ("workloads.orphaned_msgs", "count", True, _MS_SETUP),
    ("faults.injector.self_s", "s", True, _MS_SETUP),
    ("faults.events_applied", "count", True, _MS_SETUP),
    ("campaign.overhead_s", "s", True, _MS_SETUP),
    ("metrics.tracer.self_s", "s", True, _KB_DPS),
    ("trace.overhead_frac", "frac", True, "nothing: traced over untraced wall time"),
)

#: Metrics read from the clock; every other metric is an exact count or
#: a ratio of counts and repeats exactly on every traced pass.
TIMED = frozenset(
    name for name, unit, _, _ in LAYER_METRICS if unit == "s"
) | {"trace.overhead_frac"}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _kernel_slots(result: Any) -> int:
    """Decided slots of a kernel run: per log, the longest applied prefix."""
    topology = result.spec.build_topology()
    slots = 0
    for group in topology.groups:
        slots += max(
            sum(
                1
                for _, value in result.kernel.outputs[p]
                if isinstance(value, tuple) and value and value[0] == "applied"
            )
            for p in group.members
        )
    return slots


def layer_metrics(
    tracer: LayerTracer,
    runs: Sequence[Any],
    orphaned: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass over a workload, all but
    ``trace.overhead_frac``, which compares passes."""
    kernel_runs = [r.result for r in runs if r.result is not None and r.spec.backend == "kernel"]
    alg1_runs = [r.result for r in runs if r.result is not None and r.spec.backend != "kernel"]
    kernel_deliveries = sum(len(r.record.deliveries) for r in kernel_runs)
    alg1_deliveries = sum(len(r.record.deliveries) for r in alg1_runs)
    slots = sum(_kernel_slots(r) for r in kernel_runs)
    kernel_values = sum(len(r.record.delivered_messages()) for r in kernel_runs)
    log_rounds = sum(r.rounds * len(r.spec.topology.build().groups) for r in kernel_runs)
    steps = tracer.calls("sim.step")
    fires = tracer.calls("runtime.fire")
    c = tracer.counters
    return {
        "runtime.rounds": tracer.calls("runtime.round"),
        "runtime.round.self_s": tracer.self_time("runtime.round"),
        "runtime.fires": fires,
        "runtime.fire.productive_frac": _ratio(c["runtime.fires.productive"], fires),
        "runtime.async.self_s": tracer.self_time("runtime.async"),
        "runtime.async.retries_scheduled": c["async.retries_scheduled"],
        "runtime.async.retries_lost": c["async.retries_lost"],
        "sim.steps": steps,
        "sim.steps_per_delivery": _ratio(steps, kernel_deliveries),
        "sim.null_step_frac": _ratio(c["model.null_receives"], steps),
        "sim.step.self_s": tracer.self_time("sim.step"),
        "model.datagrams": c["model.datagrams"],
        "model.datagrams_per_delivery": _ratio(c["model.datagrams"], kernel_deliveries),
        "model.buffer.self_s": tracer.self_time("model.buffer.send", "model.buffer.receive"),
        "substrates.replicated_log.self_s": tracer.self_time("substrates.replicated_log"),
        "substrates.consensus.self_s": tracer.self_time("substrates.consensus"),
        "substrates.slots_decided": slots,
        "substrates.values_per_slot": _ratio(kernel_values, slots),
        "substrates.rounds_per_slot": _ratio(log_rounds, slots),
        **{f"substrates.per_slot.{tag}": _ratio(tracer.tags[tag], slots) for tag in TAGS},
        "detectors.queries": tracer.calls("detectors.query"),
        "detectors.quorum_ok.calls": tracer.calls("detectors.quorum_ok"),
        "detectors.gamma_partners.calls": tracer.calls("detectors.gamma_partners"),
        "detectors.self_s": tracer.self_time(
            "detectors.query", "detectors.quorum_ok", "detectors.gamma_partners"
        ),
        "core.try_actions.calls": tracer.calls("core.try_actions"),
        "core.actions_per_call": _ratio(c["core.actions"], tracer.calls("core.try_actions")),
        "core.try_actions.self_s": tracer.self_time("core.try_actions"),
        "objects.precedes.calls": tracer.calls("objects.log.precedes"),
        "objects.precedes_per_delivery": _ratio(
            tracer.calls("objects.log.precedes"), alg1_deliveries
        ),
        "objects.messages_before.calls": tracer.calls("objects.log.messages_before"),
        "objects.log.self_s": tracer.self_time(
            "objects.log.precedes",
            "objects.log.messages_before",
            "objects.log.append",
            "objects.log.other",
        ),
        "objects.log.appends": tracer.calls("objects.log.append"),
        "objects.consensus.proposes": tracer.calls("objects.consensus.propose"),
        "props.check_s": tracer.total("props.batch_verdicts"),
        "workloads.build_s": tracer.total("workloads.build"),
        "groups.families_s": tracer.total("groups.families"),
        "workloads.orphaned_msgs": orphaned,
        "faults.injector.self_s": tracer.self_time("faults.injector"),
        "faults.events_applied": sum(
            sum(r.result.injector.stats.values())
            for r in runs
            if r.result is not None and r.result.injector is not None
        ),
        "campaign.overhead_s": tracer.total("campaign.run_campaign")
        - tracer.edges.get(("campaign.run_campaign", "workloads.run_scenario"), (0, 0.0))[1],
        "metrics.tracer.self_s": tracer.self_time("metrics.tracer"),
    }


def exactness_errors(runs: Iterable[Any]) -> List[str]:
    """Wrapper counts that disagree with the program's own totals.

    Checked per run that returned (a raised run leaves no totals): kernel
    steps against ``kernel.steps_taken``, datagrams against
    ``kernel.total_messages()``, and scheduler rounds against
    ``result.rounds`` on the round backends.
    """
    errors = []
    for run in runs:
        result, counts = run.result, run.counts
        if result is None or counts is None:
            continue
        checks = []
        if run.spec.backend == "kernel":
            checks.append(("sim.steps", counts.get("calls:sim.step", 0),
                           sum(result.kernel.steps_taken.values())))
            checks.append(("model.datagrams", counts.get("counter:model.datagrams", 0),
                           result.kernel.total_messages()))
        if run.spec.backend in ("engine", "kernel"):
            checks.append(("runtime.rounds", counts.get("calls:runtime.round", 0), result.rounds))
        for metric, traced, program in checks:
            if traced != program:
                errors.append(f"{run.spec.name}: {metric} traced {traced} != program {program}")
    return errors
