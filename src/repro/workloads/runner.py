"""Scenario runner: drive a topology + failure pattern + send script.

A *send script* is a sequence of :class:`Send` instructions — who
multicasts to which group, at which round, with which payload.  The runner
wires an :class:`repro.core.AtomicMulticast` deployment, interleaves the
sends with execution rounds (so multicasts race each other and crashes),
runs to quiescence and returns the :class:`repro.model.RunRecord` plus the
message objects, ready for the property checkers.

The one entry point takes a *spec*::

    spec = ScenarioSpec.capture(topology, pattern, sends, seed=3)
    result = run_scenario(spec)

A :class:`repro.workloads.spec.ScenarioSpec` is a frozen, hashable value
object, so scenarios can be stored, hashed, shipped to worker processes
and replayed (see :mod:`repro.campaign`).

Three *backends* execute a spec:

* ``backend="engine"`` (default) — the §4.4 shared-object
  :class:`MulticastSystem`, Algorithm 1 proper, on the round-based
  :class:`repro.runtime.Scheduler`;
* ``backend="kernel"`` — the Appendix-A step-level :class:`Kernel`
  running one :class:`repro.substrates.replicated_log.ReplicatedLogCluster`
  per destination group.  Groups must be pairwise disjoint (a shared
  member would need the cross-log coordination that *is* Algorithm 1);
  each send becomes an ``append`` of the message id at the sender's
  replica, and the synthesized :class:`RunRecord` marks a delivery when
  a replica applies that id, so the same §2.2 property checkers judge
  both backends;
* ``backend="async"`` (schema v5) — the same Algorithm 1 deployment,
  but driven by the :class:`repro.runtime.async_driver.AsyncDriver`:
  every process is an asyncio task, wakes travel through
  latency-modelled in-memory channels (``spec.delay_model``), and time
  is either a seeded virtual clock (``spec.clock="virtual"``, fully
  replayable) or the real wall clock.  The run produces the same
  :class:`RunRecord` shape, so delivery sets and property verdicts are
  directly comparable with the round backends.

:func:`run_scenario` is the one host: it owns the send ``issue``
callback, the watchdog, the injector audit, the trace and the result.
Each backend is a small adapter supplying only what differs (see
"Backend adapters" below); engine and kernel share one issue/tick/drain
loop, while the async driver's clock decides when each send is issued.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.faults.injector import AdmissibilityError, FaultInjector, injector_for
from repro.groups.topology import Group, GroupTopology
from repro.metrics.trace import TraceRecorder
from repro.model.errors import PropertyViolation, SimulationError, TopologyError
from repro.model.failures import FailurePattern, Time
from repro.model.messages import MessageFactory, MulticastMessage
from repro.model.processes import ProcessId
from repro.model.runs import RunRecord
from repro.runtime.async_driver import AsyncDriver
from repro.runtime.watchdog import StallWatchdog
from repro.sim.kernel import Kernel
from repro.substrates.replicated_log import ReplicatedLogCluster
from repro.workloads.spec import ScenarioSpec


@dataclass(frozen=True)
class Send:
    """One scripted multicast.

    Attributes:
        sender: 1-based process index (must belong to the group).
        group: destination group name.
        at_round: engine round at which the multicast is issued.
        payload: optional application payload (keep it a JSON scalar if
            the enclosing spec must round-trip through JSON).
    """

    sender: int
    group: str
    at_round: Time = 0
    payload: object = None


def triage_record(spec: ScenarioSpec) -> Dict[str, Any]:
    """The one-line repro record attached to every failure.

    Carries exactly what replaying the run needs — the spec's content
    address, the schedule seed, the backend and the fault plan hash —
    so a red row (or a raised checker exception) is reproducible from
    the log alone.
    """
    return {
        "spec_hash": spec.spec_hash(),
        "seed": spec.seed,
        "backend": spec.backend,
        "fault_plan_hash": (
            spec.faults.plan_hash() if spec.faults is not None else None
        ),
    }


def scenario_cache_key(spec: ScenarioSpec) -> str:
    """Stable content address of one grid cell's *result* (sha256 hex).

    A result row is a pure function of ``(spec_hash, seed, backend,
    fault_plan_hash)`` — exactly the :func:`triage_record` fields — so
    the key is the hash of that record's canonical JSON.  Crucially the
    spec's free-form label is *not* part of the key (``spec_hash``
    already excludes it): two campaigns that sweep the same cell under
    different labels share one cache entry, and the campaign cache
    re-labels hits from the live spec (see
    :class:`repro.campaign.cache.CampaignCache`).
    """
    canonical = json.dumps(
        triage_record(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def triage_line(spec: ScenarioSpec) -> str:
    """:func:`triage_record` rendered as one greppable line."""
    record = triage_record(spec)
    return (
        f"[triage spec_hash={record['spec_hash']} seed={record['seed']} "
        f"backend={record['backend']} "
        f"fault_plan={record['fault_plan_hash'] or '-'}]"
    )


@dataclass
class ScenarioResult:
    """Everything a test needs to judge a finished run.

    Attributes:
        spec: the :class:`ScenarioSpec` that produced this result — a
            result self-describes the scenario behind it.
        skipped_sends: sends whose sender was already crashed at their
            round — legitimately impossible, not a runner failure.
        unsent_sends: sends never issued because ``max_rounds`` ran out
            before their round was reached.  A truncated script proves
            nothing, so :meth:`delivered_everywhere` refuses success
            while this list is non-empty.
        truncated: True when the run ended because the round budget ran
            out rather than because the system went quiescent — either
            sends were left unissued (``unsent_sends``) or the drain
            phase was cut short.  A truncated run proves nothing.
        quiescent: whether the drain phase actually reached quiescence
            (the executing loop's ``last_run_quiescent``) — the
            productive half of ``truncated``, surfaced on its own so
            sweep rows can distinguish "budget ran out" from "script was
            never finished".
        system: the engine deployment (``None`` for kernel-backed runs).
        kernel: the step-level kernel (``None`` for engine-backed runs).
    """

    record: RunRecord
    messages: List[MulticastMessage]
    rounds: int
    spec: ScenarioSpec
    system: Optional[MulticastSystem] = None
    kernel: Optional[Kernel] = None
    skipped_sends: List[Send] = field(default_factory=list)
    unsent_sends: List[Send] = field(default_factory=list)
    truncated: bool = False
    quiescent: bool = True
    #: The bound :class:`repro.faults.FaultInjector` of a faulted run
    #: (``None`` for fault-free runs) — its stats feed the result row.
    injector: Optional[FaultInjector] = None
    #: Async-backend ack/retransmit counters
    #: (:attr:`AsyncDriver.last_transport_stats`); ``None`` on the round
    #: backends, which have no transport layer.
    transport_stats: Optional[Dict[str, int]] = None

    @property
    def backend(self) -> str:
        """Which execution loop produced this result."""
        return self.spec.backend

    @property
    def tracer(self) -> TraceRecorder:
        """The per-round trace of whichever loop ran the scenario."""
        if self.system is not None:
            return self.system.tracer
        assert self.kernel is not None
        return self.kernel.tracer

    def delivered_everywhere(self) -> bool:
        if self.unsent_sends or self.truncated:
            return False
        # Judged on the record alone (not the live system), so both
        # backends share one definition: every *correct* destination
        # member delivered every scripted message.
        pattern = self.record.pattern
        for m in self.messages:
            wanted = {p for p in m.dst if pattern.is_correct(p)}
            if not wanted <= self.record.delivered_by(m):
                return False
        return True

    def to_row(self) -> Dict[str, Any]:
        """The result as one flat, JSON-ready sweep row.

        The row carries the spec (and its content hash) next to the
        outcome — delivery verdict, rounds, truncation, send accounting,
        the engine's trace totals and the §2.2 property verdicts — so a
        results file is self-contained: every row names the scenario
        that produced it and can be replayed from the row alone.
        """
        from repro.props.batch import batch_verdicts, variant_checks

        trace = self.tracer.summary()
        row: Dict[str, Any] = {
            "name": self.spec.name,
            "spec_hash": self.spec.spec_hash(),
            "status": "ok",
            "backend": self.backend,
            "delivered_everywhere": self.delivered_everywhere(),
            "truncated": self.truncated,
            "quiescent": self.quiescent,
            "rounds": self.rounds,
            "messages": len(self.messages),
            "skipped_sends": len(self.skipped_sends),
            "unsent_sends": len(self.unsent_sends),
            "deliveries": len(self.record.deliveries),
            "verdicts": batch_verdicts(
                self.record,
                extra=variant_checks(self.spec.variant),
            ),
            "trace": {
                "eligible": trace["eligible"],
                "scanned": trace["scanned"],
                "actions": trace["actions"],
                "quorum_stalls": trace["quorum_stalls"],
                # Coverage inputs (cache schema 2): the explorer
                # fingerprints runs from rows alone, so the row carries
                # every signal repro.explore.coverage consumes.
                "rounds": trace["rounds"],
                "skipped": trace["skipped"],
                "full_scan_rounds": trace["full_scan_rounds"],
                "quorum_queries": trace["quorum_queries"],
                "gamma_queries": trace["gamma_queries"],
                "indicator_queries": trace["indicator_queries"],
                "wait_reasons": trace["wait_reasons"],
                "interleaving": trace["interleaving"],
            },
            "spec": self.spec.to_json(),
        }
        if self.injector is not None:
            row["faults"] = self.injector.summary()
        if self.transport_stats is not None:
            row["transport"] = dict(self.transport_stats)
        return row

    def assert_ok(self) -> None:
        """Raise :class:`PropertyViolation` unless every checker passes.

        Unlike a bare assertion on :func:`batch_verdicts`, the raised
        exception carries the triage line (spec hash, seed, backend,
        fault plan hash), so a red run is replayable from the error
        message alone.
        """
        from repro.props.batch import batch_verdicts, variant_checks

        verdicts = batch_verdicts(
            self.record, extra=variant_checks(self.spec.variant)
        )
        suffix = f" {triage_line(self.spec)}"
        bad = {name: count for name, count in verdicts.items() if count}
        if bad:
            raise PropertyViolation(
                "+".join(sorted(bad)), f"violation counts {bad}{suffix}"
            )
        if self.truncated:
            raise PropertyViolation(
                "termination",
                f"run truncated before quiescence — proves nothing{suffix}",
            )


def run_scenario(
    spec: ScenarioSpec,
    *,
    trace_path: Optional[str] = None,
    stall_window: Optional[int] = None,
) -> ScenarioResult:
    """Execute a scripted scenario to quiescence.

    ``trace_path`` and ``stall_window`` are the only arguments besides
    the spec: an output sink and a liveness backstop — execution-harness
    concerns, not part of the scenario (derive a variant scenario with
    ``dataclasses.replace``).

    ``stall_window`` arms the stall watchdog: a run whose progress
    fingerprint (deliveries for the engine/async backends, applied log
    entries for the kernel) does not change for that many consecutive
    rounds past the settle horizon raises
    :class:`repro.runtime.watchdog.StallError` carrying the wait-reason
    histogram, instead of burning the rest of its round budget.  The
    watchdog never changes what an un-stalled run computes — it only
    decides how long a stalled one is allowed to spin — so spec hashes
    and golden traces are unaffected.

    A send whose sender is not a member of its destination group breaks
    the closed model and raises :class:`SimulationError` on every
    backend.  Sends whose sender is already crashed at their round are
    skipped and reported in ``skipped_sends`` (a crashed process cannot
    multicast).  Sends still waiting for their round when ``max_rounds``
    runs out are reported in ``unsent_sends``, and a run whose drain
    phase exhausts the budget before quiescence is flagged
    ``truncated`` — in both cases the run proves nothing and
    ``delivered_everywhere()`` refuses success.

    When ``trace_path`` is given, the per-round trace is written there
    as JSONL (see :mod:`repro.metrics.trace`) after the run finishes.
    """
    topology = spec.build_topology()
    pattern = spec.build_pattern()
    injector = injector_for(spec.faults, topology, seed=spec.seed)
    if injector is not None:
        # Crash bursts perturb the failure pattern *before* the system
        # is built, so detectors, settle horizons and the record all see
        # the faulted pattern.
        pattern = injector.perturb_pattern(pattern)
    host = _HOSTS[spec.backend](spec, topology, pattern, injector)
    messages: List[MulticastMessage] = []
    skipped: List[Send] = []

    def issue(send: Send, t: Time) -> None:
        sender = _process(topology, send.sender)
        group = topology.group(send.group)
        if sender not in group:
            raise SimulationError(
                f"closed model: {sender.name} does not belong to {send.group}"
            )
        if not pattern.is_alive(sender, t):
            skipped.append(send)
            return
        messages.append(host.multicast(sender, group, send.payload))

    def arm() -> Optional[StallWatchdog]:
        # The watchdog reads its progress baseline when it is built, so
        # each backend arms it at the start of its drain.
        if stall_window is None:
            return None
        return StallWatchdog(
            host.progress,
            window=stall_window,
            wait_reasons=lambda: host.tracer.summary()["wait_reasons"],
            grace=host.settle_horizon(),
        )

    pending = sorted(spec.sends, key=lambda s: s.at_round)
    rounds, unsent, quiescent = host.drive(pending, issue, arm)
    host.finish()
    if injector is not None:
        # Post-run admissibility audit: a violating injector never
        # passes silently.
        violations = injector.audit(host.time, buffer=host.buffer, pattern=pattern)
        if violations:
            raise AdmissibilityError(
                "fault plan left the admissible envelope: "
                f"{'; '.join(violations)} {triage_line(spec)}"
            )
    if trace_path is not None:
        host.tracer.write_jsonl(
            trace_path,
            meta={
                "topology": repr(topology),
                "pattern": str(pattern),
                "seed": spec.seed,
                "spec_hash": spec.spec_hash(),
                "sends": len(spec.sends),
                "rounds": rounds,
                **host.meta(),
            },
        )
    return ScenarioResult(
        record=host.record,
        messages=messages,
        rounds=rounds,
        spec=spec,
        system=host.system,
        kernel=host.kernel,
        skipped_sends=skipped,
        unsent_sends=unsent,
        truncated=bool(unsent) or not quiescent,
        quiescent=quiescent,
        injector=injector,
        transport_stats=host.transport_stats,
    )


# -- Backend adapters: the deployment, ``multicast``, the ``progress``
# fingerprint, ``drive``, ``finish`` and extra trace-meta keys; nothing else.

_Issue = Callable[[Send, Time], None]
_Arm = Callable[[], Optional[StallWatchdog]]
#: What ``drive`` reports: rounds run, unsent sends, quiescence.
_Drive = Tuple[int, List[Send], bool]


class _Host:
    """Adapter defaults, and the issue/tick/drain loop of the round
    backends (the async adapter overrides ``drive``)."""

    spec: ScenarioSpec
    system: Optional[MulticastSystem] = None
    kernel: Optional[Kernel] = None
    buffer: Any = None
    transport_stats: Optional[Dict[str, int]] = None

    def drive(self, pending: List[Send], issue: _Issue, arm: _Arm) -> _Drive:
        max_rounds = self.spec.max_rounds
        rounds = cursor = 0
        # Issue each send at its round; the tick that exhausts the
        # budget ends the issue phase.
        while cursor < len(pending):
            if pending[cursor].at_round <= self.time:
                issue(pending[cursor], self.time)
                cursor += 1
                continue
            self.tick()
            rounds += 1
            if rounds >= max_rounds:
                break
        watchdog = arm()
        # The drain gets whatever budget the issue loop left, never a
        # negative allowance.
        rounds += self.drain(
            max(0, max_rounds - rounds),
            watchdog.stop_when(lambda: self.time) if watchdog else None,
        )
        return rounds, list(pending[cursor:]), self.quiescent

    def finish(self) -> None:
        pass


class _EngineHost(_Host):
    """Algorithm 1 proper: the §4.4 shared-object :class:`MulticastSystem`
    on the round-based scheduler."""

    def __init__(
        self,
        spec: ScenarioSpec,
        topology: GroupTopology,
        pattern: FailurePattern,
        injector: Optional[FaultInjector],
    ) -> None:
        self.spec = spec
        self.system = MulticastSystem(
            topology,
            pattern,
            variant=spec.variant,
            gamma_lag=spec.gamma_lag,
            indicator_lag=spec.indicator_lag,
            seed=spec.seed,
            scheduling=spec.scheduling,
            injector=injector,
        )
        self._multicaster = AtomicMulticast(self.system)
        self.record = self.system.record
        self.tracer = self.system.tracer
        self.settle_horizon = self.system.settle_horizon
        self.tick = self.system.tick

    @property
    def time(self) -> Time:
        return self.system.time

    @property
    def quiescent(self) -> bool:
        return self.system.last_run_quiescent

    def multicast(
        self, sender: ProcessId, group: Group, payload: object
    ) -> MulticastMessage:
        return self._multicaster.multicast(sender, group.name, payload)

    def progress(self) -> int:
        return len(self.record.deliveries)

    def drain(self, budget: int, stop_when: Optional[Callable[[], bool]]) -> int:
        return self.system.run(max_rounds=budget, stop_when=stop_when)

    def meta(self) -> Dict[str, Any]:
        return {"variant": self.spec.variant, "scheduling": self.spec.scheduling}


class _AsyncHost(_EngineHost):
    """The engine deployment under the :class:`AsyncDriver`.

    Every process is an asyncio task and shared-object wake-ups travel
    through latency-modelled channels (``spec.delay_model``).  Each
    ``fire`` is atomic under cooperative scheduling, so shared-object
    operations stay linearizable and the run is an admissible run of the
    same model; only the interleaving (and hence the round count)
    differs.  The driver's clock decides when a send is issued, so the
    driver runs the script itself.
    """

    def drive(self, pending: List[Send], issue: _Issue, arm: _Arm) -> _Drive:
        spec = self.spec
        # Virtual runs finish instantly regardless of the round duration,
        # so use the natural 1s = 1 round mapping; wall runs compress
        # rounds to keep real elapsed time bounded (600 rounds ≈ 12s).
        round_duration = 1.0 if spec.clock == "virtual" else 0.02
        self.driver = AsyncDriver(
            self.system,
            delay_model=spec.delay_model,
            round_duration=round_duration,
            clock=spec.clock,
            seed=spec.seed,
        )
        watchdog = arm()
        if watchdog is not None and spec.clock == "wall":
            # A hung loop stops producing logical checks, but never
            # stops the wall clock.
            watchdog.wall_budget = max(30.0, watchdog.window * round_duration * 4)
        outcome = self.driver.run(
            sends=pending,
            issue=issue,
            max_rounds=spec.max_rounds,
            quiescent_rounds=2,
            watchdog=watchdog,
        )
        self.transport_stats = dict(self.driver.last_transport_stats)
        unsent = list(pending[self.driver.sends_cursor :])
        return outcome.rounds, unsent, outcome.quiescent

    def meta(self) -> Dict[str, Any]:
        return {
            "variant": self.spec.variant,
            "backend": "async",
            "clock": self.spec.clock,
            "delay_model": repr(self.driver.delay.spec()),
        }


class _KernelHost(_Host):
    """One replicated log per destination group on the Appendix-A kernel.

    Each group gets its own
    :class:`~repro.substrates.replicated_log.ReplicatedLogCluster` (one
    log per group, the §4.3 universal construction), all hosted by a
    single :class:`Kernel` so the whole scenario shares one clock, one
    message buffer and one scheduler.  A send becomes an ``append`` of
    the minted message id at the sender's replica; a replica *delivers*
    the message when its log applies that id.  Step accounting stays in
    ``kernel.steps_taken`` — kernel steps are datagram receipts, not
    engine actions, and charging them as record steps would make the
    Minimality audit compare incomparable units.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        topology: GroupTopology,
        pattern: FailurePattern,
        injector: Optional[FaultInjector],
    ) -> None:
        for g, h in itertools.combinations(topology.groups, 2):
            if g.members & h.members:
                raise TopologyError(
                    f"kernel backend needs pairwise-disjoint groups: "
                    f"{g.name} and {h.name} share "
                    f"{sorted(p.name for p in g.members & h.members)} "
                    f"(intersecting groups need Algorithm 1 — the engine "
                    f"backend)"
                )
        self.spec = spec
        supersede = "wait" if "supersede-wait" in spec.quirks else "abandon"
        # Faulted runs arm the proposer's fair-lossy retransmission timer:
        # a PREPARE/ACCEPT lost to a drop, a partition crossing, or an
        # acceptor's crash–rejoin window must eventually be re-offered or
        # the slot wedges.  Fault-free runs leave it off, so the golden
        # kernel fingerprints (exact step counts) are untouched.
        retransmit_interval = 8 if injector is not None else None
        self._clusters = {
            g.name: ReplicatedLogCluster(
                pattern,
                g.members,
                supersede=supersede,
                retransmit_interval=retransmit_interval,
            )
            for g in topology.groups
        }
        automata = {}
        detectors = {}
        for cluster in self._clusters.values():
            automata.update(cluster.automata)
            detectors.update(cluster.detectors)
        self.kernel = Kernel(
            pattern,
            automata,
            detectors,
            seed=spec.seed,
            scheduling="event" if spec.kernel_event_driven() else "scan",
            injector=injector,
        )
        self.record = RunRecord(topology.processes, pattern)
        self.tracer = self.kernel.tracer
        self.buffer = self.kernel.buffer
        self.settle_horizon = self.kernel.settle_horizon
        self.tick = self.kernel.round
        self._factory = MessageFactory()
        self._by_mid: Dict[Any, MulticastMessage] = {}

    @property
    def time(self) -> Time:
        return self.kernel.time

    @property
    def quiescent(self) -> bool:
        return self.kernel.last_run_quiescent

    def multicast(
        self, sender: ProcessId, group: Group, payload: object
    ) -> MulticastMessage:
        message = self._factory.multicast(sender, group.members, payload)
        self._by_mid[message.mid] = message
        self.record.note_multicast(self.kernel.time, sender, message)
        self._clusters[group.name].append(sender, message.mid)
        return message

    def progress(self) -> int:
        # Log entries applied anywhere: the supersede-wait stall keeps
        # datagrams circulating (steps fire every round), so step counts
        # cannot be the fingerprint — applied outputs can.
        return sum(len(entries) for entries in self.kernel.outputs.values())

    def drain(self, budget: int, stop_when: Optional[Callable[[], bool]]) -> int:
        return self.kernel.run(budget, quiescent_rounds=2, stop_when=stop_when)

    def finish(self) -> None:
        # Synthesize the delivery trace: a replica delivered m when its
        # log applied m's id.  Sorted by (time, process, apply order) so
        # the global event list is deterministic; per-process order is
        # the apply order, which is what Ordering judges.
        applies: List[Tuple[Time, int, int, ProcessId, MulticastMessage]] = []
        for p, entries in self.kernel.outputs.items():
            for position, (when, value) in enumerate(entries):
                if (
                    isinstance(value, tuple)
                    and len(value) == 3
                    and value[0] == "applied"
                    and value[2] in self._by_mid
                ):
                    applies.append(
                        (when, p.index, position, p, self._by_mid[value[2]])
                    )
        for when, _, _, p, message in sorted(applies, key=lambda e: e[:3]):
            self.record.note_delivery(when, p, message)

    def meta(self) -> Dict[str, Any]:
        return {"backend": "kernel", "event_driven": self.spec.kernel_event_driven()}


_HOSTS = {"engine": _EngineHost, "kernel": _KernelHost, "async": _AsyncHost}


def random_sends(
    topology: GroupTopology,
    count: int,
    seed: int = 0,
    spread_rounds: int = 5,
) -> List[Send]:
    """A seeded random send script respecting the closed model."""
    rng = random.Random(seed)
    sends: List[Send] = []
    for _ in range(count):
        group = rng.choice(topology.groups)
        sender = rng.choice(sorted(group.members))
        sends.append(
            Send(
                sender=sender.index,
                group=group.name,
                at_round=rng.randint(0, spread_rounds),
            )
        )
    return sends


def _process(topology: GroupTopology, index: int) -> ProcessId:
    for p in topology.processes:
        if p.index == index:
            return p
    raise ValueError(f"no process with index {index}")
