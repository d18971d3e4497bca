"""The three benchmark workloads: seeded spec builders, execution, accounting.

Every workload is a pure function of ``--seed``: :data:`BUILDERS` turns a
seed into a tuple of :class:`repro.workloads.ScenarioSpec` values, and the
program only ever sees those specs.  :func:`execute` runs them through the
program's public entry points (``run_scenario`` for the two stream
workloads, a serial ``run_campaign`` for the sweep) and :func:`account`
turns the finished runs into an :class:`Outcome`: delivery and failure
accounting, latency samples and a digest of every delivery record.

The run hook (:class:`RunHook`) is the only thing the benchmark puts
around the program in an untraced run.  It captures each
``run_scenario`` result (the campaign executor discards them after
building rows) and time-stamps the first scheduler round of each run, so
set-up time is measured on the program's own construction path.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign import executor as campaign_executor
from repro.faults.nemesis import MIXES, random_plan
from repro.faults.plan import FaultEvent, FaultPlan
from repro.groups.topology import paper_figure1_topology
from repro.props.batch import batch_verdicts, variant_checks
from repro.runtime.async_driver import AsyncDriver
from repro.runtime.scheduler import Scheduler
from repro.workloads import runner
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

#: Verdicts that stop the benchmark: a run that breaks one of these is
#: wrong, not slow.  Termination is the only liveness verdict; it is
#: counted in ``failed`` instead.
SAFETY = ("integrity", "ordering", "minimality", "strict_ordering")

# -- kernel-backlog -----------------------------------------------------------

#: The BENCH_scale shape: 40 disjoint 5-process groups, one send per
#: group every 3 rounds, 25 waves (1 000 multicasts, 5 000 deliveries).
KB_GROUPS = 40
KB_GROUP_SIZE = 5
KB_WAVES = 25
KB_SPACING = 3


def kernel_backlog(seed: int) -> Tuple[ScenarioSpec, ...]:
    """One kernel run of exactly the BENCH_scale shape (each group's
    first member sends); the seed is the kernel's schedule seed."""
    topology = TopologySpec.from_generator(
        {"kind": "disjoint", "k": KB_GROUPS, "group_size": KB_GROUP_SIZE}
    )
    sends = tuple(
        Send(
            sender=(gi - 1) * KB_GROUP_SIZE + 1,
            group=f"g{gi}",
            at_round=wave * KB_SPACING,
        )
        for wave in range(KB_WAVES)
        for gi in range(1, KB_GROUPS + 1)
    )
    return (
        ScenarioSpec(
            topology=topology,
            sends=sends,
            seed=seed,
            max_rounds=6000,
            backend="kernel",
            name=f"kernel-backlog:s{seed}",
        ),
    )


# -- figure1-stream -----------------------------------------------------------

#: Independent streams per workload, messages per stream, offered load.
#: 2 msgs/round is above Algorithm 1's measured capacity on Figure 1
#: (about 1.2 msgs/round), so the logs grow with each stream.
F1_STREAMS = 3
F1_MESSAGES = 300
F1_PER_ROUND = 2


def figure1_stream(seed: int) -> Tuple[ScenarioSpec, ...]:
    """Failure-free engine runs on the paper's Figure 1 topology, each a
    stream that goes round-robin over the groups and, within a group,
    over its members.  The seed picks every stream's round-robin starting
    points and engine schedule."""
    rng = random.Random(f"figure1-stream:{seed}")
    topology = paper_figure1_topology()
    topology_spec = TopologySpec.capture(topology)
    groups = sorted(topology.groups, key=lambda g: g.name)
    specs = []
    for stream in range(F1_STREAMS):
        group_start = rng.randrange(len(groups))
        member_start = rng.randrange(60)
        sends = []
        for i in range(F1_MESSAGES):
            group = groups[(group_start + i) % len(groups)]
            members = sorted(group.members)
            sender = members[(member_start + i // len(groups)) % len(members)]
            sends.append(Send(sender.index, group.name, i // F1_PER_ROUND))
        specs.append(
            ScenarioSpec(
                topology=topology_spec,
                sends=tuple(sends),
                seed=rng.randrange(1 << 30),
                max_rounds=20000,
                name=f"figure1-stream:s{seed}.{stream}",
            )
        )
    return tuple(specs)


# -- mixed-sweep --------------------------------------------------------------

#: Stall watchdog window (rounds) armed for every sweep cell.
MS_STALL_WINDOW = 60
MS_MAX_ROUNDS = 240
MS_ASYNC_ROUNDS = 400
MS_DELAY = ("uniform", 0.1, 0.9)
#: Seeded cells per (axis, backend): plain runs, nemesis draws per mix,
#: single-crash cases.
MS_PLAIN = 8
MS_NEMESIS = 18
MS_CRASHES = 12
#: Fault kinds left out of the plans drawn for the Algorithm 1 backends
#: (engine, async).  ``GammaOracle`` takes a family's fault time from
#: crash times alone and never readmits it after a rejoin, so a
#: ``crash_recover`` of a cyclic-family member lets Algorithm 1 deliver
#: around a cycle (an ``ordering`` violation; see :func:`ordering_witness`).
#: That is a safety defect, which stops the benchmark, so those cells
#: would make it fail on some seeds.  The kernel keeps every kind.
#: Once the oracle handles rejoins, the witness test in
#: ``perfbench/tests`` starts to pass and fails as strict-xfail: then
#: empty this tuple.
MS_ALGORITHM1_SKIPS = ("crash_recover",)


def mixed_sweep(seed: int) -> Tuple[ScenarioSpec, ...]:
    """Many short cells over every backend, fault mix and crash case.

    * Figure 1 on the engine and on async (uniform delays, virtual
      clock), and a 3x3 disjoint grid on all three backends;
    * every nemesis mix on each backend's base topology (without
      :data:`MS_ALGORITHM1_SKIPS` events on engine and async);
    * single-crash cases whose victim and crash round come from the
      seed, plus the kernel crash witness of the known stall (p1
      crashed at round 3 of the explorer's kernel base cell), which is
      counted, not avoided.
    """
    rng = random.Random(f"mixed-sweep:{seed}")
    figure1 = paper_figure1_topology()
    grid = disjoint_topology(3, group_size=3)
    base = disjoint_topology(2, group_size=3)
    shapes = {
        "figure1": (TopologySpec.capture(figure1), figure1),
        "grid": (TopologySpec.capture(grid), grid),
        "base": (TopologySpec.capture(base), base),
    }

    def cell(shape: str, backend: str, label: str, sends, **axes) -> ScenarioSpec:
        if backend == "async":
            axes = {"delay_model": MS_DELAY, "max_rounds": MS_ASYNC_ROUNDS, **axes}
        return ScenarioSpec(
            topology=shapes[shape][0],
            sends=tuple(sends),
            seed=rng.randrange(1 << 30),
            backend=backend,
            name=f"{label}:{backend}:{shape}",
            **{"max_rounds": MS_MAX_ROUNDS, **axes},
        )

    def script(shape: str, count: int) -> List[Send]:
        """One send per round, round-robin over the groups from a seeded
        start, each from a seeded member: the load is the same on every
        seed, only who sends where moves."""
        groups = sorted(shapes[shape][1].groups, key=lambda g: g.name)
        start = rng.randrange(len(groups))
        sends = []
        for i in range(count):
            group = groups[(start + i) % len(groups)]
            sender = rng.choice(sorted(group.members))
            sends.append(Send(sender.index, group.name, i))
        return sends

    cells: List[ScenarioSpec] = []
    for backend in ("engine", "async"):
        for _ in range(MS_PLAIN):
            cells.append(cell("figure1", backend, "plain", script("figure1", 10)))
    for backend in ("engine", "kernel", "async"):
        for _ in range(MS_PLAIN):
            cells.append(cell("grid", backend, "plain", script("grid", 12)))
    # Fault cells run on each backend's explorer base topology.
    fault_shapes = (("engine", "figure1"), ("kernel", "base"), ("async", "figure1"))
    for backend, shape in fault_shapes:
        topology = shapes[shape][1]
        group_names = tuple(sorted(g.name for g in topology.groups))
        for mix in MIXES:
            for _ in range(MS_NEMESIS):
                plan = random_plan(
                    rng.randrange(1 << 30),
                    mix,
                    process_count=len(topology.processes),
                    groups=group_names,
                )
                if backend != "kernel":
                    plan = FaultPlan(
                        tuple(e for e in plan.events if e.kind not in MS_ALGORITHM1_SKIPS)
                    )
                cells.append(
                    cell(shape, backend, f"nemesis-{mix}", script(shape, 6), faults=plan)
                )
        for _ in range(MS_CRASHES):
            victim = rng.randint(1, len(topology.processes))
            when = rng.randint(1, 8)
            cells.append(
                cell(
                    shape,
                    backend,
                    f"crash-p{victim}@{when}",
                    script(shape, 6),
                    crashes=((victim, when),),
                )
            )
    cells.append(
        cell(
            "base",
            "kernel",
            "stall-witness",
            (Send(1, "g1", 0), Send(4, "g2", 0)),
            crashes=((1, 3),),
        )
    )
    return tuple(cells)


def ordering_witness() -> ScenarioSpec:
    """The shrunk engine cell behind :data:`MS_ALGORITHM1_SKIPS`.

    Figure 1, p2 down over rounds 2–5 and then rejoined.  p1 delivers
    m1.1 before m2.1, p2 delivers m2.1 before m3.1 and p3 delivers m3.1
    before m1.1: a cycle.  Drawn as a chaos-mix cell of mixed-sweep
    seed 41 and shrunk to its one ``crash_recover`` event.
    """
    sends = ((4, "g4"), (2, "g1"), (3, "g2"), (1, "g3"), (5, "g4"), (2, "g1"))
    return ScenarioSpec(
        topology=TopologySpec.capture(paper_figure1_topology()),
        sends=tuple(Send(sender, group, i) for i, (sender, group) in enumerate(sends)),
        seed=230080555,
        backend="engine",
        max_rounds=MS_MAX_ROUNDS,
        faults=FaultPlan((FaultEvent(kind="crash_recover", start=2, until=5, targets=(2,)),)),
        name="ordering-witness:engine:figure1",
    )


BUILDERS: Dict[str, Callable[[int], Tuple[ScenarioSpec, ...]]] = {
    "kernel-backlog": kernel_backlog,
    "figure1-stream": figure1_stream,
    "mixed-sweep": mixed_sweep,
}

# -- Execution ----------------------------------------------------------------


@dataclass
class Run:
    """One executed spec: its result (``None`` when the run raised), the
    program's verdicts and, for raised runs, the error."""

    spec: ScenarioSpec
    result: Any = None
    verdicts: Optional[Dict[str, int]] = None
    error: Optional[str] = None
    setup_s: float = 0.0
    #: :func:`trail` of the result, kept in its place when the hook
    #: does not keep results.
    trail: Optional[str] = None
    #: Per-layer call counts this run added (traced passes only).
    counts: Optional[Dict[str, int]] = None


class RunHook:
    """Captures ``run_scenario`` results and the set-up time of each run.

    Set-up of one run is the time from entering ``run_scenario`` to its
    first scheduler round (round backends) or to ``AsyncDriver.run``
    (async backend): topology and pattern build, injector, deployment
    construction.  Installed once per process; the layer tracer wraps on
    top of it.

    With ``keep_results`` off, each run keeps only its :func:`trail`, so
    a timed pass does not hold every result of the pass alive: a
    campaign drops them after building rows, and a heap of hundreds of
    retained results makes each full garbage collection cost tenths of
    a second, landing at random in set-up or run time.  ``own_s``
    accumulates the time the hook spends on trails, which timed passes
    subtract.
    """

    def __init__(self) -> None:
        self.runs: List[Run] = []
        self.keep_results = True
        self.own_s = 0.0
        #: The active :class:`perfbench.layers.LayerTracer`, if any: each
        #: run then records the call counts it added.
        self.tracer: Any = None
        self._entered: Optional[float] = None
        self._current: Optional[Run] = None
        self._restore: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        original = runner.run_scenario
        hook = self

        def run_scenario(spec, *args, **kwargs):
            run = Run(spec)
            hook.runs.append(run)
            hook._current = run
            tracer = hook.tracer
            before = tracer.counts() if tracer is not None else None
            hook._entered = time.perf_counter()
            try:
                result = original(spec, *args, **kwargs)
            except BaseException as exc:
                run.error = repr(exc)
                raise
            finally:
                hook._mark()
                hook._current = None
                if tracer is not None:
                    after = tracer.counts()
                    run.counts = {k: v - before.get(k, 0) for k, v in after.items()}
            if hook.keep_results:
                run.result = result
            else:
                t0 = time.perf_counter()
                run.trail = trail(result)
                hook.own_s += time.perf_counter() - t0
            return result

        self._patch(runner, "run_scenario", run_scenario)
        self._patch(campaign_executor, "run_scenario", run_scenario)
        for owner, attr in ((Scheduler, "round"), (AsyncDriver, "run")):
            self._patch(owner, attr, self._first_round(owner.__dict__[attr]))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _mark(self) -> None:
        if self._entered is not None and self._current is not None:
            self._current.setup_s = time.perf_counter() - self._entered
        self._entered = None

    def _first_round(self, original: Callable) -> Callable:
        hook = self

        def wrapper(*args, **kwargs):
            if hook._entered is not None:
                hook._mark()
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def take(self) -> List[Run]:
        runs, self.runs = self.runs, []
        return runs


def execute(workload: str, specs: Sequence[ScenarioSpec], hook: RunHook) -> List[Run]:
    """Run ``specs`` through the program's entry point for ``workload``.

    The stream workloads call ``run_scenario`` per spec; the sweep is one
    serial ``run_campaign`` with the stall watchdog armed, whose rows
    supply the verdicts (a raising cell is a failed row, not a crash).
    """
    hook.take()
    if workload != "mixed-sweep":
        for spec in specs:
            runner.run_scenario(spec)
        return hook.take()
    report = campaign_executor.run_campaign(list(specs), workers=1, stall_window=MS_STALL_WINDOW)
    runs = hook.take()
    if len(runs) != len(specs) or len(report.rows) != len(specs):
        raise RuntimeError(
            f"sweep ran {len(runs)} scenarios and returned "
            f"{len(report.rows)} rows for {len(specs)} cells"
        )
    for run, row in zip(runs, report.rows):
        if row["status"] == "ok":
            run.verdicts = dict(row["verdicts"])
        elif run.error is None:
            run.error = str(row.get("error"))
    return runs


# -- Accounting ---------------------------------------------------------------


@dataclass
class Outcome:
    """What one pass over a workload produced, judged message by message.

    ``attempted`` counts multicasts the script asked for and the program
    could issue (sends whose sender had already crashed are skipped by
    the program and not counted).  A multicast *fails* when its run was
    truncated, stalled or raised, or when the §2.2 Termination checker
    names it.  An undelivered multicast that no checker obliges anyone
    to deliver (its sender crashed and nobody delivered it) is
    *orphaned*: counted apart, not as a failure.
    """

    runs: int = 0
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    orphaned: int = 0
    raised: int = 0
    truncated: int = 0
    correct_deliveries: int = 0
    span_rounds: int = 0
    latencies: List[int] = field(default_factory=list)
    safety: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    digest: str = ""

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def msgs_per_round(self) -> float:
        return self.completed / self.span_rounds if self.span_rounds else 0.0


def _issued_and_unsent(run: Run) -> int:
    result = run.result
    if result is None:
        return len(run.spec.sends)
    return len(result.messages) + len(result.unsent_sends)


def trail(result: Any) -> str:
    """sha256 over one result's truncation flag, round count and ordered
    delivery records (time, process, message)."""
    digest = hashlib.sha256(f"{result.truncated}|{result.rounds}\n".encode())
    for event in result.record.deliveries:
        mid = event.message.mid
        digest.update(
            f"{event.time}:{event.process.index}:"
            f"{mid.sender_index}.{mid.sequence}\n".encode()
        )
    return digest.hexdigest()


def record_digest(runs: Sequence[Run], verdicts: bool = True) -> str:
    """sha256 over every run's error, :func:`trail` and, when
    ``verdicts``, its verdict map."""
    digest = hashlib.sha256()
    for run in runs:
        digest.update(f"{run.spec.name}|{run.error}\n".encode())
        if verdicts:
            digest.update(f"{sorted((run.verdicts or {}).items())}\n".encode())
        run_trail = run.trail if run.result is None else trail(run.result)
        if run_trail is not None:
            digest.update(f"{run_trail}\n".encode())
    return digest.hexdigest()


def account(runs: Sequence[Run]) -> Outcome:
    """Judge every run.  Runs without verdicts (the stream workloads
    call ``run_scenario`` directly) get them here from the program's own
    batch checker."""
    out = Outcome(runs=len(runs))
    for run in runs:
        spec, result = run.spec, run.result
        attempted = _issued_and_unsent(run)
        out.attempted += attempted
        if result is None:
            out.raised += 1
            out.failed += attempted
            continue
        record = result.record
        if run.verdicts is None:
            run.verdicts = batch_verdicts(record, extra=variant_checks(spec.variant))
        verdicts = run.verdicts
        bad = {name: verdicts[name] for name in SAFETY if verdicts.get(name)}
        if bad:
            out.safety.append(f"{bad} {runner.triage_line(spec)}")
        pattern = record.pattern
        for event in record.deliveries:
            if pattern.is_correct(event.process):
                out.correct_deliveries += 1
            out.latencies.append(event.time - record.multicast_time(event.message))
        if result.truncated:
            out.truncated += 1
            out.failed += attempted
            continue
        obligated_missing = 0
        completed = 0
        for message in result.messages:
            wanted = {p for p in message.dst if pattern.is_correct(p)}
            got = record.delivered_by(message)
            if wanted <= got:
                completed += 1
            elif pattern.is_correct(message.src) or got:
                obligated_missing += 1
            else:
                out.orphaned += 1
        if obligated_missing != verdicts.get("termination", 0):
            out.mismatches.append(
                f"{obligated_missing} undelivered obligated messages but "
                f"termination verdict {verdicts.get('termination')} "
                f"{runner.triage_line(spec)}"
            )
        out.failed += obligated_missing
        out.completed += completed
        if completed:
            first = min(event.time for event in record.multicasts)
            last = max(event.time for event in record.deliveries)
            out.span_rounds += max(1, last - first)
    out.latencies.sort()
    out.digest = record_digest(runs)
    return out


def percentile(sorted_values: Sequence[int], q: float) -> float:
    """The ``q`` quantile of pre-sorted whole-round latencies.

    Latencies are whole rounds, so a plain order statistic jumps from
    one integer to the next as the distribution drifts.  Each value
    ``k`` is read as spread evenly over ``[k - 0.5, k + 0.5)`` (the
    grouped-data median), which makes the quantile move in proportion
    to the share of samples that moved.
    """
    n = len(sorted_values)
    if not n:
        return 0.0
    target = q * n
    value = sorted_values[min(int(target), n - 1)]
    below = bisect.bisect_left(sorted_values, value)
    upto = bisect.bisect_right(sorted_values, value)
    return value - 0.5 + (target - below) / (upto - below)
