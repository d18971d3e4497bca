"""The asynchronous driver: the same actors, under real (or virtual) time.

Where :meth:`repro.runtime.scheduler.Scheduler.round` advances a
logical clock in lockstep and shuffles the eligible set once per round,
the :class:`AsyncDriver` runs every actor of the host's
:class:`~repro.runtime.scheduler.Scheduler` as its own asyncio task and
lets *time* interleave them: each cross-process wake travels through an
in-memory channel (:class:`AsyncTransport`) whose latency is drawn from
a pluggable :class:`repro.runtime.delay.DelayModel`, and each process
pauses a model-drawn scheduling latency between consecutive steps.  The
paper's model is exactly this — shared-object operations linearize
(asyncio's cooperative scheduling makes every ``fire`` atomic), but the
*schedule* is asynchronous — so a driver run is just another admissible
run of Algorithm 1, and the §2.2 property checkers judge it unchanged.

Time is bilingual.  The driver's wall clock (real, or a seeded
:class:`repro.runtime.clock.VirtualClock`) advances continuously; the
model-facing *logical* time is ``t = floor(elapsed / round_duration) +
1``, so crash times, detector lags and settle horizons — all defined in
round units — keep their meaning.  The host's scheduler clock is synced
to logical time before every fire, so records, quorum guards and
detector queries see a monotone clock.

Fault plans carry over: the driver maps the injector's link verdicts
onto channel perturbations (``link_delay`` adds rounds of latency to a
wake, ``link_drop`` drops it and re-delivers at the fair-lossy
retransmission time, duplication is a harmless extra wake) and honours
participation churn by putting suppressed actors to sleep through their
windows.  Detector noise already applies inside the host's oracles.

What the golden suite does *not* pin here: wall-clock interleavings are
real nondeterminism, so two async runs may order concurrent deliveries
differently.  The differential agreement suite pins what must hold
regardless — delivery sets and property verdicts — and the virtual
clock pins full byte-determinism for replay.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.model.errors import SimulationError
from repro.model.failures import Time
from repro.runtime.clock import VirtualClock
from repro.runtime.delay import DelayModel, build_delay_model
from repro.runtime.scheduler import Key, RunOutcome, Scheduler

#: Clock sources the driver accepts.
CLOCK_MODES = ("virtual", "wall")

#: Floor on the pacing sleep between consecutive steps of one actor
#: (round units).  Keeps a productive actor from monopolizing the loop
#: at one virtual instant — time must move for crashes and detector
#: transitions to mean anything.
MIN_PACE = 0.125

#: How long a parked actor waits on its channel before re-checking its
#: wait condition anyway (round units).  A pure liveness backstop: with
#: correct wake accounting the event always arrives first.
POLL_ROUNDS = 4.0


def derive_async_seed(seed: int, delay_spec: Any) -> int:
    """The driver RNG seed: a pure function of (run seed, delay spec).

    Mirrors :func:`repro.faults.injector.derive_injector_seed`: latency
    randomness must never touch the host's schedule RNG, and a virtual
    clock replay must redraw the identical latency stream.
    """
    blob = f"async:{seed}:{delay_spec!r}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class RetransmitPolicy:
    """Seeded exponential backoff with jitter and a bounded budget.

    Governs the driver's ack/retransmit resilience layer: when the
    fault plan drops a wake, the sender schedules up to ``budget``
    optimistic retransmissions at exponentially growing, jittered
    offsets, plus the *unconditional* fair-lossy landing at the lossy
    window's close.  All randomness is drawn from the driver's private
    RNG, so the ladder is byte-deterministic under
    :class:`repro.runtime.clock.VirtualClock`.

    Attributes:
        base: first backoff offset, in round units.
        factor: multiplicative growth per retry.
        jitter: fraction of the offset randomized per retry (``0.25``
            means each offset stretches by up to 25%).
        budget: maximum optimistic retransmissions per dropped wake
            (the fair-lossy backstop is never part of the budget).
    """

    __slots__ = ("base", "factor", "jitter", "budget")

    def __init__(
        self,
        base: float = 0.5,
        factor: float = 2.0,
        jitter: float = 0.25,
        budget: int = 3,
    ) -> None:
        if base <= 0 or factor < 1.0 or budget < 0 or not 0 <= jitter <= 1:
            raise SimulationError(
                "retransmit policy needs base > 0, factor >= 1, "
                "budget >= 0 and jitter in [0, 1]"
            )
        self.base = float(base)
        self.factor = float(factor)
        self.jitter = float(jitter)
        self.budget = int(budget)

    def offsets(self, rng: random.Random) -> List[float]:
        """Cumulative backoff offsets (round units) of each retry."""
        delay, elapsed, out = self.base, 0.0, []
        for _ in range(self.budget):
            elapsed += delay * (1.0 + self.jitter * rng.random())
            out.append(elapsed)
            delay *= self.factor
        return out


class AsyncTransport:
    """In-memory wake channels: one event per actor, deliveries timed.

    The engine's shared objects stand in for the payload network (state
    is linearizable the instant it is written); what the transport
    carries is *visibility* — the wake that tells a reader its wait
    condition may have changed.  A delivery scheduled ``latency`` ahead
    means the reader will not notice the write before then, which is
    precisely a channel delay in the shared-memory reading of the model.
    """

    def __init__(self, loop: Any, keys: Sequence[Key]) -> None:
        self._loop = loop
        self.events: Dict[Key, asyncio.Event] = {
            key: asyncio.Event() for key in keys
        }
        #: Wakes scheduled but not yet landed — nonzero means the system
        #: is *not* quiescent no matter how idle it looks.
        self.in_flight = 0
        self.delivered = 0
        #: Resilience-layer accounting (see :meth:`deliver_with_retries`):
        #: retransmissions scheduled, acks observed (first landing of a
        #: laddered wake), and retries the ack cancelled.
        self.stats: Dict[str, int] = {
            "retries_scheduled": 0,
            "retries_lost": 0,
            "acked": 0,
            "retries_cancelled": 0,
        }

    def deliver_now(self, key: Key) -> None:
        """Zero-latency wake (local events: injection, detector ticks)."""
        event = self.events.get(key)
        if event is not None:
            event.set()

    def deliver_at(self, when: float, key: Key) -> None:
        """Schedule a wake to land at loop time ``when``."""
        if key not in self.events:
            return
        self.in_flight += 1
        self._loop.call_at(when, self._land, key)

    def deliver_with_retries(
        self, whens: Sequence[float], key: Key
    ) -> None:
        """Schedule one wake with a retransmission ladder.

        ``whens`` are the attempt instants (loop times) — the bounded
        optimistic retransmissions plus the unconditional fair-lossy
        backstop.  The first attempt to land delivers the wake and
        *acks* it, cancelling every later rung; cancelled rungs are
        retransmissions the ack made unnecessary.  Exactly one landing
        happens per call, so ``in_flight`` stays exact.
        """
        if key not in self.events or not whens:
            return
        self.in_flight += 1
        ordered = sorted(whens)
        self.stats["retries_scheduled"] += len(ordered) - 1
        handles: List[Any] = []

        def _ack(which: int) -> None:
            self.stats["acked"] += 1
            for i, handle in enumerate(handles):
                if i != which:
                    handle.cancel()
                    self.stats["retries_cancelled"] += 1
            self._land(key)

        for i, when in enumerate(ordered):
            handles.append(self._loop.call_at(when, _ack, i))

    def _land(self, key: Key) -> None:
        self.in_flight -= 1
        self.delivered += 1
        self.events[key].set()

    async def wait(self, key: Key, timeout: float) -> None:
        """Park on ``key``'s channel until a wake (or the timeout)."""
        event = self.events[key]
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except (asyncio.TimeoutError, TimeoutError):
            pass
        event.clear()


class AsyncDriver:
    """Drive a :class:`repro.core.MulticastSystem` under asynchrony.

    Args:
        system: the engine deployment to drive.  The driver reuses the
            system's :class:`~repro.runtime.scheduler.Scheduler` (actors,
            eligibility, responders, settle horizon, clock) and installs
            itself as the system's wake listener for the duration of
            :meth:`run`.
        delay_model: a :class:`DelayModel`, a delay spec tuple, or
            ``None`` for the default (see :mod:`repro.runtime.delay`).
        round_duration: wall seconds per round unit.  Virtual-clock runs
            conventionally use 1.0 (time is free); wall-clock runs pick
            the real pacing.
        clock: ``"virtual"`` (seeded-deterministic, the default) or
            ``"wall"`` (real time, real nondeterminism).
        seed: scenario seed; the driver derives its private latency RNG
            from ``(seed, delay spec)``.
    """

    def __init__(
        self,
        system: Any,
        *,
        delay_model: Any = None,
        round_duration: float = 1.0,
        clock: str = "virtual",
        seed: int = 0,
    ) -> None:
        if clock not in CLOCK_MODES:
            raise SimulationError(
                f"unknown clock {clock!r}; expected one of {CLOCK_MODES}"
            )
        if round_duration <= 0:
            raise SimulationError("round_duration must be positive")
        self.system = system
        self._sched: Scheduler = system._scheduler
        self.injector = system.injector
        self.delay: DelayModel = (
            delay_model
            if isinstance(delay_model, DelayModel)
            else build_delay_model(delay_model)
        )
        self.round_duration = float(round_duration)
        self.clock = clock
        self.rng = random.Random(derive_async_seed(seed, self.delay.spec()))
        #: The resilience layer's backoff ladder; only consulted when
        #: the fault plan drops a wake.
        self.retransmit = RetransmitPolicy()
        #: Transport resilience stats of the last completed run (the
        #: transport itself is torn down at run end).
        self.last_transport_stats: Dict[str, int] = {}
        #: Index of the first send not yet handed to ``issue`` when the
        #: run ended (everything before it was issued or skipped).
        self.sends_cursor = 0
        self._loop: Any = None
        self._transport: Optional[AsyncTransport] = None
        self._current: Optional[Key] = None
        self._t0 = 0.0
        self._fired_window = 0
        self._total_fired = 0
        self._quiescent = False
        self._stop: Optional[asyncio.Event] = None

    # -- Time --------------------------------------------------------------

    def now_t(self) -> Time:
        """Logical (round-unit) time of the driving clock."""
        elapsed = self._loop.time() - self._t0
        return int(elapsed / self.round_duration + 1e-9) + 1

    def _sync_time(self, t: Time) -> None:
        """Push logical time into the host's scheduler clock (monotone:
        ``now_t`` never decreases and equal pushes are no-ops)."""
        if t > self._sched.time:
            self._sched.time = t

    # -- Wake plumbing -----------------------------------------------------

    def _on_wake(self, woken: Any) -> None:
        """The host dirtied ``woken`` readers: route wakes through the
        channels.  Called synchronously from inside a fire (writer known)
        or from driver-level events like send injection (writer None)."""
        transport = self._transport
        if transport is None:
            return
        src = self._current
        if src is None:
            for dst in woken:
                transport.deliver_now(dst)
            return
        now = self._loop.time()
        t = self.now_t()
        for dst in woken:
            if dst == src:
                # The writer re-checks itself on its next loop turn.
                continue
            self._deliver(src, dst, t, now)

    def _deliver(self, src: Key, dst: Key, t: Time, now: float) -> None:
        """Route one wake through the channel model + resilience layer."""
        transport = self._transport
        rd = self.round_duration
        latency = self.delay.latency(src.index, dst.index, self.rng)
        if self.injector is not None:
            verdict = self.injector.on_send(src.index, dst.index, t)
            if verdict.dropped:
                transport.deliver_with_retries(
                    self._retry_ladder(src, dst, t, verdict, latency), dst
                )
                return
            latency += float(verdict.delay)
            # Duplicated wakes would be harmless no-ops on an event
            # channel; the verdict's copies need no realization.
        transport.deliver_at(now + max(latency, 0.0) * rd, dst)

    def _retry_ladder(
        self,
        src: Key,
        dst: Key,
        t: Time,
        verdict: Any,
        latency: float,
    ) -> List[float]:
        """Attempt instants (loop times) for one dropped wake.

        The ladder holds every bounded backoff retransmission whose
        probe time faces a *clear* channel
        (:meth:`repro.faults.FaultInjector.link_clear` — attempts
        inside the lossy window are lost and not scheduled), plus the
        unconditional fair-lossy landing at the window close.  The
        earliest rung acks the rest, so with a clear early retry the
        wake lands *before* the heal-time backstop — graceful
        degradation the round hosts cannot express.
        """
        transport = self._transport
        rd = self.round_duration
        now = self._loop.time()
        final = (
            now
            + (max(float(verdict.retransmit_at - t), 1.0) + latency) * rd
        )
        ladder = [final]
        for offset in self.retransmit.offsets(self.rng):
            when = now + (1.0 + offset + latency) * rd
            if when >= final:
                break
            probe_t = t + 1 + int(offset)
            if self.injector.link_clear(src.index, dst.index, probe_t):
                ladder.append(when)
                break
            transport.stats["retries_lost"] += 1
        return ladder

    def _pace(self, key: Key) -> float:
        """Scheduling latency between consecutive steps of ``key``."""
        return max(
            self.delay.latency(key.index, key.index, self.rng), MIN_PACE
        )

    # -- Tasks -------------------------------------------------------------

    async def _actor(self, key: Key) -> None:
        sched = self._sched
        actor = sched.actors[key]
        transport = self._transport
        rd = self.round_duration
        injector = sched.injector
        while not self._stop.is_set():
            t = self.now_t()
            if not sched.is_alive(key, t):
                rejoin = self.system.pattern.recovery_times.get(key)
                if rejoin is None or rejoin <= t:
                    return  # crash-stop: the task retires
                # Crash-recovery: park until the rejoin instant.  The
                # actor's in-memory state stands in for the durable
                # substrate snapshot (the kernel backend exercises the
                # explicit snapshot/restore path).
                target = self._t0 + (rejoin - 1) * rd
                await asyncio.sleep(max(target - self._loop.time(), rd))
                continue
            if injector is not None and injector.suppresses(key, t):
                # Participation churn: sleep through the window.
                await asyncio.sleep(rd)
                continue
            if t <= sched.settle_horizon() or not actor.parked(t):
                # Forced scans while detectors may still move mirror the
                # round loop's full-scan window.
                self._sync_time(t)
                self._current = key
                try:
                    fired = actor.fire(t, None, None)
                finally:
                    self._current = None
                self._fired_window += fired
                self._total_fired += fired
                await asyncio.sleep(self._pace(key) * rd)
                continue
            await transport.wait(key, POLL_ROUNDS * rd)

    async def _inject(
        self,
        pending: Sequence[Any],
        issue: Optional[Callable[[Any, Time], None]],
    ) -> None:
        """Issue each scripted send at the logical time the round loop
        would have: ``t == at_round`` (clamped to the async clock's
        t >= 1), so alive-at-issue races agree across backends."""
        loop = self._loop
        rd = self.round_duration
        for send in pending:
            target = max(send.at_round - 1, 0) * rd
            remaining = self._t0 + target - loop.time()
            if remaining > 0:
                await asyncio.sleep(remaining)
            t = self.now_t()
            self._sync_time(t)
            self.sends_cursor += 1
            if issue is not None:
                issue(send, t)

    async def _supervise(
        self,
        pending: Sequence[Any],
        max_rounds: int,
        quiescent_rounds: int,
        watchdog: Optional[Any] = None,
    ) -> None:
        try:
            await self._supervise_loop(
                pending, max_rounds, quiescent_rounds, watchdog
            )
        finally:
            # Whatever ends supervision — quiescence, budget, a raising
            # watchdog — the run must unwind rather than hang on _stop.
            self._stop.set()

    async def _supervise_loop(
        self,
        pending: Sequence[Any],
        max_rounds: int,
        quiescent_rounds: int,
        watchdog: Optional[Any],
    ) -> None:
        sched = self._sched
        transport = self._transport
        rd = self.round_duration
        idle = 0
        # Crash *and* recovery instants: a rejoin changes quorum
        # availability just as a crash does, so it forces wakes too.
        crash_instants = list(self.system.pattern.change_instants())
        instant_cursor = 0
        while True:
            await asyncio.sleep(rd)
            t = self.now_t()
            self._sync_time(t)
            eligible = sched.eligible_order(t)
            sched.refresh_responders(t, tuple(eligible), None)
            # Record participation transitions exactly like the round
            # loop does, so async runs carry the same interleaving
            # fingerprint stream the explorer uses as coverage.
            sched.note_fingerprint(tuple(eligible))
            # Forced wakes: the async analogue of the round loop's
            # full-scan triggers — detector settle window, and crossings
            # of crash instants (quorum availability changed).
            woke = False
            while (
                instant_cursor < len(crash_instants)
                and crash_instants[instant_cursor] <= t
            ):
                instant_cursor += 1
                woke = True
            if woke or t <= sched.settle_horizon() + 1:
                for key in eligible:
                    transport.deliver_now(key)
            if watchdog is not None:
                watchdog.check(t)
            if t >= max_rounds:
                self._quiescent = False
                break
            window, self._fired_window = self._fired_window, 0
            busy = (
                window > 0
                or transport.in_flight > 0
                or self.sends_cursor < len(pending)
                or t < sched.settle_horizon()
                or sched.has_pending_work()
            )
            if not busy and self._all_parked(t, eligible):
                idle += 1
                if idle >= quiescent_rounds:
                    self._quiescent = True
                    break
            else:
                idle = 0

    def _all_parked(self, t: Time, eligible: Sequence[Key]) -> bool:
        transport = self._transport
        for key in eligible:
            if transport.events[key].is_set():
                return False  # an unconsumed wake: someone will act
            if not self._sched.actors[key].parked(t):
                return False
        return True

    # -- Entry point -------------------------------------------------------

    def run(
        self,
        *,
        sends: Sequence[Any] = (),
        issue: Optional[Callable[[Any, Time], None]] = None,
        max_rounds: int = 600,
        quiescent_rounds: int = 2,
        watchdog: Optional[Any] = None,
    ) -> RunOutcome:
        """Run to quiescence (or the logical-round budget).

        ``sends`` is the scripted workload sorted by ``at_round``; the
        driver calls ``issue(send, t)`` when logical time reaches each
        instruction (the callback owns skip accounting and the actual
        multicast).  Returns a :class:`RunOutcome` whose ``rounds`` is
        the logical time reached — directly comparable with the round
        driver's budget accounting.
        """
        pending = sorted(sends, key=lambda s: s.at_round)
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            if self.clock == "virtual":
                VirtualClock().install(loop)
            return loop.run_until_complete(
                self._main(
                    pending, issue, max_rounds, quiescent_rounds, watchdog
                )
            )
        finally:
            if self._transport is not None:
                self.last_transport_stats = dict(self._transport.stats)
            self.system.wake_listener = None
            self._loop = None
            self._transport = None
            loop.close()

    async def _main(
        self,
        pending: Sequence[Any],
        issue: Optional[Callable[[Any, Time], None]],
        max_rounds: int,
        quiescent_rounds: int,
        watchdog: Optional[Any] = None,
    ) -> RunOutcome:
        loop = self._loop
        sched = self._sched
        self._t0 = loop.time()
        self._stop = asyncio.Event()
        self._transport = AsyncTransport(loop, sched.sorted_keys)
        self.system.wake_listener = self._on_wake
        self._fired_window = 0
        self._total_fired = 0
        self._quiescent = False
        self.sends_cursor = 0
        # The injection task is created first: asyncio runs tasks in
        # creation order, so sends due at the clock's first instant are
        # issued before any actor fires — as the round loop does.
        tasks: List[asyncio.Task] = [
            loop.create_task(self._inject(pending, issue))
        ]
        tasks.extend(
            loop.create_task(self._actor(key)) for key in sched.sorted_keys
        )
        supervisor = loop.create_task(
            self._supervise(pending, max_rounds, quiescent_rounds, watchdog)
        )
        await self._stop.wait()
        final_t = min(self.now_t(), max_rounds)
        for task in tasks:
            task.cancel()
        supervisor.cancel()
        results = await asyncio.gather(
            *tasks, supervisor, return_exceptions=True
        )
        for result in results:
            if isinstance(result, Exception) and not isinstance(
                result, asyncio.CancelledError
            ):
                raise result
        self._sync_time(final_t)
        sched.last_run_quiescent = self._quiescent
        return RunOutcome(
            rounds=final_t,
            quiescent=self._quiescent,
            fired=self._total_fired,
        )


__all__ = [
    "AsyncDriver",
    "AsyncTransport",
    "CLOCK_MODES",
    "RetransmitPolicy",
    "derive_async_seed",
]
