"""The round scheduler — the one execution contract every host runs on.

Before this layer existed the repo ran the paper's constructions on two
parallel-evolved loops: the round-based shared-object engine
(:mod:`repro.core.engine`, Algorithm 1 and the §5/§6 emulations) and the
step-level Appendix-A kernel (:mod:`repro.sim.kernel`, the §4.3
message-passing substrates).  Both implemented the same per-round
contract — advance the clock, filter the alive processes inside the
participation set, shuffle them with the seeded RNG, dispatch, account
the round in the tracer, detect quiescence — with independently drifting
semantics.  The :class:`Scheduler` owns that contract once, in the
spirit of the single linearized-action model the paper reasons on
(§4.4): a run is a sequence of atomic actions under an adversarially
shuffled yet reproducible schedule.

One :class:`Scheduler` per host owns everything about *who may act and
who can answer*: the actor registry (sorted once), the alive ∩
participation eligibility filter with its crash-epoch memo,
injector-driven participation churn, the responder (quorum) set with its
change fingerprint, the settle-horizon and hidden-pending-work inputs of
quiescence, and the per-round tracer.  :meth:`Scheduler.round` and
:meth:`Scheduler.run` drive it in lockstep; the
:class:`repro.runtime.async_driver.AsyncDriver` drives the same
scheduler (and the same actors) under real or virtual time instead,
calling its eligibility, responder, fingerprint and quiescence methods
directly and syncing :attr:`Scheduler.time` to its logical clock.

Hosts adapt their unit of execution to the small :class:`Actor`
protocol (see :mod:`repro.runtime.actors`) and keep their public APIs as
thin delegations.  Two invariants make that safe:

* **RNG compatibility** — the scheduler draws from the RNG exactly as
  the seed loops did: one shuffle of the sorted eligible set per round,
  nothing else.  Parked actors are skipped *after* the shuffle, so the
  schedule of the actors that do act — and therefore every
  :class:`repro.model.RunRecord` trace — is byte-identical to a
  scan-everything run (``tests/runtime`` holds the pre-refactor golden
  fingerprints that pin this down).

* **Skip soundness** — an actor is skipped only when (a) the round is
  not a *full scan* and (b) the actor reports :meth:`Actor.parked`.
  Full scans are forced while ``time <= settle_horizon()`` (detector
  outputs may still move), whenever the (scheduled, responder) set pair
  changes (quorum availability), in ``scheduling="scan"`` mode, and on
  non-positive action budgets — the same conservative fallbacks the
  event-driven engine introduced in PR 1.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.metrics.trace import TraceRecorder
from repro.model.errors import SimulationError
from repro.model.failures import Time

#: Supported scheduling modes.
SCHEDULING_MODES = ("event", "scan")

#: Sortable actor key — a ProcessId for per-process hosts, a string for
#: whole-system hosts (baselines, emulation drivers).
Key = TypeVar("Key")


class Actor:
    """One schedulable unit: a process, or a whole subsystem.

    Adapters implement three verbs:

    * :meth:`parked` — whether skipping this actor in a non-full-scan
      round is provably a no-op.  The round loop consults it *after*
      the shuffle, so parking never changes the RNG stream; the async
      driver uses it to decide when a task may sleep on its channel.
    * :meth:`fire` — take the actor's step(s); returns the number of
      *productive* actions (0 = the step provably changed nothing),
      which feeds both the tracer and quiescence detection.  The
      round loop passes ``parked=False`` when its own skip check already
      proved the actor un-parked this round, so adapters whose
      productivity test *is* the parked test need not recompute it.
    * :meth:`wait_reasons` — why a scanned-but-idle actor is blocked
      (histogrammed into the round trace).

    ``SKIP_WAIT`` names the wait reasons recorded when the actor is
    skipped while parked (the kernel counts those as ``idle``; the
    engine records nothing).
    """

    SKIP_WAIT: Tuple[str, ...] = ()

    def parked(self, t: Time) -> bool:
        return False

    def fire(
        self,
        t: Time,
        budget: Optional[int] = None,
        parked: Optional[bool] = None,
    ) -> int:
        raise NotImplementedError

    def wait_reasons(self) -> Iterable[str]:
        return ()


def transition_signature(
    eligible: Iterable[Any], responders: Iterable[Any]
) -> str:
    """A compact, deterministic digest of one participation state.

    The signature covers *which* actors may act and *which* can answer
    quorum requests — the schedule-level state whose transitions
    fingerprint an interleaving.  Keys are reduced to their sortable
    identity (``ProcessId.index`` or the string key itself) so the
    digest is stable across processes and runs.
    """

    def _ident(key: Any) -> str:
        return str(getattr(key, "index", key))

    body = (
        ",".join(_ident(k) for k in eligible)
        + "|"
        + ",".join(sorted(_ident(k) for k in responders))
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class RunOutcome:
    """What one :meth:`Scheduler.run` call actually did.

    Attributes:
        rounds: rounds executed (<= the ``max_rounds`` budget).
        quiescent: whether the run ended in quiescence — ``False`` means
            the round budget (or a ``stop_when`` predicate) cut it short
            and the run proves nothing about termination.
        fired: total productive actions across all rounds.
    """

    rounds: int
    quiescent: bool
    fired: int


class Scheduler:
    """Actor registry, eligibility/quorum/quiescence accounting and the
    lockstep round loop.

    Args:
        actors: the schedulable units, keyed by a sortable identity
            (``ProcessId`` for per-process hosts).
        rng: the seeded schedule source; the round loop is its only
            consumer.
        tracer: per-round counters (see :mod:`repro.metrics.trace`).
        is_alive: ``(key, t) -> bool`` — crash filtering; keys failing
            it are not scheduled at all.
        scheduling: ``"event"`` (skip parked actors) or ``"scan"``
            (scan everything — the seed engines' behaviour).
        settle_horizon: callable returning the time by which detector
            outputs have stabilized; full scans are forced up to it and
            quiescence is only trusted past it.
        pre_round: optional hook run right after the clock advances and
            before eligibility is computed (crash-time cleanup).
        responders: initial responder set (processes able to answer
            quorum requests), before any round has run.
        injector: optional :class:`repro.faults.FaultInjector`; its
            :meth:`~repro.faults.FaultInjector.suppresses` hook models
            participation churn — a suppressed actor takes no step this
            round (finite asynchrony: churn windows are bounded, so
            fairness holds in the suffix).  ``None`` leaves every code
            path byte-identical to the fault-free scheduler.
        pending_work: optional callable returning the amount of work the
            actors cannot see yet but that is still due — e.g. datagrams
            a link fault holds sequestered in the message buffer's delay
            heap.  A round with zero productive actions does **not**
            count toward quiescence while this reports nonzero: the
            hidden work will re-enable an actor when it lands, so
            declaring quiescence over it would truncate the run
            mid-perturbation.  ``None`` (fault-free hosts) keeps the
            check byte-identical to the seed behaviour.
        alive_instants: optional times at which ``is_alive`` answers can
            change (the host's crash instants).  When given, the default
            eligibility filter is recomputed only when the clock crosses
            an instant instead of once per round — with hundreds of
            actors the per-round alive sweep dominates scheduling cost.
            ``None`` preserves the per-round filter.
    """

    def __init__(
        self,
        actors: Mapping[Key, Actor],
        rng: random.Random,
        tracer: TraceRecorder,
        is_alive: Callable[[Key, Time], bool],
        scheduling: str = "event",
        settle_horizon: Optional[Callable[[], Time]] = None,
        pre_round: Optional[Callable[[Time], None]] = None,
        responders: Optional[FrozenSet[Key]] = None,
        injector: Optional[Any] = None,
        pending_work: Optional[Callable[[], int]] = None,
        alive_instants: Optional[Iterable[Time]] = None,
    ) -> None:
        if scheduling not in SCHEDULING_MODES:
            raise SimulationError(f"unknown scheduling mode {scheduling!r}")
        self.actors: Dict[Key, Actor] = dict(actors)
        #: Keys in sorted order, fixed at construction: iterating this
        #: (filtered) yields the eligible set already sorted, replacing
        #: the per-round ``order.sort()`` of the seed loops with the
        #: byte-identical result.
        self.sorted_keys: Tuple[Key, ...] = tuple(sorted(self.actors))
        self._rng = rng
        self.tracer = tracer
        self.is_alive = is_alive
        self.scheduling = scheduling
        self._settle_horizon = settle_horizon or (lambda: 0)
        self.pre_round = pre_round
        self.injector = injector
        self._pending_work = pending_work
        #: The logical clock.  The round loop advances it by 1; the
        #: async driver syncs it to its own logical time.
        self.time: Time = 0
        #: Whether the most recent run ended in quiescence; True before
        #: any run — nothing has been cut short yet.
        self.last_run_quiescent: bool = True
        #: Actors able to answer quorum requests *right now*: the alive
        #: members of the last round's responder (or scheduled) set.
        self.responders: FrozenSet[Key] = responders or frozenset()
        #: Fingerprint of (scheduled set, responder set) of the last
        #: round; a change forces a full scan (quorum availability).
        self._fp_eligible: Optional[Tuple[Key, ...]] = None
        self._fp_responders: Optional[FrozenSet[Key]] = None
        #: Cache of the default (participation-derived) responder set.
        self._default_eligible: Optional[Tuple[Key, ...]] = None
        self._default_responders: Optional[FrozenSet[Key]] = None
        #: Alive-filter memo: the filtered key list is a pure function
        #: of the crash epoch.
        self._alive_instants = (
            None if alive_instants is None else sorted(alive_instants)
        )
        self._alive_epoch: Optional[int] = None
        self._alive_order: Tuple[Key, ...] = ()

    # -- Quiescence inputs -------------------------------------------------

    def settle_horizon(self) -> Time:
        """The host's detector-stabilization time (0 when none)."""
        return self._settle_horizon()

    def has_pending_work(self) -> bool:
        """Whether hidden work (e.g. a fault delay heap) is still due."""
        return self._pending_work is not None and bool(self._pending_work())

    # -- Eligibility -------------------------------------------------------

    def eligible_order(
        self, now: Time, participation: Optional[Iterable[Key]] = None
    ) -> List[Key]:
        """The sorted alive ∩ participation ∖ suppressed keys, as a
        fresh (mutable) list — the round loop shuffles it in place."""
        is_alive = self.is_alive
        if participation is None:
            if self._alive_instants is not None:
                epoch = bisect_right(self._alive_instants, now)
                if epoch != self._alive_epoch:
                    self._alive_epoch = epoch
                    self._alive_order = tuple(
                        key
                        for key in self.sorted_keys
                        if is_alive(key, now)
                    )
                order = list(self._alive_order)
            else:
                order = [
                    key for key in self.sorted_keys if is_alive(key, now)
                ]
        else:
            order = [
                key
                for key in self.sorted_keys
                if is_alive(key, now) and key in participation
            ]
        if self.injector is not None:
            # Participation churn: suppressed actors take no step this
            # round and answer no quorum requests.  Only faulted runs
            # ever reach this branch, so the fault-free RNG stream is
            # untouched.
            order = [
                key
                for key in order
                if not self.injector.suppresses(key, now)
            ]
        return order

    def refresh_responders(
        self,
        now: Time,
        eligible: Tuple[Key, ...],
        responders: Optional[Iterable[Key]] = None,
    ) -> FrozenSet[Key]:
        """Recompute :attr:`responders` for this round."""
        if responders is None:
            if eligible == self._default_eligible:
                self.responders = self._default_responders
            else:
                self.responders = frozenset(eligible)
                self._default_eligible = eligible
                self._default_responders = self.responders
        else:
            self.responders = frozenset(
                key
                for key in responders
                if self.is_alive(key, now)
                and (
                    self.injector is None
                    or not self.injector.suppresses(key, now)
                )
            )
        return self.responders

    def note_fingerprint(self, eligible: Tuple[Key, ...]) -> bool:
        """Record this round's (eligible, responders) pair; report
        whether it changed since the previous round.  Stored as the
        *sorted eligible list* plus the responder set — sorted-list
        equality is set equality without per-round hashing."""
        changed = eligible != self._fp_eligible or (
            self.responders is not self._fp_responders
            and self.responders != self._fp_responders
        )
        self._fp_eligible = eligible
        self._fp_responders = self.responders
        if changed:
            # Surface the transition to the tracer as a compact
            # signature.  Digesting only on *changes* keeps the round
            # loop cost-free in the steady state (transitions happen at
            # crash epochs and churn windows, not every round).
            self.tracer.note_transition(
                transition_signature(eligible, self.responders)
            )
        return changed

    # -- One round ---------------------------------------------------------

    def round(
        self,
        participation: Optional[Iterable[Key]] = None,
        responders: Optional[Iterable[Key]] = None,
        action_budget: Optional[int] = None,
    ) -> int:
        """One round: advance the clock, let eligible actors act.

        ``participation`` restricts who *acts* this round; ``responders``
        (defaulting to the participation set) restricts who may answer
        quorum requests — CHT-style simulated runs schedule one actor
        per step while the other scheduled processes still serve
        quorums.  ``action_budget`` caps actions per actor per round
        (finest interleaving = 1).  Returns the number of productive
        actions fired across the system.
        """
        self.time += 1
        if self.pre_round is not None:
            self.pre_round(self.time)
        order = self.eligible_order(self.time, participation)
        # ``order`` is already sorted (it filters the pre-sorted keys);
        # snapshot it before the shuffle for fingerprinting.
        eligible = tuple(order)
        self.refresh_responders(self.time, eligible, responders)
        self._rng.shuffle(order)
        fingerprint_changed = self.note_fingerprint(eligible)
        full_scan = (
            self.scheduling == "scan"
            or self.time <= self._settle_horizon()
            or fingerprint_changed
            or (action_budget is not None and action_budget <= 0)
        )
        tracer = self.tracer
        tracer.begin_round(self.time, len(order), full_scan)
        fired = 0
        parked_hint = None if full_scan else False
        actors = self.actors
        for key in order:
            actor = actors[key]
            if not full_scan and actor.parked(self.time):
                tracer.note_skipped()
                for reason in actor.SKIP_WAIT:
                    tracer.note_wait(reason)
                continue
            count = actor.fire(self.time, action_budget, parked_hint)
            fired += count
            tracer.note_scanned(count)
            if count == 0:
                for reason in actor.wait_reasons():
                    tracer.note_wait(reason)
        tracer.end_round()
        return fired

    # -- Many rounds -------------------------------------------------------

    def run(
        self,
        max_rounds: int = 500,
        participation: Optional[Iterable[Key]] = None,
        quiescent_rounds: int = 2,
        stop_when: Optional[Callable[[], bool]] = None,
        halt_on_quiescence: bool = True,
    ) -> RunOutcome:
        """Run rounds until quiescence (or ``max_rounds``).

        Quiescence requires ``quiescent_rounds`` consecutive rounds with
        zero productive actions *after* the settle horizon, since
        actions blocked on a detector may re-enable when it settles.
        An idle round also does not count while the host's
        ``pending_work`` hook reports outstanding hidden work (e.g.
        fault-delayed datagrams still due for release): quiescence over
        a non-empty delay heap would be a lie.  With
        ``halt_on_quiescence=False`` the budget is always executed
        in full (the legacy kernel contract) and the outcome reports
        whether the run *ended* quiescent.  ``stop_when`` is evaluated
        after every round and cuts the run short without claiming
        quiescence.
        """
        idle = 0
        rounds = 0
        total_fired = 0
        quiescent = False
        while rounds < max_rounds:
            fired = self.round(participation)
            total_fired += fired
            rounds += 1
            if (
                fired == 0
                and self.time >= self._settle_horizon()
                and not self.has_pending_work()
            ):
                idle += 1
                if idle >= quiescent_rounds and halt_on_quiescence:
                    quiescent = True
                    break
            else:
                idle = 0
            if stop_when is not None and stop_when():
                break
        if not quiescent:
            quiescent = idle >= quiescent_rounds
        self.last_run_quiescent = quiescent
        return RunOutcome(rounds=rounds, quiescent=quiescent, fired=total_fired)
