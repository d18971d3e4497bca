"""Coverage-guided fault/schedule exploration.

The nemesis layer (:mod:`repro.faults`) can *sample* adversaries —
:func:`repro.faults.nemesis.random_plan` draws admissible plans by seed
— but sampling is blind: every draw is independent, and a bug reachable
only through a rare combination of perturbations waits for a lottery
win.  This package closes the loop between the trace layer and the
fault layer with a classic coverage-guided search (AFL-style, over
scenario specs instead of byte strings):

* :mod:`repro.explore.coverage` turns one campaign row into a
  *fingerprint set* built from signals the :class:`TraceRecorder`
  already emits — wait-reason histograms, detector-consultation
  counts, quorum stalls, and the interleaving transition stream the
  :class:`repro.runtime.scheduler.Scheduler` records;
* :mod:`repro.explore.corpus` keeps the content-addressed corpus of
  entries that contributed novel coverage, with an energy schedule
  favouring entries whose fingerprints are globally rare;
* :mod:`repro.explore.mutate` mutates specs along the three adversary
  axes — fault-plan structure (add/remove/retime/retarget/splice,
  admissible by construction), schedule seed, and the async backend's
  delay model (slow-pairs search, parameter jitter);
* :mod:`repro.explore.driver` runs budgeted campaigns through the
  cached campaign executor, auto-shrinks every violation with the
  ddmin :class:`repro.faults.shrink.PlanShrinker`, writes
  self-contained repro files and deduplicates triage records by
  ``(harness, violated properties, shrunk plan hash)``.

``python -m repro.explore`` is the CLI; the nightly ``explore-soak``
CI job runs it under a wall-clock budget and fails only on violations
absent from the committed baseline.
"""

from repro.explore.corpus import Corpus, CorpusEntry
from repro.explore.coverage import coverage_of
from repro.explore.driver import ExploreReport, Explorer
from repro.explore.mutate import MutationEngine

__all__ = [
    "Corpus",
    "CorpusEntry",
    "coverage_of",
    "ExploreReport",
    "Explorer",
    "MutationEngine",
]
