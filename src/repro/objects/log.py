"""The shared log object of Algorithm 1 (§4.3).

A log is an infinite array of slots numbered from 1, each holding zero or
more data items.  The sequential interface is exactly the paper's:

* ``append(d)`` inserts ``d`` at the head slot (idempotent when ``d`` is
  already present) and returns its position;
* ``pos(d)`` returns the slot of ``d`` (0 when absent);
* ``bumpAndLock(d, k)`` moves ``d`` from its slot ``l`` to ``max(k, l)``
  and locks it; locked data can no longer be bumped;
* ``locked(d)`` tells whether ``d`` is locked.

The log induces an order: ``d <_L d'`` iff ``pos(d) < pos(d')``, or they
share a slot and ``d < d'`` for the a-priori total order over data items
(here: Python's ``<`` on the items, e.g. message identifiers).

Logs hold heterogeneous items in Algorithm 1 — messages, position records
``(m, h, i)`` and stabilization records ``(m, h)`` — so ordering queries
are only issued between mutually comparable items; the convenience
accessors (:meth:`messages_before` etc.) filter by item kind first.

Algorithm 1 re-reads its logs on every action scan, so the message view
is indexed rather than recomputed (DESIGN §13, "Indexed log queries"):

* the ``<_L``-sorted message view is maintained in place — an append
  lands at the head slot, which is past every occupied slot, so it
  extends the view at its end; a bump re-inserts one message further
  along — together with a message → view index map, which makes
  :meth:`messages_before` a slice;
* :attr:`message_version` advances only when the view changes (message
  appends and bumps that move a message), so readers keyed on it skip
  the far more frequent record appends, and :meth:`unchanged_prefix`
  tells a reader how much of the view a run of changes left in place.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.model.errors import SpecificationError


def _is_message(datum: Any) -> bool:
    """Messages are the non-tuple items (Algorithm 1 stores records as tuples)."""
    return not isinstance(datum, tuple)


class Log:
    """Sequential specification of the shared log.

    The object is long-lived and grow-only; linearizability is provided by
    the runtime layer (operations run atomically inside simulator actions).

    Attributes:
        name: diagnostic label, e.g. ``"LOG_g1∩g3"``.
    """

    def __init__(self, name: str = "LOG") -> None:
        self.name = name
        self._positions: Dict[Any, int] = {}
        self._locked: Set[Any] = set()
        self._head = 1
        #: Mutation counter: keys the memoized record view below.
        self._version = 0
        self._records_cache: Tuple[Tuple[Any, ...], ...] = ()
        self._records_version = -1
        #: Tuple-shaped records indexed by their head element (the
        #: message id), in insertion order — the per-message accessors
        #: sort these few rows instead of filtering every record.
        self._records_by_head: Dict[Any, List[Tuple[Any, ...]]] = {}
        #: The message items in ``<_L`` order, and each one's index in it.
        self._view: List[Any] = []
        self._index: Dict[Any, int] = {}
        #: Advanced only when ``_view`` changes; keys the tuple memo.
        self._message_version = 0
        self._messages_cache: Tuple[Any, ...] = ()
        self._messages_version = 0
        #: ``_floors[v]``: the lowest view index that change ``v + 1``
        #: touched — everything before it kept its place.
        self._floors: List[int] = []

    # -- Core interface (§4.3) -------------------------------------------

    def append(self, datum: Any) -> int:
        """Insert ``datum`` at the head slot; no-op if already present.

        Returns the (possibly pre-existing) position of ``datum``.
        """
        existing = self._positions.get(datum)
        if existing is not None:
            return existing
        position = self._head
        self._positions[datum] = position
        self._head = position + 1
        self._version += 1
        if _is_message(datum):
            # The head slot is past every occupied slot: the view's end.
            self._index[datum] = len(self._view)
            self._floors.append(len(self._view))
            self._view.append(datum)
            self._message_version += 1
        elif datum:
            self._records_by_head.setdefault(datum[0], []).append(datum)
        return position

    def pos(self, datum: Any) -> int:
        """The slot of ``datum``; 0 when absent."""
        return self._positions.get(datum, 0)

    def bump_and_lock(self, datum: Any, k: int) -> int:
        """Move ``datum`` to ``max(k, current slot)`` and lock it.

        Locking is idempotent: once locked, further calls leave the datum
        untouched (locked data cannot be bumped anymore).  Returns the
        final position.
        """
        current = self._positions.get(datum)
        if current is None:
            raise SpecificationError(
                f"{self.name}: bumpAndLock on absent datum {datum!r}"
            )
        if datum in self._locked:
            return current
        final = max(k, current)
        self._positions[datum] = final
        self._locked.add(datum)
        self._version += 1
        if final >= self._head:
            self._head = final + 1
        if final != current and _is_message(datum):
            self._move(datum, final)
        return final

    def _move(self, datum: Any, final: int) -> None:
        """Re-insert a bumped message at its new ``<_L`` place in the view.

        Its key only grew, so everything before its old index stays put;
        the messages it jumps over each shift down by one.
        """
        view, index = self._view, self._index
        old = index[datum]
        del view[old]
        new = self._bisect(final, datum, old)
        view.insert(new, datum)
        for i in range(old, new + 1):
            index[view[i]] = i
        self._floors.append(old)
        self._message_version += 1

    def _bisect(self, slot: int, datum: Any = None, lo: int = 0) -> int:
        """The first view index from ``lo`` whose key is not below
        ``(slot, datum)``; with ``datum`` None, the first index whose
        slot is not below ``slot``."""
        view, positions = self._view, self._positions
        hi = len(view)
        while lo < hi:
            mid = (lo + hi) // 2
            other = view[mid]
            other_slot = positions[other]
            if other_slot < slot or (
                other_slot == slot and datum is not None and other < datum
            ):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def locked(self, datum: Any) -> bool:
        """Whether ``datum`` is locked in the log."""
        return datum in self._locked

    @property
    def message_version(self) -> int:
        """Counter of changes to the message view: message appends and
        bumps that move a message.  Unchanged means :meth:`messages` and
        :meth:`index_of` answer exactly as before, so per-scan readers
        (message discovery, Algorithm 1's prefix watermarks) skip record
        appends and locks that leave a message in place."""
        return self._message_version

    def unchanged_prefix(self, since: int) -> int:
        """How many leading entries of the message view are exactly as
        they were at message version ``since``: an append only extends
        the view, and a bump only reorders from the bumped message's old
        index on."""
        return min(self._floors[since:], default=len(self._view))

    def __contains__(self, datum: Any) -> bool:
        return datum in self._positions

    # -- Ordering ----------------------------------------------------------

    def precedes(self, d: Any, d_prime: Any) -> bool:
        """``d <_L d'``: both present, lower slot or slot tie-break."""
        pos_d = self._positions.get(d)
        pos_dp = self._positions.get(d_prime)
        if pos_d is None or pos_dp is None:
            return False
        if pos_d != pos_dp:
            return pos_d < pos_dp
        return d < d_prime

    # -- Convenience accessors ---------------------------------------------

    def items(self) -> Tuple[Any, ...]:
        """Every datum, ordered by ``<_L`` within comparable kinds.

        Items are sorted by slot; ties are broken by the items' own order
        when comparable, else by insertion order (mixed-kind ties never
        matter to the algorithm).
        """
        def sort_key(entry: Tuple[Any, int]) -> Tuple[int, int]:
            return (entry[1], 0)

        ordered = sorted(self._positions.items(), key=sort_key)
        return tuple(datum for datum, _ in ordered)

    def messages(self) -> Tuple[Any, ...]:
        """The *message* items of the log, in ``<_L`` order.

        Messages are recognized by not being tuples (Algorithm 1 stores
        records as tuples).  The tuple is memoized per message version.
        """
        if self._messages_version != self._message_version:
            self._messages_cache = tuple(self._view)
            self._messages_version = self._message_version
        return self._messages_cache

    def index_of(self, message: Any) -> int:
        """The index of a present ``message`` in :meth:`messages`: the
        number of messages ``m'`` with ``m' <_L message``."""
        return self._index[message]

    def messages_before(self, datum: Any) -> Tuple[Any, ...]:
        """Messages ``m'`` with ``m' <_L datum``.

        For a record, the messages at strictly lower slots; an absent
        datum has no predecessors.
        """
        end = self._index.get(datum)
        if end is None:
            slot = self._positions.get(datum)
            if slot is None:
                return ()
            end = self._bisect(slot)
        return self.messages()[:end]

    def records(self) -> Tuple[Tuple[Any, ...], ...]:
        """The tuple-shaped records of the log, in insertion-slot order."""
        if self._records_version != self._version:
            present = [d for d in self._positions if not _is_message(d)]
            present.sort(key=lambda d: self._positions[d])
            self._records_cache = tuple(present)
            self._records_version = self._version
        return self._records_cache

    def position_records_for(self, message: Any) -> Tuple[Tuple[Any, Any, int], ...]:
        """Records ``(m, h, i)`` of ``message`` (written at line 14)."""
        rows = self._records_by_head.get(message)
        if not rows:
            return ()
        out = [r for r in rows if len(r) == 3]
        out.sort(key=lambda r: self._positions[r])
        return tuple(out)

    def stabilization_records_for(self, message: Any) -> Tuple[Tuple[Any, Any], ...]:
        """Records ``(m, h)`` of ``message`` (written at line 29)."""
        rows = self._records_by_head.get(message)
        if not rows:
            return ()
        out = [r for r in rows if len(r) == 2]
        out.sort(key=lambda r: self._positions[r])
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}[{len(self._positions)} items, head={self._head}]"
