"""Differential tests: the indexed ``Log`` against a naive reference.

The log keeps its ``<_L``-sorted message view, a message → index map and
a message-only version incrementally (DESIGN §13, "Indexed log
queries").  :class:`NaiveLog` recomputes every query from the positions
alone, straight from the §4.3 definitions; random append / bumpAndLock
sequences over messages and records — with slot ties — must leave the
two in agreement after every operation.
"""

from hypothesis import given, settings, strategies as st

from repro.objects import Log

MESSAGES = tuple(f"m{i}" for i in range(6))


class NaiveLog:
    """The §4.3 log with every query recomputed from the positions."""

    def __init__(self) -> None:
        self.positions = {}
        self.locked = set()
        self.head = 1

    def append(self, datum) -> None:
        if datum not in self.positions:
            self.positions[datum] = self.head
            self.head += 1

    def bump_and_lock(self, datum, k: int) -> None:
        if datum in self.locked:
            return
        final = max(k, self.positions[datum])
        self.positions[datum] = final
        self.locked.add(datum)
        self.head = max(self.head, final + 1)

    def precedes(self, d, d_prime) -> bool:
        if d not in self.positions or d_prime not in self.positions:
            return False
        if self.positions[d] != self.positions[d_prime]:
            return self.positions[d] < self.positions[d_prime]
        return d < d_prime

    def messages(self):
        present = [d for d in self.positions if not isinstance(d, tuple)]
        return tuple(sorted(present, key=lambda d: (self.positions[d], d)))

    def messages_before(self, datum):
        if datum not in self.positions:
            return ()
        if isinstance(datum, tuple):
            # A record is not comparable with messages: only strictly
            # lower slots precede it.
            slot = self.positions[datum]
            return tuple(m for m in self.messages() if self.positions[m] < slot)
        return tuple(m for m in self.messages() if self.precedes(m, datum))


def _datum(draw_kind: str, message: str, k: int):
    if draw_kind == "message":
        return message
    if draw_kind == "position":
        return (message, "g", k)
    return (message, "g")


OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "bump"]),
        st.sampled_from(["message", "message", "position", "stabilization"]),
        st.sampled_from(MESSAGES),
        st.integers(min_value=0, max_value=14),
    ),
    max_size=60,
)


def _check_agreement(log: Log, ref: NaiveLog) -> None:
    view = ref.messages()
    assert log.messages() == view
    for i, m in enumerate(view):
        assert log.index_of(m) == i
        assert log.messages_before(m) == ref.messages_before(m)
        for other in view:
            assert log.precedes(m, other) == ref.precedes(m, other)
    for datum in ref.positions:
        if isinstance(datum, tuple):
            assert log.messages_before(datum) == ref.messages_before(datum)
    assert log.messages_before("ghost") == ()


class TestIndexAgainstNaiveReference:
    @settings(max_examples=150, deadline=None)
    @given(OPS)
    def test_every_query_agrees_after_every_operation(self, ops):
        log, ref = Log(), NaiveLog()
        for op, kind, message, k in ops:
            datum = _datum(kind, message, k)
            before_version = log.message_version
            before_view = log.messages()
            if op == "append":
                log.append(datum)
                ref.append(datum)
            elif datum in ref.positions:
                log.bump_and_lock(datum, k)
                ref.bump_and_lock(datum, k)
            else:
                continue
            _check_agreement(log, ref)
            if isinstance(datum, tuple):
                # Record appends and bumps leave the message view alone.
                assert log.message_version == before_version
                assert log.messages() is before_view
            if log.message_version == before_version:
                assert log.messages() == before_view
            kept = log.unchanged_prefix(before_version)
            assert log.messages()[:kept] == before_view[:kept]

    @settings(max_examples=100, deadline=None)
    @given(OPS, st.integers(min_value=0, max_value=60))
    def test_unchanged_prefix_spans_any_run_of_changes(self, ops, cut):
        """``unchanged_prefix(v)`` holds across every change after ``v``,
        not just the last one."""
        log = Log()
        snapshots = {}
        for step, (op, kind, message, k) in enumerate(ops):
            if step == cut:
                snapshots[log.message_version] = log.messages()
            datum = _datum(kind, message, k)
            if op == "append":
                log.append(datum)
            elif datum in log:
                log.bump_and_lock(datum, k)
        for version, view in snapshots.items():
            kept = log.unchanged_prefix(version)
            assert log.messages()[:kept] == view[:kept]


class TestSlotTies:
    def test_bump_into_an_occupied_slot_breaks_the_tie_by_item_order(self):
        log = Log()
        for m in ("m3", "m1", "m2"):
            log.append(m)  # slots 1, 2, 3
        log.bump_and_lock("m3", 3)  # joins m2's slot; "m2" < "m3"
        assert log.messages() == ("m1", "m2", "m3")
        assert log.index_of("m3") == 2
        assert log.messages_before("m3") == ("m1", "m2")
        assert log.unchanged_prefix(3) == 0

    def test_lock_in_place_is_not_a_view_change(self):
        log = Log()
        log.append("a")
        log.append("b")
        version = log.message_version
        assert log.bump_and_lock("b", 1) == 2  # locked where it was
        assert log.message_version == version
        assert log.locked("b")

    def test_record_appends_do_not_advance_the_message_version(self):
        log = Log()
        log.append("m1")
        version = log.message_version
        log.append(("m1", "g", 1))
        log.append(("m1", "g"))
        log.bump_and_lock(("m1", "g"), 9)
        assert log.message_version == version
        assert log.append("m2") == 10  # the record bump still moved the head
        assert log.message_version == version + 1
        assert log.messages_before(("m1", "g")) == ("m1",)
