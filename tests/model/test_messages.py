"""Tests for multicast messages, datagrams and the message buffer."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.model import (
    MessageBuffer,
    MessageFactory,
    ModelError,
    MulticastMessage,
    MessageId,
    by_indices,
    make_processes,
)

P1, P2, P3 = make_processes(3)


class TestMulticastMessage:
    def test_factory_mints_unique_ids(self):
        factory = MessageFactory()
        m1 = factory.multicast(P1, by_indices(1, 2))
        m2 = factory.multicast(P1, by_indices(1, 2))
        m3 = factory.multicast(P2, by_indices(2, 3))
        assert len({m1.mid, m2.mid, m3.mid}) == 3

    def test_closed_dissemination_model_enforced(self):
        factory = MessageFactory()
        with pytest.raises(ModelError):
            factory.multicast(P1, by_indices(2, 3))

    def test_message_id_provides_a_priori_total_order(self):
        factory = MessageFactory()
        m1 = factory.multicast(P1, by_indices(1, 2))
        m2 = factory.multicast(P2, by_indices(2, 3))
        assert (m1 < m2) != (m2 < m1)

    def test_message_id_must_match_sender(self):
        with pytest.raises(ModelError):
            MulticastMessage(
                mid=MessageId(sender_index=2, sequence=1),
                src=P1,
                dst=by_indices(1, 2),
            )

    def test_payload_is_carried(self):
        factory = MessageFactory()
        m = factory.multicast(P1, by_indices(1), payload={"op": "put"})
        assert m.payload == {"op": "put"}


_PRODUCER = """
import pickle
from repro.model import MessageId, MulticastMessage, by_indices, make_processes
p1, _ = make_processes(2)
message = MulticastMessage(MessageId(1, 7), p1, by_indices(1, 2), "payload")
hash(message)  # fills the cache before pickling
print(pickle.dumps(message).hex())
"""

_CONSUMER = """
import pickle, sys
from repro.model import MessageId, MulticastMessage, by_indices, make_processes
from repro.objects import Log
received = pickle.loads(bytes.fromhex(sys.stdin.read().strip()))
p1, _ = make_processes(2)
fresh = MulticastMessage(MessageId(1, 7), p1, by_indices(1, 2), "payload")
assert hash(received) == hash(fresh)
assert {received: "found"}[fresh] == "found"
log = Log()
log.append(received)
assert fresh in log and log.index_of(fresh) == 0
log.append(fresh)
assert log.messages() == (received,)
print("ok")
"""


class TestCachedHash:
    """``MessageId`` / ``MulticastMessage`` memoize their dataclass hash."""

    def test_hash_is_the_dataclass_hash(self):
        mid = MessageId(sender_index=1, sequence=4)
        message = MulticastMessage(mid=mid, src=P1, dst=by_indices(1, 2), payload="x")
        assert hash(mid) == hash((1, 4))
        assert hash(message) == hash((mid, P1, by_indices(1, 2), "x"))
        assert hash(message) == hash(message)

    def test_cache_is_invisible_to_equality_order_and_repr(self):
        a, b = MessageId(1, 1), MessageId(1, 1)
        hash(a)
        assert a == b and not a < b and repr(a) == repr(b)

    def test_unhashable_payload_constructs_and_raises_only_on_hash(self):
        message = MulticastMessage(
            mid=MessageId(1, 1), src=P1, dst=by_indices(1, 2), payload=["list"]
        )
        with pytest.raises(TypeError):
            hash(message)
        with pytest.raises(TypeError):
            hash(message)  # a failed hash caches nothing

    def test_pickles_leave_the_cache_behind(self):
        message = MulticastMessage(
            mid=MessageId(1, 2), src=P1, dst=by_indices(1, 2), payload="x"
        )
        hash(message)
        clone = pickle.loads(pickle.dumps(message))
        assert "_hash" not in vars(clone) and "_hash" not in vars(clone.mid)
        assert clone == message and hash(clone) == hash(message)

    def test_lookups_survive_a_trip_into_another_hash_seed(self):
        """Spawned campaign workers run under their own ``PYTHONHASHSEED``:
        a message pickled after hashing must still be found there."""
        src = str(Path(repro.__file__).resolve().parents[1])

        def run(code, seed, stdin=""):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (src, env.get("PYTHONPATH")))
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env,
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        pickled = run(_PRODUCER, "1")
        assert run(_CONSUMER, "2", stdin=pickled).strip() == "ok"


class TestMessageBuffer:
    def test_send_then_receive_fifo(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A", (1,))
        buff.send(P1, P2, "B", (2,))
        first = buff.receive(P2)
        second = buff.receive(P2)
        assert (first.tag, second.tag) == ("A", "B")

    def test_receive_returns_null_when_empty(self):
        buff = MessageBuffer()
        assert buff.receive(P1) is None

    def test_broadcast_reaches_every_destination(self):
        buff = MessageBuffer()
        buff.broadcast(P1, [P2, P3], "HELLO")
        assert buff.receive(P2).tag == "HELLO"
        assert buff.receive(P3).tag == "HELLO"

    def test_pending_snapshot_does_not_consume(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "X")
        assert len(buff.pending_for(P2)) == 1
        assert len(buff.pending_for(P2)) == 1
        assert buff.has_pending(P2)

    def test_receive_specific_removes_chosen_datagram(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A")
        wanted = buff.send(P1, P2, "B")
        got = buff.receive_specific(P2, wanted)
        assert got.tag == "B"
        assert buff.receive(P2).tag == "A"

    def test_receive_specific_rejects_absent_datagram(self):
        buff = MessageBuffer()
        ghost = buff.send(P1, P2, "A")
        buff.receive(P2)
        with pytest.raises(ModelError):
            buff.receive_specific(P2, ghost)

    def test_drop_all_for_crashed_process(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A")
        buff.send(P3, P2, "B")
        assert buff.drop_all_for(P2) == 2
        assert buff.receive(P2) is None

    def test_counters_track_traffic(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A")
        buff.send(P1, P3, "B")
        buff.receive(P2)
        assert buff.sent_count == 2
        assert buff.received_count == 1
        assert buff.in_transit() == 1


class TestDelayedDatagramLifecycle:
    """The delay heap obeys the same crash and accounting rules as
    the visible queues — sequestered traffic is still traffic."""

    @staticmethod
    def delaying_buffer(until=5, amount=3):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultEvent, plan_of

        injector = FaultInjector(
            plan_of(FaultEvent(kind="link_delay", start=0, until=until, amount=amount)),
            seed=0,
        )
        buff = MessageBuffer(injector)
        buff.release(0)
        return buff

    def test_drop_all_for_purges_sequestered_datagrams(self):
        buff = self.delaying_buffer()
        buff.send(P1, P2, "DEAD")   # sequestered for P2
        buff.send(P1, P3, "ALIVE")  # sequestered for P3
        buff.send(P3, P2, "DEAD2")  # sequestered for P2
        assert buff.delayed_count() == 3
        assert buff.drop_all_for(P2) == 2  # both sequestered P2 datagrams
        assert buff.delayed_count() == 1
        assert buff.delayed_for(P2) == 0
        # P2 never hears from the purged datagrams, P3's still arrives.
        buff.release(10)
        assert buff.receive(P2) is None
        assert buff.receive(P3).tag == "ALIVE"

    def test_drop_all_for_counts_pending_plus_sequestered(self):
        buff = self.delaying_buffer(until=3, amount=2)
        buff.send(P1, P2, "EARLY")  # sequestered, releases at t=2
        buff.release(2)             # ...now visible
        buff.send(P1, P2, "LATE")   # sequestered again (t=2 < until)
        assert buff.has_pending(P2) and buff.delayed_for(P2) == 1
        assert buff.drop_all_for(P2) == 2

    def test_in_transit_counts_the_delay_heap(self):
        buff = self.delaying_buffer()
        buff.send(P1, P2, "A")
        assert not buff.has_pending(P2)
        assert buff.in_transit() == 1  # sequestered != delivered
        buff.release(10)
        assert buff.in_transit() == 1  # now visible, still in transit
        buff.receive(P2)
        assert buff.in_transit() == 0

    def test_heap_order_survives_a_purge(self):
        # Datagrams with distinct release times: purging the middle one
        # must leave a valid heap so release order stays chronological.
        buff = self.delaying_buffer(until=10, amount=1)
        for t, (dst, tag) in enumerate(((P2, "A"), (P3, "X"), (P2, "B"))):
            buff.release(t)
            buff.send(P1, dst, tag)
        buff.drop_all_for(P3)
        buff.release(20)
        assert [d.tag for d in buff.pending_for(P2)] == ["A", "B"]
