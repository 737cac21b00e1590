"""UDP encode-once fan-out and sender-side latency spikes."""

from __future__ import annotations

import asyncio

from repro.core.event import Ball, Event
from repro.fabric import DEFAULT_SPIKE_BASE
from repro.runtime.udp import UdpNetwork

from ..conftest import first_event


def run(coro):
    return asyncio.run(coro)


def a_ball(payload="x"):
    return Ball.of(
        [(Event(id=(9, 0), ts=1, source_id=9, payload=payload), 0)]
    )


class TestEncodeOnceFanout:
    def test_send_many_encodes_once_for_all_peers(self):
        async def scenario():
            network = UdpNetwork()
            inboxes = {nid: [] for nid in (1, 2, 3)}
            for nid in inboxes:
                network.register(nid, lambda src, msg, n=nid: inboxes[n].append(msg))
            network.register(0, lambda src, msg: None)
            await network.open_all()
            network.send_many(0, [1, 2, 3], a_ball("fan-out"))
            await asyncio.sleep(0.05)
            await network.close()
            return network.stats, inboxes

        stats, inboxes = run(scenario())
        assert stats.encoded_datagrams == 1  # one serialization per round
        assert stats.sent == 3
        assert stats.delivered == 3
        for inbox in inboxes.values():
            assert len(inbox) == 1
            assert first_event(inbox[0]).payload == "fan-out"

    def test_per_peer_send_encodes_per_destination(self):
        async def scenario():
            network = UdpNetwork()
            for nid in (0, 1, 2):
                network.register(nid, lambda src, msg: None)
            await network.open_all()
            network.send(0, 1, a_ball())
            network.send(0, 2, a_ball())
            await network.close()
            return network.stats

        stats = run(scenario())
        assert stats.encoded_datagrams == 2

    def test_send_many_unencodable_counts_every_destination(self):
        async def scenario():
            network = UdpNetwork()
            for nid in (0, 1, 2):
                network.register(nid, lambda src, msg: None)
            await network.open_all()
            bad = Ball.of(
                [(Event(id=(0, 0), ts=1, source_id=0, payload=object()), 0)]
            )
            network.send_many(0, [1, 2], bad)
            await network.close()
            return network.stats

        stats = run(scenario())
        assert stats.dropped_encode == 2
        assert stats.encoded_datagrams == 0
        assert stats.delivered == 0


class TestLatencySpike:
    def test_spike_defers_but_still_delivers(self):
        async def scenario():
            network = UdpNetwork(seed=4)
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            network.set_latency_spike(factor=3.0, duration=5.0)
            network.send(2, 1, a_ball("slow"))
            assert network.stats.delayed == 1
            assert inbox == []  # still parked on the loop timer
            # 3x the default base, +50% jitter, plus loopback slack.
            await asyncio.sleep(10 * DEFAULT_SPIKE_BASE + 0.05)
            await network.close()
            return network.stats, inbox

        stats, inbox = run(scenario())
        assert stats.delivered == 1
        assert len(inbox) == 1
        assert first_event(inbox[0]).payload == "slow"

    def test_spike_window_expires(self):
        async def scenario():
            network = UdpNetwork(seed=4)
            network.register(1, lambda src, msg: None)
            network.register(2, lambda src, msg: None)
            await network.open_all()
            network.set_latency_spike(factor=10.0, duration=0.0)
            await asyncio.sleep(0.01)
            network.send(2, 1, a_ball())
            delayed = network.stats.delayed
            await network.close()
            return delayed

        assert run(scenario()) == 0

    def test_delayed_send_after_close_is_counted_dropped(self):
        async def scenario():
            network = UdpNetwork(seed=2)
            network.register(1, lambda src, msg: None)
            network.register(2, lambda src, msg: None)
            await network.open_all()
            network.set_latency_spike(factor=100.0, duration=5.0)
            network.send(2, 1, a_ball())
            await network.close()  # sender socket gone before the timer fires
            await asyncio.sleep(0.5)
            return network.stats

        stats = run(scenario())
        assert stats.delayed == 1
        assert stats.dropped_unopened == 1
        assert stats.delivered == 0


class TestSendBundle:
    """``send_bundle`` ships datagrams somebody else encoded: one
    ``sendto`` per destination, nothing encoded, the byte split taken
    from the caller."""

    def _scenario(self, raw_sockets=True, partition=None):
        from repro.runtime import codec
        from repro.runtime.codec import TopicEnvelope

        async def scenario():
            network = UdpNetwork(raw_sockets=raw_sockets)
            inboxes = {nid: [] for nid in (1, 2, 3)}
            for nid in inboxes:
                network.register(nid, lambda src, msg, n=nid: inboxes[n].append(msg))
            network.register(0, lambda src, msg: None)
            await network.open_all()
            if partition:
                network.set_partition(partition)
            shared = codec.encode(0, TopicEnvelope(frames=((7, 0, a_ball("all")),)))
            shared_payload = codec.last_encode_payload_bytes()
            own = codec.encode(0, TopicEnvelope(frames=((7, 0, a_ball("one")),)))
            own_payload = codec.last_encode_payload_bytes()
            network.send_bundle(
                0, [([1, 2, 3], shared, shared_payload), ([2], own, own_payload)]
            )
            await asyncio.sleep(0.05)
            await network.close()
            return network.stats, inboxes

        return run(scenario())

    def test_one_sendto_per_destination_and_nothing_encoded_again(self):
        for raw_sockets in (True, False):
            stats, inboxes = self._scenario(raw_sockets)
            assert stats.encoded_datagrams == 2  # distinct datagrams shipped
            assert stats.sent == stats.syscalls_send == stats.delivered == 4
            assert stats.payload_bytes_sent + stats.metadata_bytes_sent == stats.bytes_sent
            assert stats.payload_bytes_sent == 4 * len('"all"')
            payloads = {
                nid: [first_event(env.frames[0][2]).payload for env in box]
                for nid, box in inboxes.items()
            }
            assert payloads == {1: ["all"], 2: ["all", "one"], 3: ["all"]}

    def test_fault_surfaces_apply_per_destination(self):
        stats, inboxes = self._scenario(partition={0: "a", 1: "a", 2: "b", 3: "b"})
        assert stats.sent == 4
        assert stats.dropped_partition == 3
        assert stats.delivered == stats.syscalls_send == 1
        assert [len(box) for box in inboxes.values()] == [1, 0, 0]
