"""Tests for the UDP transport (repro.runtime.udp) over real loopback sockets."""

from __future__ import annotations

import asyncio

import pytest

from repro.core import EpToConfig
from repro.core.errors import MembershipError
from repro.core.event import Ball, Event
from repro.runtime.node import AsyncEpToNode
from repro.runtime.udp import UdpNetwork
from repro.pss.base import MembershipDirectory
from repro.pss.uniform import UniformViewPss

from ..conftest import first_event
from .header import FUTURE_VERSION


def run(coro):
    return asyncio.run(coro)


async def _poll(condition):
    while not condition():
        await asyncio.sleep(0.005)


def a_ball(payload="x"):
    return Ball.of(
        [(Event(id=(9, 0), ts=1, source_id=9, payload=payload), 0)]
    )


class TestUdpFabric:
    def test_datagram_roundtrip(self):
        async def scenario():
            network = UdpNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append((src, msg)))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            network.send(2, 1, a_ball("hello"))
            await asyncio.sleep(0.05)
            await network.close()
            return inbox

        inbox = run(scenario())
        assert len(inbox) == 1
        src, ball = inbox[0]
        assert src == 2
        assert first_event(ball).payload == "hello"

    def test_send_before_open_is_counted_drop(self):
        async def scenario():
            network = UdpNetwork()
            network.register(1, lambda src, msg: None)
            network.register(2, lambda src, msg: None)
            network.send(2, 1, a_ball())  # sockets not bound yet
            await network.open_all()
            await network.close()
            return network.stats.dropped_unopened

        assert run(scenario()) == 1

    def test_unencodable_message_is_counted_drop(self):
        async def scenario():
            network = UdpNetwork()
            network.register(1, lambda src, msg: None)
            network.register(2, lambda src, msg: None)
            await network.open_all()
            network.send(2, 1, a_ball(payload=object()))
            await network.close()
            return network.stats.dropped_encode

        assert run(scenario()) == 1

    def test_malformed_datagram_is_counted_and_survived(self):
        async def scenario():
            network = UdpNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            host, port = None, None
            await network.open_all()
            address = network.address_of(1)
            # Throw raw garbage at the node's socket.
            loop = asyncio.get_event_loop()
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=address
            )
            transport.sendto(b"this is not an EpTO datagram")
            await asyncio.sleep(0.05)
            transport.close()
            # The node still works afterwards.
            network.register(2, lambda src, msg: None)
            await network.open(2)
            network.send(2, 1, a_ball("still alive"))
            await asyncio.sleep(0.05)
            await network.close()
            return network.stats.dropped_malformed, inbox

        malformed, inbox = run(scenario())
        assert malformed == 1
        assert len(inbox) == 1
        assert first_event(inbox[0]).payload == "still alive"

    def test_duplicate_registration_rejected(self):
        network = UdpNetwork()
        network.register(1, lambda s, m: None)
        with pytest.raises(MembershipError):
            network.register(1, lambda s, m: None)

    def test_open_unregistered_rejected(self):
        async def scenario():
            network = UdpNetwork()
            with pytest.raises(MembershipError):
                await network.open(5)

        run(scenario())

    def test_unregister_closes_socket(self):
        async def scenario():
            network = UdpNetwork()
            network.register(1, lambda s, m: None)
            await network.open(1)
            assert network.address_of(1) is not None
            network.unregister(1)
            assert network.address_of(1) is None
            await network.close()

        run(scenario())


class TestUdpDropPaths:
    """Every datagram drop path is counted, never raised."""

    async def _throw_raw(self, network, target_id, payload: bytes):
        """Fire raw bytes at *target_id*'s socket from an anonymous
        sender socket."""
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, remote_addr=network.address_of(target_id)
        )
        transport.sendto(payload)
        await asyncio.sleep(0.05)
        transport.close()

    def test_truncated_datagram_is_counted_malformed(self):
        """A real encoded ball cut short in transit must be rejected by
        the codec, not crash the node."""
        from repro.runtime.codec import encode

        async def scenario():
            network = UdpNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            await network.open_all()
            datagram = encode(9, a_ball("whole"))
            # Cut inside the body: header parses, body length mismatches.
            await self._throw_raw(network, 1, datagram[: len(datagram) - 3])
            # Cut inside the header: too short to parse at all.
            await self._throw_raw(network, 1, datagram[:7])
            await network.close()
            return network.stats.dropped_malformed, inbox

        malformed, inbox = run(scenario())
        assert malformed == 2
        assert inbox == []

    def test_corrupted_count_field_is_counted_malformed(self):
        from repro.runtime.codec import encode

        async def scenario():
            network = UdpNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            await network.open_all()
            datagram = encode(9, a_ball("whole"))
            # Blow up the big-endian u32 entry count at header offset 12.
            await self._throw_raw(
                network, 1, datagram[:12] + b"\xff" + datagram[13:]
            )
            await network.close()
            return network.stats.dropped_malformed, inbox

        malformed, inbox = run(scenario())
        assert malformed == 1
        assert inbox == []

    def test_error_received_is_counted_not_raised(self):
        from repro.runtime.udp import _NodeProtocol

        network = UdpNetwork()
        protocol = _NodeProtocol(network, 1)
        protocol.error_received(OSError("ICMP port unreachable"))
        protocol.error_received(OSError("again"))
        assert network.stats.transport_errors == 2

    def test_close_clears_handlers_for_reuse(self):
        """After ``close()`` the fabric is inert and ids can be
        re-registered without a collision."""

        async def scenario():
            network = UdpNetwork()
            network.register(1, lambda s, m: None)
            await network.open_all()
            await network.close()
            assert not network.is_registered(1)
            network.register(1, lambda s, m: None)  # no MembershipError
            network.send(1, 1, a_ball())  # socket gone: counted drop
            return network.stats.dropped_unopened

        assert run(scenario()) == 1


class TestCorruption:
    def test_corrupted_datagrams_dropped_by_receiver_codec(self):
        """With corruption at rate 1.0 every datagram is mangled on the
        way out and rejected (counted) on the way in."""

        async def scenario():
            network = UdpNetwork(seed=3)
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            network.set_corruption(1.0)  # open-ended window
            for i in range(20):
                network.send(2, 1, a_ball(f"m{i}"))
            await asyncio.sleep(0.1)
            corrupted_phase = (len(inbox), network.stats.corrupted,
                               network.stats.dropped_malformed)
            network.clear_corruption()
            network.send(2, 1, a_ball("clean"))
            await asyncio.sleep(0.05)
            await network.close()
            return corrupted_phase, inbox

        (delivered, corrupted, malformed), inbox = run(scenario())
        assert delivered == 0
        assert corrupted == 20
        assert malformed == 20
        assert len(inbox) == 1  # the post-window datagram got through
        assert first_event(inbox[0]).payload == "clean"

    def test_corruption_window_expires(self):
        async def scenario():
            network = UdpNetwork(seed=3)
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            network.set_corruption(1.0, duration=0.05)
            await asyncio.sleep(0.1)  # window over
            network.send(2, 1, a_ball("late"))
            await asyncio.sleep(0.05)
            await network.close()
            return network.stats.corrupted, inbox

        corrupted, inbox = run(scenario())
        assert corrupted == 0
        assert len(inbox) == 1


class TestEpToOverUdp:
    def test_total_order_over_real_sockets(self):
        """Full EpTO cluster gossiping over loopback UDP datagrams."""

        async def scenario():
            config = EpToConfig(fanout=3, ttl=5, round_interval=15, clock="logical")
            network = UdpNetwork()
            directory = MembershipDirectory()
            deliveries: dict[int, list] = {}
            nodes = []
            for node_id in range(6):
                deliveries[node_id] = []
                import random as _random

                pss = UniformViewPss(
                    node_id, directory, _random.Random(f"udp:{node_id}")
                )
                node = AsyncEpToNode(
                    node_id=node_id,
                    config=config,
                    network=network,  # type: ignore[arg-type]
                    peer_sampler=pss,
                    on_deliver=deliveries[node_id].append,
                    seed=99,
                )
                directory.add(node_id)
                nodes.append(node)
            await network.open_all()
            for node in nodes:
                node.start()

            nodes[0].broadcast("first")
            nodes[4].broadcast("second")

            deadline = asyncio.get_event_loop().time() + 10.0
            while asyncio.get_event_loop().time() < deadline:
                if all(len(seq) >= 2 for seq in deliveries.values()):
                    break
                await asyncio.sleep(0.02)

            for node in nodes:
                await node.stop()
            await network.close()
            return deliveries

        deliveries = run(scenario())
        sequences = {
            tuple(e.payload for e in seq) for seq in deliveries.values()
        }
        assert len(sequences) == 1
        assert set(next(iter(sequences))) == {"first", "second"}

    def test_agreement_holds_under_datagram_corruption(self):
        """Acceptance scenario: real datagrams are corrupted in transit,
        the receivers' codec counts and drops them
        (``dropped_malformed > 0``), and EpTO's redundancy still gets
        every event delivered in one total order."""

        async def scenario():
            config = EpToConfig(fanout=4, ttl=6, round_interval=15, clock="logical")
            network = UdpNetwork(seed=17)
            directory = MembershipDirectory()
            deliveries: dict[int, list] = {}
            nodes = []
            for node_id in range(6):
                deliveries[node_id] = []
                import random as _random

                pss = UniformViewPss(
                    node_id, directory, _random.Random(f"corrupt:{node_id}")
                )
                node = AsyncEpToNode(
                    node_id=node_id,
                    config=config,
                    network=network,  # type: ignore[arg-type]
                    peer_sampler=pss,
                    on_deliver=deliveries[node_id].append,
                    seed=17,
                )
                directory.add(node_id)
                nodes.append(node)
            await network.open_all()
            network.set_corruption(0.2)  # a fifth of all datagrams mangled
            for node in nodes:
                node.start()

            nodes[1].broadcast("alpha")
            nodes[5].broadcast("beta")

            deadline = asyncio.get_event_loop().time() + 15.0
            while asyncio.get_event_loop().time() < deadline:
                if all(len(seq) >= 2 for seq in deliveries.values()):
                    break
                await asyncio.sleep(0.02)

            for node in nodes:
                await node.stop()
            await network.close()
            return deliveries, network.stats

        deliveries, stats = run(scenario())
        assert stats.corrupted > 0
        assert stats.dropped_malformed > 0
        sequences = {
            tuple(e.payload for e in seq) for seq in deliveries.values()
        }
        assert len(sequences) == 1
        assert set(next(iter(sequences))) == {"alpha", "beta"}


class TestUdpStatsSplit:
    def test_dropped_undecodable_aggregates_receive_rejections(self):
        from repro.runtime.udp import UdpStats

        stats = UdpStats(
            dropped_malformed=2,
            dropped_bad_version=3,
            dropped_bad_signature=5,
            dropped_unknown_key=7,
            dropped_unsigned=11,
        )
        assert stats.dropped_undecodable == 28
        # Send-side drops are not receive rejections.
        stats.dropped_partition = 100
        stats.dropped_burst = 100
        assert stats.dropped_undecodable == 28


class TestAuthenticatedUdp:
    def _authenticator(self):
        from repro.auth import HmacAuthenticator, KeyRing

        return HmacAuthenticator(KeyRing("udp-test"))

    def test_signed_ball_admitted_and_forgery_dropped(self):
        from repro.auth import BallGuard

        authenticator = self._authenticator()

        async def scenario():
            network = UdpNetwork(authenticator=authenticator)
            inbox = []
            network.register(1, lambda src, msg: inbox.append((src, msg)))
            network.register(9, lambda src, msg: None)
            await network.open_all()

            genuine = a_ball("hello")
            network.send(9, 1, genuine)  # sealed by the fabric guard
            await asyncio.sleep(0.05)

            # A forged copy under the same identity, sent from a fabric
            # that never held node 9's sealing history: the entry
            # arrives unsigned and is rejected at admission.
            hostile = UdpNetwork()
            hostile.register(9, lambda src, msg: None)
            # Rebind node 1's address so the hostile fabric can reach it.
            hostile._addresses = dict(network._addresses)  # noqa: SLF001 - test rig
            await hostile.open_all()
            hostile.send(9, 1, a_ball("evil"))
            await asyncio.sleep(0.05)

            await hostile.close()
            await network.close()
            return inbox, network.stats

        inbox, stats = run(scenario())
        assert len(inbox) == 1
        assert first_event(inbox[0][1]).payload == "hello"
        assert stats.dropped_unsigned >= 1
        assert stats.dropped_undecodable >= 1

    def test_a_saturated_clock_costs_its_fan_out_not_its_round_task(self):
        """A peer's admitted entry at ``ts = 2**63 - 1`` pushes a logical
        clock to the i64 maximum, so that node's next broadcast cannot
        travel: its signed fan-out is refused whole — K
        ``dropped_encode`` — and its round task keeps running."""
        import random

        fanout = 3

        async def scenario():
            config = EpToConfig(
                fanout=fanout, ttl=3, round_interval=10, clock="logical"
            )
            network = UdpNetwork(authenticator=self._authenticator())
            directory = MembershipDirectory()
            nodes = []
            for node_id in range(fanout + 1):
                pss = UniformViewPss(node_id, directory, random.Random(node_id))
                nodes.append(
                    AsyncEpToNode(
                        node_id=node_id,
                        config=config,
                        network=network,  # type: ignore[arg-type]
                        peer_sampler=pss,
                        on_deliver=lambda event: None,
                    )
                )
                directory.add(node_id)
            await network.open_all()
            for node in nodes:
                node.start()
            peer, victim = nodes[1], nodes[0]

            async def until(condition):
                await asyncio.wait_for(_poll(condition), timeout=5.0)

            peer.process.oracle.update_clock(2**63 - 2)
            assert peer.broadcast("at the edge").ts == 2**63 - 1
            await until(lambda: victim.process.oracle.logical_clock == 2**63 - 1)
            assert network.stats.dropped_encode == 0
            saturated = victim.broadcast("past the edge")
            rounds = victim.process.dissemination.stats.rounds
            await until(lambda: victim.process.dissemination.stats.rounds >= rounds + 3)
            running = victim.running and not victim.crashed
            for node in nodes:
                await node.stop()
            await network.close()
            return saturated, running, network.stats

        saturated, running, stats = run(scenario())
        assert saturated.ts == 2**63
        assert stats.dropped_encode == fanout
        assert running

    def test_unknown_version_counted_separately(self):
        async def scenario():
            network = UdpNetwork(authenticator=self._authenticator())
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            await network.open_all()

            from repro.runtime import codec

            wire = bytearray(codec.encode(2, a_ball("x")))
            wire[2] = FUTURE_VERSION
            host, port = network._addresses[1]  # noqa: SLF001 - test rig
            network._transports[2].sendto(bytes(wire), (host, port))  # noqa: SLF001
            await asyncio.sleep(0.05)
            await network.close()
            return inbox, network.stats

        inbox, stats = run(scenario())
        assert inbox == []
        assert stats.dropped_bad_version == 1
        assert stats.dropped_malformed == 0
