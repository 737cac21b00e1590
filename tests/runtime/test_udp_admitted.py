"""The per-node admitted-entry table on :class:`UdpNetwork`.

A warm table may change what a copy costs, never what is admitted:
authentication verdicts and their counters keep their exact meaning
with byte-identical copies skipping the HMAC; the table belongs to one
node (not to the fabric), dies with the node's inbox, and is where a
relay finds the MACs of what it forwards.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.auth import BallGuard, HmacAuthenticator, KeyRing
from repro.core import EpToConfig
from repro.core.event import Ball, Event
from repro.faults import ByzantineRouter
from repro.metrics.checker import check_survivors
from repro.pss.cyclon import CyclonRequest
from repro.runtime import codec
from repro.runtime.cluster import AsyncCluster
from repro.runtime.codec import TopicEnvelope
from repro.runtime.udp import UdpNetwork

from ..conftest import first_event, pairs

SETTLE = 0.05


def run(coro):
    return asyncio.run(coro)


def _event(src=2, seq=0, payload="genuine"):
    return Event(id=(src, seq), ts=1, source_id=src, payload=payload)


def _ball(event, ttl=0):
    return Ball.of([(event, ttl)])


class Rig:
    """Node 1 receives on *network*; raw wires are thrown at its socket
    from node 2's, so a test controls every byte it sees."""

    def __init__(self, authenticator=None):
        self.network = UdpNetwork(authenticator=authenticator)
        self.inbox = []
        self.network.register(1, lambda src, msg: self.inbox.append(msg))
        self.network.register(2, lambda src, msg: None)
        #: node 1's table (held here: ``close()`` forgets every node).
        self.table = self.network._admitted[1]  # noqa: SLF001 - test rig

    async def open(self):
        await self.network.open_all()

    async def throw(self, *wires):
        endpoint = self.network._transports[2]  # noqa: SLF001 - test rig
        for wire in wires:
            endpoint.sendto(bytes(wire), self.network.address_of(1))
        await asyncio.sleep(SETTLE)

    @property
    def stats(self):
        return self.network.stats

    def delivered_payloads(self):
        return [event.payload for ball in self.inbox for event in ball.events.values()]


def _sealed_wire(authenticator, event, ttl=0, sender=2):
    """*event* as its source would ship it: signed under its own key."""
    guard = BallGuard(authenticator)
    ball = _ball(event, ttl)
    guard.seal(event.source_id, ball)
    return codec.encode(sender, guard.attach(ball))


def _kept(table, event_id):
    """The one ``(event, signature)`` *table* keeps of *event_id*'s
    signed entries."""
    [record] = [r for r in table.records[7].values() if r[1].id == event_id]
    return record[1:]


def _counting_verify(authenticator, monkeypatch):
    calls = []
    verify = authenticator.verify

    def counted(event, signature):
        calls.append(event.id)
        return verify(event, signature)

    monkeypatch.setattr(authenticator, "verify", counted)
    return calls


class TestAuthWithAWarmTable:
    def test_identical_copies_are_verified_once(self, monkeypatch):
        authenticator = HmacAuthenticator(KeyRing("warm"))
        hmacs = _counting_verify(authenticator, monkeypatch)

        async def scenario():
            rig = Rig(authenticator)
            await rig.open()
            await rig.throw(_sealed_wire(authenticator, _event(), ttl=0))
            # Relayed copies: other senders, other TTLs, the same entry.
            await rig.throw(
                _sealed_wire(authenticator, _event(), ttl=3, sender=5),
                _sealed_wire(authenticator, _event(), ttl=9, sender=6),
            )
            await rig.network.close()
            return rig

        rig = run(scenario())
        assert rig.delivered_payloads() == ["genuine"] * 3
        assert [pairs(ball)[0][1] for ball in rig.inbox] == [0, 3, 9]
        assert hmacs == [(2, 0)]
        assert rig.stats.dropped_undecodable == 0

    def test_altered_payload_with_the_original_mac_is_rejected(self, monkeypatch):
        authenticator = HmacAuthenticator(KeyRing("warm"))
        hmacs = _counting_verify(authenticator, monkeypatch)
        genuine = _sealed_wire(authenticator, _event(payload="genuine"))
        forged = bytes(genuine).replace(b"genuine", b"GENUINE")
        assert forged != genuine and len(forged) == len(genuine)

        async def scenario():
            rig = Rig(authenticator)
            await rig.open()
            await rig.throw(genuine)
            await rig.throw(forged, forged)
            await rig.throw(genuine)
            await rig.network.close()
            return rig

        rig = run(scenario())
        # Every forged copy is verified, rejected and counted, warm
        # table or not; the genuine copies around it are admitted.
        assert rig.delivered_payloads() == ["genuine", "genuine"]
        assert rig.stats.dropped_bad_signature == 2
        assert hmacs == [(2, 0)] * 3
        assert _kept(rig.table, (2, 0))[0].payload == "genuine"

    def test_forged_first_copy_cannot_take_the_genuine_events_slot(self):
        authenticator = HmacAuthenticator(KeyRing("warm"))
        genuine = _sealed_wire(authenticator, _event(payload="genuine"))
        forged = bytes(genuine).replace(b"genuine", b"GENUINE")

        async def scenario():
            rig = Rig(authenticator)
            await rig.open()
            await rig.throw(forged)
            nothing_kept = len(rig.table)
            await rig.throw(genuine, genuine)
            await rig.network.close()
            return rig, nothing_kept

        rig, nothing_kept = run(scenario())
        assert nothing_kept == 0
        assert rig.delivered_payloads() == ["genuine", "genuine"]
        assert rig.stats.dropped_bad_signature == 1
        assert (rig.table.hits, rig.table.misses) == (1, 2)

    def test_revocation_after_first_sight_rejects_identical_copies(self):
        authenticator = HmacAuthenticator(KeyRing("warm"))
        wire = _sealed_wire(authenticator, _event())

        async def scenario():
            rig = Rig(authenticator)
            await rig.open()
            await rig.throw(wire)
            authenticator.keyring.revoke(2)
            await rig.throw(wire, wire)
            await rig.network.close()
            return rig

        rig = run(scenario())
        assert rig.delivered_payloads() == ["genuine"]
        assert rig.stats.dropped_unknown_key == 2
        assert rig.stats.dropped_bad_signature == 0

    def test_rotation_past_the_window_rejects_identical_copies(self):
        authenticator = HmacAuthenticator(KeyRing("warm", retain_epochs=1))
        wire = _sealed_wire(authenticator, _event())

        async def scenario():
            rig = Rig(authenticator)
            await rig.open()
            await rig.throw(wire)
            authenticator.keyring.rotate(2)  # epoch 0 still retained
            await rig.throw(wire)
            still_accepted = len(rig.inbox)
            authenticator.keyring.rotate(2)  # epoch 0 rotated out
            await rig.throw(wire)
            await rig.network.close()
            return rig, still_accepted

        rig, still_accepted = run(scenario())
        assert still_accepted == 2
        assert rig.delivered_payloads() == ["genuine"] * 2
        assert rig.stats.dropped_unknown_key == 1

    def test_unverified_traffic_is_never_remembered_on_an_authenticating_fabric(self):
        authenticator = HmacAuthenticator(KeyRing("warm"))
        plain = codec.encode(2, _ball(_event()))
        # A guard that never sealed the event attaches no MAC to it.
        unsigned = codec.encode(2, BallGuard(authenticator).attach(_ball(_event())))
        framed = codec.encode(2, TopicEnvelope(frames=((0, 2, _ball(_event())),)))

        async def scenario():
            rig = Rig(authenticator)
            await rig.open()
            await rig.throw(plain, unsigned, framed)
            kept = len(rig.table)
            await rig.throw(_sealed_wire(authenticator, _event()))
            await rig.network.close()
            return rig, kept

        rig, kept = run(scenario())
        # A forger without keys can neither occupy the genuine event's
        # slot nor flush verified records with a flood of fresh ids.
        assert kept == 0
        assert rig.stats.dropped_unsigned == 3
        assert rig.table.holds(*_kept(rig.table, (2, 0)))

    def test_tolerant_fabric_remembers_signed_entries_unverified(self):
        authenticator = HmacAuthenticator(KeyRing("warm"))
        wire = _sealed_wire(authenticator, _event())

        async def scenario():
            rig = Rig(authenticator=None)
            await rig.open()
            await rig.throw(wire)
            await rig.throw(wire)
            await rig.network.close()
            return rig

        rig = run(scenario())
        assert rig.delivered_payloads() == ["genuine"] * 2
        assert (rig.table.hits, rig.table.misses) == (1, 1)
        assert not rig.table.holds(*_kept(rig.table, (2, 0)))


class TestPlainBallsOnAnAuthenticatingFabric:
    """A plain ball decodes to a bare ``Ball``: the gate must refuse it
    whole, alone and inside an envelope frame, before the node's inbox
    ever sees it."""

    @pytest.mark.parametrize("framed", [False, True], ids=["alone", "framed"])
    def test_a_plain_ball_is_dropped_whole(self, framed):
        ball = Ball.of([(_event(seq=seq), 1) for seq in range(3)])
        message = TopicEnvelope(frames=((0, 2, ball),)) if framed else ball
        wire = codec.encode(2, message)
        assert type(codec.decode(wire)[1]).__name__ == (
            "TopicEnvelope" if framed else "Ball"
        )

        async def scenario():
            rig = Rig(HmacAuthenticator(KeyRing("gate")))
            await rig.open()
            await rig.throw(wire)
            await rig.network.close()
            return rig

        rig = run(scenario())
        assert rig.inbox == []
        assert rig.stats.dropped_unsigned == 1
        assert rig.stats.delivered == 0
        assert len(rig.table) == 0

    def test_an_envelope_without_balls_still_passes(self):
        frame = (0, 2, CyclonRequest(entries=((3, 0),)))
        wire = codec.encode(2, TopicEnvelope(frames=(frame,)))

        async def scenario():
            rig = Rig(HmacAuthenticator(KeyRing("gate")))
            await rig.open()
            await rig.throw(wire)
            await rig.network.close()
            return rig

        rig = run(scenario())
        assert len(rig.inbox) == 1 and rig.stats.dropped_unsigned == 0


class TestByzantineRelaysOverUdp:
    """The Byzantine drill's verdict on real sockets with every table
    warm: hostile relays mutate, replay and re-inject the very entries
    the correct nodes already remember, and must get nothing through."""

    def test_nothing_forged_is_delivered_and_every_forgery_is_counted(self):
        hostile = (1, 2)

        async def scenario():
            network = UdpNetwork(
                seed=13, authenticator=HmacAuthenticator(KeyRing("udp-drill"))
            )
            # K = n - 1: every source hands every peer its own signed
            # event in its first round, so liveness holds by
            # construction — with K=4 of 7 peers, two of eight relays
            # mangling half of what they relay left a real hole one run
            # in twenty, and this test's subject is forgery.
            config = EpToConfig(fanout=7, ttl=6, round_interval=15, clock="logical")
            cluster = AsyncCluster(config, network=network, seed=13)
            cluster.add_nodes(8)
            await network.open_all()
            router = ByzantineRouter(rng=random.Random(13))
            for behavior in ("equivocate", "garble_relay", "replay", "ttl_inflate"):
                router.enable(hostile, behavior, rate=0.5)
            network.set_adversary(router)
            cluster.start_all()
            events = []
            for wave in range(3):
                for node_id in (0, 3, 4, 5):
                    events.append(cluster.nodes[node_id].broadcast(f"{node_id}.{wave}"))
                await asyncio.sleep(0.05)
            delivered = await cluster.wait_for_deliveries(len(events), timeout=10.0)
            tables = [network._admitted[n] for n in range(8)]  # noqa: SLF001
            await cluster.stop_all()
            await network.close()
            return delivered, events, cluster, router, tables, network.stats

        delivered, events, cluster, router, tables, stats = run(scenario())
        assert delivered
        report = check_survivors(
            cluster.deliveries,
            survivors=range(8),
            byzantine=hostile,
            broadcasts={event.id: event for event in events},
        )
        assert report.ok, report
        # The relays really were hostile, every mutated copy was caught
        # by a full verification, and the tables really were warm.
        assert router.stats.equivocated > 0 and router.stats.garbled > 0
        assert stats.dropped_bad_signature > 0
        assert stats.dropped_unknown_key == 0
        assert all(table.hits > table.misses > 0 for table in tables)


class TestOneTablePerNode:
    def test_nodes_on_one_fabric_share_nothing(self):
        async def scenario():
            network = UdpNetwork()
            inboxes = {1: [], 3: []}
            for node_id, inbox in inboxes.items():
                network.register(node_id, lambda src, msg, inbox=inbox: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            network.send_many(2, [1, 3], _ball(_event()))
            network.send_many(2, [1, 3], _ball(_event(), ttl=4))
            await asyncio.sleep(SETTLE)
            tables = dict(network._admitted)  # noqa: SLF001 - test rig
            await network.close()
            return inboxes, tables

        inboxes, tables = run(scenario())
        # Each node paid for its own first sight, as one node per
        # process would; the sender's table saw nothing.
        assert (tables[1].hits, tables[1].misses) == (1, 1)
        assert (tables[3].hits, tables[3].misses) == (1, 1)
        assert (tables[2].hits, tables[2].misses) == (0, 0)
        assert first_event(inboxes[1][0]) is first_event(inboxes[1][1])
        assert first_event(inboxes[1][0]) is not first_event(inboxes[3][0])

    def test_unregister_and_close_drop_the_table(self):
        async def scenario():
            network = UdpNetwork()
            network.register(1, lambda src, msg: None)
            network.register(2, lambda src, msg: None)
            await network.open_all()
            network.send(2, 1, _ball(_event()))
            await asyncio.sleep(SETTLE)
            warm = len(network._admitted[1])  # noqa: SLF001 - test rig
            network.unregister(1)
            gone = 1 not in network._admitted  # noqa: SLF001 - test rig
            network.register(1, lambda src, msg: None)
            cold = len(network._admitted[1])  # noqa: SLF001 - test rig
            await network.close()
            return warm, gone, cold, dict(network._admitted)  # noqa: SLF001

        assert run(scenario()) == (1, True, 0, {})

    def test_crash_and_respawn_leave_the_node_cold(self):
        async def scenario():
            network = UdpNetwork(seed=7)
            config = EpToConfig.for_system_size(4, round_interval=10)
            cluster = AsyncCluster(config, network=network, seed=7)
            cluster.add_nodes(4)
            await network.open_all()
            cluster.start_all()
            cluster.nodes[0].broadcast("before the crash")
            assert await cluster.wait_for_deliveries(1, timeout=5.0)
            corpse_table = network._admitted[3]  # noqa: SLF001 - test rig
            warm = len(corpse_table)
            cluster.crash_node(3)
            dropped = 3 not in network._admitted  # noqa: SLF001 - test rig
            await asyncio.sleep(0.01)  # the corpse's tasks retire
            await cluster.respawn_node(3)
            reborn = network._admitted[3]  # noqa: SLF001 - test rig
            cold = (reborn is not corpse_table, len(reborn), reborn.hits)
            await cluster.stop_all()
            await network.close()
            return warm, dropped, cold

        warm, dropped, cold = run(scenario())
        assert warm >= 1 and dropped
        assert cold == (True, 0, 0)


class TestRelayAcrossFabrics:
    """One node per process: the relay's own guard never sealed the
    event, so the MAC it forwards comes from its table of verified
    entries — the relay cache the fabric used to keep beside it."""

    def test_a_relay_forwards_the_mac_it_verified(self):
        master = "two-processes"

        async def scenario():
            origin = UdpNetwork(authenticator=HmacAuthenticator(KeyRing(master)))
            relay = UdpNetwork(authenticator=HmacAuthenticator(KeyRing(master)))
            origin.register(1, lambda src, msg: None)
            relayed_in, final_in = [], []
            relay.register(2, lambda src, msg: relayed_in.append(msg))
            relay.register(3, lambda src, msg: final_in.append(msg))
            await origin.open_all()
            await relay.open_all()
            # The origin process knows the relay's address, as a
            # deployment's membership would tell it.
            origin._addresses[2] = relay.address_of(2)  # noqa: SLF001
            origin.send(1, 2, _ball(_event(src=1, payload="across")))
            await asyncio.sleep(SETTLE)
            relay.send(2, 3, relayed_in[0])
            # What the relay never verified it cannot vouch for.
            relay.send(2, 3, _ball(_event(src=1, seq=1, payload="unheard of")))
            await asyncio.sleep(SETTLE)
            await origin.close()
            await relay.close()
            return final_in, relay.stats

        final_in, stats = run(scenario())
        payloads = [e.payload for ball in final_in for e in ball.events.values()]
        assert payloads == ["across"]
        assert stats.dropped_unsigned == 1
        assert stats.dropped_bad_signature == 0


class TestReceiveDrain:
    """One ``recv_into`` per readiness callback: a socket holding a
    burst calls back until it is empty, every datagram costs exactly one
    receive call, and a node that leaves mid-burst is read no further."""

    @pytest.mark.parametrize("burst", [1, 2, 33, 100])
    def test_every_datagram_delivered_in_the_stated_syscalls(self, burst):
        async def scenario():
            network = UdpNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            # The whole burst is queued on the socket before the loop
            # runs the reader once.
            for seq in range(burst):
                network.send(2, 1, _ball(_event(seq=seq)))
            await asyncio.sleep(SETTLE)
            await network.close()
            return inbox, network.stats

        inbox, stats = run(scenario())
        assert [first_event(ball).id[1] for ball in inbox] == list(range(burst))
        # No drain loop, so no EAGAIN probe: a call per datagram.
        assert stats.syscalls_recv == stats.delivered == burst

    def test_a_wake_up_with_nothing_to_read_delivers_nothing(self):
        async def scenario():
            network = UdpNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            await network.open_all()
            endpoint = network._transports[1]  # noqa: SLF001 - test rig
            endpoint._on_readable()  # noqa: SLF001 - a spurious readiness
            await network.close()
            endpoint._on_readable()  # noqa: SLF001 - and one after close
            return inbox, network.stats

        inbox, stats = run(scenario())
        assert inbox == []
        # The read that found EAGAIN is counted; a closed endpoint
        # does not read at all.
        assert (stats.syscalls_recv, stats.delivered, stats.bytes_received) == (1, 0, 0)

    @pytest.mark.parametrize("leave", ["unregister", "close"])
    def test_leaving_from_inside_a_handler_stops_the_reads_at_once(self, leave):
        async def scenario():
            network = UdpNetwork()
            inbox = []

            def handler(src, msg):
                inbox.append(msg)
                if len(inbox) == 3:
                    if leave == "unregister":
                        network.unregister(1)
                    else:
                        # What ``UdpNetwork.close`` does to every endpoint.
                        network._transports[1].close()  # noqa: SLF001

            network.register(1, handler)
            network.register(2, lambda src, msg: None)
            await network.open_all()
            for seq in range(10):
                network.send(2, 1, _ball(_event(seq=seq)))
            await asyncio.sleep(SETTLE)
            await network.close()
            return inbox, network.stats

        inbox, stats = run(scenario())
        assert [first_event(ball).id[1] for ball in inbox] == [0, 1, 2]
        assert stats.syscalls_recv == stats.delivered == 3
