"""UDP fabric endpoints: raw sockets vs asyncio endpoints.

The two endpoint kinds of :class:`~repro.runtime.udp.UdpNetwork`
(``raw_sockets=True``: raw non-blocking sockets, plain ``sendto`` and
one ``recv_into`` per readiness callback; ``raw_sockets=False``: asyncio
datagram endpoints) must be observationally identical — same delivered
sequences, same ``UdpStats``, syscall counters included now that both
pay one call per datagram. The equivalence class at the bottom is the
acceptance criterion: a real EpTO cluster over raw sockets delivers
bit-identical total order to the asyncio-endpoint transport on seeded
runs (same spirit as ``tests/core/test_ordering_equivalence.py``).
"""

from __future__ import annotations

import asyncio
import errno

import pytest

from repro.core import EpToConfig
from repro.core.event import Ball, Event
from repro.runtime import AsyncCluster
from repro.runtime.udp import UdpNetwork

from ..conftest import first_event


def run(coro):
    return asyncio.run(coro)


def a_ball(payload="x"):
    return Ball.of(
        [(Event(id=(9, 0), ts=1, source_id=9, payload=payload), 0)]
    )


def small_config(**overrides):
    defaults = dict(fanout=3, ttl=6, round_interval=15, clock="logical")
    defaults.update(overrides)
    return EpToConfig(**defaults)


#: Both endpoint kinds: asyncio endpoints, then raw sockets.
MODES = [False, True]

ROUNDS = 5
PEERS = (1, 2, 3, 4)


async def _fanout_scenario(raw_sockets):
    """Five encode-once fan-outs from node 0 to four peers."""
    network = UdpNetwork(seed=7, raw_sockets=raw_sockets)
    inboxes = {nid: [] for nid in PEERS}
    for nid in inboxes:
        network.register(nid, lambda src, msg, n=nid: inboxes[n].append(msg))
    network.register(0, lambda src, msg: None)
    await network.open_all()
    raw = getattr(network._transports[0], "is_raw", False)  # noqa: SLF001
    assert raw == raw_sockets
    # All rounds are issued before the loop runs the readers, so each
    # peer's socket holds a burst of five.
    for r in range(ROUNDS):
        network.send_many(0, list(PEERS), a_ball(f"round-{r}"))
    deadline = asyncio.get_event_loop().time() + 2.0
    while asyncio.get_event_loop().time() < deadline:
        if all(len(box) == ROUNDS for box in inboxes.values()):
            break
        await asyncio.sleep(0.005)
    await network.close()
    return network.stats, inboxes


class TestTierMatrix:
    """What is left of the tier matrix: the two endpoint kinds."""

    @pytest.mark.parametrize("raw_sockets", MODES)
    def test_identical_delivery_every_mode(self, raw_sockets):
        stats, inboxes = run(_fanout_scenario(raw_sockets))
        expected = [f"round-{r}" for r in range(ROUNDS)]
        for box in inboxes.values():
            assert [first_event(msg).payload for msg in box] == expected
        assert stats.sent == ROUNDS * len(PEERS)
        assert stats.delivered == ROUNDS * len(PEERS)

    def test_semantic_stats_identical_across_modes(self):
        """Every counter agrees, the syscall counts too: both endpoint
        kinds pay one send and one receive call per datagram."""

        def semantic(stats):
            return (
                stats.sent,
                stats.delivered,
                stats.encoded_datagrams,
                stats.dropped_unopened,
                stats.dropped_malformed,
                stats.transport_errors,
                stats.bytes_sent,
                stats.bytes_received,
                stats.payload_bytes_sent,
                stats.metadata_bytes_sent,
                stats.syscalls_send,
                stats.syscalls_recv,
            )

        views = {mode: semantic(run(_fanout_scenario(mode))[0]) for mode in MODES}
        assert len(set(views.values())) == 1, views

    def test_raw_sockets_pay_one_syscall_per_datagram(self):
        stats, _ = run(_fanout_scenario(True))
        assert stats.syscalls_send == ROUNDS * len(PEERS)
        assert stats.syscalls_recv == stats.delivered == ROUNDS * len(PEERS)
        assert stats.bytes_sent == stats.bytes_received > 0
        assert stats.payload_bytes_sent + stats.metadata_bytes_sent == stats.bytes_sent


class TestSendRefusal:
    """A datagram the kernel will not take is one counted drop; the
    rest of the fan-out still goes out."""

    class _RefusingSocket:
        """Stands in for the sender's socket: ``sendto`` raises for the
        chosen call numbers and passes every other call through."""

        def __init__(self, sock, refuse):
            self._sock = sock
            self._refuse = refuse
            self.calls = 0

        def sendto(self, data, address):
            self.calls += 1
            error = self._refuse.get(self.calls)
            if error is not None:
                raise error
            return self._sock.sendto(data, address)

        def __getattr__(self, name):
            return getattr(self._sock, name)

    def _scenario(self, refuse):
        async def scenario():
            network = UdpNetwork(seed=1)
            peers = list(range(1, 17))
            inboxes = {nid: [] for nid in peers}
            for nid in peers:
                network.register(nid, lambda src, msg, n=nid: inboxes[n].append(msg))
            network.register(0, lambda src, msg: None)
            await network.open_all()
            endpoint = network._transports[0]  # noqa: SLF001 - test rig
            endpoint._sock = self._RefusingSocket(endpoint._sock, refuse)  # noqa: SLF001
            try:
                network.send_many(0, peers, a_ball("refused once"))
                await asyncio.sleep(0.05)
            finally:
                await network.close()
            return network.stats, inboxes

        return run(scenario())

    @pytest.mark.parametrize(
        "error",
        [BlockingIOError(), InterruptedError(), OSError(errno.ENOBUFS, "ENOBUFS")],
        ids=["EAGAIN", "EINTR", "ENOBUFS"],
    )
    def test_third_of_sixteen_refused_fifteen_arrive(self, error):
        stats, inboxes = self._scenario({3: error})
        assert stats.transport_errors == 1
        assert stats.sent == 16 and stats.syscalls_send == 16
        assert stats.delivered == 15
        assert [len(box) for box in inboxes.values()] == [1, 1, 0] + [1] * 13
        # Only what the kernel took counts as sent bytes.
        assert stats.bytes_sent == stats.bytes_received

    def test_any_other_socket_error_is_raised(self):
        with pytest.raises(OSError):
            self._scenario({3: OSError(errno.EBADF, "EBADF")})


class TestDeferredSends:
    def test_spiked_datagram_survives_the_next_rounds_encode(self):
        # A deferred send outlives the dispatch that encoded it, and
        # every encode reuses the fabric's one buffer: the datagram
        # must own its bytes by the time the timer fires.
        for raw_sockets in MODES:

            async def scenario():
                network = UdpNetwork(seed=4, raw_sockets=raw_sockets)
                inbox = []
                network.register(1, lambda src, msg: inbox.append(msg))
                network.register(2, lambda src, msg: None)
                await network.open_all()
                network.set_latency_spike(factor=3.0, duration=5.0)
                for i in range(6):
                    network.send(2, 1, a_ball(f"d{i}" * (i + 1)))
                assert network.stats.delayed == 6
                assert inbox == []  # all six still wait on their timers
                await asyncio.sleep(0.15)
                await network.close()
                return inbox

            # Jittered per-send delays may reorder deliveries; every
            # datagram must still arrive intact.
            assert sorted(first_event(msg).payload for msg in run(scenario())) == [
                f"d{i}" * (i + 1) for i in range(6)
            ]


class TestTransportEquivalence:
    """Acceptance criterion: raw sockets deliver bit-identical total
    order to the asyncio-endpoint transport."""

    def _cluster_run(self, raw_sockets):
        async def scenario():
            network = UdpNetwork(seed=11, raw_sockets=raw_sockets)
            cluster = AsyncCluster(small_config(), network=network, seed=11)
            cluster.add_nodes(6)
            await network.open_all()
            cluster.start_all()
            # Broadcast before the first round tick: the events'
            # logical timestamps are then identical across runs, so
            # the final total order is deterministic.
            for i in range(4):
                cluster.nodes[i].broadcast(f"event-{i}")
            ok = await cluster.wait_for_deliveries(4, timeout=10.0)
            await cluster.stop_all()
            await network.close()
            return ok, cluster.delivery_payload_sequences()

        return run(scenario())

    def test_raw_sockets_match_asyncio_endpoints(self):
        ok_base, baseline = self._cluster_run(False)
        ok_new, candidate = self._cluster_run(True)
        assert ok_base and ok_new
        baseline_orders = {tuple(seq) for seq in baseline.values()}
        candidate_orders = {tuple(seq) for seq in candidate.values()}
        assert len(baseline_orders) == 1  # the reference transport agrees
        assert candidate_orders == baseline_orders
