"""One readiness callback per :class:`UdpNetwork`.

The fabric keeps its raw sockets in one epoll of its own and the event
loop watches only that descriptor; each time it is ready the fabric
reads one datagram from every socket ready in that batch. A socket
closed by a handler earlier in the batch is not read, and where the
loop cannot watch a descriptor the fabric falls back to asyncio
datagram endpoints.
"""

from __future__ import annotations

import asyncio
import types

import pytest

from repro.core.event import Ball, Event
from repro.runtime import udp as udp_module
from repro.runtime.udp import UdpNetwork

from ..conftest import first_event

SETTLE = 0.05


def run(coro):
    return asyncio.run(coro)


def _ball(seq=0):
    return Ball.of([(Event(id=(9, seq), ts=1, source_id=9, payload="p"), 0)])


class TestOneDescriptor:
    def test_the_loop_watches_one_descriptor_for_every_socket(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            watched = []
            add_reader = loop.add_reader

            def counting(fd, callback, *args):
                watched.append(fd)
                return add_reader(fd, callback, *args)

            loop.add_reader = counting
            network = UdpNetwork()
            inboxes = {nid: [] for nid in range(8)}
            for nid, inbox in inboxes.items():
                network.register(nid, lambda src, msg, box=inbox: box.append(msg))
            await network.open_all()
            network.send_many(0, list(range(1, 8)), _ball())
            await asyncio.sleep(SETTLE)
            await network.close()
            return watched, inboxes, network.stats

        watched, inboxes, stats = run(scenario())
        assert len(watched) == 1
        assert all(len(inboxes[nid]) == 1 for nid in range(1, 8))
        assert stats.syscalls_recv == stats.delivered == 7


class TestReadinessBatch:
    @pytest.mark.parametrize("leave", ["unregister", "close"])
    def test_a_socket_closed_by_an_earlier_handler_is_not_read(self, leave):
        """Nodes 1 and 2 are both ready in one batch; whichever handler
        runs first takes the other off the fabric, and the other's
        datagram is never read — not later in the batch, not after."""

        async def scenario():
            network = UdpNetwork()
            inboxes = {1: [], 2: []}

            def handler(nid):
                def receive(src, msg):
                    inboxes[nid].append(msg)
                    other = 3 - nid
                    if leave == "unregister":
                        network.unregister(other)
                    else:
                        network._transports[other].close()  # noqa: SLF001

                return receive

            network.register(1, handler(1))
            network.register(2, handler(2))
            network.register(3, lambda src, msg: None)
            await network.open_all()
            # Both datagrams are queued before the loop polls once.
            network.send_many(3, [1, 2], _ball())
            await asyncio.sleep(SETTLE)
            await network.close()
            return inboxes, network.stats

        inboxes, stats = run(scenario())
        assert sorted(len(inbox) for inbox in inboxes.values()) == [0, 1]
        assert stats.syscalls_recv == stats.delivered == 1

    def test_a_socket_holding_more_is_reported_again(self):
        async def scenario():
            network = UdpNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            for seq in range(5):
                network.send(2, 1, _ball(seq))
            await asyncio.sleep(SETTLE)
            await network.close()
            return inbox, network.stats

        inbox, stats = run(scenario())
        assert [first_event(ball).id[1] for ball in inbox] == list(range(5))
        assert stats.syscalls_recv == stats.delivered == 5


class TestFallback:
    def _endpoints_and_delivery(self, watch_descriptors=True):
        async def scenario():
            if not watch_descriptors:
                # A Proactor-style loop: no public add_reader (the
                # selector loop's own transports use a private twin).
                def refuse(fd, callback, *args):
                    raise NotImplementedError

                asyncio.get_running_loop().add_reader = refuse
            network = UdpNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            await network.open_all()
            raw = [getattr(t, "is_raw", False) for t in network._transports.values()]  # noqa: SLF001
            network.send(2, 1, _ball())
            await asyncio.sleep(SETTLE)
            await network.close()
            return raw, inbox

        return run(scenario())

    def test_a_loop_that_cannot_watch_a_descriptor(self):
        raw, inbox = self._endpoints_and_delivery(watch_descriptors=False)
        assert raw == [False, False]
        assert len(inbox) == 1

    def test_a_platform_without_epoll(self, monkeypatch):
        monkeypatch.setattr(udp_module, "select", types.SimpleNamespace())
        raw, inbox = self._endpoints_and_delivery()
        assert raw == [False, False]
        assert len(inbox) == 1
