"""BroadcastService host behavior: pub/sub, backpressure, lifecycle."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import EpToConfig
from repro.core.errors import ConfigurationError, MembershipError
from repro.service import (
    BackpressureError,
    BroadcastService,
    ServiceCluster,
    Subscription,
)
from repro.service.service import MAX_PENDING


def _config(n=4, interval=15):
    return EpToConfig.for_system_size(n, round_interval=interval)


def _cluster(n=4, **kwargs):
    kwargs.setdefault("expected_size", n)
    kwargs.setdefault("seed", 11)
    return ServiceCluster(_config(n), **kwargs)


def _run(coro):
    return asyncio.run(coro)


class TestPublishSubscribe:
    def test_subscription_yields_total_order(self):
        async def scenario():
            cluster = _cluster()
            cluster.open_topic(1)
            cluster.add_hosts(4)
            subscription = cluster.hosts[3].subscribe(1)
            cluster.start_all()
            for i in range(6):
                await cluster.publish(1, i % 4, i)
            assert await cluster.wait_for_topic(1, 6, timeout=10)
            received = []
            async for event in subscription:
                received.append(event)
                if len(received) == 6:
                    break
            assert received == cluster.hosts[3].deliveries(1)
            subscription.close()
            await cluster.close_all()

        _run(scenario())

    def test_publish_on_unopened_topic_rejected(self):
        async def scenario():
            cluster = _cluster()
            cluster.open_topic(1)
            cluster.add_hosts(2)
            with pytest.raises(MembershipError):
                await cluster.hosts[0].publish(99, "nope")
            with pytest.raises(MembershipError):
                cluster.hosts[0].subscribe(99)
            await cluster.close_all()

        _run(scenario())

    def test_topics_deliver_independently(self):
        async def scenario():
            cluster = _cluster()
            cluster.open_topic(1)
            cluster.open_topic(2)
            cluster.add_hosts(4)
            cluster.start_all()
            await cluster.publish(1, 0, "only-topic-1")
            assert await cluster.wait_for_topic(1, 1, timeout=10)
            for service in cluster.hosts.values():
                assert [e.payload for e in service.deliveries(1)] == ["only-topic-1"]
                assert service.deliveries(2) == []
            await cluster.close_all()

        _run(scenario())

    def test_closed_subscription_drains_then_stops(self):
        async def scenario():
            cluster = _cluster(n=2)
            cluster.open_topic(1)
            cluster.add_hosts(2)
            cluster.start_all()
            subscription = cluster.hosts[0].subscribe(1)
            await cluster.publish(1, 0, "a")
            assert await cluster.wait_for_topic(1, 1, timeout=10)
            subscription.close()
            drained = [event.payload async for event in subscription]
            assert drained == ["a"]
            await cluster.close_all()

        _run(scenario())


class TestBackpressure:
    def test_fail_fast_publish_raises(self):
        async def scenario():
            cluster = _cluster()
            cluster.open_topic(1)
            cluster.add_hosts(4)
            # Round task not started: the buffer can only fill up.
            for i in range(MAX_PENDING):
                await cluster.publish(1, 0, i, wait=False)
            with pytest.raises(BackpressureError):
                await cluster.publish(1, 0, "over", wait=False)
            assert cluster.hosts[0].stats.publish_rejected == 1
            assert cluster.hosts[0].stats.published == MAX_PENDING
            await cluster.close_all()

        _run(scenario())

    def test_blocking_publish_waits_for_a_round(self):
        async def scenario():
            cluster = _cluster()
            cluster.open_topic(1)
            cluster.add_hosts(4)
            host = cluster.hosts[0]
            for i in range(MAX_PENDING):
                await cluster.publish(1, 0, i)
            blocked = asyncio.ensure_future(cluster.publish(1, 0, "over"))
            await asyncio.sleep(0.05)
            assert not blocked.done()  # round task not running yet
            assert host.stats.publish_blocked >= 1
            cluster.start_all()
            await asyncio.wait_for(blocked, timeout=5)
            assert host.stats.published == MAX_PENDING + 1
            assert await cluster.wait_for_topic(1, MAX_PENDING + 1, timeout=10)
            await cluster.close_all()

        _run(scenario())

    def test_lagging_subscriber_drops_and_counts(self):
        async def scenario():
            cluster = _cluster(n=2)
            cluster.open_topic(1)
            cluster.add_hosts(2)
            host = cluster.hosts[0]
            subscription = host.subscribe(1, maxlen=2)
            cluster.start_all()
            for i in range(5):
                await cluster.publish(1, 0, i)
            assert await cluster.wait_for_topic(1, 5, timeout=10)
            assert host.stats.subscriber_lagged == 3
            # The two oldest buffered events are still readable.
            assert (await subscription.__anext__()).payload == 0
            assert (await subscription.__anext__()).payload == 1
            subscription.close()
            # The host's own record is complete regardless.
            assert len(host.deliveries(1)) == 5
            await cluster.close_all()

        _run(scenario())


class TestLifecycle:
    def test_open_topic_twice_rejected(self):
        async def scenario():
            cluster = _cluster(n=2)
            cluster.open_topic(1)
            cluster.add_hosts(1)
            with pytest.raises(MembershipError):
                cluster.hosts[0].open_topic(1)
            with pytest.raises(MembershipError):
                cluster.open_topic(1)
            await cluster.close_all()

        _run(scenario())

    def test_close_topic_releases_membership(self):
        async def scenario():
            cluster = _cluster()
            cluster.open_topic(1)
            cluster.add_hosts(3)
            cluster.start_all()
            assert len(cluster.directories[1]) == 3
            await cluster.hosts[2].close_topic(1)
            assert len(cluster.directories[1]) == 2
            # The remaining hosts still converge without the leaver.
            await cluster.publish(1, 0, "post-leave")
            assert await cluster.wait_until(
                lambda: all(
                    len(cluster.hosts[h].deliveries(1)) == 1 for h in (0, 1)
                ),
                timeout=10,
            )
            await cluster.close_all()

        _run(scenario())

    def test_topic_opened_later_joins_running_service(self):
        async def scenario():
            cluster = _cluster()
            cluster.open_topic(1)
            cluster.add_hosts(4)
            cluster.start_all()
            await cluster.publish(1, 0, "pre")
            assert await cluster.wait_for_topic(1, 1, timeout=10)
            cluster.open_topic(2)  # while round tasks are live
            await cluster.publish(2, 1, "late-topic")
            assert await cluster.wait_for_topic(2, 1, timeout=10)
            await cluster.close_all()

        _run(scenario())

    def test_sync_without_storage_rejected(self):
        from repro.sync.config import SyncConfig

        async def scenario():
            with pytest.raises(ConfigurationError):
                BroadcastService(
                    0, _config(), object(), sync=SyncConfig(), storage_dir=None
                )

        _run(scenario())

    def test_subscription_is_async_iterator(self):
        async def scenario():
            cluster = _cluster(n=2)
            cluster.open_topic(1)
            cluster.add_hosts(2)
            subscription = cluster.hosts[0].subscribe(1)
            assert isinstance(subscription, Subscription)
            assert aiter(subscription) is subscription
            await cluster.close_all()

        _run(scenario())
