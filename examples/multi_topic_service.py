#!/usr/bin/env python3
"""Multi-topic broadcast service quick-start (docs/SERVICE.md).

Four independent EpTO topics — four total orders — multiplexed over
**one real UDP socket per host**. Each host runs a single
`BroadcastService` with one round timer; every round, the balls of all
four topics to the same peer coalesce into one `TopicEnvelope` datagram
(each ball encoded once per round, whatever its fan-out). Clients see
an async pub/sub API: `await service.publish(topic, payload)` with
explicit backpressure, and bounded async-iterator subscriptions.

The script publishes interleaved traffic on every topic, tails one
subscription, and prints the per-topic total orders plus what the
sharing bought on the wire.

Run with::

    python examples/multi_topic_service.py
"""

from __future__ import annotations

import asyncio

from repro.core import EpToConfig
from repro.runtime.udp import UdpNetwork
from repro.service import ServiceCluster

N = 6
TOPICS = (10, 20, 30, 40)
PER_TOPIC = 5
SEED = 7


async def main() -> None:
    config = EpToConfig.for_system_size(N, round_interval=20)
    network = UdpNetwork(seed=SEED)
    cluster = ServiceCluster(config, network=network, expected_size=N, seed=SEED)
    for topic in TOPICS:
        cluster.open_topic(topic)
    cluster.add_hosts(N)
    await cluster.open_all()

    # A bounded subscription on one host's view of topic 10.
    feed = cluster.hosts[5].subscribe(TOPICS[0])
    cluster.start_all()

    sockets = len([True for _ in cluster.hosts])
    print(f"{N} hosts x {len(TOPICS)} topics over {sockets} UDP sockets\n")

    for i in range(PER_TOPIC):
        for topic in TOPICS:
            await cluster.publish(topic, (i + topic) % N, f"topic{topic}-msg{i}")

    for topic in TOPICS:
        converged = await cluster.wait_for_topic(topic, PER_TOPIC, timeout=20)
        report = cluster.check_topic(topic)
        order = [event.payload for event in cluster.hosts[0].deliveries(topic)]
        print(f"topic {topic}: converged={converged} check={report.summary()}")
        print(f"  total order at host 0: {order}")

    print("\nsubscription tail (topic 10, host 5):")
    tailed = []
    async for event in feed:
        tailed.append(event.payload)
        if len(tailed) == PER_TOPIC:
            break
    feed.close()
    print(f"  {tailed}")

    frames = sum(s.demux.stats.frames_sent for s in cluster.hosts.values())
    envelopes = sum(s.demux.stats.envelopes_sent for s in cluster.hosts.values())
    stats = network.stats
    print(
        f"\nwire: {frames} topic frames packed into {envelopes} datagrams "
        f"({frames / max(envelopes, 1):.2f} frames/datagram), "
        f"{stats.syscalls_send} send syscalls for {stats.sent} sends"
    )
    print(
        "One socket, one timer, one datagram per peer per round — "
        "instead of one of each per topic."
    )
    await cluster.close_all()


if __name__ == "__main__":
    asyncio.run(main())
