"""Tests for the asyncio runtime (repro.runtime, paper §8.5).

These run real (miniature) EpTO clusters on the event loop with short
round intervals, so they take a few hundred milliseconds each.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import EpToConfig
from repro.core.errors import MembershipError
from repro.runtime import AsyncCluster, AsyncNetwork


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides):
    defaults = dict(fanout=3, ttl=5, round_interval=15, clock="logical")
    defaults.update(overrides)
    return EpToConfig(**defaults)


class TestAsyncNetwork:
    def test_zero_latency_delivery(self):
        async def scenario():
            network = AsyncNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append((src, msg)))
            network.send(0, 1, "hi")
            await asyncio.sleep(0.01)
            return inbox

        assert run(scenario()) == [(0, "hi")]

    def test_loss(self):
        async def scenario():
            network = AsyncNetwork(loss_rate=0.5, seed=1)
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            for i in range(200):
                network.send(0, 1, i)
            await asyncio.sleep(0.05)
            return len(inbox), network.stats.dropped_loss

        delivered, dropped = run(scenario())
        assert delivered + dropped == 200
        assert 50 < delivered < 150

    def test_dead_destination_counted(self):
        async def scenario():
            network = AsyncNetwork()
            network.send(0, 42, "void")
            await asyncio.sleep(0.01)
            return network.stats.dropped_dead

        assert run(scenario()) == 1

    def test_duplicate_registration_rejected(self):
        network = AsyncNetwork()
        network.register(1, lambda s, m: None)
        with pytest.raises(MembershipError):
            network.register(1, lambda s, m: None)


class TestAsyncNetworkFaults:
    def test_partition_drops_cross_group_messages(self):
        async def scenario():
            network = AsyncNetwork()
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            network.set_partition({1: "left", 2: "right"})
            network.send(2, 1, "across")
            await asyncio.sleep(0.01)
            dropped_during = network.stats.dropped_partition
            network.heal_partition()
            network.send(2, 1, "after-heal")
            await asyncio.sleep(0.01)
            return dropped_during, inbox

        dropped, inbox = run(scenario())
        assert dropped == 1
        assert inbox == ["after-heal"]

    def test_partition_drops_messages_in_flight(self):
        """A message launched before the partition forms is lost at
        delivery time, like on a real network."""

        async def scenario():
            network = AsyncNetwork(latency=0.03, seed=1)
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.register(2, lambda src, msg: None)
            network.send(2, 1, "in-flight")
            network.set_partition({1: "a", 2: "b"})
            await asyncio.sleep(0.1)
            return network.stats.dropped_partition, inbox

        dropped, inbox = run(scenario())
        assert dropped == 1
        assert inbox == []

    def test_loss_burst_window(self):
        async def scenario():
            network = AsyncNetwork(seed=2)
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.set_loss_burst(1.0, duration=0.05)
            for i in range(10):
                network.send(0, 1, i)
            await asyncio.sleep(0.1)  # window over
            in_burst = len(inbox)
            network.send(0, 1, "late")
            await asyncio.sleep(0.01)
            return in_burst, network.stats.dropped_burst, inbox

        in_burst, dropped_burst, inbox = run(scenario())
        assert in_burst == 0
        assert dropped_burst == 10
        assert inbox == ["late"]

    def test_latency_spike_window_delays_delivery(self):
        async def scenario():
            network = AsyncNetwork(latency=0.02, seed=3)
            inbox = []
            network.register(1, lambda src, msg: inbox.append(msg))
            network.set_latency_spike(10.0, duration=1.0)
            network.send(0, 1, "slow")
            # Normal latency is at most 0.03s; spiked is at least 0.1s.
            await asyncio.sleep(0.05)
            early = list(inbox)
            # At most 0.3s spiked; poll instead of betting on a sleep,
            # so a loaded machine delays the test, not its verdict.
            deadline = asyncio.get_running_loop().time() + 5.0
            while not inbox and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.01)
            return early, inbox

        early, inbox = run(scenario())
        assert early == []
        assert inbox == ["slow"]

    def test_dropped_aggregate(self):
        async def scenario():
            network = AsyncNetwork()
            network.register(1, lambda src, msg: None)
            network.set_partition({0: "a", 1: "b"})
            network.send(0, 1, "x")  # partition drop
            network.heal_partition()
            network.send(0, 9, "y")  # dead destination
            await asyncio.sleep(0.01)
            return network.stats

        stats = run(scenario())
        assert stats.dropped == 2
        assert stats.dropped == (
            stats.dropped_loss
            + stats.dropped_dead
            + stats.dropped_partition
            + stats.dropped_burst
        )


class TestAsyncCluster:
    def test_total_order_across_real_timers(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), seed=2)
            cluster.add_nodes(6)
            cluster.start_all()
            cluster.nodes[0].broadcast("a")
            cluster.nodes[3].broadcast("b")
            cluster.nodes[5].broadcast("c")
            ok = await cluster.wait_for_deliveries(3, timeout=8.0)
            await cluster.stop_all()
            return ok, cluster.delivery_payload_sequences()

        ok, sequences = run(scenario())
        assert ok
        assert len({tuple(seq) for seq in sequences.values()}) == 1

    def test_total_order_under_latency_and_loss(self):
        async def scenario():
            network = AsyncNetwork(latency=0.003, loss_rate=0.05, seed=5)
            cluster = AsyncCluster(
                small_config(fanout=4, ttl=6),
                network=network,
                drift_fraction=0.05,
                seed=5,
            )
            cluster.add_nodes(8)
            cluster.start_all()
            for i in range(4):
                cluster.nodes[i].broadcast(f"event-{i}")
            ok = await cluster.wait_for_deliveries(4, timeout=10.0)
            await cluster.stop_all()
            return ok, cluster.delivery_payload_sequences()

        ok, sequences = run(scenario())
        assert ok
        assert len({tuple(seq) for seq in sequences.values()}) == 1

    def test_cyclon_pss_runtime(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), pss="cyclon", seed=7)
            cluster.add_nodes(6)
            cluster.start_all()
            await asyncio.sleep(0.1)  # let views mix
            cluster.nodes[2].broadcast("x")
            ok = await cluster.wait_for_deliveries(1, timeout=8.0)
            await cluster.stop_all()
            return ok

        assert run(scenario())

    def test_node_stop_and_removal(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), seed=3)
            cluster.add_nodes(4)
            cluster.start_all()
            await cluster.remove_node(2)
            assert 2 not in cluster.nodes
            assert 2 not in cluster.directory
            # Remaining nodes still agree.
            cluster.nodes[0].broadcast("after-crash")
            ok = await cluster.wait_for_deliveries(1, timeout=8.0)
            await cluster.stop_all()
            return ok

        assert run(scenario())

    def test_remove_unknown_rejected(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), seed=3)
            with pytest.raises(MembershipError):
                await cluster.remove_node(9)

        run(scenario())

    def test_invalid_pss_rejected(self):
        with pytest.raises(MembershipError):
            AsyncCluster(small_config(), pss="oracle")

    def test_node_running_lifecycle(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), seed=4)
            node = cluster.add_node()
            assert not node.running
            node.start()
            assert node.running
            await node.stop()
            assert not node.running

        run(scenario())

    def test_node_whose_round_task_dies_goes_silent(self, tmp_path):
        """A round task that raises is a crash: the loop's exception
        handler hears why, the shuffle and the anti-entropy task die
        with it, and nothing leaves the node afterwards (a corpse that
        kept probing would run a second sync manager under its id once
        a supervisor respawned it)."""
        from repro.sync import SyncConfig

        async def scenario():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _, context: reported.append(context)
            )
            cluster = AsyncCluster(
                small_config(),
                pss="cyclon",
                seed=4,
                storage_dir=tmp_path,
                sync=SyncConfig(interval_rounds=1.0),
            )
            cluster.add_nodes(4)
            cluster.start_all()
            node = cluster.nodes[3]  # joined last: its view knows the others

            def explode():
                raise RuntimeError("cosmic ray")

            node.process.on_round = explode
            died = await cluster.wait_until(lambda: node.crashed, timeout=5.0)
            await asyncio.sleep(0)  # let the cancellations land
            tasks = (node._round_timer, node._shuffle_timer, node._sync_timer)
            tasks_done = [task is not None and task.done() for task in tasks]
            sent_after = []
            send = cluster.network.send

            def spy(src, dst, message):
                if src == node.node_id:
                    sent_after.append(message)
                send(src, dst, message)

            cluster.network.send = spy
            await asyncio.sleep(8 * 0.015)  # eight probe periods
            for other in (0, 1, 2):  # stop() would re-raise the corpse's error
                await cluster.nodes[other].stop()
            for journal in cluster.journals.values():
                journal.close()
            registered = cluster.network.is_registered(node.node_id)
            return died, tasks_done, sent_after, registered, reported

        died, tasks_done, sent_after, registered, reported = run(scenario())
        assert died and not registered
        assert tasks_done == [True, True, True]
        assert sent_after == []
        assert len(reported) == 1
        assert reported[0]["message"] == "node 3: round timer failed"
        exc = reported[0]["exception"]
        assert isinstance(exc, RuntimeError) and str(exc) == "cosmic ray"


class TestRoundTimers:
    """A node's round, shuffle and anti-entropy duties are loop timers,
    each re-armed by its own firing."""

    def _counted_node(self, tmp_path):
        """A started four-node cyclon cluster with anti-entropy, and a
        counter of how often node 3's round, shuffle and sync fire."""
        from repro.sync import SyncConfig

        cluster = AsyncCluster(
            small_config(),
            pss="cyclon",
            seed=4,
            storage_dir=tmp_path,
            sync=SyncConfig(interval_rounds=1.0),
        )
        cluster.add_nodes(4)
        node = cluster.nodes[3]
        fired = {"round": 0, "shuffle": 0, "sync": 0}

        def counting(duty, body):
            def wrapped(*args):
                fired[duty] += 1
                return body(*args)

            return wrapped

        node.process.on_round = counting("round", node.process.on_round)
        node.stack.pss.shuffle = counting("shuffle", node.stack.pss.shuffle)
        node.sync_manager.on_round = counting("sync", node.sync_manager.on_round)
        cluster.start_all()
        return cluster, node, fired

    async def _close(self, cluster):
        for node in cluster.nodes.values():
            if node.running:
                await node.stop()
        for journal in cluster.journals.values():
            journal.close()

    @pytest.mark.parametrize("end", ["stop", "crash"])
    def test_no_timer_fires_after_stop_or_crash(self, tmp_path, end):
        async def scenario():
            cluster, node, fired = self._counted_node(tmp_path)
            await cluster.wait_until(
                lambda: min(fired.values()) >= 3, timeout=5.0
            )
            if end == "stop":
                await node.stop()
            else:
                node.crash()
            before = dict(fired)
            await asyncio.sleep(8 * 0.015)  # eight round intervals
            after = dict(fired)
            running = node.running
            await self._close(cluster)
            return before, after, running

        before, after, running = run(scenario())
        assert min(before.values()) >= 3
        assert after == before
        assert not running

    def test_a_round_that_crashes_its_node_is_its_last(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), seed=4)
            node = cluster.add_node()
            rounds = []

            def on_round():  # e.g. a delivery callback that kills the node
                rounds.append(None)
                node.crash()

            node.process.on_round = on_round
            node.start()
            await cluster.wait_until(lambda: rounds, timeout=5.0)
            await asyncio.sleep(8 * 0.015)
            return len(rounds), node.running, node.crashed

        assert run(scenario()) == (1, False, True)

    def test_a_failing_shuffle_stops_only_its_own_timer(self, tmp_path):
        async def scenario():
            cluster, node, fired = self._counted_node(tmp_path)
            reported = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: reported.append(context))

            def explode():
                fired["shuffle"] += 1
                raise RuntimeError("cosmic ray")

            node.stack.pss.shuffle = explode
            await cluster.wait_until(lambda: fired["shuffle"] >= 1, timeout=5.0)
            rounds, syncs = fired["round"], fired["sync"]
            await asyncio.sleep(8 * 0.015)
            outcome = (
                fired["shuffle"],
                fired["round"] - rounds,
                fired["sync"] - syncs,
                node.running,
                node.crashed,
            )
            await self._close(cluster)
            return outcome, reported

        (shuffles, rounds, syncs, running, crashed), reported = run(scenario())
        assert shuffles == 1
        assert rounds >= 3 and syncs >= 3
        assert running and not crashed
        assert [str(context["exception"]) for context in reported] == ["cosmic ray"]

    def test_round_delays_are_the_seeded_jitter_stream(self):
        import random

        async def scenario():
            cluster = AsyncCluster(
                small_config(round_interval=20), drift_fraction=0.1, seed=9
            )
            node = cluster.add_node()
            finished = asyncio.Event()
            rounds = []

            def on_round():  # draws nothing: the jitter is the only draw
                rounds.append(None)
                if len(rounds) == 6:
                    finished.set()

            node.process.on_round = on_round
            loop = asyncio.get_running_loop()
            delays = []
            call_later = loop.call_later

            def recording(delay, callback, *args):
                delays.append(delay)
                return call_later(delay, callback, *args)

            loop.call_later = recording
            node.start()
            await finished.wait()  # no timer of its own
            await node.stop()
            return node.node_id, delays[:6]

        node_id, delays = run(scenario())
        rng = random.Random(f"9:async:{node_id}")
        expected = [0.02 * (1.0 + rng.uniform(-0.1, 0.1)) for _ in range(6)]
        assert delays == pytest.approx(expected, abs=0, rel=1e-12)


class TestLateJoin:
    def test_late_joiner_delivers_subsequent_events(self):
        """A node added mid-run (the runtime's churn-join path) sees
        every event broadcast after it joined, in the same order."""

        async def scenario():
            cluster = AsyncCluster(small_config(), seed=8)
            cluster.add_nodes(5)
            cluster.start_all()
            cluster.nodes[0].broadcast("before-join")
            await cluster.wait_for_deliveries(1, timeout=8.0)

            joiner = cluster.add_node()
            joiner.start()
            await asyncio.sleep(0.05)  # let it tick a few rounds
            cluster.nodes[1].broadcast("after-join")

            def joiner_and_veterans_done() -> bool:
                joiner_ok = any(
                    e.payload == "after-join"
                    for e in cluster.deliveries[joiner.node_id]
                )
                veterans_ok = all(
                    len(cluster.deliveries[n]) >= 2 for n in range(5)
                )
                return joiner_ok and veterans_ok

            ok = await cluster.wait_until(joiner_and_veterans_done, timeout=10.0)
            await cluster.stop_all()
            veterans = {
                tuple(e.payload for e in cluster.deliveries[n]) for n in range(5)
            }
            joiner_payloads = [
                e.payload for e in cluster.deliveries[joiner.node_id]
            ]
            return ok, veterans, joiner_payloads

        ok, veterans, joiner_payloads = run(scenario())
        assert ok
        assert veterans == {("before-join", "after-join")}
        # The joiner saw the post-join event; it may additionally have
        # caught "before-join" if that was still circulating — in-order
        # either way.
        assert joiner_payloads[-1] == "after-join"
