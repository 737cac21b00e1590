"""The self-stabilization drill: arbitrary state corruption (forged
spray + journal scramble + crash) must converge back, bit-identically
with auth + anti-entropy."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import FaultInjectionError
from repro.core.event import Ball, Event
from repro.experiments.drill import run_drill
from repro.faults import FaultSchedule, scramble_journal
from repro.faults.byzantine import forged_events, garbage_ball


class TestForgedEvents:
    def test_round_robin_impersonation_with_huge_seqs(self):
        events = forged_events([3, 5], count=4, ts=100)
        assert [event.source_id for event in events] == [3, 5, 3, 5]
        assert all(event.id[1] >= 1_000_000 for event in events)
        assert all(isinstance(event, Event) for event in events)

    def test_needs_identities(self):
        with pytest.raises(FaultInjectionError):
            forged_events([], count=1, ts=0)

    def test_garbage_ball_looks_freshly_broadcast(self):
        ball = garbage_ball(forged_events([3], count=2, ts=100))
        assert len(ball) == 2 and ball.max_ttl == 0


class TestScrambleJournal:
    def test_corrupted_log_still_readable_to_last_valid_record(self, tmp_path):
        from repro.metrics import load_delivery_log
        from repro.storage.journal import DeliveryJournal

        node_dir = tmp_path / "node-4"
        journal = DeliveryJournal(node_dir)
        for i in range(50):
            journal.record_delivery(
                Event(id=(4, i), ts=100 + i, source_id=4, payload={"n": i})
            )
        journal.close()

        actions = scramble_journal(node_dir, random.Random(7))
        assert any("flipped" in action for action in actions)
        assert any("garbage" in action for action in actions)

        # CRC framing absorbs all three damage layers: the read stops
        # at the last valid record instead of raising.
        collector = load_delivery_log(node_dir, node_id=4)
        sequence = collector.sequence_of(4)
        assert 0 < len(sequence) < 50
        full = [(100 + i, 4, i) for i in range(50)]
        assert list(sequence) == full[: len(sequence)]

    def test_missing_log_reported_not_raised(self, tmp_path):
        actions = scramble_journal(tmp_path / "node-9", random.Random(0))
        assert any("no log segments" in action for action in actions)


class TestSelfStabDrill:
    def test_scrambled_node_converges_bit_identically_with_auth_and_sync(self):
        result = run_drill(
            scale="small",
            seed=17,
            schedule=FaultSchedule.self_stab(),
            sync=True,
            auth=True,
        )
        assert result.scrambled == 1
        # The forged spray died at admission (unsigned at source) ...
        assert result.dropped_unsigned > 0
        assert result.authenticity is not None and result.authenticity.ok
        # ... the corrupted journal was repaired through recovery +
        # anti-entropy, converging to the survivors' durable sequence.
        assert result.scrambled_converged is True
        assert result.report.safety_ok
        assert result.exit_ok

    def test_without_auth_the_spray_pollutes_correct_nodes(self):
        result = run_drill(
            scale="small", seed=17, schedule=FaultSchedule.self_stab(), sync=True
        )
        assert result.authenticity is not None
        assert result.authenticity.forged_deliveries
        assert not result.exit_ok


class TestSelfStabOnTheAsyncioRuntime:
    """The same ``ScrambleState`` through the asyncio driver, in-memory
    fabric with auth + journals + anti-entropy on."""

    def test_forgeries_run_ahead_of_the_victims_clock_and_it_converges(self, tmp_path):
        import asyncio

        from repro.auth import HmacAuthenticator, KeyRing
        from repro.core import EpToConfig
        from repro.faults import AsyncFaultInjector, ScrambleState
        from repro.metrics import check_survivors
        from repro.runtime import AsyncCluster, AsyncNetwork
        from repro.sync import SyncConfig

        victim = 1

        async def scenario():
            network = AsyncNetwork(
                seed=5, authenticator=HmacAuthenticator(KeyRing("async-stab"))
            )
            cluster = AsyncCluster(
                EpToConfig(fanout=4, ttl=6, round_interval=15, clock="logical"),
                network=network,
                seed=5,
                storage_dir=tmp_path,
                sync=SyncConfig(interval_rounds=2.0),
            )
            cluster.add_nodes(6)
            sprayed = []  # (the victim's clock as the spray left, the ball)
            send_many = network.send_many

            def spy(src, dsts, message):
                forged = isinstance(message, Ball) and any(
                    seq >= 1_000_000 for _, seq in message.ttls
                )
                if forged:
                    clock = cluster.nodes[src].process.oracle.logical_clock
                    sprayed.append((src, clock, message))
                send_many(src, dsts, message)

            network.send_many = spy
            cluster.start_all()
            events = [cluster.nodes[n].broadcast(f"pre-{n}") for n in (0, 2, 3, 4)]
            assert await cluster.wait_for_deliveries(len(events), timeout=10.0)
            injector = AsyncFaultInjector(
                cluster,
                FaultSchedule(
                    [ScrambleState(at_round=1.0, nodes=(victim,), recover_after=8.0)]
                ),
                seed=5,
            )
            scramble = asyncio.ensure_future(injector.run())
            await asyncio.sleep(3 * 0.015)  # the victim is down by now
            events += [cluster.nodes[n].broadcast(f"mid-{n}") for n in (0, 2)]
            await scramble
            events += [cluster.nodes[n].broadcast(f"post-{n}") for n in (3, 4)]
            wanted = {event.id for event in events}
            converged = await cluster.wait_until(
                lambda: all(
                    wanted <= {e.id for e in cluster.deliveries[n]}
                    for n in cluster.live_ids()
                ),
                timeout=10.0,
            )
            await cluster.stop_all()
            return cluster, injector, sprayed, events, converged, network.stats

        cluster, injector, sprayed, events, converged, stats = asyncio.run(scenario())
        assert injector.scrambled_ids == {victim} and injector.stats.scrambles == 1
        # The forged spray carried the victim's *real* clock reading:
        # above it, and the clock had moved (it is not the constant 1
        # of an injector that cannot find the clock).
        [(src, clock, ball)] = sprayed
        assert src == victim and len(ball) == 3
        assert clock > 1
        assert all(event.ts > clock for event in ball.events.values())
        # Unsigned at source: every copy died at admission, none was
        # delivered anywhere.
        assert stats.dropped_unsigned >= 3 * 5
        assert not any(
            event.id[1] >= 1_000_000
            for delivered in cluster.deliveries.values()
            for event in delivered
        )
        # The victim came back from its damaged journal and converged.
        assert converged
        assert any("scrambled nodes [1] respawned" in text for _, text in injector.log)
        report = check_survivors(
            cluster.deliveries,
            survivors=set(range(6)) - {victim},
            recovered={victim},
            restart_indices=cluster.restart_indices,
            broadcasts={event.id: event for event in events},
        )
        assert report.ok, report.summary()
