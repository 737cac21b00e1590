"""`repro.stack`: what one node is made of, identically on every host.

Two tables. *Mode guards*: every refused combination is refused by
every host at construction, with one exception type and one message.
*Dispatch*: one message of every wire kind through a stack with and
without the owning layer reaches its handler exactly once or is
dropped, identically whether the simulator or the asyncio runtime
hosts the stack — and every kind the codec's table carries is one the
dispatch table routes.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import MISSING, fields

import pytest

from repro.auth import SignedBall
from repro.core import EpToConfig
from repro.core.dissemination import DisseminationComponent
from repro.core.errors import ConfigurationError
from repro.core.event import Ball, Event
from repro.lazy.process import LazyEpToProcess
from repro.lazy.protocol import LAZY_MESSAGE_TYPES
from repro.pss.base import MembershipDirectory
from repro.pss.cyclon import CyclonPss, CyclonRequest, CyclonResponse
from repro.runtime import AsyncCluster, AsyncEpToNode, AsyncNetwork, codec
from repro.runtime.codec import TopicEnvelope
from repro.service import BroadcastService, ServiceCluster
from repro.sim import ClusterConfig, FixedLatency, SimCluster, SimNetwork, Simulator
from repro.stack import NodeStack, _drop, build_pss, open_journal
from repro.sync import SyncConfig, SyncManager
from repro.sync.protocol import DeliveryDigest, SyncChunk, SyncDigest, SyncRequest

from .runtime.header import pack_header


def _config(**overrides):
    return EpToConfig(fanout=2, ttl=4, round_interval=100, **overrides)


# ----------------------------------------------------------------------
# (a) Mode guards
# ----------------------------------------------------------------------

#: name -> (config, sync, durable, size hint)
REFUSED = {
    "lazy+sync": (_config(mode="lazy"), SyncConfig(), True, 8),
    "sync without storage": (_config(), SyncConfig(), False, 8),
    "lazy+tagged delivery": (
        _config(mode="lazy", tagged_delivery=True),
        None,
        False,
        8,
    ),
    "expose_stability without a size hint": (
        _config(expose_stability=True),
        None,
        False,
        None,
    ),
}


def _sim_cluster(config, sync, storage, size):
    sim = Simulator(seed=1)
    return SimCluster(
        sim,
        SimNetwork(sim),
        ClusterConfig(epto=config, expected_size=size),
        storage_dir=storage,
        sync=sync,
    )


HOSTS = {
    "SimCluster": _sim_cluster,
    "AsyncCluster": lambda config, sync, storage, size: AsyncCluster(
        config, storage_dir=storage, sync=sync, expected_size=size
    ),
    "ServiceCluster": lambda config, sync, storage, size: ServiceCluster(
        config, storage_dir=storage, sync=sync, expected_size=size
    ),
    "BroadcastService": lambda config, sync, storage, size: BroadcastService(
        0, config, AsyncNetwork(), storage_dir=storage, sync=sync, expected_size=size
    ),
    "NodeStack": lambda config, sync, storage, size: NodeStack(
        0,
        config,
        pss=None,
        fabric=None,
        on_deliver=lambda event: None,
        time_source=lambda: 0,
        rng=random.Random(0),
        system_size_hint=size,
        journal=None if storage is None else open_journal(storage),
        sync=sync,
    ),
}


class TestModeGuards:
    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_every_host_refuses_it_the_same_way_at_construction(self, case, tmp_path):
        config, sync, durable, size = REFUSED[case]
        messages = {}
        for host, build in HOSTS.items():
            storage = tmp_path / host if durable else None
            with pytest.raises(ConfigurationError) as refusal:
                build(config, sync, storage, size)
            messages[host] = str(refusal.value)
        assert len(set(messages.values())) == 1, messages

    def test_the_supported_combinations_still_construct(self, tmp_path):
        for host, build in HOSTS.items():
            build(_config(), SyncConfig(), tmp_path / host, 8)
            build(_config(mode="lazy"), None, None, 8)
            build(_config(expose_stability=True), None, None, 8)


# ----------------------------------------------------------------------
# (b) Dispatch
# ----------------------------------------------------------------------


def _blank(kind):
    """An instance of a wire dataclass with every required field zero."""
    return kind(
        **{
            field.name: 0
            for field in fields(kind)
            if field.default is MISSING and field.default_factory is MISSING
        }
    )


EVENT = Event(id=(1, 0), ts=3, source_id=1, payload="x")


class Unknown:
    """A type no layer declares: falls to the process like a ball."""


#: (the layer that owns the kind, the message), one of every wire kind.
MESSAGES = (
    [
        # A wire ball as decoded, and a round's ball as shared.
        ("ball", Ball.of([(EVENT, 1)])),
        ("ball", Ball({EVENT.id: EVENT}, {EVENT.id: 1}, shared=True)),
        ("ball", Unknown()),
        ("cyclon_request", CyclonRequest(entries=())),
        ("cyclon_response", CyclonResponse(entries=())),
    ]
    + [("lazy", _blank(kind)) for kind in LAZY_MESSAGE_TYPES]
    + [
        ("sync", SyncDigest(DeliveryDigest(last_key=None))),
        ("sync", SyncRequest(req_id=1, after=None)),
        ("sync", SyncChunk(req_id=1, events=(), checksum=0)),
    ]
)

#: stack shape -> (pss kind, mode, sync?, the layers such a stack holds)
SHAPES = {
    "eager/cyclon/sync": ("cyclon", "eager", True, {"cyclon_request", "cyclon_response", "sync"}),
    "lazy/cyclon": ("cyclon", "lazy", False, {"cyclon_request", "cyclon_response", "lazy"}),
    "eager/uniform": ("uniform", "eager", False, set()),
}

#: (class, method, the layer it is the entry of). An eager stack hands
#: a ball straight to its dissemination component.
HANDLERS = (
    (DisseminationComponent, "receive_ball", "ball"),
    (LazyEpToProcess, "on_ball", "ball"),
    (LazyEpToProcess, "on_lazy_message", "lazy"),
    (CyclonPss, "handle_request", "cyclon_request"),
    (CyclonPss, "handle_response", "cyclon_response"),
    (SyncManager, "on_message", "sync"),
)


def _through_sim(pss, mode, sync, storage):
    sim = Simulator(seed=11)
    network = SimNetwork(sim, latency=FixedLatency(5))
    cluster = SimCluster(
        sim,
        network,
        ClusterConfig(epto=_config(mode=mode), pss=pss),
        storage_dir=storage if sync else None,
        sync=SyncConfig() if sync else None,
    )
    cluster.add_nodes(2)
    for _, message in MESSAGES:
        network.send(1, 0, message)
    sim.run(until=5)  # all landed, no round yet


def _through_asyncio(pss, mode, sync, storage):
    async def scenario():
        network = AsyncNetwork()
        directory = MembershipDirectory()
        directory.add(1)
        config = _config(mode=mode)
        node = AsyncEpToNode(
            0,
            config,
            network,
            build_pss(pss, 0, config.fanout, directory, network, random.Random(0)),
            on_deliver=lambda event: None,
            journal=open_journal(storage) if sync else None,
            sync_config=SyncConfig() if sync else None,
        )
        for _, message in MESSAGES:
            network.send(1, 0, message)
        await asyncio.sleep(0.01)  # zero-latency fabric: all landed
        await node.stop()

    asyncio.run(scenario())


class TestDispatch:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_kind_reaches_its_layer_once_or_is_dropped_on_both_hosts(
        self, shape, tmp_path, monkeypatch
    ):
        pss, mode, sync, held = SHAPES[shape]
        ours = {id(message) for _, message in MESSAGES}
        reached = []

        def recorder(layer):
            # On the class, so every node's layer records; an overlay
            # may chat meanwhile, so keep only what this test sent.
            def record(self, *args):
                if id(args[-1]) in ours:
                    src = args[:-1]
                    assert src == (() if layer == "ball" else (1,))
                    reached.append((layer, id(args[-1])))

            return record

        for owner, method, layer in HANDLERS:
            monkeypatch.setattr(owner, method, recorder(layer))
        expected = [
            (layer, id(message))
            for layer, message in MESSAGES
            if layer == "ball" or layer in held
        ]
        assert len(expected) < len(MESSAGES)  # something is always dropped

        _through_sim(pss, mode, sync, tmp_path / "sim")
        via_sim, reached[:] = list(reached), []
        _through_asyncio(pss, mode, sync, tmp_path / "asyncio")
        assert via_sim == reached == expected


# ----------------------------------------------------------------------
# (c) Every kind the codec carries has a layer
# ----------------------------------------------------------------------


class TestCarriedKindsAreRouted:
    def test_every_non_ball_row_of_the_codec_table_has_a_handler(self, tmp_path):
        # SignedBall and TopicEnvelope never reach a stack: the fabric
        # unwraps the one, the service's demux the other.
        carried = {row.message_type for row in codec._KINDS}
        carried -= {Ball, SignedBall, TopicEnvelope}
        routed = set()
        # lazy+sync is refused, so two stacks hold every layer.
        for mode, sync in (("eager", True), ("lazy", False)):
            config = _config(mode=mode)
            network = AsyncNetwork()
            directory = MembershipDirectory()
            stack = NodeStack(
                0,
                config,
                build_pss("cyclon", 0, config.fanout, directory, network, random.Random(0)),
                network,
                on_deliver=lambda event: None,
                time_source=lambda: 0,
                rng=random.Random(0),
                journal=open_journal(tmp_path) if sync else None,
                sync=SyncConfig() if sync else None,
            )
            routed |= {
                kind for kind, handler in stack._table.items() if handler is not _drop
            }
            if stack.journal is not None:
                stack.journal.close()
        # A kind added to the codec but routed nowhere would otherwise
        # be handed to process.on_ball like a ball.
        assert carried <= routed

    def test_an_envelope_refuses_exactly_the_envelope_kind(self):
        for row in codec._KINDS:
            inner = pack_header(row.kind, 1, 0)
            if row.message_type is TopicEnvelope:
                with pytest.raises(codec.CodecError, match="nest"):
                    codec.assemble_envelope(0, [(0, inner)])
            else:
                codec.assemble_envelope(0, [(0, inner)])
