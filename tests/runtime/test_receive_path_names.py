"""The receive path runs through three names a profiler can wrap.

A ball datagram a node receives over UDP takes three steps:
``repro.runtime.udp.decode`` (the codec, looked up in the fabric's
module each time), ``BallGuard.admit_signed`` on an authenticating
fabric, and ``DisseminationComponent.receive_ball``, the node's ball
inbox. The benchmark's traced pass times each layer by wrapping exactly
these attributes, and wraps ``UdpNetwork.register``'s *handler*
argument for the node's inbox of every other kind. A refactor that
bypassed one of them, or changed ``register``'s signature, would not
break a run: it would zero that layer's figures. These tests count the
calls through the three names for one datagram of each kind.
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro.auth import BallGuard, HmacAuthenticator, KeyRing
from repro.core.config import EpToConfig
from repro.core.dissemination import DisseminationComponent
from repro.core.event import Ball, Event
from repro.pss.base import MembershipDirectory
from repro.pss.uniform import UniformViewPss
from repro.runtime import codec, udp
from repro.runtime.node import AsyncEpToNode
from repro.runtime.udp import UdpNetwork

SECRET = "receive-path-names"
CONFIG = EpToConfig(fanout=2, ttl=6, round_interval=125, clock="logical")


def _ball() -> Ball:
    return Ball.of(
        [
            (Event(id=(2, 0), ts=3, source_id=2, payload="a"), 0),
            (Event(id=(2, 1), ts=4, source_id=2, payload="b"), 1),
        ]
    )


def _plain_wire() -> bytes:
    return codec.encode(2, _ball())


def _signed_wire() -> bytes:
    guard = BallGuard(HmacAuthenticator(KeyRing(SECRET)))
    ball = _ball()
    guard.seal(2, ball)
    return codec.encode(2, guard.attach(ball))


@pytest.fixture
def calls(monkeypatch):
    """Every call through the three names, by name."""
    made: list = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            made.append(name)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(udp, "decode", counted("decode", udp.decode))
    monkeypatch.setattr(
        BallGuard, "admit_signed", counted("admit_signed", BallGuard.admit_signed)
    )
    monkeypatch.setattr(
        DisseminationComponent,
        "receive_ball",
        counted("receive_ball", DisseminationComponent.receive_ball),
    )
    return made


def _node(network: UdpNetwork) -> AsyncEpToNode:
    """A node built after the patches, as the traced pass builds them."""
    directory = MembershipDirectory()
    for node_id in range(3):
        directory.add(node_id)
    return AsyncEpToNode(
        1,
        CONFIG,
        network,
        UniformViewPss(1, directory, random.Random(1)),
        on_deliver=lambda event: None,
    )


@pytest.mark.parametrize(
    "secure, wire, expected",
    [
        (False, _plain_wire(), ["decode", "receive_ball"]),
        (False, _signed_wire(), ["decode", "receive_ball"]),
        (True, _signed_wire(), ["decode", "admit_signed", "receive_ball"]),
    ],
    ids=["plain", "signed-stripped", "signed-verified"],
)
def test_each_name_runs_once_per_ball_datagram(calls, secure, wire, expected):
    network = UdpNetwork(
        authenticator=HmacAuthenticator(KeyRing(SECRET)) if secure else None
    )
    node = _node(network)
    network._on_datagram(1, memoryview(bytearray(wire)))  # noqa: SLF001
    assert calls == expected
    assert node.process.dissemination.stats.entries_received == 2


def test_register_takes_the_node_and_its_handler():
    """The traced pass replaces ``register`` with a wrapper of this
    exact signature, timing the handler as the node's inbox."""
    assert list(inspect.signature(UdpNetwork.register).parameters) == [
        "self",
        "node_id",
        "handler",
    ]
