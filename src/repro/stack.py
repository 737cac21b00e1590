"""What one EpTO node is made of, whoever hosts it (paper Figure 2, §8.5).

A host — the discrete-event simulator, the asyncio runtime, a service
topic — chooses a *fabric* (anything with ``send`` / ``send_many``:
``SimNetwork``, ``AsyncNetwork``, ``UdpNetwork``, ``TopicChannel``), a
clock and a source of randomness. Everything else about a node is
decided here, once:

* :func:`validate_modes` — which combinations of mode, journal,
  anti-entropy, peer sampling and engine are refused, with one
  exception type and one message each, so every host refuses them at
  construction;
* :class:`NodeStack` — journal dedupe ahead of the delivery callback,
  the eager or lazy process, the optional sync manager, the one inbox
  (ball test first, then one ``{type: handler}`` table built from the
  layers this stack holds), ``broadcast`` and the round function with
  the respawn hold-gate;
* :func:`open_journal` — how a node's durable history is opened;
* :func:`respawn` — the one way a crashed node comes back: from disk,
  under its own broadcast sequence, held until the epidemic that went
  on without it has finished;
* :func:`build_pss` — the two peer sampling services the paper
  evaluates: the idealized uniform view and Cyclon.

Hosts keep only what is theirs: timers, sockets, collectors,
subscriptions.

A layer's implementation is imported when a stack is built with it,
not when this module loads: a uniform eager node without a journal
loads no overlay, lazy, anti-entropy or storage code. Everything a
layer can need later — a respawn included — is loaded when it is
built, so no import lands in the middle of a run.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional, Tuple, Union

from .core.config import EpToConfig
from .core.errors import ConfigurationError, MembershipError
from .core.event import Ball, Event
from .core.process import EpToProcess

if TYPE_CHECKING:  # pragma: no cover - hints only; a layer loads when built
    from .core.interfaces import PeerSampler, Transport
    from .pss.base import MembershipDirectory
    from .smr.machine import StateMachine
    from .storage.journal import DeliveryJournal
    from .storage.recovery import RecoveredState
    from .sync.config import SyncConfig
    from .sync.manager import SyncManager

#: The peer sampling services :func:`build_pss` knows (docs/OVERLAY.md).
PSS_KINDS = ("uniform", "cyclon")

#: Slack, in rounds, added on top of the TTL for the respawn hold
#: (:func:`respawn`, docs/SYNC.md). ``ttl`` covers the full
#: dissemination window of any event broadcast before the gate opens;
#: the slack absorbs round-phase offsets, period drift and the network
#: latency tail (up to several round durations under the PlanetLab
#: model), so every such event has reached peers' delivery logs before
#: the node relays again.
RESPAWN_HOLD_SLACK_ROUNDS = 6

#: Budget, in rounds, of a respawned node's wait for anti-entropy to
#: report ``caught_up``: the blocking ``AsyncEpToNode.catch_up`` and the
#: hold's wait for convergence (:meth:`NodeStack.hold`). When it is
#: spent the node rejoins dissemination anyway and keeps repairing in
#: the background.
CATCH_UP_ROUNDS = 40.0


def validate_modes(
    config: EpToConfig,
    sync: Optional[SyncConfig],
    durable: bool,
    system_size_hint: Optional[int],
    pss: str = "uniform",
    flat: bool = False,
) -> None:
    """Refuse the combinations no host supports (docs/API.md).

    Called by every cluster/service constructor and by
    :class:`NodeStack`, so a bad combination fails before any node
    exists, identically on every host. No host refuses a combination
    anywhere else.

    Args:
        config: The EpTO configuration the nodes will run.
        sync: Anti-entropy parameters, or ``None`` when off.
        durable: Whether nodes journal their deliveries (a cluster's
            ``storage_dir``, a stack's ``journal``).
        system_size_hint: The expected system size handed to processes.
        pss: The peer sampling service kind (:data:`PSS_KINDS`).
        flat: Whether the host is the flat simulator
            (:class:`~repro.sim.flat.FlatCluster`), which runs only the
            uniform PSS and the plain, untagged configuration.

    Raises:
        MembershipError: On an unknown PSS kind.
        ConfigurationError: On any refused combination.
    """
    if pss not in PSS_KINDS:
        raise MembershipError(f"unknown PSS kind {pss!r}")
    if flat and pss != "uniform":
        raise ConfigurationError(
            f"the flat engine supports only the uniform PSS, got {pss!r}; "
            "use SimCluster for cyclon runs"
        )
    if flat and config.tagged_delivery:
        raise ConfigurationError(
            "the flat engine does not support tagged_delivery; use "
            "SimCluster for the §8.2 extension"
        )
    if flat and config.expose_stability:
        raise ConfigurationError(
            "the flat engine does not support expose_stability; use "
            "SimCluster for the §8.4 extension"
        )
    if sync is not None and not durable:
        raise ConfigurationError(
            "anti-entropy sync requires durable journals (it exchanges "
            "delivery-log suffixes): set storage_dir / pass a journal"
        )
    if sync is not None and config.mode == "lazy":
        raise ConfigurationError(
            "anti-entropy sync is not supported in lazy mode (repaired "
            "events bypass the payload store; run mode='eager' with sync)"
        )
    if config.mode == "lazy" and config.tagged_delivery:
        raise ConfigurationError(
            "tagged_delivery is not supported in lazy mode (the gate "
            "would reorder the out-of-order stream)"
        )
    if config.expose_stability and system_size_hint is None:
        raise ConfigurationError(
            "expose_stability requires a system size hint (expected_size) "
            "to size the balls-and-bins estimator"
        )


def _drop(src: int, message: Any) -> None:
    """Inbox entry of a wire kind whose layer this stack does not hold
    (overlay chatter at a uniform node, lazy traffic at an eager node,
    anti-entropy without a manager)."""


def _loaded(module: str) -> bool:
    """Whether ``repro.<module>`` is loaded in this interpreter."""
    return f"{__package__}.{module}" in sys.modules


def _routes() -> Iterator[Tuple[Tuple[type, ...], str, str]]:
    """Every non-ball wire kind defined in this interpreter and the
    layer that owns it: (kinds, the stack attribute holding the layer,
    the layer's handler). A stack's dispatch table maps a kind to its
    layer's bound handler, or to :func:`_drop` when the layer is absent.

    A kind is defined once its module is loaded: by the layer that
    handles it, by the codec that decodes it, or by whoever built the
    message. No message of a kind nobody loaded can arrive, so the
    module is not imported here; a stack re-reads this table when a
    message misses its own (:meth:`NodeStack._route`).
    """
    if _loaded("pss.cyclon"):
        from .pss.cyclon import CyclonRequest, CyclonResponse

        yield (CyclonRequest,), "pss", "handle_request"
        yield (CyclonResponse,), "pss", "handle_response"
    if _loaded("lazy.protocol"):
        from .lazy.protocol import LAZY_MESSAGE_TYPES

        yield LAZY_MESSAGE_TYPES, "process", "on_lazy_message"
    if _loaded("sync.protocol"):
        from .sync.protocol import SYNC_MESSAGE_TYPES

        yield SYNC_MESSAGE_TYPES, "sync_manager", "on_message"


class NodeStack:
    """One node's protocol layers, composed once for every host.

    Args:
        node_id: Unique node identifier.
        config: EpTO configuration.
        pss: Peer sampling service view (see :func:`build_pss`).
        fabric: Outgoing message channel, handed to the process as is.
            The host registers :meth:`handle_message` as the node's
            inbox on it.
        on_deliver: Total-order delivery callback.
        time_source: Current-time callable (global-clock oracle).
        rng: This node's randomness (peer choice, pull retries).
        on_out_of_order: Optional §8.2 tagged-delivery callback.
        system_size_hint: Expected system size (§8.4 estimator).
        journal: Optional :class:`~repro.storage.journal.DeliveryJournal`.
            Every delivery is journaled before ``on_deliver`` runs, and
            a post-respawn re-delivery of an event already in the
            durable history is dropped without reaching it. Under the
            logical clock a journal that already holds deliveries (a
            respawn) starts the clock at the newest delivered ``ts``.
        sync: Optional anti-entropy parameters (requires *journal*); the
            stack then holds a :class:`~repro.sync.SyncManager` the
            host ticks once per round interval.
        process_factory: Alternative process constructor (the unordered
            baselines of Figure 6), called with keyword arguments
            ``node_id``, ``pss``, ``transport``, ``on_deliver``,
            ``time_source``, ``rng``. A process without ``.ordering``
            gets no sync manager.
    """

    __slots__ = (
        "pss",
        "journal",
        "process",
        "sync_manager",
        "on_ball",
        "_table",
        "_hold_rounds",
        "_held_for",
    )

    def __init__(
        self,
        node_id: int,
        config: EpToConfig,
        pss: PeerSampler,
        fabric: Transport,
        on_deliver: Callable[[Event], None],
        time_source: Callable[[], int],
        rng: random.Random,
        on_out_of_order: Callable[[Event], None] | None = None,
        system_size_hint: int | None = None,
        journal: "DeliveryJournal | None" = None,
        sync: SyncConfig | None = None,
        process_factory: Callable[..., Any] | None = None,
    ) -> None:
        validate_modes(config, sync, journal is not None, system_size_hint)
        self.pss = pss
        self.journal = journal
        if journal is not None:
            apply = on_deliver

            def on_deliver(event: Event) -> None:
                if journal.record_delivery(event):
                    apply(event)

        if process_factory is not None:
            self.process: Any = process_factory(
                node_id=node_id,
                pss=pss,
                transport=fabric,
                on_deliver=on_deliver,
                time_source=time_source,
                rng=rng,
            )
        else:
            if config.mode == "lazy":
                from .lazy.process import LazyEpToProcess

                build: Any = LazyEpToProcess
            else:
                build = EpToProcess
            self.process = build(
                node_id=node_id,
                config=config,
                peer_sampler=pss,
                transport=fabric,
                on_deliver=on_deliver,
                on_out_of_order=on_out_of_order,
                time_source=time_source,
                rng=rng,
                system_size_hint=system_size_hint,
            )
        last = journal.last_delivered_key if journal is not None else None
        dissemination = getattr(self.process, "dissemination", None)
        if last is not None and dissemination is not None:
            # A respawn from a journal: a logical clock resumes above
            # everything this identity delivered before the crash, or
            # its next broadcast would be stamped below events peers
            # have delivered, and they would discard it as late. (The
            # global clock's update is a no-op.)
            dissemination.oracle.update_clock(last[0])
        self.sync_manager: Optional[SyncManager] = None
        if sync is not None and hasattr(self.process, "ordering"):
            # Only EpTO-shaped processes can apply repaired events in
            # total order; a baseline process runs without anti-entropy.
            from .sync.manager import SyncManager, epto_chunk_applier

            self.sync_manager = SyncManager(
                node_id=node_id,
                journal=journal,
                send=lambda dst, message: fabric.send(node_id, dst, message),
                peer_sampler=pss,
                apply_events=epto_chunk_applier(self.process),
                config=sync,
            )
        #: The ball inbox: where :meth:`handle_message` sends a ball. A
        #: fabric that tells balls apart itself may call it directly.
        #: An EpTO process's is its dissemination component's
        #: ``receive_ball``, which is all its ``on_ball`` calls.
        process = self.process
        self.on_ball: Callable[[Ball], None] = (
            process.dissemination.receive_ball
            if type(process) is EpToProcess
            else process.on_ball
        )
        self._table: Dict[type, Callable[[int, Any], None]] = {}
        self._fill_table()
        self._hold_rounds: Optional[float] = None
        self._held_for = 0

    # ------------------------------------------------------------------
    # Inbox
    # ------------------------------------------------------------------

    def handle_message(self, src: int, message: Any) -> None:
        """The node's inbox: route one message from *src* to its layer.

        A ball, nearly always (K of them every node-round), so it is
        tested first: every fabric hands one over as a
        :class:`~repro.core.event.Ball`. Every other kind is one table
        lookup; a type no layer declares is handed to the process like a
        ball.
        """
        if type(message) is Ball:
            self.on_ball(message)
        else:
            handler = self._table.get(type(message)) or self._route(type(message))
            handler(src, message)

    def _fill_table(self) -> None:
        """Map every wire kind defined so far (:func:`_routes`) to this
        stack's handler of it, or to :func:`_drop` when the stack does
        not hold the owning layer."""
        for kinds, layer, handler in _routes():
            bound = getattr(getattr(self, layer), handler, None) or _drop
            self._table.update(dict.fromkeys(kinds, bound))

    def _route(self, kind: type) -> Callable[[int, Any], None]:
        """The handler of a kind the table has not seen: a wire kind
        whose module was loaded after this stack was built, or else a
        type no layer declares, which goes to the process. The table
        keeps the answer."""
        self._fill_table()
        return self._table.setdefault(kind, self._to_process)

    def _to_process(self, src: int, message: Any) -> None:
        self.on_ball(message)

    # ------------------------------------------------------------------
    # EpTO surface
    # ------------------------------------------------------------------

    def broadcast(self, payload: Any = None) -> Event:
        """EpTO-broadcast *payload* from this node."""
        event = self.process.broadcast(payload)
        if self.journal is not None:
            # Persist the issued sequence before the ball leaves, so a
            # replacement never reuses this (source, seq) id even when
            # the event was still in flight at crash time.
            self.journal.record_broadcast(event)
        return event

    def on_round(self) -> None:
        """One epidemic round — unless :meth:`hold` armed the respawn
        gate and it is still closed."""
        hold = self._hold_rounds
        if hold is not None:
            self._held_for += 1
            manager = self.sync_manager
            ready = manager.caught_up and self._held_for >= hold
            if not ready and self._held_for < max(hold, CATCH_UP_ROUNDS):
                return
            self._hold_rounds = None
        self.process.on_round()

    def hold(self) -> None:
        """Arm the respawn catch-up gate (docs/SYNC.md): :meth:`on_round`
        does nothing until anti-entropy reports convergence AND ``ttl +``
        :data:`RESPAWN_HOLD_SLACK_ROUNDS` round ticks have passed (the
        process's own TTL) — the in-flight horizon, after which
        every event broadcast before the gate opens has finished
        disseminating and reached peers' delivery logs, so it arrives
        here through contiguous sync pulls instead of a partially
        observed TTL window. Balls are still received during the hold
        (they only accumulate state); the node just neither relays nor
        delivers, so its order mark cannot advance past a still-missing
        event. One-way latch. The gate gives up after ``max(horizon,``
        :data:`CATCH_UP_ROUNDS` ``)`` held rounds: the catch-up
        budget bounds the wait for convergence, never the horizon, so
        an unservable gap (every peer also gone) degrades to the
        ungated behaviour instead of parking the node forever. A stack
        without a sync manager has nothing to wait for and is not held.
        :func:`respawn` arms it."""
        if self.sync_manager is not None:
            self._hold_rounds = self.process.config.ttl + RESPAWN_HOLD_SLACK_ROUNDS
            self._held_for = 0

    @property
    def held(self) -> bool:
        """Whether the respawn gate is still closed."""
        return self._hold_rounds is not None

    @property
    def issued_sequence(self) -> int:
        """Broadcast sequence issued so far (0 for a hosted process
        kind that has none — the unordered baselines)."""
        dissemination = getattr(self.process, "dissemination", None)
        return getattr(dissemination, "issued_sequence", 0)


# ----------------------------------------------------------------------
# Durable history
# ----------------------------------------------------------------------


def open_journal(
    directory: Union[str, Path],
    fsync: str = "rotate",
    resume: "RecoveredState | None" = None,
) -> "DeliveryJournal":
    """Open the delivery journal of one node identity under *directory*
    (fresh history, or continuing from *resume*)."""
    from .storage.journal import DeliveryJournal

    return DeliveryJournal(directory, fsync=fsync, resume=resume)


def respawn(
    node_id: int,
    issued: int,
    build: Callable[["DeliveryJournal | None"], NodeStack],
    directory: Union[str, Path, None] = None,
    fsync: str = "rotate",
    corpse: "DeliveryJournal | None" = None,
    machine: "StateMachine | None" = None,
) -> "RecoveredState | None":
    """Bring a crashed node back under its own identity — the one way
    back, for every host (the simulator, ``AsyncCluster``, each topic
    of a ``BroadcastService``).

    1. From disk, when the host has storage (*directory*): the corpse's
       journal survives an in-process crash (fault injection never runs
       ``close()``), so it is sealed before the successor opens the log
       — the two-writer guard. :func:`repro.storage.recovery.recover`
       replays snapshot + log suffix (into *machine*, when given), and
       the fresh journal inherits the recovered dedupe watermark, so
       re-gossiped pre-crash events never reach the application twice.
    2. *build* makes the host's node over that journal (``None``
       without storage) and returns its stack. Its ordering state
       starts empty, as a real restarted process's does.
    3. The broadcast sequence resumes at the larger of *issued* (the
       corpse's in-memory counter) and the durable record, so no
       ``(source, seq)`` id is ever reused (see
       ``EventIdGenerator.resume``; a process kind without a sequence
       has nothing to resume).
    4. The stack is held (:meth:`NodeStack.hold`) for ``ttl +``
       :data:`RESPAWN_HOLD_SLACK_ROUNDS` of its own rounds and until
       anti-entropy reports ``caught_up``: it receives but neither
       relays nor delivers epidemically, so it can deliver nothing
       newer than an event that finished its relays while it was down
       (docs/SYNC.md). Without a sync manager there is nothing to wait
       for and the node is not held.

    The host keeps only its own work: timers, sockets, blocking
    catch-up, bookkeeping.

    Returns:
        What recovery found on disk, or ``None`` without storage.
    """
    journal = recovered = None
    if directory is not None:
        from .storage.recovery import recover

        if corpse is not None and not corpse.closed:
            corpse.close()
        recovered = recover(node_id, directory, machine=machine)
        journal = open_journal(directory, fsync, resume=recovered)
        issued = max(issued, recovered.next_seq)
    stack = build(journal)
    resume = getattr(stack.process, "resume_sequence", None)
    if resume is not None:
        resume(issued)
    stack.hold()
    return recovered


# ----------------------------------------------------------------------
# Peer sampling
# ----------------------------------------------------------------------


def build_pss(
    kind: str,
    node_id: int,
    fanout: int,
    directory: MembershipDirectory,
    fabric: Transport,
    rng: random.Random,
    bootstrap_rng: Optional[random.Random] = None,
) -> PeerSampler:
    """Build the peer sampling service of *node_id*.

    Args:
        kind: One of :data:`PSS_KINDS` (the host checked it with
            :func:`validate_modes`).
        fanout: The EpTO fanout K. A Cyclon view holds ``2 * K``
            entries, so it always has enough to serve a K-sized sample,
            and a shuffle exchanges half of them, the original paper's
            recommendation.
        directory: Ground-truth membership — the idealized uniform
            view samples from it, Cyclon bootstraps from it
            (simplified join: an introducer sample of the current
            membership).
        fabric: Where the overlay's own messages are sent.
        rng: The service's own randomness.
        bootstrap_rng: The randomness the introducer sample is drawn
            from — the host's own stream on the cluster hosts (default:
            *rng*).
    """
    if kind == "uniform":
        from .pss.uniform import UniformViewPss

        return UniformViewPss(node_id, directory, rng)

    from .pss.cyclon import CyclonPss

    def send(dst: int, message: Any) -> None:
        fabric.send(node_id, dst, message)

    size = 2 * fanout
    pss = CyclonPss(
        node_id=node_id,
        view_size=size,
        shuffle_size=size // 2,
        send=send,
        rng=rng,
    )
    pss.bootstrap(directory.sample(bootstrap_rng or rng, size, exclude=node_id))
    return pss
