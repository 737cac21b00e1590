"""Flat-array batch simulation engine for paper-scale EpTO runs.

The object engine (:mod:`repro.sim.engine` + :mod:`repro.sim.cluster`)
hosts one Python object graph per node — an
:class:`~repro.core.process.EpToProcess` wired to per-node
:class:`~repro.core.dissemination.DisseminationComponent` /
:class:`~repro.core.ordering.OrderingComponent` instances — and drives
every round through heap callbacks and dynamic dispatch. That is the
right shape for correctness work, but attribute lookups, bound-method
calls and per-event closure allocation cap it near ``n = 4096``
(ROADMAP "paper-scale simulation").

This module re-hosts the *same algorithm* in flat per-node state:

* every per-node quantity lives in a plain list indexed by node id
  (pending-ball dicts, ordering heaps, logical clocks, RNG streams —
  stdlib containers only, no numpy);
* one calendar-queue pass executes a whole tick — all round fires and
  ball deliveries due at that time — without constructing
  ``ScheduledEvent`` / ``Handle`` / lambda objects per message;
* the dissemination + ordering round body is inlined into two methods
  (:meth:`FlatCluster._run_round_batch`,
  :meth:`FlatCluster._receive_ball_batch`) with hot values hoisted
  into locals once per run of like calendar entries;
* the engine pays per ball, not per *copy* of an event, where balls
  repeat: a push epidemic hands every node each event about K*TTL
  times. Event content (key, payload) lives once, in the cluster's
  broadcast table; a pending ball and every ball in flight is a plain
  ``{event id: ttl}`` dict. Equal balls of one round batch ship as one
  shared dict (at n = 4096 in lockstep rounds, about 8.5 per tick),
  the K sends of a node-round share one calendar entry per arrival
  tick, under a fixed latency a receive batch merges each ball once
  per distinct receiver, and a node skips a ball it has merged since
  its last round with one lookup. A node that received one ball whole
  holds it as its pending ball, aged once per round batch for all its
  holders. A shared dict is never written: a merge or a broadcast into
  one copies it first, and a round resets the pending ball to the
  shared empty dict. The ordering state of a pending event is one
  int, its birth round. A receive batch may merge a node's balls out
  of arrival order; nothing observable reads a pending ball's
  insertion order (delivery goes by order key, and peer sampling
  never reads the ball).

**Bit-for-bit equivalence with the object engine is a hard contract**,
enforced by ``tests/sim/test_flat_equivalence.py`` through
:mod:`repro.analysis.differential`: same seed + same config must yield
identical per-node delivery sequences, delivery times and network
counters. Every RNG stream keeps the object engine's label
(``cluster``, ``node:<id>``, ``network.loss``, ``network.latency``,
``faults``, ``workload`` …) and every draw happens in the same order,
so the driver layer — :class:`~repro.sim.engine.PeriodicTask`,
:class:`~repro.workloads.broadcast.ProbabilisticWorkload`,
:class:`~repro.sim.churn.ChurnDriver`,
:class:`~repro.faults.sim_injector.SimFaultInjector` — runs unchanged
against :class:`FlatEngine` / :class:`FlatCluster`.

Deliberately out of scope (the object engine remains the reference for
these; constructors raise rather than silently diverge): the Cyclon
PSS, durable storage / anti-entropy sync, tagged delivery, the §8.4
stability estimator and Byzantine adversaries. See
docs/PERFORMANCE.md for when to choose which engine.
"""

from __future__ import annotations

import random
from collections import Counter
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import MembershipError, SimulationError
from ..core.event import Event, OrderKey
from ..fabric import Partitions
from ..metrics.collector import DeliveryCollector
from ..pss.base import MembershipDirectory
from ..stack import validate_modes
from .cluster import ClusterConfig
from .drift import NoDrift
from .latency import FixedLatency, LatencyModel
from .network import NetworkStats

__all__ = ["FlatEngine", "FlatHandle", "FlatCluster", "FlatNetwork"]

# Calendar entry opcodes. Tuples beat objects here: no per-message
# allocation beyond the tuple itself, and dispatch is one int compare.
_OP_CALL = 0  # (_OP_CALL, [action-or-None])
_OP_ROUND = 1  # (_OP_ROUND, node_id, incarnation)
_OP_BALL = 2  # (_OP_BALL, src, [dst, ...], live, max_ts)

#: The pending ball of every node that has received nothing since its
#: round; like every shared ball, never written.
_EMPTY_BALL: Dict[Any, int] = {}

#: Order key smaller than every real key (mirrors ordering.py).
_MINUS_INFINITY_KEY: OrderKey = (-1, -1, -1)

# FNV-1a-style rolling hash over delivered order keys: lets the
# low-memory "stats" recording mode prove total-order agreement (equal
# hash + equal count => equal sequence w.h.p.) without storing
# per-node key lists at n = 64k.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


class FlatHandle:
    """Cancellation token for a generic :meth:`FlatEngine.schedule` call.

    Mirrors :class:`repro.sim.engine.Handle` closely enough for
    :class:`~repro.sim.engine.PeriodicTask` to run unchanged: the
    action lives in a one-slot list shared with the calendar entry, and
    cancelling nulls it out.
    """

    __slots__ = ("_cell",)

    def __init__(self, cell: List[Optional[Callable[[], None]]]) -> None:
        self._cell = cell

    def cancel(self) -> None:
        """Prevent the scheduled action from running (idempotent)."""
        self._cell[0] = None

    @property
    def cancelled(self) -> bool:
        """Whether the action was cancelled or already executed."""
        return self._cell[0] is None


class FlatEngine:
    """Calendar-queue discrete-event core of the flat engine.

    Time and randomness are API-compatible with
    :class:`~repro.sim.engine.Simulator` (``now``/``schedule``/
    ``schedule_at``/``fork_rng``/``run``), but the event queue is a
    ``{tick: FIFO bucket}`` calendar plus a min-heap of tick keys:
    one heap operation drains a whole tick instead of one per entry,
    and the bucket append order reproduces the object engine's
    ``(time, seq)`` tie-break exactly — entries scheduled at the
    current tick while it is being processed run after the remaining
    entries of that tick, just as a higher ``seq`` would.
    """

    __slots__ = (
        "seed",
        "_time",
        "_calendar",
        "_ticks",
        "_cluster",
        "_executed",
        "_running",
    )

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._time = 0
        self._calendar: Dict[int, list] = {}
        self._ticks: List[int] = []
        self._cluster: Optional["FlatCluster"] = None
        self._executed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Simulator-compatible surface
    # ------------------------------------------------------------------

    def now(self) -> int:
        """Current simulated time."""
        return self._time

    @property
    def executed_count(self) -> int:
        """Actions, round fires and ball copies processed so far.

        A ball entry carries every destination of one node-round's
        fan-out; it counts once per destination, so the figure compares
        with :attr:`Simulator.executed` (one action per message).
        """
        return self._executed

    def fork_rng(self, label: str) -> random.Random:
        """Derive a named random stream (same derivation as Simulator).

        Identical ``(seed, label)`` pairs yield identical streams in
        both engines — the foundation of the differential harness.
        """
        return random.Random(f"{self.seed}:{label}")

    def schedule(self, delay: int, action: Callable[[], None]) -> FlatHandle:
        """Run *action* after *delay* ticks; returns a cancel handle."""
        delay = int(delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        cell: List[Optional[Callable[[], None]]] = [action]
        self._push(self._time + delay, (_OP_CALL, cell))
        return FlatHandle(cell)

    def schedule_at(self, time: int, action: Callable[[], None]) -> FlatHandle:
        """Run *action* at absolute tick *time*."""
        time = int(time)
        if time < self._time:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._time}"
            )
        cell: List[Optional[Callable[[], None]]] = [action]
        self._push(time, (_OP_CALL, cell))
        return FlatHandle(cell)

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        """Process entries in time order; returns how many ran.

        With ``until`` the clock always advances to exactly ``until``
        (Simulator parity), even when the calendar drains early.
        ``max_events`` is the safety bound of
        :meth:`Simulator.run <repro.sim.engine.Simulator.run>`: once
        this call has executed that many entries and more are due,
        :class:`~repro.core.errors.SimulationError` is raised and what
        has not run stays in the calendar. The bound is tested before
        each entry; a run of round fires or of ball entries is one
        batch and runs whole, so the count may overshoot by one batch.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        processed = 0
        calendar = self._calendar
        ticks = self._ticks
        cluster = self._cluster
        if cluster is not None:
            run_rounds = cluster._run_round_batch
            receive_balls = cluster._receive_ball_batch
        bucket: list = []
        index = 0
        try:
            while ticks:
                tick = ticks[0]
                if until is not None and tick > until:
                    break
                # The bucket stays in the calendar while it runs, so an
                # action scheduling at the current tick appends to this
                # very list — after the tick's remaining entries, as a
                # higher ``seq`` would — and the index loop picks it up.
                bucket = calendar[tick]
                index = 0
                self._time = tick
                while index < len(bucket):
                    entry = bucket[index]
                    op = entry[0]
                    if op == _OP_CALL and entry[1][0] is None:
                        index += 1  # cancelled
                        continue
                    if max_events is not None and processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} at tick {tick}"
                        )
                    if op == _OP_BALL:
                        # A run of consecutive ball entries, or of round
                        # fires, is consumed in one call.
                        consumed, copies = receive_balls(bucket, index)
                        index += consumed
                        processed += copies
                    elif op == _OP_ROUND:
                        consumed = run_rounds(bucket, index)
                        index += consumed
                        processed += consumed
                    else:
                        index += 1
                        cell = entry[1]
                        action = cell[0]
                        cell[0] = None
                        action()
                        processed += 1
                heappop(ticks)
                del calendar[tick]
        finally:
            # A tick cut short (max_events, a raising action) keeps its
            # unprocessed remainder; a finished bucket is garbage.
            del bucket[:index]
            self._executed += processed
            self._running = False
        if until is not None and self._time < until:
            self._time = until
        return processed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _push(self, tick: int, entry: tuple) -> None:
        """Append *entry* to the calendar bucket for *tick*."""
        bucket = self._calendar.get(tick)
        if bucket is None:
            self._calendar[tick] = [entry]
            heappush(self._ticks, tick)
        else:
            bucket.append(entry)

    def _bind_cluster(self, cluster: "FlatCluster") -> None:
        if self._cluster is not None:
            raise SimulationError("a FlatCluster is already bound to this engine")
        self._cluster = cluster

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatEngine(time={self._time}, pending_ticks={len(self._calendar)}, "
            f"executed={self._executed})"
        )


class FlatNetwork(Partitions):
    """Message-fabric state for :class:`FlatCluster`.

    Holds exactly the knobs the object fabric
    (:class:`~repro.sim.network.SimNetwork`) exposes to fault
    injectors — ``loss_rate``, ``duplicate_rate``, ``latency``,
    partitions, :class:`~repro.sim.network.NetworkStats` — with the
    same RNG stream labels and draw order. The send/deliver paths
    themselves are inlined into :class:`FlatCluster` for speed; this
    object is the mutable control surface
    :class:`~repro.faults.sim_injector.SimFaultInjector` manipulates.
    Partitions are :class:`repro.fabric.Partitions`: a verb replaces the
    group map whole, and a batch reads ``_partitioned`` and binds
    ``_partition.get`` together when it starts.
    """

    __slots__ = (
        "sim",
        "latency",
        "loss_rate",
        "duplicate_rate",
        "stats",
        "_loss_rng",
        "_latency_rng",
        "_partition",
        "_partitioned",
    )

    def __init__(
        self,
        sim: FlatEngine,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
    ) -> None:
        super().__init__()
        self.sim = sim
        self.latency = latency if latency is not None else FixedLatency(1)
        self.loss_rate = float(loss_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.stats = NetworkStats()
        self._loss_rng = sim.fork_rng("network.loss")
        self._latency_rng = sim.fork_rng("network.latency")

    def set_adversary(self, router: object) -> None:
        """Unsupported: Byzantine runs need the object engine."""
        raise MembershipError(
            "the flat engine does not support Byzantine adversaries; "
            "use SimNetwork/SimCluster for hostile-behavior runs"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatNetwork(loss={self.loss_rate}, sent={self.stats.sent}, "
            f"delivered={self.stats.delivered})"
        )


class FlatCluster:
    """All-node EpTO state in flat indexed arrays.

    Exposes the :class:`~repro.sim.cluster.SimCluster` membership and
    workload surface (``add_node(s)`` / ``remove_node`` /
    ``crash_node`` / ``respawn_node`` / ``broadcast_from`` /
    ``random_alive`` / ``alive_ids`` / ``size`` / ``directory`` /
    ``config`` / ``network`` / ``sim``) so churn drivers, workloads and
    fault injectors written against the object engine run unchanged —
    plus the delivery surfaces the metrics checkers consume
    (:meth:`sequences`, :meth:`deliveries`, :meth:`delivery_delays`,
    :meth:`as_collector`).

    Args:
        sim: A :class:`FlatEngine` (one cluster per engine).
        network: The :class:`FlatNetwork` control surface.
        config: The same :class:`~repro.sim.cluster.ClusterConfig` the
            object engine takes. Restricted to the idealized uniform
            PSS and the plain (untagged, no stability estimator) EpTO
            configuration; :func:`~repro.stack.validate_modes` refuses
            anything else with ``ConfigurationError``.
        record: ``"sequences"`` (default) keeps full per-node delivery
            sequences and a global delivery log — what the differential
            harness and :meth:`as_collector` need. ``"stats"`` keeps
            only delivery delays, per-node counts and a rolling
            sequence hash — O(1) memory per delivery, for ``n >= 16k``
            runs where per-node key lists would dominate RSS.
    """

    def __init__(
        self,
        sim: FlatEngine,
        network: FlatNetwork,
        config: ClusterConfig,
        record: str = "sequences",
    ) -> None:
        validate_modes(
            config.epto, None, False, config.expected_size, config.pss, flat=True
        )
        if record not in ("sequences", "stats"):
            raise MembershipError(f"unknown record mode {record!r}")
        self.sim = sim
        self.network = network
        self.config = config
        sim._bind_cluster(self)

        epto = config.epto
        self._fanout = epto.fanout
        self._ttl = epto.ttl
        self._interval = epto.round_interval
        self._logical = epto.clock == "logical"
        # Duplicate-memory horizon: ids stay in the delivered set for
        # 2*TTL+2 ordering rounds (same window as OrderingComponent).
        self._prune_window = 2 * epto.ttl + 2
        self._drift = config.drift
        # NoDrift consumes no RNG draws, so skipping the call outright
        # cannot perturb any stream (checked by the differential tests).
        self._no_drift = type(config.drift) is NoDrift
        self._staggered = config.round_phase == "staggered"

        self.directory = MembershipDirectory()
        self._rng = sim.fork_rng("cluster")
        self._next_id = 0
        self._crashed: Dict[int, int] = {}

        # -- flat per-node state, every list indexed by node id --------
        self._alive: List[bool] = []
        self._incarnation: List[int] = []
        self._node_rng: List[Optional[random.Random]] = []
        self._issued: List[int] = []  # broadcast sequence counter
        self._clock_value: List[int] = []  # logical clock (Alg. 4)
        self._next_ball: List[Optional[dict]] = []  # eid -> ttl
        # The live maps merged into the pending ball since the node's
        # last round, by id: the pending ball holds each of their
        # entries at that TTL or above, so a copy of one teaches nothing.
        self._absorbed: List[Optional[dict]] = []  # id(live) -> live
        self._ord_rounds: List[int] = []
        # Pending events by birth round, ``round received - ttl``: the
        # TTL at round r is ``r - born`` (the object engine's _births);
        # the order key is read from _broadcasts.
        self._received: List[Optional[dict]] = []  # eid -> born
        self._frontier: List[Optional[dict]] = []  # due round -> [eid, ...]
        self._queued: List[Optional[list]] = []  # min-heap of (key, eid)
        self._ready: List[Optional[list]] = []  # min-heap of (key, eid)
        self._ready_ids: List[Optional[set]] = []
        self._delivered_ids: List[Optional[set]] = []
        self._expiry: List[Optional[list]] = []  # [(round, eid), ...] FIFO
        self._expiry_head: List[int] = []
        self._last_key: List[OrderKey] = []

        # -- aggregate counters (cluster-wide, cheap to keep) ----------
        self.delivered_total = 0
        self.discarded_duplicates = 0
        self.discarded_late = 0

        # -- delivery recording ----------------------------------------
        self._record_sequences = record == "sequences"
        #: eid -> (order key, broadcast tick, payload): the one place an
        #: event's content lives; balls carry ids and TTLs only.
        self._broadcasts: Dict[Tuple[int, int], tuple] = {}
        self._membership_log: List[tuple] = []
        self._sequences: Dict[int, List[OrderKey]] = {}
        self._delivery_log: List[tuple] = []
        self._delays: List[int] = []
        self._counts: Dict[int, int] = {}
        self._hashes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Membership (SimCluster surface)
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of live nodes."""
        return len(self.directory)

    def alive_ids(self) -> Sequence[int]:
        """Ids of every live node."""
        return self.directory.alive_ids()

    def add_node(self) -> int:
        """Provision and start one node; returns its id."""
        node_id = self._next_id
        self._next_id += 1
        self._start_node(node_id, None)
        return node_id

    def add_nodes(self, count: int) -> Sequence[int]:
        """Provision *count* nodes."""
        return [self.add_node() for _ in range(count)]

    def remove_node(self, node_id: int) -> None:
        """Stop a node permanently; in-flight messages to it are lost."""
        if node_id >= len(self._alive) or not self._alive[node_id]:
            raise MembershipError(f"node {node_id} is not alive")
        self._alive[node_id] = False
        # Bumping the incarnation invalidates the pending round fire —
        # the flat equivalent of PeriodicTask.stop().
        self._incarnation[node_id] += 1
        # Release the per-node state (the object engine drops the whole
        # process object here).
        self._node_rng[node_id] = None
        self._next_ball[node_id] = None
        self._absorbed[node_id] = None
        self._received[node_id] = None
        self._frontier[node_id] = None
        self._queued[node_id] = None
        self._ready[node_id] = None
        self._ready_ids[node_id] = None
        self._delivered_ids[node_id] = None
        self._expiry[node_id] = None
        # SimNetwork.unregister drops the node's partition label.
        self.network._partition.pop(node_id, None)
        self.directory.remove(node_id)
        self._membership_log.append(("remove", node_id, self.sim._time))

    def crash_node(self, node_id: int) -> None:
        """Crash a node, remembering its broadcast sequence for respawn."""
        if node_id >= len(self._alive) or not self._alive[node_id]:
            raise MembershipError(f"node {node_id} is not alive")
        issued = self._issued[node_id]
        self.remove_node(node_id)
        self._crashed[node_id] = issued

    def respawn_node(self, node_id: int) -> int:
        """Restart a crashed node under the same id.

        The broadcast sequence resumes past the crashed incarnation's
        last issue (no id reuse); ordering state and the logical clock
        restart empty, exactly like a memory-only SimCluster respawn.
        """
        try:
            issued = self._crashed.pop(node_id)
        except KeyError:
            raise MembershipError(f"node {node_id} was not crashed") from None
        self._start_node(node_id, issued)
        return node_id

    def crashed_ids(self) -> Sequence[int]:
        """Ids of crashed nodes that have not been respawned."""
        return tuple(sorted(self._crashed))

    def random_alive(self, rng: random.Random | None = None) -> int:
        """Pick a uniformly random live node id."""
        chooser = rng if rng is not None else self._rng
        ids = self.directory.alive_ids()
        if not ids:
            raise MembershipError("no alive nodes")
        return ids[chooser.randrange(len(ids))]

    def broadcast_from(self, node_id: int, payload: Any = None) -> Event:
        """EpTO-broadcast *payload* from *node_id* (Algorithm 1)."""
        if node_id >= len(self._alive) or not self._alive[node_id]:
            raise MembershipError(f"node {node_id} is not alive")
        if self._logical:
            ts = self._clock_value[node_id] + 1
            self._clock_value[node_id] = ts
        else:
            ts = self.sim._time
        seq = self._issued[node_id]
        self._issued[node_id] = seq + 1
        eid = (node_id, seq)
        key = (ts, node_id, seq)
        nb = self._next_ball[node_id]
        if not nb or id(nb) in self._absorbed[node_id]:
            # A shared pending ball: write into a copy.
            nb = self._next_ball[node_id] = dict(nb)
        nb[eid] = 0
        self._broadcasts[eid] = (key, self.sim._time, payload)
        return Event(id=eid, ts=ts, source_id=node_id, payload=payload)

    def run(self, until: Optional[int] = None) -> int:
        """Convenience passthrough to :meth:`FlatEngine.run`."""
        return self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------

    def _ensure_capacity(self, node_id: int) -> None:
        while len(self._alive) <= node_id:
            self._alive.append(False)
            self._incarnation.append(0)
            self._node_rng.append(None)
            self._issued.append(0)
            self._clock_value.append(0)
            self._next_ball.append(None)
            self._absorbed.append(None)
            self._ord_rounds.append(0)
            self._received.append(None)
            self._frontier.append(None)
            self._queued.append(None)
            self._ready.append(None)
            self._ready_ids.append(None)
            self._delivered_ids.append(None)
            self._expiry.append(None)
            self._expiry_head.append(0)
            self._last_key.append(_MINUS_INFINITY_KEY)

    def _start_node(self, node_id: int, resume_sequence: Optional[int]) -> None:
        sim = self.sim
        # Same stream label as the object engine; a same-id respawn
        # restarts the stream from its beginning there too (the node
        # object is rebuilt from the same fork).
        node_rng = sim.fork_rng(f"node:{node_id}")
        self._ensure_capacity(node_id)
        self._incarnation[node_id] += 1
        incarnation = self._incarnation[node_id]
        self._alive[node_id] = True
        self._node_rng[node_id] = node_rng
        self._issued[node_id] = int(resume_sequence) if resume_sequence else 0
        self._clock_value[node_id] = 0
        self._next_ball[node_id] = _EMPTY_BALL
        self._absorbed[node_id] = {}
        self._ord_rounds[node_id] = 0
        self._received[node_id] = {}
        self._frontier[node_id] = {}
        self._queued[node_id] = []
        self._ready[node_id] = []
        self._ready_ids[node_id] = set()
        self._delivered_ids[node_id] = set()
        self._expiry[node_id] = []
        self._expiry_head[node_id] = 0
        self._last_key[node_id] = _MINUS_INFINITY_KEY
        self.directory.add(node_id)
        now = sim._time
        self._membership_log.append(("add", node_id, now))
        if self._record_sequences and node_id not in self._sequences:
            self._sequences[node_id] = []
        interval = self._interval
        if self._staggered:
            first = self._rng.randrange(max(1, interval)) + 1
        else:
            first = self._drift.next_period(node_rng, node_id, interval)
        sim._push(now + int(first), (_OP_ROUND, node_id, incarnation))

    # ------------------------------------------------------------------
    # Hot path: one node-round (Algorithms 1 + 2, inlined)
    # ------------------------------------------------------------------

    def _run_round_batch(self, bucket: Sequence[tuple], start: int) -> int:
        """Execute a maximal run of consecutive ``_OP_ROUND`` entries.

        Processes ``bucket[start:]`` up to the first non-round entry
        and returns how many entries were consumed. Batching is sound
        because round bodies never append same-tick work (every latency
        model and round period is >= 1 tick) and never mutate
        membership, the partition map or the network knobs — those
        change only through ``_OP_CALL`` actions, which terminate a
        batch. Under synchronized rounds one tick holds a round entry
        for every node, so hoisting engine/network state once per batch
        instead of once per node is a large share of the flat engine's
        advantage at n >= 4k. The network counters are kept in locals
        and written back when the batch ends, which is before any
        action can read them.
        """
        sim = self.sim
        now_tick = sim._time
        calendar = sim._calendar
        calendar_get = calendar.get
        ticks = sim._ticks
        incarnations = self._incarnation
        node_rngs = self._node_rng
        next_balls = self._next_ball
        ord_rounds = self._ord_rounds
        expiries = self._expiry
        expiry_heads = self._expiry_head
        frontiers = self._frontier
        readies = self._ready
        absorbed = self._absorbed
        prune_window = self._prune_window
        no_drift = self._no_drift
        interval = self._interval
        drift = self._drift
        alive = self._alive
        directory = self.directory
        population = directory._alive
        ttl_bound = self._ttl
        logical = self._logical
        broadcasts = self._broadcasts
        net = self.network
        loss_rate = net.loss_rate
        duplicate_rate = net.duplicate_rate
        loss_random = net._loss_rng.random
        latency = net.latency
        # FixedLatency draws nothing from the latency RNG, so all sends
        # of a node-round share one arrival tick and one calendar entry.
        if type(latency) is FixedLatency:
            latency_sample = None
            fixed_tick = now_tick + int(latency.ticks)
        else:
            latency_sample = latency.sample
            fixed_tick = 0
        latency_rng = net._latency_rng
        partition_get = net._partition.get
        partitioned = net._partitioned
        # With no partition, loss or duplication every sampled peer gets
        # exactly one copy (peers come from the live directory, so the
        # send-time ``alive`` check cannot fire): the per-destination
        # filter below is skipped and the peer list itself is the
        # destination list.
        filtered = partitioned or loss_rate > 0.0 or duplicate_rate > 0.0
        sent = cut = lost = dead = duplicated = 0
        # Peer-sampling constants: membership is fixed for the batch.
        fanout = self._fanout
        pool_n = len(population)
        avail = pool_n - 1  # the sampling node is alive, hence excluded
        k = fanout if fanout < avail else avail
        sparse = k * 3 < avail
        nbits = pool_n.bit_length()
        # The batch's shipped balls by content: a sender whose live map
        # equals one already shipped ships that one
        # (SimNetwork._same_ball), so its receivers meet again an
        # object they have merged.
        interned: Dict[tuple, dict] = {}
        # id(shared pending ball) -> (it, ball, live, max_ts); holding
        # the ball keeps its id from being reused within the batch.
        aged: Dict[int, tuple] = {}

        index = start
        end = len(bucket)
        while index < end:
            entry = bucket[index]
            if entry[0] != _OP_ROUND:
                break
            index += 1
            node = entry[1]
            incarnation = entry[2]
            if incarnations[node] != incarnation:
                continue  # node removed/respawned since this fire queued
            node_rng = node_rngs[node]
            nb = next_balls[node]
            if nb:
                # Age the pending ball. ``ball`` (every entry) is what
                # this node's own ordering round merges; ``live`` (the
                # entries still below the TTL — the same object when
                # none expired) is what receivers merge. Both are built
                # here, shared by all K sends and any duplicates, and
                # never mutated afterwards. A pending ball still in the
                # memo is a live map received whole and shared with
                # every node that did the same: it is aged once.
                held = aged.get(id(nb))
                if held is None:
                    ball = {eid: ttl + 1 for eid, ttl in nb.items()}
                    if max(ball.values()) < ttl_bound:
                        live = ball
                    else:
                        live = {e: t for e, t in ball.items() if t < ttl_bound}
                    live = interned.setdefault(
                        (tuple(live), tuple(live.values())), live
                    )
                    # The logical clock (Alg. 4) max-merges every entry's
                    # timestamp, expired ones included: taken once per
                    # ball.
                    max_ts = None
                    if logical:
                        max_ts = max([broadcasts[eid][0][0] for eid in ball])
                    if id(nb) in absorbed[node]:
                        aged[id(nb)] = (nb, ball, live, max_ts)
                else:
                    _nb, ball, live, max_ts = held
                # Peer sampling, inlined from MembershipDirectory.sample
                # for the sparse rejection branch. The getrandbits loop
                # is byte-for-byte CPython's Random._randbelow, so it
                # consumes the identical bit stream randrange() would.
                if k <= 0:
                    peers: List[int] = []
                elif sparse:
                    getrandbits = node_rng.getrandbits
                    peers = []
                    peers_append = peers.append
                    seen = {node}
                    seen_add = seen.add
                    count = 0
                    while count < k:
                        r = getrandbits(nbits)
                        while r >= pool_n:
                            r = getrandbits(nbits)
                        candidate = population[r]
                        if candidate not in seen:
                            seen_add(candidate)
                            peers_append(candidate)
                            count += 1
                else:
                    peers = directory.sample(node_rng, fanout, exclude=node)
                if logical and not live:
                    # Only the clock carrier would ship: the peers are
                    # drawn, but the round sends nothing
                    # (DisseminationComponent._cut).
                    peers = []
                sent += len(peers)
                if filtered:
                    # SimNetwork.send's checks and draws, in its order;
                    # a duplicate is a second copy to the same peer.
                    group = partition_get(node)
                    dsts = []
                    for dst in peers:
                        if partitioned and group != partition_get(dst):
                            cut += 1
                        elif loss_rate > 0.0 and loss_random() < loss_rate:
                            lost += 1
                        elif not alive[dst]:
                            dead += 1
                        else:
                            dsts.append(dst)
                            if (
                                duplicate_rate > 0.0
                                and loss_random() < duplicate_rate
                            ):
                                duplicated += 1
                                dsts.append(dst)
                else:
                    dsts = peers
                # One calendar entry per (ball, arrival tick). sim._push,
                # inlined: the heap only grows on fresh ticks.
                if latency_sample is not None:
                    for dst in dsts:
                        tick = now_tick + int(
                            latency_sample(latency_rng, node, dst)
                        )
                        slot = calendar_get(tick)
                        if slot is None:
                            calendar[tick] = [
                                (_OP_BALL, node, [dst], live, max_ts)
                            ]
                            heappush(ticks, tick)
                            continue
                        # A round body is atomic: if this round already
                        # has an entry at that tick, it is the last one.
                        # Another sender's entry may carry the same
                        # shared ball, but not its source or clock.
                        last = slot[-1]
                        if (
                            last[0] == _OP_BALL
                            and last[3] is live
                            and last[1] == node
                        ):
                            last[2].append(dst)
                        else:
                            slot.append((_OP_BALL, node, [dst], live, max_ts))
                elif dsts:
                    slot = calendar_get(fixed_tick)
                    if slot is None:
                        calendar[fixed_tick] = [
                            (_OP_BALL, node, dsts, live, max_ts)
                        ]
                        heappush(ticks, fixed_tick)
                    else:
                        slot.append((_OP_BALL, node, dsts, live, max_ts))
            else:
                ball = None
            # The round hands the pending ball over, so what the memo
            # vouches for goes with it — even when the ball is empty.
            next_balls[node] = _EMPTY_BALL
            memo = absorbed[node]
            if memo:
                memo.clear()

            # -- ordering round (OrderingComponent.order_events) -------
            rounds = ord_rounds[node] + 1
            ord_rounds[node] = rounds
            expiry = expiries[node]
            head = expiry_heads[node]
            if head < len(expiry) and expiry[head][0] < rounds - prune_window:
                horizon = rounds - prune_window
                delivered_ids = self._delivered_ids[node]
                while head < len(expiry) and expiry[head][0] < horizon:
                    delivered_ids.discard(expiry[head][1])
                    head += 1
                # Compact the FIFO once the dead prefix dominates; a
                # plain list + head index beats a deque in the common
                # no-op case.
                if head > 64 and head * 2 >= len(expiry):
                    del expiry[:head]
                    head = 0
                expiry_heads[node] = head
            if ball:
                self._merge_ball(node, ball, rounds)
            due = frontiers[node].pop(rounds, None)
            if due:
                self._promote(node, due)
            if readies[node]:
                self._deliver_ready(node)

            # -- reschedule (PeriodicTask parity: drift drawn after the
            #    round body, max(1, int(period))) ----------------------
            if no_drift:
                period = interval
            else:
                period = int(drift.next_period(node_rng, node, interval))
                if period < 1:
                    period = 1
            tick = now_tick + period
            slot = calendar_get(tick)
            if slot is None:
                calendar[tick] = [(_OP_ROUND, node, incarnation)]
                heappush(ticks, tick)
            else:
                slot.append((_OP_ROUND, node, incarnation))
        stats = net.stats
        stats.sent += sent
        stats.dropped_partition += cut
        stats.dropped_loss += lost
        stats.dropped_dead += dead
        stats.duplicated += duplicated
        return index - start

    def _receive_ball_batch(
        self, bucket: Sequence[tuple], start: int
    ) -> Tuple[int, int]:
        """Deliver a maximal run of consecutive ``_OP_BALL`` entries.

        Fabric checks + the Algorithm 1 receive merge for every copy of
        the entries in ``bucket[start:]`` up to the first non-ball
        entry; returns ``(entries consumed, copies)``. A merge neither
        schedules work nor touches membership or the partition, so the
        run is a batch for the same reason a run of round fires is.
        Under :class:`FixedLatency` the entries are grouped by what a
        copy's effect depends on besides its receiver (``live``, and the
        sender's ``max_ts`` and partition group), and the body runs once
        per distinct receiver of a group; a receiver that is dead or
        across the partition drops, and counts, every copy it was sent.
        Under a sampled latency the body runs per entry. A ``live`` map
        the receiver has merged since its last round (:attr:`_absorbed`,
        emptied by every round of the node and dropped with it) is
        skipped with one lookup: the pending ball only grows between
        rounds, so it still holds each of its entries at that TTL or
        above. Any other copy is merged by max-TTL per event and
        remembered: an empty pending ball becomes ``live`` itself
        (copied before anything writes into it), a copy whose every
        ``(event, ttl)`` the receiver already holds is skipped by a
        dict-view subset test, and the rest go entry by entry. Every
        entry or group applies its own ``max_ts``.
        """
        alive = self._alive
        absorbed = self._absorbed
        next_ball = self._next_ball
        clock_value = self._clock_value
        net = self.network
        partitioned = net._partitioned
        partition_get = net._partition.get
        copies = dead = cut = 0
        index = start
        end = len(bucket)
        while index < end and bucket[index][0] == _OP_BALL:
            index += 1
        run: Any = bucket[start:index]
        if type(net.latency) is FixedLatency:
            # A tick's senders ship a few shared balls, each sent to K
            # peers: a ball met again becomes a merged entry, op None,
            # whose destination list is the engine's own. Under a
            # sampled latency an entry is about one copy and a ball
            # rarely repeats within a run, so grouping would only cost.
            groups: Dict[Any, tuple] = {}
            for entry in run:
                key = id(entry[3])
                if partitioned or entry[4] is not None:
                    key = (key, entry[4], partition_get(entry[1]))
                group = groups.get(key)
                if group is None:
                    groups[key] = entry
                elif group[0] == _OP_BALL:
                    merged = group[2] + entry[2]
                    groups[key] = (None, group[1], merged) + group[3:]
                else:
                    group[2].extend(entry[2])
            run = groups.values()
        for op, src, dests, live, max_ts in run:
            copies += len(dests)
            live_id = id(live)
            live_items = live.items()
            src_group = partition_get(src) if partitioned else None
            times = None
            # A calendar entry's destinations are one fan-out (repeated
            # only by duplicate copies); a merged entry's are visited
            # once per distinct receiver.
            for dst in dests if op else set(dests):
                if not alive[dst] or (
                    partitioned and partition_get(dst) != src_group
                ):
                    # A dropped receiver drops every copy it was sent.
                    dropped = 1
                    if op is None:
                        times = times or Counter(dests)
                        dropped = times[dst]
                    if alive[dst]:
                        cut += dropped
                    else:
                        dead += dropped  # died while the ball was in flight
                    continue
                # The memo holds the map itself, so its id cannot be
                # reused by another object while it is there.
                memo = absorbed[dst]
                if live_id not in memo:
                    memo[live_id] = live
                    nb = next_ball[dst]
                    if not nb:
                        next_ball[dst] = live  # shared until written
                    elif not live_items <= nb.items():
                        if id(nb) in memo:
                            nb = next_ball[dst] = dict(nb)
                        nb_get = nb.get
                        for eid, ttl in live_items:
                            old = nb_get(eid)
                            if old is None or ttl > old:
                                nb[eid] = ttl
                if max_ts is not None and max_ts > clock_value[dst]:
                    clock_value[dst] = max_ts
        stats = net.stats
        stats.delivered += copies - dead - cut
        stats.dropped_dead += dead
        stats.dropped_partition += cut
        return index - start, copies

    # ------------------------------------------------------------------
    # Ordering internals (flat port of core/ordering.py)
    # ------------------------------------------------------------------

    def _merge_ball(self, node: int, ball: dict, now: int) -> None:
        """Merge one round's ball into the pending events (Alg. 2
        lines 8-14), over birth rounds as
        :meth:`OrderingComponent._merge_ball
        <repro.core.ordering.OrderingComponent._merge_ball>` does.

        A copy raises a pending event's TTL exactly when it was born
        later, ``now - ttl < born``; any other copy of a pending event
        costs one lookup. Such a copy skips the delivered and late
        guards, because a pending event is never delivered nor at or
        below the order mark. The object engine must guard again after
        an external (anti-entropy) delivery; the flat engine has none.
        """
        births = self._received[node]
        delivered_ids = self._delivered_ids[node]
        ready_ids = self._ready_ids[node]
        frontier = self._frontier[node]
        queued = self._queued[node]
        broadcasts = self._broadcasts
        ttl_bound = self._ttl
        last_key = self._last_key[node]
        for eid, ttl in ball.items():
            born = births.get(eid)
            if born is None:
                if eid in delivered_ids:
                    self.discarded_duplicates += 1
                    continue
                key = broadcasts[eid][0]
                if key <= last_key:
                    self.discarded_late += 1
                    continue
                births[eid] = now - ttl
                due = now + ttl_bound - ttl + 1
                if due <= now:
                    self._promote(node, (eid,))
                else:
                    slot = frontier.get(due)
                    if slot is None:
                        frontier[due] = [eid]
                    else:
                        slot.append(eid)
                    heappush(queued, (key, eid))
            elif now - ttl < born:
                # Deliverable earlier than first scheduled; the old
                # frontier entry goes stale. A ready event is
                # deliverable already.
                births[eid] = now - ttl
                if eid not in ready_ids:
                    due = now + ttl_bound - ttl + 1
                    target = due if due > now else now
                    slot = frontier.get(target)
                    if slot is None:
                        frontier[target] = [eid]
                    else:
                        slot.append(eid)

    def _promote(self, node: int, bucket: Sequence) -> None:
        """Make the due events of *bucket* ready.

        An event is due at ``born + TTL + 1`` or later, and its birth
        round only moves earlier, so at its due round its TTL is past
        the bound (``ttl > TTL``): nothing is refused, as in
        :meth:`OrderingComponent._promote
        <repro.core.ordering.OrderingComponent._promote>`.
        """
        births = self._received[node]
        ready_ids = self._ready_ids[node]
        ready = self._ready[node]
        broadcasts = self._broadcasts
        for eid in bucket:
            if eid in births and eid not in ready_ids:
                ready_ids.add(eid)
                heappush(ready, (broadcasts[eid][0], eid))

    def _deliver_ready(self, node: int) -> None:
        received = self._received[node]
        ready = self._ready[node]
        ready_ids = self._ready_ids[node]
        queued = self._queued[node]
        # Lazily-deleted head of the queued-key guard: the smallest
        # order key that is known but not yet deliverable.
        min_queued = None
        while queued:
            head = queued[0]
            if head[1] in received and head[1] not in ready_ids:
                min_queued = head[0]
                break
            heappop(queued)
        last_key = self._last_key[node]
        delivered_ids = self._delivered_ids[node]
        expiry = self._expiry[node]
        rounds = self._ord_rounds[node]
        record_sequences = self._record_sequences
        tick = self.sim._time
        while ready:
            key, eid = ready[0]
            if eid not in received:
                heappop(ready)  # stale heap entry
                continue
            if min_queued is not None and key >= min_queued:
                break
            heappop(ready)
            del received[eid]
            ready_ids.discard(eid)
            if key <= last_key:
                self.discarded_late += 1
                continue
            last_key = key
            delivered_ids.add(eid)
            expiry.append((rounds, eid))
            self.delivered_total += 1
            if record_sequences:
                self._sequences[node].append(key)
                self._delivery_log.append((node, eid, tick))
            else:
                info = self._broadcasts.get(eid)
                if info is not None:
                    self._delays.append(tick - info[1])
                self._counts[node] = self._counts.get(node, 0) + 1
                h = self._hashes.get(node, _FNV_OFFSET)
                self._hashes[node] = ((h * _FNV_PRIME) & _U64) ^ (hash(key) & _U64)
        self._last_key[node] = last_key

    # ------------------------------------------------------------------
    # Results surface
    # ------------------------------------------------------------------

    def sequences(self) -> Dict[int, Tuple[OrderKey, ...]]:
        """Per-node delivered order-key sequences (``record="sequences"``)."""
        self._require_sequences("sequences")
        # Nodes that never delivered are absent, matching
        # DeliveryCollector.sequences() (which only learns about a node
        # on its first record_delivery).
        return {node: tuple(keys) for node, keys in self._sequences.items() if keys}

    def deliveries(self) -> Tuple[tuple, ...]:
        """Global delivery log as ``(node_id, event_id, tick)`` tuples."""
        self._require_sequences("deliveries")
        return tuple(self._delivery_log)

    def delivery_delays(self) -> List[int]:
        """Broadcast-to-delivery delay of every delivery, in ticks."""
        if self._record_sequences:
            broadcasts = self._broadcasts
            return [tick - broadcasts[eid][1] for _node, eid, tick in self._delivery_log]
        return list(self._delays)

    def delivery_counts(self) -> Dict[int, int]:
        """Per-node delivered-event counts (both recording modes)."""
        if self._record_sequences:
            return {node: len(keys) for node, keys in self._sequences.items() if keys}
        return dict(self._counts)

    def sequence_hashes(self) -> Dict[int, int]:
        """Per-node rolling hash over the delivered key sequence.

        Two nodes delivered the same totally-ordered sequence iff their
        (count, hash) pairs match — the cheap agreement verdict used at
        paper scale where full sequences are too big to keep.
        """
        if not self._record_sequences:
            return dict(self._hashes)
        out: Dict[int, int] = {}
        for node, keys in self._sequences.items():
            if not keys:
                continue
            h = _FNV_OFFSET
            for key in keys:
                h = ((h * _FNV_PRIME) & _U64) ^ (hash(key) & _U64)
            out[node] = h
        return out

    def broadcast_count(self) -> int:
        """Number of events broadcast into the cluster."""
        return len(self._broadcasts)

    def as_collector(self) -> DeliveryCollector:
        """Rebuild a :class:`~repro.metrics.collector.DeliveryCollector`.

        Lets the Table 1 checker (``check_run``) and the CDF reports
        consume a flat run unchanged.
        Requires ``record="sequences"``.
        """
        self._require_sequences("as_collector")
        collector = DeliveryCollector()
        events: Dict[Tuple[int, int], Event] = {}
        for eid, (key, _tick, payload) in self._broadcasts.items():
            events[eid] = Event(id=eid, ts=key[0], source_id=eid[0], payload=payload)
        for op, node, tick in self._membership_log:
            if op == "add":
                collector.record_node_added(node, tick)
            else:
                collector.record_node_removed(node, tick)
        for eid, (_key, tick, _payload) in self._broadcasts.items():
            collector.record_broadcast(events[eid], tick)
        for node, eid, tick in self._delivery_log:
            collector.record_delivery(node, events[eid], tick)
        return collector

    def _require_sequences(self, what: str) -> None:
        if not self._record_sequences:
            raise SimulationError(
                f"{what}() needs record='sequences'; this cluster was built "
                "with record='stats' (delays/counts/hashes only)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatCluster(n={self.size}, delivered={self.delivered_total}, "
            f"record={'sequences' if self._record_sequences else 'stats'})"
        )
