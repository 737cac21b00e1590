"""Span tracing from outside the program.

The traced pass of the benchmark wraps the entry points of each layer
of ``repro`` — a class attribute, or a module global where a function
was imported by name — with a timer, runs the workload, and restores
every attribute afterwards. Nothing under ``src/`` knows it is being
traced.

A span is ``(name, start_ns, end_ns, parent, node, round, units)``:
*parent* is the index of the span that was open when this one began
(``-1`` for a root), *node* and *round* identify the EpTO node-round
the work belongs to (inherited from the parent when the callee cannot
tell), and *units* counts what the call handled (ball entries, mostly),
so per-entry figures are span time ÷ units and no span is ever taken
per entry. A layer's **self time** is its spans' duration minus the
part covered by their child spans.

Awaited calls (``publish``, ``catch_up``) are timed from call to
return but never pushed on the span stack: other tasks run while they
wait, so they have a duration and no self time.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, Optional[int], Optional[int], int]

_now = time.perf_counter_ns

#: Parent id of an awaited span: it was never on the span stack.
_AWAITED = -2


# ----------------------------------------------------------------------
# What a call handled (``units``) and whose node-round it was (``ident``)
# ----------------------------------------------------------------------


def _ball_entries(message: Any) -> int:
    """Ball entries carried by a wire message (0 for non-ball kinds)."""
    if isinstance(message, tuple):
        return len(message)
    entries = getattr(message, "entries", None)
    if entries is not None:  # SignedBall, IdBall
        return len(entries)
    frames = getattr(message, "frames", None)
    if frames is not None:  # TopicEnvelope: (topic, sender, message)
        return sum(_ball_entries(frame[2]) for frame in frames)
    return 0


def _units_encode(args: tuple, result: Any) -> int:
    return _ball_entries(args[1])


def _units_decode(args: tuple, result: Any) -> int:
    # The envelope's frames are decoded (and counted) by nested calls.
    if getattr(result[1], "frames", None) is not None:
        return 0
    return _ball_entries(result[1])


def _units_second_arg_len(args: tuple, result: Any) -> int:
    return len(args[1])


def _units_signed_entries(args: tuple, result: Any) -> int:
    return len(args[1].entries)


def _ident_component(args: tuple) -> Tuple[int, int]:
    component = args[0]
    return component.node_id, component.stats.rounds


def _ident_process(args: tuple) -> Tuple[int, int]:
    process = args[0]
    return process.node_id, process.dissemination.stats.rounds


#: Synchronous spans: (module, dotted attribute, span name, ident, units).
SYNC_TARGETS = (
    ("repro.core.dissemination", "DisseminationComponent.round_tick", "core.dissemination.round_tick", _ident_component, None),
    ("repro.core.dissemination", "DisseminationComponent.receive_ball", "core.dissemination.receive_ball", _ident_component, _units_second_arg_len),
    ("repro.core.ordering", "OrderingComponent.order_events", "core.ordering.order_events", None, None),
    ("repro.pss.uniform", "UniformViewPss.sample", "pss.sample", None, None),
    ("repro.runtime.codec", "encode", "runtime.codec.encode", None, _units_encode),
    ("repro.runtime.codec", "encode_into", "runtime.codec.encode", None, _units_encode),
    ("repro.runtime.codec", "decode", "runtime.codec.decode", None, _units_decode),
    # The UDP fabric imported these two by name.
    ("repro.runtime.udp", "encode_into", "runtime.codec.encode", None, _units_encode),
    ("repro.runtime.udp", "decode", "runtime.codec.decode", None, _units_decode),
    ("repro.runtime.udp", "UdpNetwork.send", "runtime.udp.send", None, None),
    ("repro.runtime.udp", "UdpNetwork.send_many", "runtime.udp.send", None, None),
    ("repro.runtime.udp", "UdpNetwork.send_bundle", "runtime.udp.send", None, None),
    ("repro.auth.guard", "BallGuard.seal", "auth.seal", None, None),
    ("repro.auth.guard", "BallGuard.attach", "auth.attach", None, None),
    ("repro.auth.guard", "BallGuard.admit_signed", "auth.verify", None, _units_signed_entries),
    ("repro.storage.journal", "DeliveryJournal.record_delivery", "storage.append", None, None),
    ("repro.storage.journal", "DeliveryJournal.record_broadcast", "storage.append", None, None),
    ("repro.storage.recovery", "recover", "storage.recover", None, None),
    ("repro.sync.manager", "SyncManager.on_message", "sync.on_message", None, None),
    ("repro.sync.manager", "SyncManager.on_round", "sync.on_round", None, None),
    ("repro.lazy.process", "LazyEpToProcess.on_lazy_message", "lazy.on_message", _ident_process, None),
    # The round loop ticks through the private method; ``tick`` is the
    # public driver the tests use. Both are the service's round.
    ("repro.service.service", "BroadcastService._tick_topics", "service.tick", None, None),
    ("repro.service.service", "BroadcastService.tick", "service.tick", None, None),
    ("repro.service.demux", "TopicDemux.flush", "service.demux.flush", None, None),
    ("repro.sim.network", "SimNetwork.send_many", "sim.network.send", None, None),
    ("repro.sim.engine", "Simulator.run", "sim.engine.run", None, None),
    ("repro.sim.flat", "FlatEngine.run", "sim.engine.run", None, None),
)

#: Awaited calls: (module, dotted attribute, span name).
ASYNC_TARGETS = (
    ("repro.runtime.node", "AsyncEpToNode.catch_up", "sync.catch_up"),
    ("repro.service.service", "BroadcastService.publish", "service.publish"),
)

#: ``register(node_id, handler)`` methods whose *handler* is the inbox
#: of a node: the handler, not ``register``, gets the span.
REGISTER_TARGETS = (
    ("repro.runtime.udp", "UdpNetwork.register"),
    ("repro.service.demux", "TopicChannel.register"),
)

#: Modules whose round timers sleep through ``asyncio.sleep``; their
#: ``asyncio`` global is replaced by a proxy that times every sleep.
SLEEP_MODULES = ("repro.runtime.node", "repro.service.service")


class _AsyncioProxy:
    """Stands in for the ``asyncio`` module inside one module: every
    attribute is asyncio's own, except that ``sleep`` records by how
    much each wake-up overshot the requested delay."""

    def __init__(self, lags: List[Tuple[int, int]]) -> None:
        self._lags = lags

    def __getattr__(self, name: str) -> Any:
        return getattr(asyncio, name)

    async def sleep(self, delay: float, result: Any = None) -> Any:
        started = _now()
        value = await asyncio.sleep(delay, result)
        self._lags.append((started, _now() - started - int(delay * 1e9)))
        return value


#: Integers a span occupies in :attr:`Tracer._records`.
_WIDTH = 8


class Tracer:
    """In-memory span recorder plus the attribute patches feeding it.

    Spans live in one flat array of integers — ``id, name id, start,
    end, parent id, node, round, units`` with ``-1`` for "none" — and
    not as one tuple each: a few hundred thousand long-lived tuples
    made the garbage collector's full passes the largest cost of
    tracing (one run in four went over the 1.25 overhead limit).
    A span is written when it ends, so children precede their parents
    in the array; ids count in order of start.
    """

    def __init__(self) -> None:
        #: span names by name id.
        self.names: List[str] = []
        #: (sleep start ns, overshoot ns) of every round-timer sleep.
        self.sleep_lags: List[Tuple[int, int]] = []
        #: "module:attribute" of targets that do not exist in this
        #: checkout; their metrics read 0 instead of stopping the run.
        self.missing: List[str] = []
        self._records = array("q")
        #: [next span id, id of the span that is open now (-1: none)].
        self._state = [0, -1]
        self._patches: List[Tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self._records) // _WIDTH

    def spans(self) -> List[Span]:
        """Every finished span, in order of start."""
        records = self._records
        rows = [
            tuple(records[at : at + _WIDTH]) for at in range(0, len(records), _WIDTH)
        ]
        return [
            (
                self.names[name],
                started,
                ended,
                parent,
                None if node < 0 else node,
                None if when < 0 else when,
                units,
            )
            for _, name, started, ended, parent, node, when, units in sorted(rows)
        ]

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        ident: Optional[Callable[[tuple], Tuple[int, int]]] = None,
        units: Optional[Callable[[tuple, Any], int]] = None,
        node: Optional[int] = None,
    ) -> Callable[..., Any]:
        """A callable that runs *fn* inside a span called *name*."""
        write = self._records.extend
        state = self._state  # [next span id, id of the open span]
        name_id = self._name_id(name)
        fixed_node = -1 if node is None else node

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = state[0]
            state[0] = span_id + 1
            parent = state[1]
            state[1] = span_id
            started = _now()
            try:
                result = fn(*args, **kwargs) if kwargs else fn(*args)
            except BaseException:
                ended = _now()
                state[1] = parent
                write((span_id, name_id, started, ended, parent, fixed_node, -1, 0))
                raise
            ended = _now()
            state[1] = parent
            who, when = ident(args) if ident is not None else (fixed_node, -1)
            write(
                (
                    span_id,
                    name_id,
                    started,
                    ended,
                    parent,
                    who,
                    when,
                    units(args, result) if units is not None else 0,
                )
            )
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """An awaitable twin of *fn* timed from call to return; it has
        no parent and is nobody's parent."""
        write = self._records.extend
        state = self._state
        name_id = self._name_id(name)

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = state[0]
            state[0] = span_id + 1
            started = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                owner = args[0] if args else None
                node = getattr(owner, "node_id", getattr(owner, "host_id", -1))
                write((span_id, name_id, started, _now(), _AWAITED, node, -1, 0))

        return traced

    def _wrap_register(self, register: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(register)
        def traced_register(fabric: Any, node_id: int, handler: Any) -> Any:
            owner = type(getattr(handler, "__self__", None)).__name__
            name = (
                "service.demux.on_message"
                if owner == "TopicDemux"
                else "runtime.node.handle_message"
            )
            return register(fabric, node_id, tracer.wrap(name, handler, node=node_id))

        return traced_register

    def install(self) -> None:
        """Patch every target that exists; remember how to undo it."""
        for module, dotted, name, ident, units in SYNC_TARGETS:
            self._patch(module, dotted, lambda fn: self.wrap(name, fn, ident, units))
        for module, dotted, name in ASYNC_TARGETS:
            self._patch(module, dotted, lambda fn: self.wrap_async(name, fn))
        for module, dotted in REGISTER_TARGETS:
            self._patch(module, dotted, self._wrap_register)
        for module in SLEEP_MODULES:
            self._patch(module, "asyncio", lambda _: _AsyncioProxy(self.sleep_lags))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(
        self, module: str, dotted: str, make: Callable[[Any], Any]
    ) -> None:
        try:
            owner: Any = importlib.import_module(module)
            *path, attribute = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}:{dotted}")
            print(
                f"trace: {module}:{dotted} does not exist; its metrics read 0",
                file=sys.stderr,
            )
            return
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def aggregate(self, lo_ns: int, hi_ns: int) -> "TraceSummary":
        """Totals over the spans that began inside ``[lo_ns, hi_ns)``."""
        records = self._records
        covered = [0] * self._state[0]
        for at in range(0, len(records), _WIDTH):
            parent = records[at + 4]
            if parent >= 0:
                covered[parent] += records[at + 3] - records[at + 2]
        summary = TraceSummary()
        totals = [LayerTotal() for _ in self.names]
        for at in range(0, len(records), _WIDTH):
            span_id, name, started, ended, parent, _, _, units = records[at : at + _WIDTH]
            if not lo_ns <= started < hi_ns:
                continue
            layer = totals[name]
            layer.count += 1
            layer.total_ns += ended - started
            if parent == _AWAITED:
                continue
            layer.self_ns += ended - started - covered[span_id]
            layer.units += units
            if parent < 0:
                summary.root_ns += ended - started
        summary.layers = {
            name: total for name, total in zip(self.names, totals) if total.count
        }
        summary.sleep_lags_ns = [
            lag for started, lag in self.sleep_lags if lo_ns <= started < hi_ns
        ]
        return summary

    def dump(self, path: str) -> int:
        """Write every span as one JSON object per line, in order of
        start; returns the number written. *node* and *round* missing
        from a span are taken from the closest ancestor that has them."""
        records = self._records
        offsets = [-1] * self._state[0]
        for at in range(0, len(records), _WIDTH):
            offsets[records[at]] = at
        nodes = [-1] * len(offsets)
        rounds = [-1] * len(offsets)
        names = self.names
        written = 0
        with open(path, "w", encoding="ascii") as out:
            lines: List[str] = []
            for at in offsets:
                if at < 0:
                    continue  # still open when the run ended
                span_id, name, started, ended, parent, node, when, units = records[
                    at : at + _WIDTH
                ]
                if parent >= 0:
                    if node < 0:
                        node = nodes[parent]
                    if when < 0:
                        when = rounds[parent]
                nodes[span_id] = node
                rounds[span_id] = when
                lines.append(
                    f'{{"id":{span_id},"name":"{names[name]}","start_ns":{started},'
                    f'"end_ns":{ended},"parent":{max(parent, -1)},'
                    f'"node":{"null" if node < 0 else node},'
                    f'"round":{"null" if when < 0 else when},"units":{units}}}\n'
                )
                if len(lines) >= 65536:
                    out.write("".join(lines))
                    written += len(lines)
                    lines.clear()
            out.write("".join(lines))
            written += len(lines)
        return written


class LayerTotal:
    """Totals of one span name inside a window."""

    __slots__ = ("count", "self_ns", "total_ns", "units")

    def __init__(self) -> None:
        self.count = 0
        self.self_ns = 0
        self.total_ns = 0
        self.units = 0


class TraceSummary:
    """What :meth:`Tracer.aggregate` returns."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerTotal] = {}
        #: summed duration of the spans that had no parent.
        self.root_ns = 0
        self.sleep_lags_ns: List[int] = []

    def layer(self, name: str) -> LayerTotal:
        """Totals of *name* (all zero when the layer never ran)."""
        return self.layers.get(name) or LayerTotal()

    def self_us(self, *names: str) -> float:
        """Summed self time of *names*, in microseconds."""
        return sum(self.layer(name).self_ns for name in names) / 1000.0
