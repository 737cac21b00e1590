"""The faults a message fabric applies, each defined once (paper §5.4).

Five fabrics carry EpTO's traffic — ``SimNetwork`` and ``FlatNetwork``
in the simulators, ``AsyncNetwork`` and ``UdpNetwork`` on the asyncio
loop, and the service's per-topic ``TopicChannel`` — and one fault
schedule drives them all through the same verbs. Each fault's state,
verbs and rule live here; a fabric inherits the faults it applies and
no other, so a verb it offers always acts (the fabric × fault table is
in docs/FAULTS.md). The simulators take loss and latency windows from
their driver instead, which raises ``loss_rate`` and wraps the latency
model.

Windows run on the event loop's clock. A rule draws from the fabric's
own ``_rng``, and only when the fault can act: a closed window, or an
open one of rate 0, draws nothing. Hot loops read the plain attributes
(``_partitioned``, ``_partition``) rather than call through here.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

#: Base delay (seconds) a latency spike multiplies on a fabric whose own
#: ``latency`` is zero. Loopback and in-memory delivery take no
#: measurable time, so a spike needs a non-zero unit to stretch; one
#: millisecond is large against loopback and small against any realistic
#: round interval.
DEFAULT_SPIKE_BASE = 0.001


class Partitions:
    """Only nodes in the same group can talk; a fabric counts what
    :meth:`_crosses_partition` stops in ``dropped_partition``, checked
    at send and again at arrival (docs/FAULTS.md)."""

    __slots__ = ()  # FlatNetwork is slotted: it names the two slots

    def __init__(self) -> None:
        super().__init__()
        self._partition: Dict[int, object] = {}
        self._partitioned = False

    def set_partition(self, groups: Dict[int, object]) -> None:
        """Split the fabric by *groups*, node id -> any label; ids
        absent from it share the implicit ``None`` group."""
        self._partition = dict(groups)
        self._partitioned = True

    def heal_partition(self) -> None:
        """Remove any partition; full connectivity is restored."""
        self._partition = {}
        self._partitioned = False

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if not self._partitioned:
            return False
        return self._partition.get(src) != self._partition.get(dst)


class HostileRelays:
    """A hostile-behavior router
    (:class:`repro.faults.byzantine.ByzantineRouter`) whose hostile
    nodes' balls the fabric transforms per destination."""

    def __init__(self) -> None:
        super().__init__()
        self._adversary = None

    def set_adversary(self, router) -> None:
        """Install *router*."""
        self._adversary = router

    def clear_adversary(self) -> None:
        """Remove any installed hostile-behavior router."""
        self._adversary = None


class LossBursts:
    """Drop messages with a given probability for a window, counted in
    ``dropped_burst``."""

    def __init__(self) -> None:
        super().__init__()
        self._burst_rate = 0.0
        self._burst_until = 0.0

    def set_loss_burst(self, rate: float, duration: float) -> None:
        """Drop messages with probability *rate* for *duration* seconds."""
        self._burst_rate = float(rate)
        self._burst_until = asyncio.get_running_loop().time() + duration

    def _burst_drops(self, now: float) -> bool:
        """Whether the burst drops one message sent at *now*: one draw,
        taken only while a burst of positive rate is open."""
        return (
            self._burst_rate > 0.0
            and now < self._burst_until
            and self._rng.random() < self._burst_rate
        )


class LatencySpikes:
    """Stretch delivery for a window.

    A message sent in the window is delayed by ``(latency or
    DEFAULT_SPIKE_BASE) × factor``, jittered by a factor drawn from
    ``[0.5, 1.5]``; outside it by ``latency``, jittered the same way. A
    zero delay draws nothing.
    """

    #: The fabric's own mean one-way delay in seconds. Zero unless the
    #: fabric has a latency knob (``AsyncNetwork(latency=)``).
    latency = 0.0

    def __init__(self) -> None:
        super().__init__()
        self._spike_factor = 1.0
        self._spike_until = 0.0

    def set_latency_spike(self, factor: float, duration: float) -> None:
        """Multiply the delay of messages sent in the next *duration*
        seconds by *factor*."""
        self._spike_factor = float(factor)
        self._spike_until = asyncio.get_running_loop().time() + duration

    def _send_delay(self, now: float) -> float:
        """The delay, in seconds, of one message sent at *now*."""
        latency = self.latency
        if now < self._spike_until:
            latency = (latency or DEFAULT_SPIKE_BASE) * self._spike_factor
        if latency <= 0.0:
            return 0.0
        return latency * self._rng.uniform(0.5, 1.5)


class LoopFaults(Partitions, HostileRelays, LossBursts, LatencySpikes):
    """Every fault of the asyncio fabrics, on the loop's clock."""

    def _fault_free(self, now: float) -> bool:
        """Whether no fault can touch a message sent at *now*: routing
        it then drops, delays and draws nothing (a hostile router acts
        per ball, so a fabric asks it apart)."""
        return (
            not self._partitioned
            and not (self._burst_rate > 0.0 and now < self._burst_until)
            and now >= self._spike_until
        )


class WireFaults(LoopFaults):
    """:class:`LoopFaults` plus corruption windows, for a fabric with
    bytes to mangle (how it mangles them is its own)."""

    def __init__(self) -> None:
        super().__init__()
        self._corrupt_rate = 0.0
        self._corrupt_until: Optional[float] = 0.0

    def set_corruption(self, rate: float, duration: float | None = None) -> None:
        """Corrupt outgoing datagrams with probability *rate*.

        *duration* limits the window in seconds; ``None`` keeps
        corrupting until :meth:`clear_corruption`.
        """
        self._corrupt_rate = float(rate)
        self._corrupt_until = (
            None if duration is None else asyncio.get_running_loop().time() + duration
        )

    def clear_corruption(self) -> None:
        """Stop corrupting datagrams."""
        self._corrupt_rate = 0.0
        self._corrupt_until = 0.0

    def _corrupting(self, now: float) -> bool:
        if self._corrupt_rate <= 0.0:
            return False
        return self._corrupt_until is None or now < self._corrupt_until

    def _corrupts(self, now: float) -> bool:
        """Whether one datagram sent at *now* is corrupted: one draw,
        taken only while a window of positive rate is open."""
        return self._corrupting(now) and self._rng.random() < self._corrupt_rate

    def _fault_free(self, now: float) -> bool:
        return not self._corrupting(now) and super()._fault_free(now)
