"""A speed reference: how fast is this machine running right now?

The benchmark runs on shared virtual machines whose speed drifts by a
factor of up to two over an hour and by tens of percent within a
second (measured while the benchmark was built: the same interpreter
loop took 110 to 193 ms within one minute). CPU time read straight
from the clock carries all of that, and two runs of one commit then
differ by more than any useful bound.

So every busy time the benchmark reports is a time **at reference
speed**: while a workload runs, a short fixed piece of interpreter
work is timed every few dozen milliseconds on the same thread, and the
measured CPU of each slice of the run is divided by how much slower
(or faster) than nominal that probe ran during the slice. In twelve
back-to-back runs of ``udp_eager_small`` on a restless box the raw CPU
per delivery spread 14.7 % between quartiles; scaled slice by slice,
2.6 %.

The probe allocates nothing the garbage collector tracks, so probing
does not change when the program's own collections happen.
"""

from __future__ import annotations

import json
import struct
import time
from typing import List, Sequence, Tuple

#: CPU nanoseconds one probe takes at reference speed: about what it
#: costs between the callbacks of a loaded event loop, or between two
#: rounds of a simulator, on the kind of box the benchmark was sized
#: on. It is a unit, not a measurement.
NOMINAL_PROBE_NS = 500_000
#: Seconds between probes while a paced workload runs (under 1 % load).
PROBE_PERIOD_S = 0.05

_ENTRY = struct.Struct("!qqqiI")
_BUFFER = bytearray(_ENTRY.size * 32)
_TEXT = "0123456789abcdef" * 4
# A walk that visits every key once before it repeats, over a dict of
# boxed integers a few megabytes large: each step is a lookup that
# misses the nearest caches, as a step through the program's object
# graph does.
_WALK_SIZE = 1 << 15
_WALK = {i: (i * 2654435761 + 1) & (_WALK_SIZE - 1) for i in range(_WALK_SIZE)}
_position = [0]


def probe() -> int:
    """CPU nanoseconds a fixed piece of interpreter work takes right
    now: bytecode and integer arithmetic, a pointer chase through a
    table larger than the cache, ``struct`` and JSON — the mix the
    program itself is made of, so that what slows the program slows the
    probe."""
    started = time.process_time_ns()
    walk = _WALK
    at = _position[0]
    total = 0
    for i in range(600):
        at = walk[at]
        total += at ^ i
    _position[0] = at
    for _ in range(5):
        for i in range(32):
            _ENTRY.pack_into(_BUFFER, i * _ENTRY.size, total, i, i, 3, 16)
        json.loads(json.dumps(_TEXT))
    return time.process_time_ns() - started


def slowdown(probe_ns: float) -> float:
    """How many times slower than reference speed a probe ran."""
    return probe_ns / NOMINAL_PROBE_NS


def probes_between(
    probes: Sequence[Tuple[float, int]], lo: float, hi: float
) -> List[int]:
    """Costs of the ``(taken at, ns)`` probes taken inside ``[lo, hi)``."""
    return [ns for at, ns in probes if lo <= at < hi]
