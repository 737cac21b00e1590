"""The six workloads of the end-to-end benchmark and their constants.

Sizes, rates, payloads, modes and EpTO parameters are fixed here and
are part of the benchmark's definition: a later change is compared on
exactly these inputs. Only ``--seconds`` (the measured window of the
paced workloads, the round count of the simulated ones) comes from the
command line.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Tuple

#: Round interval of the paced workloads, milliseconds (the paper's δ).
ROUND_MS = 125
#: Round interval of the simulated workloads, ticks.
SIM_ROUND_TICKS = 20
#: Paced timeline: warm-up at the workload's rate before the window
#: opens. TTL·δ = 3.1 s fills the balls; 4 s leaves a margin.
WARMUP_S = 4.0
#: An operation fails when its delivery takes longer than this many
#: round intervals; the drain waits that long at most.
DEADLINE_ROUNDS = 40
#: Round-phase jitter of the UDP clusters. Without it the round phases
#: of the nodes lock for a whole run and two runs of one commit differ
#: by more than any bound (wire bytes by 15 %, p99 by 2.7x).
DRIFT_FRACTION = 0.1
#: ``udp_eager_secure_durable``: the victim crashes this long after the
#: window opens and stays down longer than TTL·δ, so that only
#: anti-entropy can close its gap.
CRASH_AFTER_S = 3.0
OUTAGE_S = 4.0
#: Simulated events are still relayed for TTL rounds after the last
#: broadcast; this many more rounds let every node deliver them.
SIM_TAIL_ROUNDS = 4


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    #: ``udp`` (AsyncCluster), ``service`` (ServiceCluster),
    #: ``sim_object`` (SimCluster) or ``sim_flat`` (FlatCluster).
    kind: str
    why: str
    n: int
    #: events per second (paced) — the open-loop schedule.
    rate: float = 0.0
    payload_bytes: int = 0
    mode: str = "eager"
    #: HMAC on the fabric, journals, anti-entropy and a crash/respawn.
    secure_durable: bool = False
    topics: int = 0
    #: simulated rounds run per second of ``--seconds``.
    rounds_per_second: float = 0.0

    @property
    def paced(self) -> bool:
        return self.kind in ("udp", "service")

    def sim_rounds(self, seconds: float) -> int:
        """Rounds a simulated workload runs for ``--seconds``."""
        return max(1, round(self.rounds_per_second * seconds))


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="udp_eager_small",
        kind="udp",
        why="n=32 eager UDP, 16 B payloads at 16 ev/s: many tiny entries per ball, so per-entry and per-datagram cost (decode, merge, PSS, syscalls) is all the work",
        n=32,
        rate=16.0,
        payload_bytes=16,
    ),
    Workload(
        name="udp_eager_secure_durable",
        kind="udp",
        why="n=32 eager UDP, 512 B payloads at 4 ev/s with HMAC, journals, anti-entropy and one crash+respawn: the layers udp_eager_small bypasses do the work",
        n=32,
        rate=4.0,
        payload_bytes=512,
        secure_durable=True,
    ),
    Workload(
        name="udp_lazy_large",
        kind="udp",
        why="n=32 lazy UDP, 512 B payloads at 6 ev/s: id-balls plus payload pulls use the dissemination and wire layers differently from eager balls",
        n=32,
        rate=6.0,
        payload_bytes=512,
        mode="lazy",
    ),
    Workload(
        name="svc_topics",
        kind="service",
        why="16 hosts x 4 topics through repro.service at 16 ev/s, 64 B payloads: envelopes, demux, backpressure and subscriber queues, the only path through the service",
        n=16,
        rate=16.0,
        payload_bytes=64,
        topics=4,
    ),
    Workload(
        name="sim_object_512",
        kind="sim_object",
        why="object simulator n=512, one broadcast per round: no wire or codec, so core dissemination, ordering, PSS and the engine do all the work",
        n=512,
        rounds_per_second=5.0,
    ),
    Workload(
        name="sim_flat_4k",
        kind="sim_flat",
        why="flat simulator n=4096 at paper fan-out: shares no hot code with the object engine, so it is the bypass for core changes and the target for flat-engine work",
        n=4096,
        rounds_per_second=10.0 / 3.0,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def smoke(workload: Workload) -> Workload:
    """The same workload at a size that finishes in a few seconds."""
    if workload.paced:
        return dataclasses.replace(workload, n=8)
    return dataclasses.replace(workload, n=128, rounds_per_second=20.0)


#: Smoke timeline of the paced workloads (seconds).
SMOKE_WARMUP_S = 1.0
SMOKE_WINDOW_S = 2.0
SMOKE_CRASH_AFTER_S = 0.3
SMOKE_OUTAGE_S = 1.0
