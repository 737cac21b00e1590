"""Optional uvloop acceleration for the asyncio runtime.

uvloop is a drop-in libuv-based event loop that roughly halves the
per-wakeup overhead of the stdlib selector loop — worth having under a
UDP fabric that wakes once per datagram, never required for correctness.
It ships as the ``fast`` extra (``pip install .[fast]``); this module
is the single place that touches it, so the rest of the codebase never
imports uvloop directly and runs unchanged when it is absent.

* :func:`ensure_uvloop` installs uvloop's event-loop policy when the
  package is importable, nothing is already running, and the
  ``EPTO_NO_UVLOOP`` environment variable is unset. It is called by
  :class:`~repro.runtime.cluster.AsyncCluster` and
  :class:`~repro.runtime.udp.UdpNetwork` on construction, so any
  entry point that builds a cluster before starting its loop gets the
  fast loop automatically.
* :func:`run` is ``asyncio.run`` with the policy check in front — the
  convenience entry for benchmarks and experiments.

The raw-socket endpoints of :class:`~repro.runtime.udp.UdpNetwork`
work on either loop: uvloop implements ``add_reader``/``remove_reader``
natively.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Coroutine, Optional

__all__ = ["ENV_DISABLE", "ensure_uvloop", "run", "uvloop_available"]

#: Set this environment variable (to any non-empty value) to keep the
#: stdlib event loop even when uvloop is installed — the escape hatch
#: for A/B benchmarking and for debugging loop-dependent behavior.
ENV_DISABLE = "EPTO_NO_UVLOOP"


def _uvloop_module():
    """The uvloop module, or ``None`` when unavailable or disabled."""
    if os.environ.get(ENV_DISABLE):
        return None
    try:
        import uvloop
    except ImportError:
        return None
    return uvloop


def uvloop_available() -> bool:
    """Whether uvloop is importable and not disabled via environment."""
    return _uvloop_module() is not None


def ensure_uvloop() -> bool:
    """Install uvloop's event-loop policy if possible.

    Returns whether uvloop is (now) the active policy. Never raises
    and never installs while a loop is already running — changing the
    policy mid-run would not affect the running loop anyway, so in
    that case this only reports whether the *current* loop is uvloop's.
    """
    uvloop = _uvloop_module()
    if uvloop is None:
        return False
    try:
        running = asyncio.get_running_loop()
    except RuntimeError:
        running = None
    if running is not None:
        return "uvloop" in type(running).__module__
    policy = asyncio.get_event_loop_policy()
    if isinstance(policy, uvloop.EventLoopPolicy):
        return True
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


def run(coro: Coroutine[Any, Any, Any], *, debug: Optional[bool] = None) -> Any:
    """``asyncio.run`` under uvloop when installed, stdlib otherwise."""
    ensure_uvloop()
    if debug is None:
        return asyncio.run(coro)
    return asyncio.run(coro, debug=debug)
