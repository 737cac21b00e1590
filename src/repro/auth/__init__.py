"""Event authentication (`repro.auth`).

Dependency-free HMAC-SHA256 authentication of EpTO events: a
:class:`KeyRing` derives per-node keys (with rotation epochs) from one
cluster master secret, an :class:`HmacAuthenticator` signs and verifies
the canonical event bytes that :mod:`repro.sync` already CRC-checks,
and a :class:`BallGuard` applies the seal-on-send / admit-on-receive
policy shared by every network fabric. Authenticated diffusion detects
forgery and relay equivocation — it does **not** provide Byzantine
fault-tolerant ordering; read docs/SECURITY.md for the threat model.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".authenticator": (
            "MAC_LEN", "VERDICT_BAD_SIGNATURE", "VERDICT_OK",
            "VERDICT_UNKNOWN_KEY", "EventSignature", "HmacAuthenticator",
            "SignedBall",
        ),
        ".guard": ("DEFAULT_CACHE_SIZE", "AdmitCounts", "BallGuard"),
        ".keyring": ("KeyRing", "derive_key"),
    },
)
