"""Typed service errors with wire codes and retryability.

Every rejection the service can hand a client carries a short machine
code on the ERROR frame (``ErrorMsg.code``) so clients can decide
*mechanically* whether to retry: quota pushback and shutdown drains are
transient, auth failures are not. The exception classes double as the
server-side vocabulary — raising one anywhere in the submit path
produces the right wire code.

An expired deadline is not a rejection but a job failure: its error
message starts with :data:`DEADLINE_EXPIRED`, and that prefix is what
the client (``JobFailedError.kind``) and the server's dedupe hand-off
match on.
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "AuthError",
    "QuotaExceededError",
    "ShuttingDownError",
    "RETRYABLE_CODES",
    "DEADLINE_EXPIRED",
]


class ServiceError(RuntimeError):
    """Base for typed service rejections carried on ERROR frames."""

    code: str = ""
    retryable: bool = False


class AuthError(ServiceError):
    """OPEN_SESSION token rejected: unknown tenant or bad token."""

    code = "auth"
    retryable = False


class QuotaExceededError(ServiceError):
    """Per-tenant admission control rejected the submit.

    Raised *before any math* — an over-quota submission leaves no
    server state, so resubmitting after backoff is always safe.
    """

    code = "quota"
    retryable = True


class ShuttingDownError(ServiceError):
    """The server is draining; reconnect and resubmit elsewhere."""

    code = "unavailable"
    retryable = True


#: Wire codes a client may retry with backoff. Everything else is
#: terminal — retrying an auth failure cannot succeed.
RETRYABLE_CODES = frozenset(
    cls.code for cls in (QuotaExceededError, ShuttingDownError)
)

#: How every deadline failure's message begins, wherever the job was
#: when its deadline passed (queued, following a deduped execution, or
#: on a fleet worker).
DEADLINE_EXPIRED = "deadline expired"
