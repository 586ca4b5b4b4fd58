"""Service request/response envelope: structured errors and validation.

Every response body is JSON.  Failures never surface as HTML tracebacks
or bare 500s: they serialize as::

    {"error": {"code": "unknown_metric",
               "message": "unknown metric 'flops2'",
               "detail": {...}}}

with a meaningful HTTP status, so dashboard clients can branch on the
stable ``code`` instead of scraping messages.  The codes are a closed
set (:data:`ERROR_STATUS`); anything unexpected maps to ``internal``
with the exception's message and no traceback.
"""

from __future__ import annotations

from typing import Any

__all__ = ["ServiceError", "ERROR_STATUS", "error_body", "csv_tuple",
           "one_param", "valid_tenant", "MAX_TENANT_LEN"]

#: Longest accepted tenant name.  The tenant is client-controlled and
#: keys a per-tenant cache slot, so it is validated like any other
#: parameter instead of being stored verbatim.
MAX_TENANT_LEN = 128

#: error code -> HTTP status.  The closed vocabulary of failure modes a
#: client can observe; ``internal`` is the only 5xx a request that was
#: read and routed can get.
ERROR_STATUS: dict[str, int] = {
    "bad_request": 400,
    "missing_param": 400,
    "missing_target": 400,
    "unexpected_target": 400,
    "unknown_realm": 404,
    "unknown_system": 404,
    "unknown_cluster": 404,
    "not_federated": 400,
    "unknown_metric": 404,
    "unknown_dimension": 404,
    "unknown_series": 404,
    "unknown_endpoint": 404,
    "method_not_allowed": 405,
    "body_too_large": 413,
    "uri_too_long": 414,
    "header_too_large": 431,
    "internal": 500,
    "shutting_down": 503,
    "unsupported_version": 505,
}


class ServiceError(Exception):
    """A request failure with a stable machine-readable code.

    Raised anywhere in the endpoint compute path; the HTTP front end
    serializes it with :func:`error_body` and the status from
    :data:`ERROR_STATUS`.
    """

    def __init__(self, code: str, message: str,
                 detail: dict[str, Any] | None = None):
        if code not in ERROR_STATUS:
            raise ValueError(f"unregistered error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.detail = detail or {}

    @property
    def status(self) -> int:
        """The HTTP status this error serializes with."""
        return ERROR_STATUS[self.code]


def error_body(code: str, message: str,
               detail: dict[str, Any] | None = None) -> dict:
    """The JSON body shape shared by every error response."""
    body: dict[str, Any] = {"error": {"code": code, "message": message}}
    if detail:
        body["error"]["detail"] = detail
    return body


def one_param(params: dict[str, list[str]], name: str,
              default: str | None = None, required: bool = False) -> str | None:
    """The single value of query parameter *name*.

    Repeated parameters are a client error (the protocol has no
    list-valued parameters — lists travel comma-separated); a missing
    required parameter raises ``missing_param``.
    """
    values = params.get(name, [])
    if len(values) > 1:
        raise ServiceError("bad_request",
                           f"parameter {name!r} given {len(values)} times")
    if not values:
        if required:
            raise ServiceError("missing_param",
                               f"missing required parameter {name!r}")
        return default
    return values[0]


def valid_tenant(name: str) -> str:
    """Validate a client-supplied tenant name.

    Rejects empty names, names longer than :data:`MAX_TENANT_LEN`, and
    names containing control characters — each a ``bad_request``.
    Returns the name unchanged when valid.
    """
    if not name:
        raise ServiceError("bad_request", "tenant name must be non-empty")
    if len(name) > MAX_TENANT_LEN:
        raise ServiceError(
            "bad_request",
            f"tenant name longer than {MAX_TENANT_LEN} characters")
    if any(ord(c) < 0x20 or ord(c) == 0x7F for c in name):
        raise ServiceError("bad_request",
                           "tenant name contains control characters")
    return name


def csv_tuple(value: str | None) -> tuple[str, ...] | None:
    """Parse a comma-separated parameter into a tuple (``None`` stays
    ``None``, empty string becomes the empty tuple)."""
    if value is None:
        return None
    return tuple(p for p in (s.strip() for s in value.split(",")) if p)
