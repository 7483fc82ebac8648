"""Dependency-free HTTP core: routing, typed requests/responses, errors.

The service follows the route/handler idiom of a FastAPI-style router
without taking on the dependency: routes are registered against
``"/audits/{job_id}"``-style patterns, handlers receive a typed
:class:`Request` and return either a JSON-serializable dict (auto-wrapped
into a 200) or a :class:`Response`, and failures are raised as
:class:`ApiError` subclasses that render as structured JSON error bodies —
``400`` for malformed input, ``404`` for unknown resources, ``409`` for
lifecycle conflicts — instead of tracebacks.

Nothing here touches sockets: the router is plain request-in/response-out,
which is what makes the in-process test client (:mod:`.testing`) and the
WSGI adapter (:mod:`.wsgi`) two thin shells over one dispatch path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "ApiError",
    "BadRequest",
    "Conflict",
    "Handler",
    "MethodNotAllowed",
    "NotFound",
    "PayloadTooLarge",
    "Request",
    "Response",
    "Route",
    "Router",
]

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


@dataclass
class Request:
    """One parsed HTTP request, transport-independent."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    #: Parsed JSON body (``None`` when the request carried none).
    body: Optional[dict] = None
    #: Values captured from ``{placeholder}`` segments of the matched route.
    params: Dict[str, str] = field(default_factory=dict)
    #: Request headers with lower-cased names (``x-repro-corr-id`` et al.).
    headers: Dict[str, str] = field(default_factory=dict)

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)

    def json_body(self) -> dict:
        """The JSON body (an empty dict when there is none); 400 if not an object.

        ``body`` is whatever the transport decoded; the router calls this
        before every handler, so the object rule is enforced here and only here.
        """
        if self.body is None:
            return {}
        if not isinstance(self.body, dict):
            raise BadRequest("request body must be a JSON object")
        return self.body


@dataclass
class Response:
    """One response: either a JSON payload or a plain-text body."""

    status: int = 200
    payload: Optional[dict] = None
    text: Optional[str] = None
    content_type: str = "application/json"
    #: Extra response headers (Content-Type/Length are emitted separately).
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload: dict, status: int = 200) -> "Response":
        return cls(status=status, payload=payload)

    @classmethod
    def plain(
        cls, text: str, content_type: str = "text/plain; charset=utf-8"
    ) -> "Response":
        return cls(status=200, text=text, content_type=content_type)

    def body_bytes(self) -> bytes:
        if self.text is not None:
            return self.text.encode("utf-8")
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")

    @property
    def reason(self) -> str:
        return _REASONS.get(self.status, "Unknown")


class ApiError(Exception):
    """An HTTP-visible failure, rendered as a structured JSON error body."""

    status = 400

    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail

    def to_response(self) -> Response:
        return Response.json(
            {"error": {"status": self.status, "detail": self.detail}},
            status=self.status,
        )


class BadRequest(ApiError):
    status = 400


class NotFound(ApiError):
    status = 404


class MethodNotAllowed(ApiError):
    status = 405


class Conflict(ApiError):
    status = 409


class PayloadTooLarge(ApiError):
    status = 413


Handler = Callable[[Request], Union[Response, dict]]

_PLACEHOLDER = re.compile(r"\{(\w+)\}")


def _compile_pattern(pattern: str) -> "re.Pattern[str]":
    """``"/audits/{job_id}"`` → anchored regex with one group per placeholder.

    Placeholders match one path segment (no ``/``), so ``/things/{id}`` does
    not swallow ``/things/a/b``.
    """
    if not pattern.startswith("/"):
        raise ValueError(f"route pattern must start with '/': {pattern!r}")
    parts = re.split(r"(\{\w+\})", pattern)
    regex = "".join(
        f"(?P<{part[1:-1]}>[^/]+)" if _PLACEHOLDER.fullmatch(part) else re.escape(part)
        for part in parts
    )
    return re.compile(f"^{regex}$")


@dataclass(frozen=True)
class Route:
    method: str
    pattern: str
    handler: Handler
    regex: "re.Pattern[str]"


class Router:
    """Method + pattern dispatch over transport-independent requests."""

    def __init__(self) -> None:
        self.routes: List[Route] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        self.routes.append(
            Route(
                method=method.upper(),
                pattern=pattern,
                handler=handler,
                regex=_compile_pattern(pattern),
            )
        )

    def match(self, method: str, path: str) -> Tuple[Route, Dict[str, str]]:
        """Find the route for ``method path`` (raises 404/405 ApiErrors)."""
        allowed: List[str] = []
        for route in self.routes:
            found = route.regex.match(path)
            if not found:
                continue
            if route.method == method.upper():
                return route, found.groupdict()
            allowed.append(route.method)
        if allowed:
            methods = ", ".join(sorted(set(allowed)))
            raise MethodNotAllowed(
                f"{method.upper()} not allowed for {path} (allowed: {methods})"
            )
        raise NotFound(f"no route for {path}")

    def dispatch(self, request: Request) -> Response:
        """Route one request; failures become structured error responses."""
        try:
            route, params = self.match(request.method, request.path)
            request.params = params
            request.json_body()  # a non-object body is a 400 whether read or not
            outcome = route.handler(request)
        except ApiError as exc:
            return exc.to_response()
        except Exception as exc:  # noqa: BLE001 - bugs must not kill the daemon
            return Response.json(
                {"error": {"status": 500, "detail": f"{type(exc).__name__}: {exc}"}},
                status=500,
            )
        if isinstance(outcome, Response):
            return outcome
        return Response.json(outcome)
