"""WSGI adapter and stdlib HTTP server for the JSON API.

:class:`WsgiApp` turns WSGI environs into the transport-independent
:class:`~repro.service.http.Request` and streams the
:class:`~repro.service.http.Response` back; :func:`make_server_for` binds it
to ``wsgiref.simple_server``.  Because the callable is plain WSGI, the same
service also deploys under any production WSGI server (gunicorn, uwsgi,
mod_wsgi) without code changes — the stdlib server is simply the
zero-dependency default the CI smoke job boots.
"""

from __future__ import annotations

import json
from urllib.parse import parse_qsl
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from .app import ScoutService
from .http import ApiError, BadRequest, PayloadTooLarge, Request

__all__ = ["MAX_BODY_BYTES", "WsgiApp", "make_server_for", "serve"]

#: Largest request body the adapter reads.  The biggest legitimate body is a
#: campaign spec (a few KB); anything near this is a mistake or an attack, and
#: is refused with a 413 before a byte of it is read.
MAX_BODY_BYTES = 1 << 20


class WsgiApp:
    """The WSGI callable for one :class:`ScoutService`."""

    def __init__(self, service: ScoutService) -> None:
        self.service = service

    def __call__(self, environ, start_response):
        try:
            response = self.service.handle(self._parse(environ))
        except ApiError as exc:
            response = exc.to_response()  # malformed request: never dispatched
        body = response.body_bytes()
        headers = [
            ("Content-Type", response.content_type),
            ("Content-Length", str(len(body))),
        ]
        headers.extend(response.headers.items())
        start_response(f"{response.status} {response.reason}", headers)
        return [body]

    @staticmethod
    def _parse(environ) -> Request:
        """The environ as a :class:`Request`; ``ApiError`` if it cannot be read."""
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/") or "/"
        query = dict(parse_qsl(environ.get("QUERY_STRING", "")))
        headers = {
            key[5:].lower().replace("_", "-"): value
            for key, value in environ.items()
            if key.startswith("HTTP_")
        }
        body = None
        length = (environ.get("CONTENT_LENGTH") or "").strip()
        if length:
            try:
                size = int(length)
            except ValueError:
                size = -1
            if size < 0:
                raise BadRequest(
                    f"Content-Length must be a non-negative integer, got {length!r}"
                )
            if size > MAX_BODY_BYTES:
                raise PayloadTooLarge(
                    f"request body of {size} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
            raw = environ["wsgi.input"].read(size)
            if raw:
                try:
                    body = json.loads(raw)
                except ValueError as exc:
                    # JSONDecodeError, or UnicodeDecodeError for bytes that
                    # are not UTF-8/16/32 text at all.
                    raise BadRequest(f"request body is not valid JSON: {exc}") from None
        return Request(
            method=method, path=path, query=query, body=body, headers=headers
        )


class _QuietHandler(WSGIRequestHandler):
    """Per-request stderr lines off; the daemon logs its own lifecycle."""

    def log_message(self, format, *args):  # pragma: no cover - silenced I/O
        pass


def make_server_for(
    service: ScoutService, host: str = "127.0.0.1", port: int = 8421
) -> WSGIServer:
    return make_server(host, port, WsgiApp(service), handler_class=_QuietHandler)


def serve(service: ScoutService, host: str = "127.0.0.1", port: int = 8421) -> None:
    """Serve until interrupted, then shut the service down cleanly.

    A blocking loop by design — unit tests drive the service through the
    in-process client instead, and the CI smoke job exercises this path.
    """
    with make_server_for(service, host, port) as server:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            service.close()
