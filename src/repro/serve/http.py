"""A minimal HTTP/1.1 layer over asyncio streams (stdlib only).

Just enough protocol for the simulation service: request-line +
headers + ``Content-Length`` bodies on the way in; fixed-length or
chunked (for the streaming job endpoint) responses on the way out.
Every response closes the connection — the service's requests are
long-lived simulations, not chatty RPCs, so keep-alive buys nothing
and connection state costs correctness.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlsplit

#: Refuse request bodies larger than this (a SweepSpec is ~1 KB).
MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024


class ProtocolError(Exception):
    """The peer sent something that is not the HTTP we speak."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        try:
            return json.loads(self.body or b"null")
        except json.JSONDecodeError as exc:
            raise ProtocolError(
                400, f"request body is not valid JSON: {exc}"
            ) from exc


async def read_request(
    reader: asyncio.StreamReader,
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(431, "request head too large") from exc
    if len(head) > _MAX_HEADER_BYTES:
        raise ProtocolError(431, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise ProtocolError(
            400, f"malformed request line: {lines[0]!r}"
        ) from exc
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {
        k: v[-1] for k, v in parse_qs(split.query).items()
    }
    return HttpRequest(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def response_head(
    status: int,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    content_length: int | None = None,
    chunked: bool = False,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    elif content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    return (
        response_head(
            status,
            content_type=content_type,
            extra_headers=extra_headers,
            content_length=len(body),
        )
        + body
    )


def json_response(
    status: int,
    document: object,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    body = (json.dumps(document, indent=2) + "\n").encode("utf-8")
    return response(status, body, extra_headers=extra_headers)


def error_response(
    status: int,
    message: str,
    retry_after: float | None = None,
    **details: object,
) -> bytes:
    """An error document; ``retry_after`` (seconds) also becomes the
    ``Retry-After`` header — the 503 backpressure contract."""
    headers = None
    if retry_after is not None:
        seconds = max(1, math.ceil(retry_after))
        headers = {"Retry-After": str(seconds)}
        details = {"retry_after_s": seconds, **details}
    return json_response(
        status,
        {"error": {"message": message, **details}},
        extra_headers=headers,
    )


def chunk(data: bytes) -> bytes:
    """One chunked-transfer frame."""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


#: The terminating zero-length chunk.
LAST_CHUNK = b"0\r\n\r\n"
