"""Minimal asyncio HTTP/1.1 layer for the disambiguation service.

Deliberately framework-free: the whole protocol surface the service
needs is "parse a request line + headers + optional JSON body, route,
answer JSON" — a few hundred lines of stdlib ``asyncio`` beats pulling a
web framework into a reproduction repo (the container bakes in numpy /
scipy / pytest and nothing web-shaped).

Endpoints (all answers are JSON; every body carries ``generation`` so
clients can reason about staleness):

========  ==============  ====================================================
method    path            answer
========  ==============  ====================================================
GET       /healthz        liveness + current generation
GET       /stats          :meth:`Engine.stats` counters
GET       /who-is         owner of one mention (``name``, ``pid``, ``position``)
GET       /resolve        all occurrences of ``name`` on paper ``pid``
GET       /cluster-of     one name's clustering
GET       /clusters       the whole clustering (load-harness parity dump)
POST      /ingest         enqueue papers; ``wait`` (default true) awaits publish
POST      /checkpoint     snapshot the post-burst state to disk
                          (``mode``: ``full`` | ``delta`` — delta appends
                          an O(burst) record to the chain log)
========  ==============  ====================================================

Reads answer straight from the engine's current immutable view inside
the event loop — no locks, no thread hops — so they stay fast while the
writer thread crunches a burst.  Connections are keep-alive; responses
always carry ``Content-Length``.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass
from typing import Any, Mapping
from urllib.parse import parse_qs, urlsplit

from ..io.schema import decode_paper
from .engine import Engine

LOG = logging.getLogger("repro.service")

#: Request bodies above this are rejected (a serving endpoint is not a
#: bulk loader; warm starts go through snapshots).
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class BadRequest(ValueError):
    """Maps to a 400 answer with the message in the body."""


@dataclass(slots=True)
class Request:
    method: str
    path: str
    query: Mapping[str, list[str]]
    headers: Mapping[str, str]
    body: bytes

    def param(self, name: str, default: str | None = None) -> str:
        values = self.query.get(name)
        if not values:
            if default is None:
                raise BadRequest(f"missing query parameter {name!r}")
            return default
        return values[0]

    def int_param(self, name: str, default: int | None = None) -> int:
        raw = self.param(
            name, None if default is None else str(default)
        )
        try:
            return int(raw)
        except ValueError:
            raise BadRequest(
                f"query parameter {name!r} must be an integer, got {raw!r}"
            ) from None

    def json_body(self) -> Any:
        if not self.body:
            raise BadRequest("request body must be JSON, got empty body")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"malformed JSON body: {exc}") from None


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one HTTP/1.1 request; ``None`` on clean connection close."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        raise BadRequest(f"malformed request line {line!r}") from None
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise BadRequest(f"request body of {length} bytes exceeds the limit")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    return Request(
        method=method.upper(),
        path=split.path,
        query=parse_qs(split.query),
        headers=headers,
        body=body,
    )


def encode_response(
    status: int, payload: Any, keep_alive: bool = True
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


class ServiceServer:
    """The asyncio server binding an :class:`Engine` to a TCP port."""

    def __init__(
        self, engine: Engine, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as exc:
                    writer.write(
                        encode_response(400, {"error": str(exc)}, False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep = (
                    request.headers.get("connection", "").lower() != "close"
                )
                try:
                    status, payload = await self._dispatch(request)
                except BadRequest as exc:
                    status, payload = 400, {"error": str(exc)}
                except Exception as exc:  # keep the server alive
                    LOG.error(
                        "%s %s failed", request.method, request.path,
                        exc_info=True,
                    )
                    status, payload = 500, {
                        "error": f"{type(exc).__name__}: {exc}"
                    }
                writer.write(encode_response(status, payload, keep))
                await writer.drain()
                if not keep:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: Request) -> tuple[int, Any]:
        engine = self.engine
        view = engine.view  # one atomic read; consistent for this request
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, {
                "status": "ok",
                "generation": view.generation,
                "swapped_at": view.swapped_at,
            }
        if route == ("GET", "/stats"):
            return 200, engine.stats().as_dict()
        if route == ("GET", "/who-is"):
            hit = view.who_is(
                request.param("name"),
                request.int_param("pid"),
                request.int_param("position", 0),
            )
            if hit is None:
                return 404, {
                    "error": "unknown mention",
                    "generation": view.generation,
                }
            return 200, hit
        if route == ("GET", "/resolve"):
            matches = view.resolve(
                request.param("name"), request.int_param("pid")
            )
            return 200, {
                "name": request.param("name"),
                "pid": request.int_param("pid"),
                "matches": list(matches),
                "generation": view.generation,
            }
        if route == ("GET", "/cluster-of"):
            name = request.param("name")
            clusters = view.cluster_of(name)
            if not clusters:
                return 404, {
                    "error": f"unknown name {name!r}",
                    "generation": view.generation,
                }
            return 200, {
                "name": name,
                "clusters": {
                    str(vid): [list(m) for m in mentions]
                    for vid, mentions in clusters.items()
                },
                "generation": view.generation,
            }
        if route == ("GET", "/clusters"):
            return 200, {
                "generation": view.generation,
                "fingerprint": view.fingerprint,
                "clusters": view.as_clusters_dict(),
            }
        if route == ("POST", "/ingest"):
            return await self._ingest(request)
        if route == ("POST", "/checkpoint"):
            body = request.json_body() if request.body else {}
            if not isinstance(body, dict):
                raise BadRequest("checkpoint body must be a JSON object")
            mode = body.get("mode")
            if mode is not None and mode not in ("full", "delta"):
                raise BadRequest(
                    "checkpoint mode must be 'full' or 'delta'"
                )
            path = await engine.checkpoint(
                body.get("path"), body.get("backend"), mode
            )
            return 200, {
                "path": str(path),
                "generation": engine.view.generation,
                "delta_chain_length": engine.ingestor.delta_chain_length,
            }
        if request.path in (
            "/healthz", "/stats", "/who-is", "/resolve",
            "/cluster-of", "/clusters", "/ingest", "/checkpoint",
        ):
            return 405, {"error": f"wrong method for {request.path}"}
        return 404, {"error": f"no such route {request.path}"}

    async def _ingest(self, request: Request) -> tuple[int, Any]:
        body = request.json_body()
        if not isinstance(body, dict) or "papers" not in body:
            raise BadRequest('ingest body must be {"papers": [...]}')
        try:
            papers = [decode_paper(record) for record in body["papers"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequest(f"malformed paper record: {exc}") from None
        wait = bool(body.get("wait", True))
        if wait:
            result = await self.engine.ingest(papers, wait=True)
            return 200, {
                "generation": result.generation,
                "n_papers": result.n_papers,
                "n_attached": result.n_attached,
                "n_created": result.n_created,
                "n_duplicates": result.n_duplicates,
            }
        await self.engine.ingest(papers, wait=False)
        return 202, {
            "queued": len(papers),
            "generation": self.engine.view.generation,
        }
