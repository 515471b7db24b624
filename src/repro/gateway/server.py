"""A JSON-lines TCP surface over the gateway (stdlib asyncio only).

One connection carries many requests: the client writes one JSON object
per line, the server answers with one JSON line per request, in order.
The protocol exists so the gateway can be exercised by real concurrent
clients (the ``repro loadgen`` tool, smoke tests, a curl-equivalent
``python -c`` one-liner) without taking a web-framework dependency.

Request line::

    {"tenant": "acme", "dataset": "gauss", "region": [x_lo, x_hi, y_lo, y_hi],
     "rows": 4, "cols": 4, "relation": "overlap", "deadline_s": 0.5,
     "session": "u1"}

``region`` is a world rectangle (``[x_lo, x_hi, y_lo, y_hi]``) or a cell
span (``{"cells": [qx_lo, qx_hi, qy_lo, qy_hi]}``).  The response line
is :meth:`~repro.gateway.gateway.GatewayResponse.to_wire`.  A line that
is not valid UTF-8 JSON (or not an object, or nested too deep to
decode) yields an ``invalid_region`` error response rather than
dropping the connection -- one bad request must not kill a session
multiplexing many.  Every number in a request must be a JSON number:
``rows``, ``cols`` and ``cells`` integral ones; booleans, numeric
strings and fractions there are refused, not coerced.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import InvalidRegionError
from repro.gateway.gateway import Gateway, TileRequest, encode_error
from repro.geometry.rect import Rect
from repro.grid.tiles_math import TileQuery

__all__ = ["GatewayServer", "parse_request"]

#: Cap on one request line; a run-on line without a newline would
#: otherwise buffer without bound.
MAX_LINE_BYTES = 1 << 20


def _number(value, name: str) -> float:
    """``value`` as a float: a JSON number that fits one.  Booleans,
    strings and other types are refused, not coerced."""
    if type(value) is int or type(value) is float:
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidRegionError(f"{name} must be a number, got {value!r}")


def _integer(value, name: str) -> int:
    """``value`` as an int: a JSON integer, or a float with no fraction.
    Booleans, fractions and non-numbers are refused, not truncated."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise InvalidRegionError(f"{name} must be an integer, got {value!r}")


def parse_request(doc: dict) -> TileRequest:
    """Build a :class:`TileRequest` from one decoded request line.

    Every malformed shape raises
    :class:`~repro.errors.InvalidRegionError`, keeping protocol errors
    inside the taxonomy the gateway already maps to structured
    responses.
    """
    if not isinstance(doc, dict):
        raise InvalidRegionError("request line must be a JSON object")
    try:
        tenant = doc["tenant"]
        dataset = doc["dataset"]
        raw_region = doc["region"]
        rows = _integer(doc["rows"], "rows")
        cols = _integer(doc["cols"], "cols")
    except KeyError as exc:
        raise InvalidRegionError(f"malformed request line: {exc!r}") from exc
    region: Rect | TileQuery
    try:
        if isinstance(raw_region, dict):
            cells = raw_region["cells"]
            region = TileQuery(*(_integer(cells[i], "cells") for i in range(4)))
        else:
            region = Rect(*(_number(raw_region[i], "region") for i in range(4)))
    except InvalidRegionError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidRegionError(f"malformed region: {exc!r}") from exc
    deadline_s = doc.get("deadline_s")
    if deadline_s is not None:
        deadline_s = _number(deadline_s, "deadline_s")
    return TileRequest(
        tenant=str(tenant),
        dataset=str(dataset),
        region=region,
        rows=rows,
        cols=cols,
        relation=str(doc.get("relation", "overlap")),
        deadline_s=deadline_s,
        session=str(doc.get("session", "default")),
    )


class GatewayServer:
    """The JSON-lines listener; owns the socket, never the gateway.

    The gateway is passed in so tests and the CLI can share one across
    a server plus in-process clients; closing the server stops the
    listener and outstanding connection handlers but leaves the gateway
    serving.
    """

    def __init__(self, gateway: Gateway, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self._gateway = gateway
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port, limit=MAX_LINE_BYTES
        )

    async def close(self) -> None:
        """Stop listening and wait for connection handlers to finish."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # A run-on line past the buffer limit: the framing is
                    # broken beyond recovery for this connection.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                doc = await self._respond(line)
                writer.write(json.dumps(doc).encode() + b"\n")
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(self, line: bytes) -> dict:
        try:
            try:
                doc = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, UnicodeDecodeError for a line that is
                # not UTF-8, or RecursionError for one nested too deep.
                raise InvalidRegionError(f"request line is not JSON: {exc}") from exc
            request = parse_request(doc)
        except InvalidRegionError as exc:
            return {"status": "error", "error": encode_error(exc)}
        response = await self._gateway.submit(request)
        return response.to_wire()
