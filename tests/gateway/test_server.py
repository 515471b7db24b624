"""The JSON-lines TCP surface: framing, parsing, structured errors."""

import asyncio
import json

import numpy as np
import pytest

from repro.errors import InvalidRegionError
from repro.euler.histogram import EulerHistogram
from repro.euler.simple import SEulerApprox
from repro.gateway.catalog import TenantCatalog
from repro.gateway.gateway import Gateway
from repro.gateway.server import GatewayServer, parse_request
from repro.geometry.rect import Rect
from repro.grid.grid import Grid
from repro.grid.tiles_math import TileQuery

from tests.conftest import random_dataset

GRID = Grid(Rect(0.0, 16.0, 0.0, 16.0), 16, 16)


@pytest.fixture(scope="module")
def estimator():
    data = random_dataset(np.random.default_rng(7), GRID, 300)
    return SEulerApprox(EulerHistogram.from_dataset(data, GRID))


class TestParseRequest:
    def test_world_rect_region(self):
        req = parse_request(
            {
                "tenant": "acme",
                "dataset": "main",
                "region": [0, 16, 0, 16],
                "rows": 2,
                "cols": 2,
            }
        )
        assert req.region == Rect(0.0, 16.0, 0.0, 16.0)
        assert req.deadline_s is None
        assert req.relation == "overlap"
        assert req.session == "default"

    def test_cell_span_region(self):
        req = parse_request(
            {
                "tenant": "acme",
                "dataset": "main",
                "region": {"cells": [0, 8, 0, 8]},
                "rows": 2,
                "cols": 2,
                "deadline_s": 1.5,
                "session": "u1",
            }
        )
        assert req.region == TileQuery(0, 8, 0, 8)
        assert req.deadline_s == 1.5
        assert req.session == "u1"

    @pytest.mark.parametrize(
        "doc",
        [
            "not a dict",
            {},
            {"tenant": "a", "dataset": "d", "region": [0, 16], "rows": 2, "cols": 2},
            {"tenant": "a", "dataset": "d", "region": "x", "rows": 2, "cols": 2},
            {"tenant": "a", "dataset": "d", "region": [0, 16, 0, 16], "rows": "x", "cols": 2},
            {"tenant": "a", "dataset": "d", "region": {"cells": [0]}, "rows": 2, "cols": 2},
            {"tenant": "a", "dataset": "d", "region": [0, 16, 0, 16], "rows": 2, "cols": 2, "deadline_s": "soon"},
            {"tenant": "a", "dataset": "d", "region": [0, 16, 0, 16], "rows": 2.5, "cols": 2},
            {"tenant": "a", "dataset": "d", "region": [0, 16, 0, 16], "rows": 2, "cols": True},
            {"tenant": "a", "dataset": "d", "region": {"cells": [0.9, 12, 0, 8]}, "rows": 2, "cols": 2},
            {"tenant": "a", "dataset": "d", "region": [0, True, 0, 16], "rows": 2, "cols": 2},
            {"tenant": "a", "dataset": "d", "region": [0, "16", 0, 16], "rows": 2, "cols": 2},
            {"tenant": "a", "dataset": "d", "region": [0, 16, 0, 16], "rows": 2, "cols": 2, "deadline_s": "0.5"},
            {"tenant": "a", "dataset": "d", "region": [0, 16, 0, 16], "rows": 2, "cols": 2, "deadline_s": True},
            {"tenant": "a", "dataset": "d", "region": [0, 16, 0, 16], "rows": 2, "cols": 2, "deadline_s": 10**400},
        ],
    )
    def test_malformed_documents_raise_invalid_region(self, doc):
        with pytest.raises(InvalidRegionError):
            parse_request(doc)


class TestServer:
    def run_session(self, estimator, lines):
        """Start a server, send ``lines``, return one response per line."""

        async def main():
            catalog = TenantCatalog()
            catalog.register_dataset("main", estimator, GRID)
            catalog.add_tenant("acme")
            gateway = Gateway(catalog, workers=2, max_pending=8)
            server = GatewayServer(gateway, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                for line in lines:
                    payload = line if isinstance(line, (bytes,)) else (
                        line if isinstance(line, str) else json.dumps(line)
                    )
                    if isinstance(payload, str):
                        payload = payload.encode()
                    writer.write(payload + b"\n")
                await writer.drain()
                responses = [json.loads(await reader.readline()) for _ in lines]
                writer.close()
                await writer.wait_closed()
                return responses
            finally:
                await server.close()
                await gateway.close()

        return asyncio.run(main())

    def test_round_trip_both_region_forms(self, estimator):
        ok_rect, ok_cells = self.run_session(
            estimator,
            [
                {"tenant": "acme", "dataset": "main", "region": [0, 16, 0, 16], "rows": 2, "cols": 2, "deadline_s": 5.0},
                {"tenant": "acme", "dataset": "main", "region": {"cells": [0, 16, 0, 16]}, "rows": 2, "cols": 2},
            ],
        )
        assert ok_rect["status"] == "ok"
        assert ok_cells["status"] == "ok"
        # Same region either way: identical counts over the wire.
        assert ok_rect["counts"] == ok_cells["counts"]
        assert ok_rect["valid_fraction"] == 1.0

    def test_bad_lines_get_structured_errors_not_disconnects(self, estimator):
        valid = {"tenant": "acme", "dataset": "main", "region": [0, 16, 0, 16], "rows": 2, "cols": 2}
        responses = self.run_session(
            estimator,
            [
                "this is not json",
                b"\xff",  # not UTF-8
                "[" * 100_000,  # nested too deep to decode
                {"tenant": "acme"},  # missing fields
                {**valid, "tenant": "ghost"},
                {**valid, "deadline_s": -1.0},
                '{"tenant": "acme", "dataset": "main", "region": [0, 16, 0, 16], '
                '"rows": 2, "cols": 2, "deadline_s": NaN}',
                {**valid, "rows": 7},  # 7 rows do not divide 16 cells
                valid,
            ],
        )
        codes = [r.get("error", {}).get("code") for r in responses]
        assert codes[:8] == ["invalid_region"] * 8
        assert responses[8]["status"] == "ok"

    def test_port_property_requires_started_server(self, estimator):
        catalog = TenantCatalog()
        catalog.register_dataset("main", estimator, GRID)
        catalog.add_tenant("acme")

        async def main():
            gateway = Gateway(catalog, workers=1, max_pending=2)
            server = GatewayServer(gateway, port=0)
            with pytest.raises(RuntimeError):
                server.port
            await server.start()
            with pytest.raises(RuntimeError):
                await server.start()
            port = server.port
            await server.close()
            await server.close()  # idempotent
            await gateway.close()
            return port

        assert asyncio.run(main()) > 0
