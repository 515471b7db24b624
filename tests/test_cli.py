"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.base import RectDataset
from repro.euler.histogram import EulerHistogram


@pytest.fixture
def data_path(tmp_path):
    path = tmp_path / "data.npz"
    assert main(["generate", "sp_skew", "2000", "-o", str(path), "--seed", "3"]) == 0
    return path


@pytest.fixture
def hist_path(tmp_path, data_path):
    path = tmp_path / "hist.npz"
    assert main(["build", str(data_path), "-o", str(path), "--cells", "90", "45"]) == 0
    return path


class TestGenerate:
    def test_writes_dataset(self, data_path):
        data = RectDataset.load(data_path)
        assert len(data) == 2000
        assert data.name == "sp_skew"

    def test_deterministic_seed(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        main(["generate", "sz_skew", "500", "-o", str(a), "--seed", "9"])
        main(["generate", "sz_skew", "500", "-o", str(b), "--seed", "9"])
        import numpy as np

        np.testing.assert_array_equal(
            RectDataset.load(a).x_lo, RectDataset.load(b).x_lo
        )

    def test_rejects_bad_count(self, tmp_path, capsys):
        assert main(["generate", "adl", "0", "-o", str(tmp_path / "x.npz")]) == 2
        assert "count must be positive" in capsys.readouterr().err

    def test_rejects_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", "10", "-o", str(tmp_path / "x.npz")])


class TestDescribe:
    def test_prints_stats(self, data_path, capsys):
        assert main(["describe", str(data_path)]) == 0
        out = capsys.readouterr().out
        assert "count" in out and "2000" in out
        assert "area_mean" in out


class TestBuild:
    def test_writes_histogram(self, hist_path):
        histogram = EulerHistogram.load(hist_path)
        assert histogram.num_objects == 2000
        assert histogram.grid.n1 == 90
        assert histogram.grid.n2 == 45

    def test_reports_progress(self, tmp_path, data_path, capsys):
        main(["build", str(data_path), "-o", str(tmp_path / "h.npz")])
        assert "bucket histogram" in capsys.readouterr().out


class TestBuildZoned:
    def test_zoned_build_is_bit_identical(self, tmp_path, data_path, hist_path):
        import numpy as np

        out = tmp_path / "zoned.npz"
        code = main(
            [
                "build", str(data_path), "-o", str(out),
                "--cells", "90", "45",
                "--zones", "16", "--chunk-size", "300", "--memory-mb", "8",
            ]
        )
        assert code == 0
        direct = EulerHistogram.load(hist_path)
        zoned = EulerHistogram.load(out)
        np.testing.assert_array_equal(zoned.buckets(), direct.buckets())
        assert zoned.num_objects == direct.num_objects

    def test_spawn_pool_that_spills_is_bit_identical(
        self, tmp_path, data_path, hist_path, capsys
    ):
        """A CLI-started spawn pool whose workers spill under a 1 MiB
        budget: each worker re-imports the CLI, writes and folds its own
        spill log, and the merge matches the direct build bit for bit."""
        import re

        import numpy as np

        out = tmp_path / "zoned.npz"
        code = main(
            [
                "build", str(data_path), "-o", str(out),
                "--cells", "90", "45",
                "--zones", "16", "--chunk-size", "300", "--memory-mb", "1",
                "--parallel", "2", "--start-method", "spawn",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "2 workers, 0 crashes" in printed
        assert int(re.search(r"(\d+) spills", printed).group(1)) > 0
        direct = EulerHistogram.load(hist_path)
        zoned = EulerHistogram.load(out)
        np.testing.assert_array_equal(zoned.buckets(), direct.buckets())
        assert zoned.num_objects == direct.num_objects

    def test_reports_the_zoned_pipeline(self, tmp_path, data_path, capsys):
        out = tmp_path / "zoned.npz"
        main(
            [
                "build", str(data_path), "-o", str(out),
                "--zones", "8", "--curve", "hilbert", "--chunk-size", "500",
            ]
        )
        printed = capsys.readouterr().out
        assert "8 hilbert zones" in printed
        assert "objects/s" in printed

    def test_streams_ndjson_without_npz(self, tmp_path, data_path, capsys):
        import json

        data = RectDataset.load(data_path)
        path = tmp_path / "objs.ndjson"
        with open(path, "w") as fh:
            for i in range(len(data)):
                fh.write(
                    json.dumps(
                        [data.x_lo[i], data.x_hi[i], data.y_lo[i], data.y_hi[i]]
                    )
                    + "\n"
                )
        out = tmp_path / "h.npz"
        extent = data.extent
        code = main(
            [
                "build", str(path), "-o", str(out),
                "--cells", "90", "45", "--zones", "4", "--chunk-size", "512",
                "--extent", str(extent.x_lo), str(extent.x_hi),
                str(extent.y_lo), str(extent.y_hi),
            ]
        )
        assert code == 0
        assert EulerHistogram.load(out).num_objects == len(data)

    def test_rejects_bad_flags(self, tmp_path, data_path, capsys):
        out = str(tmp_path / "h.npz")
        assert main(["build", str(data_path), "-o", out, "--zones", "-1"]) == 2
        assert "--zones" in capsys.readouterr().err
        assert main(
            ["build", str(data_path), "-o", out, "--zones", "4", "--chunk-size", "0"]
        ) == 2
        assert "--chunk-size" in capsys.readouterr().err
        assert main(
            ["build", str(data_path), "-o", out, "--zones", "4", "--parallel", "-2"]
        ) == 2
        assert "--parallel" in capsys.readouterr().err

    def test_rejects_unreadable_source(self, tmp_path, capsys):
        missing = tmp_path / "nope.ndjson"
        code = main(
            ["build", str(missing), "-o", str(tmp_path / "h.npz"), "--zones", "4"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestBrowse:
    def test_renders_raster(self, hist_path, capsys):
        code = main(
            [
                "browse",
                str(hist_path),
                "--region", "0", "360", "0", "180",
                "--rows", "3",
                "--cols", "6",
                "--relation", "overlap",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(lines) == 3
        assert "overlap counts" in out

    def test_misaligned_region_fails_cleanly(self, hist_path, capsys):
        code = main(
            [
                "browse",
                str(hist_path),
                "--region", "0.5", "360", "0", "180",
                "--rows", "2",
                "--cols", "2",
            ]
        )
        assert code == 2
        assert "not aligned" in capsys.readouterr().err

    def test_contains_relation(self, hist_path, capsys):
        code = main(
            [
                "browse",
                str(hist_path),
                "--region", "0", "360", "0", "180",
                "--rows", "3",
                "--cols", "2",
                "--relation", "contains",
            ]
        )
        assert code == 0
        # The whole space split in 4: every object is contained somewhere,
        # so the raster sums to the dataset size minus boundary-spanners.
        out = capsys.readouterr().out
        values = [int(v) for line in out.splitlines() if not line.startswith("#") for v in line.split()]
        assert 0 < sum(values) <= 2000


class TestStats:
    ARGS = ["--region", "0", "360", "0", "180", "--rows", "3", "--cols", "6"]

    def test_prints_raster_and_text_snapshot(self, hist_path, capsys):
        assert main(["stats", str(hist_path), *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "100% answered" in out
        assert "repro_browse_requests_total" in out
        # the histogram load itself shows up via the default registry
        assert 'repro_persistence_ops_total{kind="Euler histogram",op="load",outcome="ok"}' in out

    def test_prometheus_format_parses(self, hist_path, capsys):
        from repro.obs import parse_prometheus_text

        assert main(["stats", str(hist_path), *self.ARGS, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        metrics_text = out[out.index("# HELP"):]
        samples = parse_prometheus_text(metrics_text)
        assert samples['repro_browse_requests_total{relation="overlap",service="resilient"}'] == 1

    def test_json_format_parses(self, hist_path, capsys):
        import json

        assert main(["stats", str(hist_path), *self.ARGS, "--format", "json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out[out.index("{"):])
        assert any(f["name"] == "repro_browse_requests_total" for f in document["metrics"])

    def test_trace_flag_prints_span_tree(self, hist_path, capsys):
        assert main(["stats", str(hist_path), *self.ARGS, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "browse  " in out and "resolve" in out

    def test_dataset_enables_accuracy_probe(self, hist_path, data_path, capsys):
        code = main(["stats", str(hist_path), *self.ARGS, "--dataset", str(data_path)])
        assert code == 0
        assert "repro_accuracy_samples_total" in capsys.readouterr().out

    def test_default_registry_restored(self, hist_path):
        from repro.obs import get_default_registry

        before = get_default_registry()
        main(["stats", str(hist_path), *self.ARGS])
        assert get_default_registry() is before

    def test_corrupt_histogram_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a zip")
        assert main(["stats", str(bad), *self.ARGS]) == 2
        assert "unreadable" in capsys.readouterr().err


class TestLoadgen:
    def test_replays_sessions_and_reports(self, hist_path, capsys):
        code = main(
            [
                "loadgen",
                str(hist_path),
                "--tenant",
                "acme:8",
                "--tenant",
                "beta",
                "--sessions",
                "3",
                "--deadline",
                "2.0",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "requests" in out and "latency_p99_s" in out

    def test_json_report_parses(self, hist_path, capsys):
        import json

        code = main(["loadgen", str(hist_path), "--sessions", "2", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sessions"] == 2
        assert report["requests"] >= report["served"] > 0
        assert report["errors"] == 0

    def test_rejects_bad_flags(self, hist_path, capsys):
        assert main(["loadgen", str(hist_path), "--sessions", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_rejects_corrupt_histogram(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"nope")
        assert main(["loadgen", str(bad), "--sessions", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestServe:
    def test_rejects_bad_flags(self, hist_path, capsys):
        assert main(["serve", str(hist_path), "--workers", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_rejects_bad_tenant_spec(self, hist_path, capsys):
        assert main(["serve", str(hist_path), "--tenant", ":4"]) == 2
        assert "empty tenant name" in capsys.readouterr().err

    def test_serves_one_request_over_tcp(self, hist_path):
        """Boot the real server on a free port, run one round trip
        through a TCP client, then shut down -- the CLI's serving path
        end to end."""
        import asyncio
        import json

        from repro.euler.histogram import EulerHistogram
        from repro.euler.simple import SEulerApprox
        from repro.gateway import Gateway, GatewayServer, TenantCatalog

        histogram = EulerHistogram.load(hist_path)
        catalog = TenantCatalog()
        catalog.register_dataset("default", SEulerApprox(histogram), histogram.grid)
        catalog.add_tenant("public")

        async def round_trip():
            gateway = Gateway(catalog, workers=1, max_pending=4)
            server = GatewayServer(gateway, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    json.dumps(
                        {
                            "tenant": "public",
                            "dataset": "default",
                            "region": [0, 360, 0, 180],
                            "rows": 3,
                            "cols": 2,
                            "deadline_s": 5.0,
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return response
            finally:
                await server.close()
                await gateway.close()

        response = asyncio.run(round_trip())
        assert response["status"] == "ok"
        assert response["valid_fraction"] == 1.0


class TestJoinSearch:
    ARGS = ["join-search", "--sources", "12", "--objects", "120", "--ref-cells", "16", "8"]

    def test_dataset_mode_prints_ranking(self, capsys):
        assert main(self.ARGS + ["--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "dataset search over 12 summaries" in out
        assert "pruned" in out
        assert "# 1" in out

    def test_region_mode_json(self, capsys):
        code = main(
            self.ARGS
            + ["--region", "0", "90", "0", "90", "--top", "3", "--json"]
        )
        assert code == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "region"
        assert doc["metric"] == "intersect_mass"
        assert len(doc["ranking"]) == 3
        assert doc["fully_scored"] == 12
        assert doc["pruned"] == 0

    def test_truth_reports_are_and_agreement(self, capsys):
        code = main(self.ARGS + ["--family", "exact", "--top", "4", "--truth"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ARE=0.0000" in out
        assert "agreement=1.00" in out

    def test_no_prune_scores_everything(self, capsys):
        assert main(self.ARGS + ["--no-prune", "--top", "3"]) == 0
        assert "scored 12, pruned 0" in capsys.readouterr().out

    def test_rejects_bad_flags(self, capsys):
        assert main(["join-search", "--sources", "0"]) == 2
        assert "--sources" in capsys.readouterr().err
        assert main(["join-search", "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err

    def test_rejects_unalignable_summary_grid(self, capsys):
        code = main(self.ARGS + ["--summary-cells", "24", "8"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_rejects_unknown_metric(self, capsys):
        code = main(self.ARGS + ["--metric", "bogus"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_seed_pool_controls_pruning(self, capsys):
        assert main(self.ARGS + ["--seed-pool", "4", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert main(["join-search", "--seed-pool", "0"]) == 2
        assert "--seed-pool" in capsys.readouterr().err
