"""Short end-to-end runs of every workload on small inputs, through the
same correctness gates as a real run."""

import pytest

import building
import prepare
import run
import serving


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    for name in prepare.SERVING_DATASETS:
        patch.setitem(prepare.SERVING_DATASETS, name, 20_000)
    patch.setattr(prepare, "STREAM_OBJECTS", 200_000)
    patch.setattr(prepare, "STREAM_CHUNK", 50_000)
    patch.setattr(serving, "SETUPS", 1)
    patch.setattr(building, "SETUPS", 1)
    try:
        yield prepare.prepare(tmp_path_factory.mktemp("checkout"))
    finally:
        patch.undo()


@pytest.mark.parametrize("name", ["pan", "zoom", "overload"])
def test_serving_workload_passes_its_gates(inputs, name):
    out = serving.run(name, inputs, seconds=2.0, seed=5, trace=name == "zoom")
    assert out["problems"] == []
    assert out["failed"] == 0
    assert out["diagnostics"]["checked_rasters"] > 0
    assert out["end_to_end"]["latency_p50_ms"] > 0
    if name == "zoom":
        layers = out["layers"]
        assert layers["delta.reused_tile_fraction"] == 0.0
        assert layers["estimate.tiles_per_request"] > 0
        assert out["recorder"].named("browse")


def test_build_passes_its_gates(inputs):
    out = building.run("build-spill", inputs, seconds=0.1, seed=5, trace=True)
    assert out["problems"] == []
    assert out["attempted"] == building.MIN_BUILDS
    assert out["layers"]["ingest.spills"] > 0
    assert out["layers"]["ingest.pool_start_s"] > 0


def test_a_failed_build_is_counted(inputs, monkeypatch):
    calls = []
    build_zoned = building.build_zoned

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise OSError("disk full")
        return build_zoned(*args, **kwargs)

    monkeypatch.setattr(building, "build_zoned", flaky)
    out = building.run("build-fit", inputs, seconds=0.1, seed=5, trace=False)
    assert (out["attempted"], out["failed"]) == (building.MIN_BUILDS, 1)
    assert out["problems"] == ["build 0 failed: OSError('disk full')"]


def test_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "pan", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
