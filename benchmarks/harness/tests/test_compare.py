import json

import run


def _doc(path, workload_values):
    workloads = {
        workload: {"end_to_end": values, "not_comparable": []}
        for workload, values in workload_values.items()
    }
    path.write_text(json.dumps({"workloads": workloads}))
    return str(path)


def _sides(tmp_path, parent_latency, change_latency):
    def metrics(latency):
        return {
            "setup_s": 0.1,
            "latency_p50_ms": latency,
            "served_per_s": 50.0,
            "goodput_per_s": 50.0,
            "cpu_ms_per_op": 5.0,
            "rss_peak_mb": 140.0,
        }

    parents = [
        _doc(tmp_path / f"p{i}.json", {"pan": metrics(v)}) for i, v in enumerate(parent_latency)
    ]
    changes = [
        _doc(tmp_path / f"c{i}.json", {"pan": metrics(v)}) for i, v in enumerate(change_latency)
    ]
    return parents, changes


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


def test_compare_flags_a_regression_with_its_base(tmp_path, capsys):
    parents, changes = _sides(tmp_path, BASE, [v * 1.5 for v in BASE])
    assert run.compare(parents + ["--"] + changes) == 1
    line = next(l for l in capsys.readouterr().out.splitlines() if "latency_p50_ms" in l)
    assert "regression" in line
    assert "1.500x of parent 10 ms" in line


def test_compare_passes_identical_sides(tmp_path, capsys):
    parents, changes = _sides(tmp_path, BASE, BASE)
    assert run.compare(parents + ["--"] + changes) == 0
    out = capsys.readouterr().out
    assert "regression" not in out and "gain" not in out
    line = next(l for l in out.splitlines() if "latency_p50_ms" in l)
    assert "(max-min)/median 0.020 / 0.020 vs 0.1" in line


def test_compare_skips_failed_runs(tmp_path, capsys):
    parents, changes = _sides(tmp_path, BASE, BASE)
    failed = tmp_path / "failed.json"
    failed.write_text(json.dumps({"workloads": {"pan": {"end_to_end": {}, "not_comparable": []}}}))
    assert run.compare(parents + ["--"] + changes + [str(failed)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if "latency_p50_ms" in l)
    assert "(n=10) | change" in line and line.count("(n=10)") == 2


def test_compare_needs_both_sides(tmp_path):
    parents, _ = _sides(tmp_path, BASE, BASE)
    assert run.compare(parents) == 2
    assert run.compare(parents + ["--"]) == 2
