import json
import subprocess

import run


def test_a_crashed_or_stalled_child_fails_its_workload_only(tmp_path, monkeypatch, capsys):
    def child(workload, seed, seconds, trace, capture):
        if workload == "zoom":
            raise subprocess.TimeoutExpired("run.py", run.MEASURE_TIMEOUT_S)
        return subprocess.CompletedProcess("run.py", 1, "Traceback ...\n{}\n")

    monkeypatch.setattr(run, "_measure_child", child)
    out = tmp_path / "run.json"
    assert run.run_all(7, 1.0, False, out) == 1
    document = json.loads(out.read_text())
    assert list(document["workloads"]) == list(run.WORKLOADS)
    assert not any(entry["correct"] for entry in document["workloads"].values())
    assert "ran past" in document["workloads"]["zoom"]["problems"][0]
    assert "without a record" in document["workloads"]["pan"]["problems"][0]
    printed = capsys.readouterr().out
    assert "FAIL zoom" in printed and "FAIL: a correctness gate failed" in printed
