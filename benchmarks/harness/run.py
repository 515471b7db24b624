"""One benchmark for the serving path and the out-of-core build.

Five workloads (see README.md): ``pan``, ``zoom`` and ``overload`` drive
the multi-tenant gateway over pyramid-backed Euler summaries of the four
paper datasets; ``build-fit`` and ``build-spill`` stream an object file
through ``build_zoned`` inside and beyond its memory budget.

Usage (from the repository root)::

    python3 benchmarks/harness/run.py --seed 2002 --out run.json   # all five
    python3 benchmarks/harness/run.py --seed 2002 --trace          # + per-layer
    python3 benchmarks/harness/run.py --workload pan --seed 7 --seconds 12 --trace 0
    python3 benchmarks/harness/run.py compare PARENT.json... -- CHANGE.json...

Every workload runs in its own child process, after a preparation child
that builds the cached inputs once per checkout.  A run prints every
metric by name with its unit and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
correctness gate makes the run invalid and the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

HARNESS = pathlib.Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
sys.path[:0] = [str(HARNESS), str(ROOT / "src")]

WORKLOADS = ("pan", "zoom", "overload", "build-fit", "build-spill")
SERVING = ("pan", "zoom", "overload")
DEFAULT_SECONDS = 20

#: Prefix of the child's detailed record line.
RECORD = "# record "

#: Child-process time limits: the first preparation builds every input.
PREPARE_TIMEOUT_S = 850
MEASURE_TIMEOUT_S = 170

#: A serving run whose generator fell this far behind is not comparable.
MAX_GENERATOR_LAG_MS = 10.0

#: End-to-end metrics whose traced/untraced ratio is the tracing overhead.
OVERHEAD_METRICS = ("latency_p50_ms", "cpu_ms_per_op")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(seed: int, seconds: float) -> dict:
    """The environment every result is stamped with."""
    import numpy

    from building import START_METHOD
    from prepare import scale_label

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "scale": scale_label(),
        "seed": seed,
        "seconds": seconds,
        "start_method": START_METHOD,
    }


def comparability(workload: str, record: dict) -> list[str]:
    """Reasons a result cannot be compared with another (empty = fine)."""
    reasons = []
    if (record["stamp"]["cpu_count"] or 1) < 2:
        reasons.append("fewer than 2 CPUs")
    lag = record["diagnostics"].get("gateway.loop_lag_ms_p99")
    if workload in ("pan", "zoom") and lag is not None and lag > MAX_GENERATOR_LAG_MS:
        reasons.append(f"generator lag p99 {lag:.1f} ms > {MAX_GENERATOR_LAG_MS:g} ms")
    return reasons


# --------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------- #


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import building
    import serving
    from prepare import Inputs

    inputs = Inputs(ROOT)
    if not inputs.ready():
        print("error: inputs are not prepared", file=sys.stderr)
        return 2
    module = serving if workload in SERVING else building
    out = module.run(workload, inputs, seconds=seconds, seed=seed, trace=trace)
    spec = benchmark_spec()
    if trace:
        values = {**out["diagnostics"], **out["layers"]}
        metrics = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        trace_dir = inputs.dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{workload}-seed{seed}.jsonl"
        out["recorder"].write_jsonl(path)
        print(f"# spans: {path}")
    else:
        metrics = {
            m["name"]: {"value": float(out["end_to_end"][m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    record = {
        "workload": workload,
        "stamp": stamp(seed, seconds),
        "trace": trace,
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "problems": out["problems"],
        "end_to_end": out["end_to_end"],
        "diagnostics": out["diagnostics"],
        "layers": out["layers"],
    }
    record["not_comparable"] = comparability(workload, record)
    for problem in out["problems"]:
        print(f"FAIL {workload}: {problem}")
    if record["not_comparable"]:
        print(f"# not comparable: {'; '.join(record['not_comparable'])}")
    for name, metric in metrics.items():
        print(f"{workload:>11} {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(RECORD + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if record["correct"] else 1


# --------------------------------------------------------------------- #
# orchestration: children per workload
# --------------------------------------------------------------------- #


def _child(args: list[str], timeout: float, capture: bool) -> subprocess.CompletedProcess:
    """Run this script as a child and wait for it (killed at the limit)."""
    with subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE if capture else None,
        text=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return subprocess.CompletedProcess(proc.args, proc.returncode, stdout)


def _prepare() -> int:
    return _child(["--prepare"], PREPARE_TIMEOUT_S, capture=False).returncode


def _measure_child(workload, seed, seconds, trace, capture) -> subprocess.CompletedProcess:
    return _child(
        [
            "--measure",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(int(trace)),
        ],
        MEASURE_TIMEOUT_S,
        capture,
    )


def _failed_record(workload: str, problem: str) -> dict:
    print(f"FAIL {workload}: {problem}")
    return {
        "correct": False,
        "attempted": 0,
        "failed": 0,
        "problems": [problem],
        "not_comparable": [],
        "end_to_end": {},
        "diagnostics": {},
        "layers": None,
    }


def _record_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure in a child, relay its metric lines, return its record.  A
    child that crashes or overruns its limit gives a failed record."""
    try:
        done = _measure_child(workload, seed, seconds, trace, capture=True)
    except subprocess.TimeoutExpired:
        return _failed_record(workload, f"the measuring child ran past {MEASURE_TIMEOUT_S} s")
    record = None
    for line in done.stdout.splitlines()[:-1]:
        if line.startswith(RECORD):
            record = json.loads(line[len(RECORD) :])
        else:
            print(line)
    if record is None:
        return _failed_record(workload, f"the measuring child exited {done.returncode} without a record")
    record["correct"] &= done.returncode == 0
    return record


def _tracing_overhead(workload: str, untraced: dict, traced: dict) -> dict:
    """Traced over untraced end-to-end numbers of the same seed."""
    overhead = {}
    for name in OVERHEAD_METRICS:
        base, value = untraced["end_to_end"][name], traced["end_to_end"][name]
        overhead[name] = {"untraced": base, "traced": value, "ratio": value / base}
        print(
            f"{workload:>11} tracing overhead {name}: {value:.4g} traced vs "
            f"{base:.4g} untraced ({value / base:.3f}x of untraced)"
        )
    return overhead


def run_all(seed: int, seconds: float, trace: bool, out: pathlib.Path | None) -> int:
    """Every workload, one child each; ``trace`` adds a traced child per
    workload and reports its overhead against the untraced one."""
    document = {"stamp": stamp(seed, seconds), "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        record = _record_child(workload, seed, seconds, False)
        ok &= record["correct"]
        entry = {
            k: record[k]
            for k in (
                "correct",
                "attempted",
                "failed",
                "problems",
                "not_comparable",
                "end_to_end",
                "diagnostics",
            )
        }
        if trace:
            traced = _record_child(workload, seed, seconds, True)
            ok &= traced["correct"]
            entry["layers"] = traced["layers"]
            if record["correct"] and traced["correct"]:
                entry["tracing_overhead"] = _tracing_overhead(workload, record, traced)
        document["workloads"][workload] = entry
    if out is not None:
        out.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {out}")
    print("all correctness gates passed" if ok else "FAIL: a correctness gate failed")
    return 0 if ok else 1


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #


def compare(argv: list[str]) -> int:
    """``compare PARENT.json... -- CHANGE.json...`` (see stats.judge)."""
    from stats import REPEAT_RANGE, judge, range_spread

    if "--" not in argv:
        print("usage: run.py compare PARENT.json... -- CHANGE.json...", file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = [
        [json.loads(pathlib.Path(p).read_text()) for p in paths]
        for paths in (argv[:split], argv[split + 1 :])
    ]
    if not all(sides):
        print("error: each side needs at least one run", file=sys.stderr)
        return 2
    for side, docs in zip(("parent", "change"), sides):
        for doc in docs:
            for workload, entry in doc["workloads"].items():
                if entry.get("not_comparable"):
                    print(f"# {side} {workload}: not comparable ({'; '.join(entry['not_comparable'])})")
    regressions = 0
    for metric in benchmark_spec()["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        for workload in WORKLOADS:
            # A failed run has no end-to-end numbers to compare.
            parent, change = (
                [
                    d["workloads"][workload]["end_to_end"][name]
                    for d in docs
                    if name in d["workloads"].get(workload, {}).get("end_to_end", {})
                ]
                for docs in sides
            )
            if not parent or not change:
                continue
            v = judge(
                name, workload, parent, change, better=metric["better"], bound=metric["bound"]
            )
            regressions += v.verdict == "regression"
            print(
                f"{workload:>11} {name:<15} parent {v.parent[1]:.4g} [{v.parent[0]:.4g}, "
                f"{v.parent[2]:.4g}] {unit} (n={len(parent)}) | change {v.change[1]:.4g} "
                f"[{v.change[0]:.4g}, {v.change[2]:.4g}] {unit} (n={len(change)}) | "
                f"{v.ratio:.3f}x of parent {v.parent[1]:.4g} {unit} | wins {v.wins}/{v.pairs} | "
                f"(max-min)/median {range_spread(parent):.3f} / {range_spread(change):.3f} "
                f"vs {REPEAT_RANGE:g} | bound {metric['bound']:g} | {v.verdict}"
            )
    return 1 if regressions else 0


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload")
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--out", type=pathlib.Path, help="write every workload's record here")
    parser.add_argument("--measure", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no repro sources to benchmark", file=sys.stderr)
        return 2
    if args.prepare:
        from prepare import prepare

        prepare(ROOT)
        return 0
    if args.measure:
        return measure(args.measure, args.seed, args.seconds, bool(args.trace))
    code = _prepare()
    if code:
        return code
    if args.workload:
        return _measure_child(args.workload, args.seed, args.seconds, bool(args.trace), False).returncode
    return run_all(args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
