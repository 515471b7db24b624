"""The import closure of a spawned build worker.

A ``spawn`` worker starts a fresh interpreter and imports
``repro.ingest.worker`` by name.  The package inits on that path
(``repro``, ``repro.ingest``, ``repro.euler``) resolve their public names
on first use, so the worker loads the snap-and-scatter code it runs and
none of the serving, search or evaluation layers -- each of which would
add its import time to every pool start.  A worker that
``repro build --parallel`` starts under ``spawn`` also re-imports the
CLI as ``__mp_main__``, so ``repro.cli`` holds the same closure.
"""

from __future__ import annotations

from tests.conftest import fresh_interpreter_json

#: Packages a build worker never runs.
UNUSED_BY_WORKER = (
    "asyncio",
    "repro.baselines",
    "repro.browse",
    "repro.cache",
    "repro.exact",
    "repro.gateway",
    "repro.index",
    "repro.joins",
    "repro.metrics",
    "repro.selectivity",
    "repro.workloads",
)


def _unused_by_worker(module: str) -> list[str]:
    """What a fresh interpreter's ``import module`` loads of the packages
    a build worker never runs."""
    loaded = fresh_interpreter_json(
        f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    )
    assert module in loaded
    return [
        m for m in loaded if any(m == p or m.startswith(p + ".") for p in UNUSED_BY_WORKER)
    ]


def test_worker_import_loads_no_serving_or_search_layer():
    assert _unused_by_worker("repro.ingest.worker") == []


def test_cli_import_loads_no_serving_or_search_layer():
    assert _unused_by_worker("repro.cli") == []
