"""The import closure of a spawned build worker.

A ``spawn`` worker starts a fresh interpreter and imports
``repro.ingest.worker`` by name.  The package inits on that path
(``repro``, ``repro.ingest``, ``repro.euler``) resolve their public names
on first use, so the worker loads the snap-and-scatter code it runs and
none of the serving, search or evaluation layers -- each of which would
add its import time to every pool start.
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


def test_worker_import_loads_no_serving_or_search_layer():
    loaded = fresh_interpreter_json(
        "import json, sys, repro.ingest.worker; print(json.dumps(sorted(sys.modules)))"
    )
    assert "repro.ingest.worker" in loaded
    unused = [
        m for m in loaded if any(m == p or m.startswith(p + ".") for p in UNUSED_BY_WORKER)
    ]
    assert unused == []
