"""The benchmark harness's span seams exist, and its undo restores them.

A traced harness run (``benchmarks/harness/spans.py``) replaces library
callables by name: methods read from their class ``__dict__`` and module
bindings such as ``repro.browse.resilience.plan_delta``.  Each one is a
seam between the harness and ``src/``.  Installing the spans here makes
a library change that drops a seam (a renamed method, a deleted module
binding) fail the tier-1 suite with the missing name.  The test reads
the harness file and changes none.
"""

import importlib.util
import pathlib
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "harness" / "spans.py"

_MISSING = object()


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("_harness_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_install_patches_every_seam_and_undo_restores_it(spans):
    # The harness patches and restores with ``setattr``; shadowing that
    # name in the loaded module records each seam with its original
    # binding, whatever namespace it lives in.
    originals = {}

    def recording_setattr(owner, attr, value):
        originals.setdefault((owner, attr), vars(owner).get(attr, _MISSING))
        setattr(owner, attr, value)

    spans.setattr = recording_setattr
    undo = None
    try:
        undo = spans.install(spans.SpanRecorder())
        unwrapped = [
            (owner, attr)
            for (owner, attr), original in originals.items()
            if vars(owner)[attr] is original
        ]
    finally:
        if undo is not None:
            undo()
        # Whatever an install that raised halfway left patched is put
        # back, so a missing seam fails this test alone.
        left = [
            (owner, attr)
            for (owner, attr), original in originals.items()
            if vars(owner).get(attr, _MISSING) is not original
        ]
        for owner, attr in left:
            setattr(owner, attr, originals[owner, attr])
    assert unwrapped == []
    assert left == []
    # Among the seams: those behind the harness's per-layer metrics.
    seams = {(owner.__name__, attr) for owner, attr in originals}
    assert {
        ("Gateway", "submit"),
        ("ResilientBrowsingService", "browse"),
        ("FallbackChain", "estimate_chunk_tiered"),
        ("repro.browse.resilience", "plan_delta"),
        ("repro.ingest.pipeline", "load_zone_partial"),
    } <= seams
