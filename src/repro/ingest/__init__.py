"""``repro.ingest``: zoned out-of-core histogram construction.

Streams arbitrarily large object sets through bounded memory into Euler
histograms bit-identical to an in-memory build: replayable chunk sources
(:mod:`~repro.ingest.chunks`), space-filling-curve zoning
(:mod:`~repro.ingest.zones`), budgeted spill-to-disk accumulation
(:mod:`~repro.ingest.accumulator`), a crash-tolerant worker pool
(:mod:`~repro.ingest.pool`) and the orchestrating
:func:`~repro.ingest.pipeline.build_zoned`.  See DESIGN.md section 17.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ingest.accumulator": ("ZoneAccumulator", "ZonePartial", "load_zone_partial"),
        "repro.ingest.chunks": (
            "ChunkSource",
            "DatasetChunkSource",
            "NdjsonChunkSource",
            "NpyChunkSource",
            "SyntheticChunkSource",
            "open_chunk_source",
        ),
        "repro.ingest.pipeline": ("IngestReport", "ZonedBuildResult", "build_zoned"),
        "repro.ingest.pool": ("IngestWorkerError", "ZoneBuildPool", "ZonePoolResult"),
        "repro.ingest.zones": ("CURVES", "ZoneMap", "hilbert_keys", "morton_keys"),
    },
)

__all__ = [
    "CURVES",
    "ChunkSource",
    "DatasetChunkSource",
    "IngestReport",
    "IngestWorkerError",
    "NdjsonChunkSource",
    "NpyChunkSource",
    "SyntheticChunkSource",
    "ZoneAccumulator",
    "ZoneBuildPool",
    "ZoneMap",
    "ZonePartial",
    "ZonePoolResult",
    "ZonedBuildResult",
    "build_zoned",
    "hilbert_keys",
    "load_zone_partial",
    "morton_keys",
    "open_chunk_source",
]
