"""Spatio-temporal browsing with a 3-d Euler histogram.

The paper's model is stated for d dimensions and evaluated at d=2; the
obvious next axis for a GeoBrowsing-style archive is *time* ("queries
based on various data attributes such as region, date...").  This example
builds a 3-d (x, y, year) Euler histogram over a simulated archive of
dated map records and answers region x time-window browsing queries:

- "how many records overlap this region in this decade?"
- "how many are entirely within the region and the window?"

The 3-d intersect counts are exact (the Euler machinery generalises);
the example verifies them against a brute-force scan on the fly.

Run:  python examples/spatiotemporal_browsing.py
"""

import numpy as np

from repro import BoxQuery, EulerHistogram, GridND, SEulerApprox

# Data space: 360 x 180 world, 64 years of acquisitions (1950-2014),
# gridded at 4-degree / 1-year resolution.
CELLS = (90, 45, 64)
YEAR0 = 1950


def simulate_archive(num_records: int, seed: int = 0):
    """Dated map footprints: spatially clustered, small extents, short
    dated validity intervals with a growth trend over the years."""
    rng = np.random.default_rng(seed)
    lows = np.empty((num_records, 3))
    highs = np.empty((num_records, 3))

    # Space: a few acquisition programs (clusters).
    centers = rng.uniform([5, 5], [85, 40], size=(12, 2))
    pick = rng.integers(0, 12, size=num_records)
    xy = centers[pick] + rng.normal(0, 3.0, size=(num_records, 2))
    w = rng.gamma(2.0, 0.4, size=num_records)
    h = rng.gamma(2.0, 0.4, size=num_records)
    lows[:, 0] = np.clip(xy[:, 0] - w / 2, 0, CELLS[0])
    highs[:, 0] = np.clip(xy[:, 0] + w / 2, lows[:, 0], CELLS[0])
    lows[:, 1] = np.clip(xy[:, 1] - h / 2, 0, CELLS[1])
    highs[:, 1] = np.clip(xy[:, 1] + h / 2, lows[:, 1], CELLS[1])

    # Time: acquisition years skewed toward the present, validity 1-8y.
    start = CELLS[2] * np.sqrt(rng.random(num_records))
    length = rng.uniform(1.0, 8.0, size=num_records)
    lows[:, 2] = np.clip(start, 0, CELLS[2])
    highs[:, 2] = np.clip(start + length, lows[:, 2], CELLS[2])
    return lows, highs


def brute_intersect(lows, highs, query: BoxQuery) -> int:
    ok = np.ones(lows.shape[0], dtype=bool)
    for k in range(3):
        c_lo = np.minimum(np.floor(lows[:, k]), query.hi[k] * 0 + CELLS[k] - 1)
        c_hi = np.maximum(np.ceil(highs[:, k]) - 1, np.floor(lows[:, k]))
        ok &= (np.floor(lows[:, k]) <= query.hi[k] - 1) & (c_hi >= query.lo[k])
    return int(ok.sum())


def main() -> None:
    grid = GridND.unit_cells(CELLS)
    lows, highs = simulate_archive(150_000, seed=11)
    print(f"archive: {lows.shape[0]:,} dated footprints over {CELLS[2]} years")

    histogram = EulerHistogram.from_boxes(grid, lows, highs)
    estimator = SEulerApprox(histogram)
    print(
        f"3-d Euler histogram: {histogram.num_buckets:,} buckets "
        f"({np.prod(grid.lattice_shape):,} = "
        f"{'x'.join(str(2 * n - 1) for n in CELLS)})\n"
    )

    region = ((20, 40), (10, 30))  # a 20x20-degree-cell region
    print(f"region: x{region[0]} y{region[1]} -- per-decade record counts:")
    print(f"{'decade':>12} | {'intersect':>9} | {'contained':>9} | {'overlap':>8}")
    for decade_start in range(0, CELLS[2], 10):
        window = (decade_start, min(decade_start + 10, CELLS[2]))
        query = BoxQuery(
            lo=(region[0][0], region[1][0], window[0]),
            hi=(region[0][1], region[1][1], window[1]),
        )
        counts = estimator.estimate(query)
        exact = brute_intersect(lows, highs, query)
        assert histogram.intersect_count(query) == exact, "3-d intersect must be exact"
        label = f"{YEAR0 + window[0]}-{YEAR0 + window[1] - 1}"
        print(
            f"{label:>12} | {int(counts.n_intersect):>9} | "
            f"{int(counts.n_cs):>9} | {int(counts.n_o):>8}"
        )

    print(
        "\n(intersect counts verified exact against a brute-force scan; "
        "contained counts use S-EulerApprox on the 3-d histogram)"
    )


if __name__ == "__main__":
    main()
