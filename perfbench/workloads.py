"""Workload shapes for the pipeline benchmark.

Standard library only: ``run.py`` imports this module before it times the
package import, so nothing here may pull in numpy.

Each shape fixes the structure of a bundle: how many regions, how many
vertices per ring, how many messages of each kind, in which time bins and
with which tags. The seed only draws values inside that structure
(populations, damage, vertex jitter, point positions, seconds within a bin,
sentiment, and which region receives which activity profile), so every count
the benchmark reports repeats exactly from seed to seed while the inputs the
program sees still differ.
"""

from __future__ import annotations

from dataclasses import dataclass

# Collection vocabulary of the Hurricane Sandy corpus (the benchmark keeps its
# own copy; it never imports the program to generate inputs).
VOCABULARY = (
    "power", "sandy", "hurricane", "weather", "storm", "gas", "governor",
    "stay safe", "recovery", "climate", "fema", "flooding", "no power",
    "climate change", "wall st", "blackout", "mta", "frankenstorm", "cuomo",
    "prayforusa",
)
# The CLI's default keyword pool for correlate, series and nowcast.
POOL = ("sandy", "hurricane", "storm", "power", "flooding")
# Planted tags for rank-keywords: messages per user fall with distance to the
# track for DECAY_TAG and are random for FLAT_TAG. Neither is in POOL.
DECAY_TAG = "blackout"
FLAT_TAG = "climate"

# 2012-10-30T00:00Z, the CLI's default bin epoch, as a Unix time.
LANDFALL_S = 1351555200
DAY_S = 86400
FIRST_DAY = -10  # 2012-10-20
LAST_DAY = 13  # 2012-11-12 (inclusive)

# Storm track (lat, lon) written to track.csv, 6 h apart around landfall.
TRACK = ((33.0, -77.5), (37.0, -75.5), (39.5, -74.2), (42.0, -73.4), (44.0, -73.0))


@dataclass(frozen=True)
class Shape:
    """Structure of one workload's bundle; see the module docstring."""

    name: str
    region_prefix: str
    level: str
    cols: int
    rows: int
    extent: tuple[float, float, float, float]  # min_lon, min_lat, max_lon, max_lat
    vertices: int  # vertices of each region's main ring
    star: bool  # non-convex star rings (True) or jittered convex rings
    island_every: int  # every n-th region is a MultiPolygon with two islands; 0 = none
    messages: tuple[int, int]  # regular messages per region, inclusive range
    plant_messages: int  # messages of each planted tag per region
    unlocated: int  # messages without coordinates
    outside: int  # located messages that lie in no region
    no_population: int  # regions without a population row
    zero_damage: int  # regions with a damage row of 0 (dropped by log10)
    bin_hours: int  # series bin width
    simulate_args: tuple[str, ...]  # the `simulate` command at this shape
    structure_seed: int  # fixes the activity profiles; the run's seed permutes them

    @property
    def n_regions(self) -> int:
        return self.cols * self.rows


WORKLOADS = {
    "dense_city": Shape(
        name="dense_city",
        region_prefix="c",
        level="metro",
        cols=16,
        rows=15,
        extent=(-74.30, 40.50, -73.70, 40.95),
        vertices=40,
        star=True,
        island_every=6,
        messages=(100, 200),
        plant_messages=6,
        unlocated=600,
        outside=800,
        no_population=5,
        zero_damage=15,
        bin_hours=6,
        simulate_args=("--regions", "240", "--base-rate", "0.0012", "--amplitude", "0.012"),
        structure_seed=20121029,
    ),
    "zcta_sparse": Shape(
        name="zcta_sparse",
        region_prefix="z",
        level="zcta",
        cols=50,
        rows=50,
        extent=(-77.0, 37.5, -71.0, 42.5),
        vertices=5,
        star=False,
        island_every=0,
        messages=(4, 14),
        plant_messages=3,
        unlocated=250,
        outside=250,
        no_population=30,
        zero_damage=150,
        bin_hours=24,
        simulate_args=("--regions", "2500", "--base-rate", "0.00008", "--amplitude", "0.0008"),
        structure_seed=20121030,
    ),
}
