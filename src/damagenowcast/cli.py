"""Command-line surface for the nowcasting pipeline.

Subcommands: validate, join, summarize, rank-keywords, correlate, series,
nowcast, simulate. Reports are RFC-4180 CSV with LF line endings and a
``#``-prefixed header block echoing the full effective configuration;
statistics carry 6 significant digits. Exit codes: 0 success, 1 input error,
2 when the analysis produced only degenerate output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_KEYWORD_POOL,
    POOLED,
    damage_correlation_report,
    daily_correlation_series,
    nowcast,
    rank_keywords,
    region_rank_discrepancy,
)
from .geo import SpatialIndex, point_to_track_km, region_centroids, spatial_join
from .ingest import (
    _BLOCK_ROWS,
    MODELED_SOURCE,
    CountyStats,
    IngestError,
    MessageTable,
    ParseResult,
    RegionTable,
    load_feature_collection,
    parse_county_table,
    parse_keyed_table,
    parse_messages,
    parse_regions,
    parse_timestamp,
    parse_track,
)
from .metrics import (
    ActivitySummary,
    RegionCodes,
    SummaryGrid,
    TimeWindow,
    bin_offsets,
    bin_window,
    summarize_daily,
    summarize_regions,
)
from .simulate import DamageModel, KeywordProfile, RetweetModel, SimConfig, generate

DEFAULT_EPOCH = datetime(2012, 10, 30, tzinfo=timezone.utc)
DEFAULT_WINDOW = "2012-10-31..2012-11-12"
DEFAULT_SPAN = "2012-10-22..2012-11-11"
DEFAULT_MIN_LON = -90.0  # "east coast" city subset: centroids east of this longitude
DEFAULT_CELL_DEG = 0.25
DIAGNOSTICS_SHOWN = 5  # validate prints this many diagnostics per input

# The input files each analysis command reads, True for those it needs. They are the command's input
# options, and on correlate and nowcast a --county-table stands in for all of them.
COMMAND_INPUTS = {
    "join": {"messages": True, "regions": True},
    "summarize": {"messages": True, "regions": True, "population": False},
    "rank-keywords": {"messages": True, "regions": True, "track": True},
    "correlate": {"messages": True, "regions": True, "population": True, "damage": True},
    "series": {"messages": True, "regions": True, "population": True, "damage": True},
    "nowcast": {"messages": True, "regions": True, "population": True, "damage": False},
}

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_DEGENERATE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.6g}"


def _parse_date(text: str) -> datetime:
    return datetime.strptime(text, "%Y-%m-%d").replace(tzinfo=timezone.utc)


def _parse_window(text: str) -> TimeWindow:
    """``A..B`` with inclusive dates: [A 00:00Z, B 00:00Z + 24h)."""
    try:
        start_text, end_text = text.split("..", 1)
        start = _parse_date(start_text.strip())
        end = _parse_date(end_text.strip()) + timedelta(days=1)
    except (ValueError, OverflowError) as exc:  # the day after 9999-12-31 overflows
        raise IngestError(f"bad window {text!r} (expect YYYY-MM-DD..YYYY-MM-DD, ending before 9999-12-31)") from exc
    return TimeWindow(start=start, end=end)


def _series_bins(args: argparse.Namespace) -> tuple[datetime, timedelta, range]:
    """The epoch, width and indices of the bins of ``series``; a ValueError when an edge of
    one of them falls outside the datetime range."""
    epoch = parse_timestamp(args.epoch)
    span = _parse_window(args.span)
    try:
        width = timedelta(hours=args.bin_hours)
        first = bin_offsets([span.start], epoch, width)[0]
        last = bin_offsets([span.end - timedelta(microseconds=1)], epoch, width)[0]
        bin_window(epoch, width, first), bin_window(epoch, width, last)
    except OverflowError:
        raise ValueError(f"--bin-hours {args.bin_hours} puts a bin edge outside the datetime range") from None
    return epoch, width, range(first, last + 1)


def _parse_keywords(text: str | None) -> tuple[str, ...]:
    if not text:
        return DEFAULT_KEYWORD_POOL
    return tuple(sorted({t.strip().lower() for t in text.split(",") if t.strip()}))


def _echo_config(args: argparse.Namespace) -> dict[str, str]:
    echo = {"tool": f"damagenowcast {__version__}"}
    for key in sorted(vars(args).keys() - {"func"}):
        value = getattr(args, key)
        if value is None:
            text = ""
        elif isinstance(value, (tuple, list)):
            text = ",".join(str(v) for v in value)
        else:
            text = str(value)
        echo[key.replace("_", "-")] = text
    return echo


def _write_report(
    path: Path, echo: Mapping[str, str], columns: Sequence[str], rows: Iterable[Sequence]
) -> int:
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for key, value in echo.items():
            handle.write(f"# {key} = {value}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def _report(args: argparse.Namespace, name: str, columns: Sequence[str], rows: Iterable[Sequence],
            note: str | None = "") -> None:
    """Write report ``name`` into --out under the ``#`` header of the run's configuration, then print
    where it went and its row count followed by ``note``; with a note of None, print nothing."""
    path = Path(args.out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    n = _write_report(path, _echo_config(args), columns, rows)
    if note is not None:
        print(f"wrote {path} ({n} rows{note})")


def _load(args: argparse.Namespace, keywords: Iterable[str] | None = None,
          ) -> tuple[MessageTable, RegionTable, RegionCodes]:
    """The messages (with one of ``keywords``, if given), the regions, and the region of every message:
    one code per row into the sorted region ids, -1 for none."""
    messages = _records("messages", parse_messages(args.messages, keywords))
    regions = _records("regions", parse_regions(args.regions))
    index = SpatialIndex(regions, cell_deg=args.cell_deg)
    located = ~np.isnan(messages.lat)
    # the codes are made after the join, so they do not add to the peak of its temporaries
    joined = spatial_join(messages.lat[located], messages.lon[located], index)
    codes = np.full(len(messages), -1, dtype=np.int64)
    codes[located] = joined.codes
    return messages, regions, RegionCodes(codes, index.region_ids)


def _records(name: str, result: ParseResult):
    """The parsed records, after one stderr line when the input had rejected rows."""
    if result.rows_rejected:
        print(f"{name}: {result.rows_rejected} of {result.rows_total} rows rejected (run validate for details)",
              file=sys.stderr)
    return result.records


def _population(path: str) -> dict[str, int]:
    return _records("population", parse_keyed_table(path, "population"))


def _county_summaries(stats: Sequence[CountyStats]) -> SummaryGrid:
    """Whole-period summaries from a county counts table (all tweets counted original), as the
    one :data:`POOLED` column of a grid, kept when the table has no rows."""
    out = {}
    for s in stats:
        out[s.county, POOLED] = ActivitySummary(
            region_id=s.county,
            window=None,
            n_messages=s.tweets,
            n_original=s.tweets,
            n_retweets=0,
            n_popular=0,
            active_users_window=s.users,
            active_users_period=s.users,
            mean_sentiment=None,
            population=s.population,
        )
    return SummaryGrid.from_mapping(out, columns=(POOLED,))


def _load_damage(path: str) -> dict[str, dict[str, float]]:
    """Source -> region -> amount; the parser has already summed each (region, source)."""
    by_source: dict[str, dict[str, float]] = {}
    for (region_id, source), amount in _records("damage", parse_keyed_table(path, "damage")).items():
        by_source.setdefault(source, {})[region_id] = amount
    return by_source


def _ex_post_damage(by_source: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Per-region sum of every damage source except the modeled one."""
    damage: dict[str, float] = {}
    for source, totals in by_source.items():
        if source == MODELED_SOURCE:
            continue
        for region_id, amount in totals.items():
            damage[region_id] = damage.get(region_id, 0.0) + amount
    return damage


def _print_diagnostics(name: str, result) -> None:
    print(f"{name}: {len(result.records)} records, {result.rows_rejected} rejected", flush=True)
    for line in result.diagnostics[:DIAGNOSTICS_SHOWN]:
        print(f"  {line}")
    if len(result.diagnostics) > DIAGNOSTICS_SHOWN:
        print(f"  ... {len(result.diagnostics) - DIAGNOSTICS_SHOWN} more diagnostics")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    any_input = False
    for name, path, parser in (
        ("messages", args.messages, lambda p: parse_messages(p)),
        ("regions", args.regions, parse_regions),
        ("population", args.population, lambda p: parse_keyed_table(p, "population")),
        ("damage", args.damage, lambda p: parse_keyed_table(p, "damage")),
        ("track", args.track, parse_track),
        ("county-table", args.county_table, parse_county_table),
    ):
        if path is None:
            continue
        any_input = True
        _print_diagnostics(name, parser(path))
    if not any_input:
        print("validate: no inputs given", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


def _cmd_join(args: argparse.Namespace) -> int:
    messages, _, codes = _load(args)
    names = np.array([*codes.region_ids, ""], dtype=object)  # code -1 picks the trailing ""
    rows = (row for start in range(0, len(messages), _BLOCK_ROWS)  # as Python strings a block at a time
            for row in zip(messages.message_id[start:start + _BLOCK_ROWS].tolist(),
                           names[codes.codes[start:start + _BLOCK_ROWS]].tolist()))
    _report(args, "join.csv", ["message_id", "region_id"], rows)
    return EXIT_OK


def _cmd_summarize(args: argparse.Namespace) -> int:
    messages, regions, codes = _load(args, args.keywords)
    population = _population(args.population) if args.population else {}
    window = _parse_window(args.window) if args.window else None
    grid = summarize_regions(messages, codes, window, population=population,
                             region_ids=regions.region_id.tolist())
    present = np.flatnonzero(grid.present[:, 0])
    counts = ("n_messages", "n_original", "n_retweets", "n_popular", "active_users_window", "active_users_period")
    rows = [
        [region_id, w.start.isoformat() if w else "", w.end.isoformat() if w else "", *values, _fmt(mean),
         people or ""]
        for region_id, w, *values, mean, people in zip(
            [grid.region_ids[k] for k in present.tolist()], grid.windows[present, 0].tolist(),
            *(getattr(grid, name)[present, 0].tolist() for name in counts),
            grid.mean_sentiment[present, 0].tolist(), grid.population[present, 0].tolist(),
        )
    ]
    _report(
        args,
        "summaries.csv",
        [
            "region_id",
            "window_start",
            "window_end",
            "n_messages",
            "n_original",
            "n_retweets",
            "n_popular",
            "active_users_window",
            "active_users_period",
            "mean_sentiment",
            "population",
        ],
        rows,
    )
    return EXIT_OK


def _cmd_rank_keywords(args: argparse.Namespace) -> int:
    messages, regions, codes = _load(args)
    track = _records("track", parse_track(args.track))
    window = _parse_window(args.window) if args.window else None

    distances = {}
    for region_id, center in zip(regions.region_id.tolist(), region_centroids(regions)):
        if center.lon >= args.min_lon:
            distances[region_id] = point_to_track_km(center, track)

    grid = summarize_regions(messages, codes, window, scopes={tag: frozenset({tag}) for tag in messages.tags})
    ranking = rank_keywords(grid, distances)
    rows = [
        [i, entry.keyword, entry.n_cities, _fmt(entry.kendall.coefficient), _fmt(entry.kendall.p_value),
         _fmt(entry.spearman.coefficient), _fmt(entry.spearman.p_value), int(entry.kendall.degenerate)]
        for i, entry in enumerate(ranking, start=1)
    ]
    _report(
        args,
        "keywords.csv",
        ["rank", "keyword", "n_cities", "kendall", "kendall_p", "spearman", "spearman_p", "degenerate"],
        rows,
    )
    if not distances:
        print(f"rank-keywords: no region centroid at or east of --min-lon {args.min_lon}", file=sys.stderr)
        return EXIT_DEGENERATE
    if all(entry.kendall.degenerate for entry in ranking):
        print("rank-keywords: all keywords degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_correlate(args: argparse.Namespace) -> int:
    if args.county_table:
        stats = _records("county table", parse_county_table(args.county_table))
        grid = _county_summaries(stats)
        damage_by_source = {
            "ex_post": {s.county: s.expost_damage_usd for s in stats},
            "hazus": {s.county: s.hazus_damage_usd for s in stats},
        }
    else:
        window = _parse_window(args.window)
        messages, regions, codes = _load(args)
        population = _population(args.population)
        damage_by_source = _load_damage(args.damage)
        scopes = {POOLED: frozenset(args.keywords) or None}
        for keyword in args.keywords:
            scopes[keyword] = frozenset({keyword})
        grid = summarize_regions(
            messages, codes, window, population=population,
            region_ids=regions.region_id.tolist(), scopes=scopes,
        )
        del messages, regions, codes  # as in series, and before --overlay decodes the regions again

    cells = damage_correlation_report(
        grid, damage_by_source, original_only=args.original_only, include_sentiment=not args.county_table,
    )

    rows = []
    for cell in cells:
        rows.append(
            [
                cell.variable,
                cell.keyword,
                cell.damage_source,
                cell.normalization,
                cell.result.transform,
                cell.result.method,
                cell.result.n,
                _fmt(cell.result.coefficient),
                _fmt(cell.result.p_value),
                cell.result.excluded,
            ]
        )
    _report(
        args,
        "correlations.csv",
        [
            "scope",
            "keyword",
            "damage_source",
            "normalization",
            "transform",
            "method",
            "n",
            "coefficient",
            "p_value",
            "excluded",
        ],
        rows,
    )

    if args.overlay:
        damage = _ex_post_damage(damage_by_source)
        _write_overlay(args.overlay, args.regions, grid, damage)

    activity_cells = [c for c in cells if c.variable == "activity"]
    if activity_cells and all(c.result.degenerate for c in activity_cells):
        print("correlate: all activity cells degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _write_overlay(path: str, regions_path: str, grid: SummaryGrid, damage: Mapping[str, float]) -> None:
    """Re-emit the input region features, decoded again from ``regions_path``, annotated
    with the metrics of the grid's :data:`POOLED` column.

    Without ex-post damage rows, ``damage_pc`` and ``rank_discrepancy`` are null.
    """
    if not damage:
        print(f"correlate: no ex-post damage rows (every source except {MODELED_SOURCE}); "
              "overlay damage_pc and rank_discrepancy are null", file=sys.stderr)
    j = grid.positions[1][POOLED]
    rows = np.flatnonzero(grid.present[:, j] & (grid.population[:, j] > 0) & (grid.n_messages[:, j] >= 1))
    regions = [grid.region_ids[k] for k in rows.tolist()]
    people = grid.population[rows, j]
    activity_pc = dict(zip(regions, (grid.n_messages[rows, j] / people).tolist()))
    damage_pc: dict[str, float] = {}
    if damage:
        amounts = np.array([damage.get(region_id, 0.0) for region_id in regions], dtype=float)
        damage_pc = dict(zip(regions, (amounts / people).tolist()))
    discrepancy = region_rank_discrepancy(activity_pc, damage_pc)

    collection = load_feature_collection(regions_path)
    features = collection.get("features", [])
    for feature in features:
        if not isinstance(feature, dict):
            continue  # parse_regions rejected it; it is copied through as it was
        if not isinstance(feature.get("properties"), dict):
            feature["properties"] = {}
        props = feature["properties"]
        region_id = str(props.get("region_id", ""))
        props["activity_pc"] = activity_pc.get(region_id)
        props["damage_pc"] = damage_pc.get(region_id)
        props["rank_discrepancy"] = discrepancy.get(region_id)
    Path(path).write_text(
        json.dumps(collection, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )
    print(f"wrote {path} ({len(features)} features)")


def _cmd_series(args: argparse.Namespace) -> int:
    messages, _, codes = _load(args, args.keywords)
    population = _population(args.population)
    damage = _ex_post_damage(_load_damage(args.damage))
    if not damage:
        raise IngestError(f"damage: no ex-post rows (every source except {MODELED_SOURCE})")

    epoch, width, bins = _series_bins(args)
    daily = summarize_daily(messages, codes, epoch, width, bins, population=population)
    # the table is done with: held on, the statistics' allocations (scipy's import among them) stack on top of it
    del messages, codes
    series = daily_correlation_series(daily, damage, bins, epoch, width, normalization=args.normalization)

    rows = []
    for entry in series:
        for label, result in (
            ("kendall", entry.activity_damage_kendall),
            ("spearman", entry.activity_damage_spearman),
            ("sentiment_kendall", entry.sentiment_damage_kendall),
        ):
            rows.append(
                [
                    entry.bin_start.isoformat(),
                    entry.active_regions,
                    entry.n_messages,
                    label,
                    _fmt(result.coefficient),
                    _fmt(result.p_value),
                ]
            )
    _report(args, "series.csv", ["bin_start", "active_regions", "messages", "method", "coefficient", "p_value"], rows)
    if all(e.activity_damage_kendall.degenerate for e in series):
        print("series: every bin degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_nowcast(args: argparse.Namespace) -> int:
    damage = None
    if args.county_table:
        grid = _county_summaries(_records("county table", parse_county_table(args.county_table)))
    else:
        window = _parse_window(args.window)
        messages, regions, codes = _load(args, args.keywords)
        population = _population(args.population)
        grid = summarize_regions(messages, codes, window, population=population,
                                 region_ids=regions.region_id.tolist())
        if args.damage:
            damage = _ex_post_damage(_load_damage(args.damage))
            if not damage:
                print(f"nowcast: no ex-post damage rows (every source except {MODELED_SOURCE}); "
                      "damage_rank is empty", file=sys.stderr)

    report = nowcast(grid, original_only=args.original_only, damage_usd=damage or None)

    columns = ["rank", "region_id", "per_capita_activity", "n_original", "population"]
    rows = [
        [e.rank, e.region_id, _fmt(e.per_capita_activity), e.n_original, e.population]
        for e in report.entries
    ]
    if damage is not None:  # where each region falls in the per-capita damage order, 1 hardest hit
        columns.append("damage_rank")
        for row, e in zip(rows, report.entries):
            row.append(e.damage_rank)
    _report(args, "nowcast.csv", columns, rows, note=f"; {len(report.excluded)} excluded")
    _report(args, "nowcast_excluded.csv", ["region_id", "reason"], report.excluded, note=None)
    if not report.entries:
        print("nowcast: no active regions", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimConfig(
        seed=args.seed,
        n_regions=args.regions,
        keywords=((args.keyword, KeywordProfile(
            base_rate=args.base_rate,
            event_amplitude=args.amplitude,
            post_event_persistence=args.persistence,
        )),),
        media_burst=args.media_burst,
        retweet=RetweetModel(),
        damage=DamageModel(coupling=args.coupling, noise_sigma=args.sigma),
    )
    bundle = generate(config, args.out)
    print(
        f"wrote bundle to {bundle.out_dir} "
        f"({bundle.n_regions} regions, {bundle.n_messages} messages)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _analysis_parser(sub, command: str, func, help: str, county_table: bool = False) -> _Parser:
    """The subparser of an analysis command: an option for each of its :data:`COMMAND_INPUTS`, the
    spatial index cell size (``None`` until :func:`_check_inputs`), the output directory and, where a
    ``county_table`` can stand in for the inputs, that table and the options it refuses."""
    p = sub.add_parser(command, help=help)
    for name in COMMAND_INPUTS[command]:
        p.add_argument(f"--{name}", help=f"{name}.{'geojson' if name == 'regions' else 'csv'} path")
    p.add_argument("--cell-deg", type=float, help="spatial index cell size, degrees")
    p.add_argument("--out", default=".", help="output directory")
    if county_table:
        p.add_argument("--county-table", help="use a county counts table instead of raw inputs")
        p.add_argument("--window", help=f"default {DEFAULT_WINDOW}; not with --county-table")
        p.add_argument("--keywords", type=_parse_keywords, help="default: the keyword pool; not with --county-table")
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="damagenowcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"damagenowcast {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("validate", help="parse inputs and report diagnostics")
    for name in ("messages", "regions", "population", "damage", "track", "county-table"):
        p.add_argument(f"--{name}")
    p.set_defaults(func=_cmd_validate)

    _analysis_parser(sub, "join", _cmd_join, "assign messages to regions")

    p = _analysis_parser(sub, "summarize", _cmd_summarize, "per-region activity summaries")
    p.add_argument("--window", help="YYYY-MM-DD..YYYY-MM-DD (inclusive); default whole corpus")
    p.add_argument("--keywords", type=_parse_keywords, default=None,
                   help="comma-separated tag filter; default: no filter")

    p = _analysis_parser(sub, "rank-keywords", _cmd_rank_keywords, "rank keywords by activity-distance correlation")
    p.add_argument("--window", help="restrict to a window (default whole corpus)")
    p.add_argument("--min-lon", type=float, default=DEFAULT_MIN_LON,
                   help="keep cities with centroid east of this longitude")

    p = _analysis_parser(sub, "correlate", _cmd_correlate, "activity-damage correlation report", county_table=True)
    p.add_argument("--original-only", action="store_true",
                   help="count original messages only on the activity side")
    p.add_argument("--overlay", help="also write a region overlay GeoJSON to this path")

    p = _analysis_parser(sub, "series", _cmd_series, "daily correlation series")
    p.add_argument("--epoch", default=DEFAULT_EPOCH.isoformat())
    p.add_argument("--bin-hours", type=int, default=24)
    p.add_argument("--span", default=DEFAULT_SPAN)
    p.add_argument("--keywords", type=_parse_keywords, default=DEFAULT_KEYWORD_POOL)
    p.add_argument("--normalization", choices=("per_capita", "per_period_user"),
                   default="per_capita")

    p = _analysis_parser(sub, "nowcast", _cmd_nowcast, "rank regions by post-event per-capita activity",
                         county_table=True)
    p.add_argument("--original-only", action=argparse.BooleanOptionalAction, default=True,
                   help="rank by original messages (default) or all messages")

    p = sub.add_parser("simulate", help="generate a synthetic input bundle")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--regions", type=int, default=100)
    p.add_argument("--keyword", default="storm")
    p.add_argument("--base-rate", type=float, default=0.0005)
    p.add_argument("--amplitude", type=float, default=0.01)
    p.add_argument("--persistence", type=float, default=0.7)
    p.add_argument("--media-burst", type=float, default=0.0)
    p.add_argument("--coupling", type=float, default=1000.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.set_defaults(func=_cmd_simulate)

    return parser


def _check_simulate(args: argparse.Namespace, parser: _Parser) -> None:
    """Refuse option values the generator cannot draw from, before it writes anything."""
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.regions < 1:
        parser.error("--regions must be at least 1")
    if not args.keyword.strip() or ";" in args.keyword or not args.keyword.isprintable():
        parser.error("--keyword must be one tag: not blank, without ';' or control characters")
    for name in ("base_rate", "amplitude", "persistence", "media_burst", "coupling", "sigma"):
        value = getattr(args, name)
        if not (math.isfinite(value) and value >= 0.0):
            parser.error(f"--{name.replace('_', '-')} must be finite and non-negative, got {value!r}")


def _check_inputs(args: argparse.Namespace, parser: _Parser) -> None:
    """Refuse an analysis run without each input its command needs, unless a --county-table stands in
    for them all. A county table holds no messages, so with one the inputs, --cell-deg, --window and
    --keywords cannot apply: given, they are a usage error, and otherwise they are left out of the
    report header. Without a county table, --cell-deg, --window and --keywords take their defaults, and
    --cell-deg must be > 0."""
    inputs = COMMAND_INPUTS[args.command]
    if getattr(args, "county_table", None):
        message_side = [*inputs, "cell_deg", "window", "keywords"]
        given = [f"--{name.replace('_', '-')}" for name in message_side if getattr(args, name) is not None]
        if given:
            parser.error(f"{' and '.join(given)} cannot apply to a --county-table, which holds no messages")
        for name in message_side:
            delattr(args, name)
        return
    missing = [f"--{name}" for name, needed in inputs.items() if needed and not getattr(args, name)]
    if missing:
        parser.error(f"missing required option(s): {', '.join(missing)}")
    if args.cell_deg is None:
        args.cell_deg = DEFAULT_CELL_DEG
    if not args.cell_deg > 0:
        parser.error(f"--cell-deg must be > 0, got {args.cell_deg!r}")
    if "county_table" in args:  # correlate and nowcast
        if args.window is None:
            args.window = DEFAULT_WINDOW
        if args.keywords is None:
            args.keywords = DEFAULT_KEYWORD_POOL


def _check_times(args: argparse.Namespace, parser: _Parser) -> None:
    """Refuse a window, span, epoch or bin width that puts a time outside the datetime range,
    before any input is read."""
    try:
        for name in ("window", "span"):
            if getattr(args, name, None):
                _parse_window(getattr(args, name))
        if args.command == "series":
            _series_bins(args)
    except ValueError as exc:
        parser.error(str(exc))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_INPUT_ERROR
        if args.command == "simulate":
            _check_simulate(args, parser)
        if args.command == "correlate" and args.county_table and args.overlay:
            parser.error("--overlay needs region geometry, which a --county-table does not have")
        if args.command == "rank-keywords" and math.isnan(args.min_lon):
            parser.error("--min-lon must not be NaN")
        if args.command in COMMAND_INPUTS:
            _check_inputs(args, parser)
        _check_times(args, parser)
    except SystemExit as exc:
        # our error() raises 1; argparse raises 0 for --help/--version
        return int(exc.code or 0)

    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # IngestError is a ValueError; bad option values (epoch, window) land here too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
