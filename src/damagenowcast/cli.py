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
    MODELED_SOURCE,
    CountyStats,
    IngestError,
    MessageTable,
    ParseResult,
    RegionTable,
    parse_county_table,
    parse_keyed_table,
    parse_messages,
    parse_regions,
    parse_timestamp,
    parse_track,
)
from .metrics import (
    ActivitySummary,
    GridColumn,
    RegionCodes,
    TimeWindow,
    bin_offsets,
    summarize_daily,
    summarize_regions,
)
from .simulate import DamageModel, KeywordProfile, RetweetModel, SimConfig, generate

DEFAULT_EPOCH = datetime(2012, 10, 30, tzinfo=timezone.utc)
DEFAULT_WINDOW = "2012-10-31..2012-11-12"
DEFAULT_SPAN = "2012-10-22..2012-11-11"
DEFAULT_MIN_LON = -90.0  # "east coast" city subset: centroids east of this longitude
DIAGNOSTICS_SHOWN = 5  # validate prints this many diagnostics per input

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
    except ValueError as exc:
        raise IngestError(f"bad window {text!r} (expect YYYY-MM-DD..YYYY-MM-DD)") from exc
    return TimeWindow(start=start, end=end)


def _parse_keywords(text: str | None) -> tuple[str, ...]:
    if not text:
        return DEFAULT_KEYWORD_POOL
    return tuple(sorted({t.strip().lower() for t in text.split(",") if t.strip()}))


def _echo_config(args: argparse.Namespace) -> dict[str, str]:
    echo = {"tool": f"damagenowcast {__version__}"}
    for key in sorted(vars(args)):
        if key in ("func",):
            continue
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


def _assignments(messages: MessageTable, regions: RegionTable, cell_deg: float) -> RegionCodes:
    """The region of every message: one code per row into the sorted region ids, -1 for none."""
    index = SpatialIndex(regions, cell_deg=cell_deg)
    joined = spatial_join(messages, regions, index)  # codes of the located rows, in row order
    codes = np.full(len(messages), -1, dtype=np.int64)
    codes[~np.isnan(messages.lat)] = joined.codes
    return RegionCodes(codes, index.region_ids)


def _records(name: str, result: ParseResult):
    """The parsed records, after one stderr line when the input had rejected rows."""
    if result.rows_rejected:
        print(f"{name}: {result.rows_rejected} of {result.rows_total} rows rejected (run validate for details)",
              file=sys.stderr)
    return result.records


def _population(path: str) -> dict[str, int]:
    return {e.region_id: e.population for e in _records("population", parse_keyed_table(path, "population"))}


def _county_summaries(stats: Sequence[CountyStats]) -> dict[str, ActivitySummary]:
    """Whole-period summaries from a county counts table (all tweets counted original)."""
    out = {}
    for s in stats:
        out[s.county] = ActivitySummary(
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
    return out


def _load_damage(path: str) -> dict[str, dict[str, float]]:
    """Source -> region -> amount; the parser has already summed each (region, source)."""
    by_source: dict[str, dict[str, float]] = {}
    for record in _records("damage", parse_keyed_table(path, "damage")):
        by_source.setdefault(record.source, {})[record.region_id] = record.amount_usd
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
    messages = _records("messages", parse_messages(args.messages))
    regions = _records("regions", parse_regions(args.regions))
    assignments = _assignments(messages, regions, args.cell_deg)
    out = Path(args.out) / "join.csv"
    names = np.array([*assignments.region_ids, ""], dtype=object)  # code -1 picks the trailing ""
    rows = zip(messages.message_id.tolist(), names[assignments.codes].tolist())
    n = _write_report(out, _echo_config(args), ["message_id", "region_id"], rows)
    print(f"wrote {out} ({n} rows)")
    return EXIT_OK


def _cmd_summarize(args: argparse.Namespace) -> int:
    messages = _records("messages", parse_messages(args.messages, args.keywords))
    regions = _records("regions", parse_regions(args.regions))
    population = _population(args.population) if args.population else {}
    assignments = _assignments(messages, regions, args.cell_deg)
    window = _parse_window(args.window) if args.window else None
    summaries = summarize_regions(
        messages,
        assignments,
        window,
        population=population or None,
        region_ids=regions.region_id.tolist(),
    )
    grid, j = summaries.grid, summaries.column
    present = np.flatnonzero(grid.present[:, j])
    counts = ("n_messages", "n_original", "n_retweets", "n_popular", "active_users_window", "active_users_period")
    rows = [
        [region_id, w.start.isoformat() if w else "", w.end.isoformat() if w else "", *values, _fmt(mean),
         "" if math.isnan(people) else int(people)]
        for region_id, w, *values, mean, people in zip(
            [grid.region_ids[k] for k in present.tolist()], grid.windows[present, j].tolist(),
            *(getattr(grid, name)[present, j].tolist() for name in counts),
            grid.mean_sentiment[present, j].tolist(), grid.population[present, j].tolist(),
        )
    ]
    out = Path(args.out) / "summaries.csv"
    n = _write_report(
        out,
        _echo_config(args),
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
    print(f"wrote {out} ({n} rows)")
    return EXIT_OK


def _cmd_rank_keywords(args: argparse.Namespace) -> int:
    messages = _records("messages", parse_messages(args.messages))
    regions = _records("regions", parse_regions(args.regions))
    track = _records("track", parse_track(args.track))
    assignments = _assignments(messages, regions, args.cell_deg)
    window = _parse_window(args.window) if args.window else None

    distances = {}
    for region_id, center in zip(regions.region_id.tolist(), region_centroids(regions)):
        if center.lon >= args.min_lon:
            distances[region_id] = point_to_track_km(center, track)

    per_keyword = summarize_regions(
        messages, assignments, window, scopes={tag: frozenset({tag}) for tag in messages.tags}
    )
    # every column is a view of one region x keyword grid; no tags, no grid
    grid = next(iter(per_keyword.values())).grid if per_keyword else {}
    ranking = rank_keywords(grid, distances, city_subset=distances)
    rows = []
    for i, entry in enumerate(ranking.entries, start=1):
        rows.append(
            [
                i,
                entry.keyword,
                entry.n_cities,
                _fmt(entry.kendall.coefficient),
                _fmt(entry.kendall.p_value),
                _fmt(entry.spearman.coefficient),
                _fmt(entry.spearman.p_value),
                int(entry.degenerate),
            ]
        )
    out = Path(args.out) / "keywords.csv"
    n = _write_report(
        out,
        _echo_config(args),
        ["rank", "keyword", "n_cities", "kendall", "kendall_p", "spearman", "spearman_p", "degenerate"],
        rows,
    )
    print(f"wrote {out} ({n} rows)")
    if all(entry.degenerate for entry in ranking.entries):
        print("rank-keywords: all keywords degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_correlate(args: argparse.Namespace) -> int:
    if args.county_table:
        stats = _records("county table", parse_county_table(args.county_table))
        scope_summaries = {POOLED: _county_summaries(stats)}
        population = {s.county: s.population for s in stats}
        damage_by_source = {
            "ex_post": {s.county: s.expost_damage_usd for s in stats},
            "hazus": {s.county: s.hazus_damage_usd for s in stats},
        }
        include_sentiment = False
    else:
        window = _parse_window(args.window)
        messages = _records("messages", parse_messages(args.messages))
        parsed = parse_regions(args.regions)
        regions = _records("regions", parsed)
        collection = parsed.document if args.overlay else None
        del parsed  # without --overlay, the decoded document is not kept
        population = _population(args.population)
        damage_by_source = _load_damage(args.damage)
        assignments = _assignments(messages, regions, args.cell_deg)
        scopes = {POOLED: frozenset(args.keywords) or None}
        for keyword in args.keywords:
            scopes[keyword] = frozenset({keyword})
        scope_summaries = summarize_regions(
            messages, assignments, window, population=population,
            region_ids=regions.region_id.tolist(), scopes=scopes,
        )
        include_sentiment = True

    report = damage_correlation_report(
        scope_summaries,
        damage_by_source,
        population,
        original_only=args.original_only,
        include_sentiment=include_sentiment,
    )

    rows = []
    for cell in report.cells:
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
    out = Path(args.out) / "correlations.csv"
    n = _write_report(
        out,
        _echo_config(args),
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
    print(f"wrote {out} ({n} rows)")

    if args.overlay:
        damage = _ex_post_damage(damage_by_source)
        _write_overlay(args.overlay, collection, scope_summaries[POOLED], damage, population)

    activity_cells = [c for c in report.cells if c.variable == "activity"]
    if activity_cells and all(c.result.degenerate for c in activity_cells):
        print("correlate: all activity cells degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _write_overlay(
    path: str,
    collection: dict,
    pooled: GridColumn,
    damage: Mapping[str, float],
    population: Mapping[str, int],
) -> None:
    """Re-emit the input region features annotated with the computed metrics.

    Without ex-post damage rows, ``damage_pc`` and ``rank_discrepancy`` are null.
    """
    if not damage:
        print(f"correlate: no ex-post damage rows (every source except {MODELED_SOURCE}); "
              "overlay damage_pc and rank_discrepancy are null", file=sys.stderr)
    grid, j = pooled.grid, pooled.column
    known = np.array([region_id in population for region_id in grid.region_ids], dtype=bool)
    rows = np.flatnonzero(grid.present[:, j] & known & (grid.n_messages[:, j] >= 1))
    regions = [grid.region_ids[k] for k in rows.tolist()]
    people = np.array([population[region_id] for region_id in regions], dtype=float)
    activity_pc = dict(zip(regions, (grid.n_messages[rows, j] / people).tolist()))
    damage_pc: dict[str, float] = {}
    if damage:
        amounts = np.array([damage.get(region_id, 0.0) for region_id in regions], dtype=float)
        damage_pc = dict(zip(regions, (amounts / people).tolist()))
    discrepancy = region_rank_discrepancy(activity_pc, damage_pc)

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
    messages = _records("messages", parse_messages(args.messages, args.keywords))
    regions = _records("regions", parse_regions(args.regions))
    population = _population(args.population)
    damage = _ex_post_damage(_load_damage(args.damage))
    if not damage:
        raise IngestError(f"damage: no ex-post rows (every source except {MODELED_SOURCE})")

    epoch = parse_timestamp(args.epoch)
    width = timedelta(hours=args.bin_hours)
    span = _parse_window(args.span)
    first = bin_offsets([span.start], epoch, width)[0]
    last = bin_offsets([span.end - timedelta(microseconds=1)], epoch, width)[0]
    bins = range(first, last + 1)

    assignments = _assignments(messages, regions, args.cell_deg)
    daily = summarize_daily(
        messages,
        assignments,
        epoch,
        width,
        bins,
        population=population,
    )
    series = daily_correlation_series(
        daily, damage, population, bins, normalization=args.normalization, epoch=epoch, width=width
    )

    rows = []
    for entry in series.entries:
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
    out = Path(args.out) / "series.csv"
    n = _write_report(
        out,
        _echo_config(args),
        ["bin_start", "active_regions", "messages", "method", "coefficient", "p_value"],
        rows,
    )
    print(f"wrote {out} ({n} rows)")
    if all(e.activity_damage_kendall.degenerate for e in series.entries):
        print("series: every bin degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_nowcast(args: argparse.Namespace) -> int:
    if args.county_table:
        stats = _records("county table", parse_county_table(args.county_table))
        summaries = _county_summaries(stats)
        damage = None
    else:
        window = _parse_window(args.window)
        messages = _records("messages", parse_messages(args.messages, args.keywords))
        regions = _records("regions", parse_regions(args.regions))
        population = _population(args.population)
        assignments = _assignments(messages, regions, args.cell_deg)
        summaries = summarize_regions(
            messages,
            assignments,
            window,
            population=population,
            region_ids=regions.region_id.tolist(),
        )
        damage = None
        if args.damage:
            damage = _ex_post_damage(_load_damage(args.damage))
            if not damage:
                print(f"nowcast: no ex-post damage rows (every source except {MODELED_SOURCE}); "
                      "damage_rank is empty", file=sys.stderr)

    report = nowcast(summaries, original_only=args.original_only, damage_usd=damage or None)

    out = Path(args.out) / "nowcast.csv"
    columns = ["rank", "region_id", "per_capita_activity", "n_original", "population"]
    rows = [
        [e.rank, e.region_id, _fmt(e.per_capita_activity), e.n_original, e.population]
        for e in report.entries
    ]
    if damage is not None:  # where each region falls in the per-capita damage order, 1 hardest hit
        columns.append("damage_rank")
        for row, e in zip(rows, report.entries):
            row.append(e.damage_rank)
    n = _write_report(out, _echo_config(args), columns, rows)
    excluded_path = Path(args.out) / "nowcast_excluded.csv"
    _write_report(
        excluded_path, _echo_config(args), ["region_id", "reason"], list(report.excluded)
    )
    print(f"wrote {out} ({n} rows; {len(report.excluded)} excluded)")
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


def _add_common_io(p: _Parser, *, track: bool = False, damage: bool = True) -> None:
    p.add_argument("--messages", help="messages.csv path")
    p.add_argument("--regions", help="regions.geojson path")
    p.add_argument("--population", help="population.csv path")
    if damage:
        p.add_argument("--damage", help="damage.csv path")
    if track:
        p.add_argument("--track", help="track.csv path")
    p.add_argument("--cell-deg", type=float, default=0.25, help="spatial index cell size, degrees")
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="damagenowcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"damagenowcast {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("validate", help="parse inputs and report diagnostics")
    p.add_argument("--messages")
    p.add_argument("--regions")
    p.add_argument("--population")
    p.add_argument("--damage")
    p.add_argument("--track")
    p.add_argument("--county-table")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("join", help="assign messages to regions")
    _add_common_io(p, damage=False)
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("summarize", help="per-region activity summaries")
    _add_common_io(p, damage=False)
    p.add_argument("--window", help="YYYY-MM-DD..YYYY-MM-DD (inclusive); default whole corpus")
    p.add_argument("--keywords", type=_parse_keywords, default=None,
                   help="comma-separated tag filter; default: no filter")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("rank-keywords", help="rank keywords by activity-distance correlation")
    _add_common_io(p, track=True, damage=False)
    p.add_argument("--window", help="restrict to a window (default whole corpus)")
    p.add_argument("--min-lon", type=float, default=DEFAULT_MIN_LON,
                   help="keep cities with centroid east of this longitude")
    p.set_defaults(func=_cmd_rank_keywords)

    p = sub.add_parser("correlate", help="activity-damage correlation report")
    _add_common_io(p)
    p.add_argument("--county-table", help="use a county counts table instead of raw inputs")
    p.add_argument("--window", help=f"default {DEFAULT_WINDOW}; not with --county-table")
    p.add_argument("--keywords", type=_parse_keywords, help="default: the keyword pool; not with --county-table")
    p.add_argument("--original-only", action="store_true",
                   help="count original messages only on the activity side")
    p.add_argument("--overlay", help="also write a region overlay GeoJSON to this path")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("series", help="daily correlation series")
    _add_common_io(p)
    p.add_argument("--epoch", default=DEFAULT_EPOCH.isoformat())
    p.add_argument("--bin-hours", type=int, default=24)
    p.add_argument("--span", default=DEFAULT_SPAN)
    p.add_argument("--keywords", type=_parse_keywords, default=DEFAULT_KEYWORD_POOL)
    p.add_argument("--normalization", choices=("per_capita", "per_period_user"),
                   default="per_capita")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("nowcast", help="rank regions by post-event per-capita activity")
    _add_common_io(p)
    p.add_argument("--county-table", help="use a county counts table instead of raw inputs")
    p.add_argument("--window", help=f"default {DEFAULT_WINDOW}; not with --county-table")
    p.add_argument("--keywords", type=_parse_keywords, help="default: the keyword pool; not with --county-table")
    p.add_argument("--original-only", action=argparse.BooleanOptionalAction, default=True,
                   help="rank by original messages (default) or all messages")
    p.set_defaults(func=_cmd_nowcast)

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


def _check_county_table(args: argparse.Namespace, parser: _Parser) -> None:
    """A county table holds no messages, so --window and --keywords cannot apply to it: given,
    they are a usage error, and otherwise they are left out of the report header. Without a
    county table, they take their defaults."""
    if args.county_table:
        given = [f"--{name}" for name in ("window", "keywords") if getattr(args, name) is not None]
        if given:
            parser.error(f"{' and '.join(given)} cannot apply to a --county-table, which holds no messages")
        del args.window, args.keywords
        return
    if args.window is None:
        args.window = DEFAULT_WINDOW
    if args.keywords is None:
        args.keywords = DEFAULT_KEYWORD_POOL


def _require(args: argparse.Namespace, parser: _Parser, names: Sequence[str]) -> None:
    if getattr(args, "county_table", None):
        return
    missing = [n for n in names if not getattr(args, n, None)]
    if missing:
        parser.error(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    required = {
        "join": ("messages", "regions"),
        "summarize": ("messages", "regions"),
        "rank-keywords": ("messages", "regions", "track"),
        "correlate": ("messages", "regions", "population", "damage"),
        "series": ("messages", "regions", "population", "damage"),
        "nowcast": ("messages", "regions", "population"),
    }
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_INPUT_ERROR
        if args.command in required:
            _require(args, parser, required[args.command])
        if args.command == "simulate":
            _check_simulate(args, parser)
        if args.command == "correlate" and args.county_table and args.overlay:
            parser.error("--overlay needs region geometry, which a --county-table does not have")
        if args.command in ("correlate", "nowcast"):
            _check_county_table(args, parser)
    except SystemExit as exc:
        # our error() raises 1; argparse raises 0 for --help/--version
        return int(exc.code or 0)

    try:
        out_dir = getattr(args, "out", None)
        if out_dir is not None and args.command != "simulate":
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # IngestError is a ValueError; bad option values (epoch, window) land here too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
