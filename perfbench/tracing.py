"""Spans around the program's layer boundaries, recorded from outside it.

``Tracer.install`` replaces the public functions each layer hands to the next
(the names ``cli`` imported into its namespace, the ``stats`` functions
``analysis`` imported, and the ones ``simulate`` uses) with wrappers that
record a span: name, start, end and parent. Nothing inside the program
changes, and ``uninstall`` puts the originals back. Spans stay in memory until
the run ends. A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# Span name -> per-layer metric that sums the spans' full durations.
DURATION_METRICS = {
    "ingest.parse_messages": "ingest.parse_messages_s",
    "ingest.parse_regions": "ingest.parse_regions_s",
    "ingest.parse_tables": "ingest.parse_tables_s",
    "ingest.write_messages": "ingest.write_messages_s",
    "geo.index_build": "geo.index_build_s",
    "geo.spatial_join": "geo.spatial_join_s",
    "geo.track_distance": "geo.track_distance_s",
    "metrics.summarize": "metrics.summarize_s",
    "metrics.summarize_daily": "metrics.summarize_daily_s",
    "stats.correlate": "stats.correlate_s",
    "stats.kendall": "stats.kendall_s",
}
# Span name -> per-layer metric that sums the spans' self times.
SELF_METRICS = {
    "analysis.report": "analysis.report_self_s",
    "analysis.series": "analysis.series_self_s",
    "analysis.rank_keywords": "analysis.rank_keywords_self_s",
    "analysis.nowcast": "analysis.nowcast_self_s",
    "simulate.generate": "simulate.generate_self_s",
    "cli": "cli.self_s",
}
COUNT_METRICS = (
    "ingest.parse_messages_rows",
    "ingest.rows_rejected",
    "geo.points_joined",
    "geo.points_unassigned",
    "metrics.summarize_calls",
    "metrics.messages_scanned",
    "stats.correlate_calls",
    "stats.max_n",
    "simulate.messages_written",
    "cli.report_rows",
)
_READ = {"ingest.parse_messages", "ingest.parse_regions", "geo.index_build", "geo.spatial_join"}
# Command -> the layer spans each of its traced runs must contain.
EXPECTED_SPANS = {
    "simulate": {"simulate.generate", "ingest.write_messages", "geo.track_distance"},
    "join": _READ,
    "correlate": _READ | {"ingest.parse_tables", "metrics.summarize", "analysis.report", "analysis.rank_discrepancy",
                          "stats.correlate", "stats.kendall", "stats.rank_discrepancy"},
    "series": _READ | {"ingest.parse_tables", "metrics.summarize_daily", "analysis.series", "stats.correlate",
                       "stats.kendall"},
    "nowcast": _READ | {"ingest.parse_tables", "metrics.summarize", "analysis.nowcast"},
    "rank-keywords": _READ | {"ingest.parse_tables", "geo.track_distance", "metrics.summarize", "analysis.rank_keywords",
                              "stats.correlate", "stats.kendall"},
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed.

    With ``track_memory`` it also runs tracemalloc around the outermost stats
    call, outside its span. tracemalloc slows every allocation in the stats
    layer's Python loops, so a pass that tracks memory is not one to time.
    """

    def __init__(self, track_memory: bool = False) -> None:
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.peak_alloc_bytes = 0
        self.command = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(Span(name, parent))
        if parent is not None:
            self.spans[parent].children.append(sid)
        self._stack.append(sid)
        return sid

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid].start, self.spans[sid].end = start, end

    def _wrap(self, fn, name: str, before=None, after=None, memory: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            track = memory and self.track_memory and not tracemalloc.is_tracing()
            if track:
                tracemalloc.start()
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                if track:
                    self.peak_alloc_bytes = max(self.peak_alloc_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch(self, module, attr: str, name: str, **hooks) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name, **hooks))

    def install(self) -> None:
        from damagenowcast import analysis, cli, simulate, stats

        counts = self.counts

        def rows(result) -> None:
            counts["ingest.parse_messages_rows"] += result.rows_total
            counts["ingest.rows_rejected"] += result.rows_rejected

        def rejected(result) -> None:
            counts["ingest.rows_rejected"] += result.rows_rejected

        def joined(result) -> None:
            if self.command == "join":
                counts["geo.points_joined"] += sum(r is not None for r in result.values())
                counts["geo.points_unassigned"] += sum(r is None for r in result.values())

        def scanned(args, kwargs) -> None:
            counts["metrics.summarize_calls"] += 1
            counts["metrics.messages_scanned"] += len(args[0] if args else kwargs["messages"])

        def correlate_call(args, kwargs) -> None:
            counts["stats.correlate_calls"] += 1
            counts["stats.max_n"] = max(counts["stats.max_n"], len(args[0] if args else kwargs["x"]))

        def written(result) -> None:
            counts["simulate.messages_written"] += result.n_messages

        def report_rows(result) -> None:
            counts["cli.report_rows"] += result

        self._patch(cli, "parse_messages", "ingest.parse_messages", after=rows)
        self._patch(cli, "parse_regions", "ingest.parse_regions", after=rejected)
        self._patch(cli, "parse_keyed_table", "ingest.parse_tables", after=rejected)
        self._patch(cli, "parse_track", "ingest.parse_tables", after=rejected)
        self._patch(cli, "spatial_join", "geo.spatial_join", after=joined)
        self._patch(cli, "point_to_track_km", "geo.track_distance")
        self._patch(cli, "summarize_regions", "metrics.summarize", before=scanned)
        self._patch(cli, "summarize_daily", "metrics.summarize_daily", before=scanned)
        self._patch(cli, "damage_correlation_report", "analysis.report")
        self._patch(cli, "daily_correlation_series", "analysis.series")
        self._patch(cli, "nowcast", "analysis.nowcast")
        self._patch(cli, "rank_keywords", "analysis.rank_keywords")
        self._patch(cli, "region_rank_discrepancy", "analysis.rank_discrepancy")
        self._patch(cli, "generate", "simulate.generate", after=written)
        self._patch(analysis, "correlate", "stats.correlate", before=correlate_call, memory=True)
        self._patch(analysis, "rank_discrepancy", "stats.rank_discrepancy", memory=True)
        self._patch(stats, "_kendall", "stats.kendall")
        self._patch(simulate, "write_messages_csv", "ingest.write_messages")
        self._patch(simulate, "point_to_track_km", "geo.track_distance")
        # report writing stays cli work: count its rows without a span
        original = cli._write_report
        self._patches.append((cli, "_write_report", original))

        def write_report(*args, **kwargs):
            result = original(*args, **kwargs)
            report_rows(result)
            return result

        cli._write_report = write_report
        # the index is a class; trace its construction through a subclass
        tracer = self
        base = cli.SpatialIndex

        class TracedIndex(base):
            def __init__(self, *args, **kwargs):
                with tracer.span("geo.index_build"):
                    super().__init__(*args, **kwargs)

        self._patches.append((cli, "SpatialIndex", base))
        cli.SpatialIndex = TracedIndex

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_time(self, sid: int) -> float:
        """Duration minus the union of the child spans' intervals, clipped to this span."""
        span = self.spans[sid]
        covered = 0.0
        cursor = span.start
        for child in sorted((self.spans[c] for c in span.children), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def subtree(self, sid: int) -> list[int]:
        out, todo = [], [sid]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.spans[s].children)
        return out

    def pass_metrics(self, roots: list[int]) -> dict[str, float]:
        """Per-layer metrics of one pass, given the root span of each of its commands."""
        values = dict.fromkeys(DURATION_METRICS.values(), 0.0)
        values.update(dict.fromkeys(SELF_METRICS.values(), 0.0))
        for root in roots:
            for sid in self.subtree(root):
                name = self.spans[sid].name
                if name in DURATION_METRICS:
                    values[DURATION_METRICS[name]] += self.spans[sid].duration
                key = "cli" if sid == root else name
                if key in SELF_METRICS:
                    values[SELF_METRICS[key]] += self.self_time(sid)
        return values

    def missing_spans(self, roots: list[int]) -> list[str]:
        """Layer spans a traced command should contain but does not.

        A wrapper stops seeing its layer when the program renames a function
        or calls it under another name; that layer would then read as zero
        time and its work as ``cli`` self time.
        """
        missing = []
        for root in roots:
            command = self.spans[root].name.removeprefix("cli.")
            seen = {self.spans[s].name for s in self.subtree(root)}
            for name in sorted(EXPECTED_SPANS[command] - seen):
                missing.append(f"trace: {command} recorded no {name} span")
        return missing

    def spans_json(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans)
        ]


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
