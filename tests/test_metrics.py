import dataclasses
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damagenowcast.analysis import daily_correlation_series, damage_correlation_report, nowcast, rank_keywords
from damagenowcast.metrics import (
    TimeWindow,
    bin_offsets,
    bin_window,
    summarize_daily,
    summarize_regions,
)
from oracles import (
    ActivitySummary,
    MessageRecord,
    codes_of,
    columns_of,
    compute_activity_summary_reference,
    daily_correlation_series_reference,
    damage_correlation_report_reference,
    grid_from_mapping,
    grid_of,
    grid_summaries,
    message_table,
    normalized_activity,
    nowcast_reference,
    rank_keywords_reference,
    summarize_daily_reference,
    summarize_regions_reference,
    summary_at,
)

EPOCH = datetime(2012, 10, 30, tzinfo=timezone.utc)
DAY = timedelta(hours=24)
HOUR = timedelta(hours=1)


def message(i, user="u1", stamp=EPOCH, retweet=False, rebroadcasts=0, sentiment=None, keywords=("sandy",)):
    return MessageRecord(
        message_id=f"m{i}",
        user_id=user,
        timestamp=stamp,
        location=None,
        keywords=frozenset(keywords),
        is_retweet=retweet,
        retweeted_count=rebroadcasts,
        sentiment=sentiment,
    )


def summary(messages, window=None, population=None, region_id="r1"):
    """The grouped summary of one region that holds every message."""
    table = message_table(messages)
    return summary_at(summarize_regions(
        table, codes_of(table, {m.message_id: region_id for m in messages}), window,
        population={region_id: population} if population is not None else None, region_ids=[region_id],
    ), (region_id, None))


class TestBinOffsets:
    def test_epoch_lands_in_bin_zero(self):
        assert bin_offsets([EPOCH], EPOCH, DAY) == [0]

    def test_one_second_before_epoch_is_bin_minus_one(self):
        assert bin_offsets([EPOCH - timedelta(seconds=1)], EPOCH, DAY) == [-1]

    def test_hand_counted_hour_offset(self):
        stamp = datetime(2012, 10, 28, 13, tzinfo=timezone.utc)
        assert bin_offsets([stamp], EPOCH, HOUR) == [-35]

    def test_bin_window_round_trip(self):
        window = bin_window(EPOCH, DAY, -1)
        assert window.start == EPOCH - DAY
        assert window.end == EPOCH

    @given(st.integers(-10**7, 10**7), st.sampled_from([1, 24]))
    @settings(max_examples=200, deadline=None)
    def test_every_timestamp_lands_in_its_own_bin(self, seconds, hours):
        width = timedelta(hours=hours)
        stamp = EPOCH + timedelta(seconds=seconds)
        (k,) = bin_offsets([stamp], EPOCH, width)
        window, below, above = (bin_window(EPOCH, width, k + step) for step in (0, -1, 1))
        assert window.start <= stamp < window.end
        assert not below.start <= stamp < below.end
        assert not above.start <= stamp < above.end


class TestTimeWindow:
    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            TimeWindow(start=EPOCH, end=EPOCH)

    def test_half_open(self):
        window = TimeWindow(start=EPOCH, end=EPOCH + DAY)
        assert window.start <= EPOCH < window.end
        assert not window.start <= EPOCH + DAY < window.end


class TestActivitySummary:
    def test_original_retweet_split(self):
        messages = [message(i, retweet=(i < 3)) for i in range(10)]
        s = summary(messages)
        assert (s.n_messages, s.n_original, s.n_retweets) == (10, 7, 3)
        assert s.n_original + s.n_retweets == s.n_messages

    def test_popular_counts_rebroadcast_originals(self):
        messages = [message(i, rebroadcasts=(1 if i < 2 else 0)) for i in range(7)]
        assert summary(messages).n_popular == 2

    def test_retweets_never_count_as_popular(self):
        messages = [message(0, retweet=True, rebroadcasts=0), message(1, rebroadcasts=4)]
        assert summary(messages).n_popular == 1

    def test_zero_messages_valid(self):
        s = summary([], TimeWindow(EPOCH, EPOCH + DAY))
        assert s.n_messages == 0
        assert s.mean_sentiment is None

    def test_window_filtering_half_open(self):
        messages = [
            message(0, stamp=EPOCH - timedelta(seconds=1)),
            message(1, stamp=EPOCH),
            message(2, stamp=EPOCH + DAY - timedelta(seconds=1)),
            message(3, stamp=EPOCH + DAY),
        ]
        assert summary(messages, TimeWindow(EPOCH, EPOCH + DAY)).n_messages == 2

    def test_mean_sentiment_ignores_unscored(self):
        messages = [message(0, sentiment=0.5), message(1, sentiment=-0.5), message(2)]
        assert summary(messages).mean_sentiment == 0.0

    def test_constant_sentiment_mean_is_constant(self):
        messages = [message(i, sentiment=0.31) for i in range(9)]
        assert summary(messages).mean_sentiment == pytest.approx(0.31)

    def test_distinct_window_users(self):
        messages = [message(i, user=f"u{i % 3}") for i in range(10)]
        assert summary(messages).active_users_window == 3


class TestNormalizedActivity:
    def test_atlantic_per_user_rate(self):
        messages = [message(i, user=f"u{i % 574}") for i in range(1580)]
        s = summary(messages, population=275422, region_id="Atlantic")
        assert normalized_activity(s, "per_period_user") == pytest.approx(1580 / 574)
        assert normalized_activity(s, "per_period_user") == pytest.approx(2.753, abs=5e-4)

    def test_atlantic_per_capita(self):
        s = summary([message(i) for i in range(1580)], population=275422, region_id="Atlantic")
        assert normalized_activity(s, "per_capita") == pytest.approx(5.74e-3, abs=5e-6)

    def test_new_york_per_capita(self):
        s = summary([message(i) for i in range(50767)], population=1619090, region_id="New York")
        assert normalized_activity(s, "per_capita") == pytest.approx(3.136e-2, abs=5e-6)

    def test_zero_period_users_yields_none(self):
        s = summary([])
        assert s.active_users_period == 0
        assert normalized_activity(s, "per_period_user") is None

    def test_missing_population_yields_none(self):
        s = summary([message(0)], population=None)
        assert normalized_activity(s, "per_capita") is None

    def test_original_only_toggle(self):
        messages = [message(0), message(1, retweet=True)]
        s = summary(messages, population=100)
        assert normalized_activity(s, "per_capita", original_only=True) == pytest.approx(0.01)
        assert normalized_activity(s, "per_capita", original_only=False) == pytest.approx(0.02)


@st.composite
def region_messages(draw):
    count = draw(st.integers(1, 40))
    out = []
    for i in range(count):
        out.append(
            message(
                i,
                user=f"u{draw(st.integers(0, 5))}",
                stamp=EPOCH + timedelta(hours=draw(st.integers(-72, 72))),
                retweet=draw(st.booleans()),
                rebroadcasts=draw(st.integers(0, 3)),
                sentiment=draw(st.one_of(st.none(), st.floats(-1, 1, allow_nan=False))),
            )
        )
    return out


class TestSummaryProperties:
    @given(region_messages())
    @settings(max_examples=50, deadline=None)
    def test_counts_additive_across_disjoint_windows(self, messages):
        full = TimeWindow(EPOCH - timedelta(hours=96), EPOCH + timedelta(hours=96))
        mid = EPOCH
        first = summary(messages, TimeWindow(full.start, mid))
        second = summary(messages, TimeWindow(mid, full.end))
        whole = summary(messages, full)
        assert first.n_messages + second.n_messages == whole.n_messages
        assert first.n_original + second.n_original == whole.n_original
        assert first.n_retweets + second.n_retweets == whole.n_retweets
        assert first.n_popular + second.n_popular == whole.n_popular

    @given(region_messages())
    @settings(max_examples=50, deadline=None)
    def test_binning_partitions_messages(self, messages):
        ks = sorted(set(bin_offsets([m.timestamp for m in messages], EPOCH, DAY)))
        table = message_table(messages)
        daily = summarize_daily(table, codes_of(table, {m.message_id: "r" for m in messages}), EPOCH, DAY, ks)
        assert sum(summary_at(daily, ("r", k)).n_messages for k in ks) == len(messages)

    @given(region_messages(), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_reordering_invariance(self, messages, rnd):
        shuffled = list(messages)
        rnd.shuffle(shuffled)
        a = summary(messages, population=100)
        b = summary(shuffled, population=100)
        assert normalized_activity(a, "per_capita") == normalized_activity(b, "per_capita")
        assert a.mean_sentiment == pytest.approx(b.mean_sentiment) if a.mean_sentiment is not None else b.mean_sentiment is None


class TestSummarizeHelpers:
    def test_period_users_span_whole_corpus(self):
        messages = [
            message(0, user="a", stamp=EPOCH - 10 * DAY),
            message(1, user="b", stamp=EPOCH),
        ]
        assignments = {"m0": "r1", "m1": "r1"}
        window = TimeWindow(EPOCH, EPOCH + DAY)
        table = message_table(messages)
        out = summarize_regions(table, codes_of(table, assignments), window, population={"r1": 50})
        assert summary_at(out, ("r1", None)).n_messages == 1
        assert summary_at(out, ("r1", None)).active_users_period == 2

    def test_silent_listed_regions_get_zero_summaries(self):
        table = message_table([])
        out = summarize_regions(table, codes_of(table, {}), None, region_ids=["r1", "r2"])
        assert summary_at(out, ("r1", None)).n_messages == 0
        assert summary_at(out, ("r2", None)).n_messages == 0

    def test_keyword_filter_applies(self):
        messages = [message(0, keywords=("sandy",)), message(1, keywords=("gas",))]
        assignments = {"m0": "r1", "m1": "r1"}
        table = message_table(messages)
        out = summarize_regions(table, codes_of(table, assignments), None, scopes={"k": frozenset({"sandy"})})
        assert summary_at(out, ("r1", "k")).n_messages == 1

    def test_unassigned_messages_ignored(self):
        messages = [message(0), message(1)]
        assignments = {"m0": "r1", "m1": None}
        table = message_table(messages)
        out = summarize_regions(table, codes_of(table, assignments), None)
        assert summary_at(out, ("r1", None)).n_messages == 1

    def test_daily_summaries_cover_requested_bins(self):
        messages = [message(0, stamp=EPOCH), message(1, user="u2", stamp=EPOCH + DAY)]
        assignments = {"m0": "r1", "m1": "r1"}
        table = message_table(messages)
        out = summarize_daily(table, codes_of(table, assignments), EPOCH, DAY, bins=range(-1, 3))
        assert summary_at(out, ("r1", 0)).n_messages == 1
        assert summary_at(out, ("r1", 1)).n_messages == 1
        assert summary_at(out, ("r1", -1)).n_messages == 0
        assert summary_at(out, ("r1", 2)).n_messages == 0
        assert summary_at(out, ("r1", 0)).active_users_period == 2

    def test_scopes_share_one_count(self):
        messages = [
            message(0, keywords=("sandy",)), message(1, keywords=("gas", "sandy")), message(2, keywords=("gas",))
        ]
        assignments = {"m0": "r1", "m1": "r1", "m2": "r2"}
        table = message_table(messages)
        out = summarize_regions(table, codes_of(table, assignments), None, scopes={
            "pool": None, "sandy": frozenset({"sandy"}), "gas": frozenset({"gas"}), "none": frozenset({"mta"}),
        })
        assert {name: {r: s.n_messages for r, s in per.items()} for name, per in columns_of(out).items()} == {
            "pool": {"r1": 2, "r2": 1}, "sandy": {"r1": 2}, "gas": {"r1": 1, "r2": 1}, "none": {},
        }

    def test_region_codes_match_mapping(self):
        messages = [message(0), message(1), message(2)]
        codes = codes_of(message_table(messages), {"m0": "r2", "m2": "r1"})
        assert codes.codes.tolist() == [1, -1, 0]
        assert codes.region_ids == ["r1", "r2"]


TAGS = ("sandy", "gas", "power", "mta")


@st.composite
def corpus(draw):
    """Random messages, each in a region or in none, plus a window and scopes."""
    messages, assignments = [], {}
    for i in range(draw(st.integers(0, 60))):
        messages.append(message(
            i,
            user=f"u{draw(st.integers(0, 6))}",
            stamp=EPOCH + timedelta(seconds=draw(st.integers(-5 * 86400, 5 * 86400))),
            retweet=draw(st.booleans()),
            rebroadcasts=draw(st.integers(0, 2)),
            sentiment=draw(st.one_of(st.none(), st.floats(-1, 1, allow_nan=False))),
            keywords=draw(st.lists(st.sampled_from(TAGS), min_size=1, max_size=3)),
        ))
        assignments[f"m{i}"] = draw(st.one_of(st.none(), st.sampled_from(["r0", "r1", "r2", "r3"])))
    start = EPOCH + timedelta(hours=draw(st.integers(-120, 100)))
    window = draw(st.one_of(st.none(), st.just(TimeWindow(start, start + timedelta(hours=draw(st.integers(1, 72)))))))
    scopes = draw(st.lists(st.one_of(st.none(), st.frozensets(st.sampled_from(TAGS + ("absent",)), max_size=3)),
                           min_size=1, max_size=4))
    region_ids = draw(st.one_of(st.none(), st.lists(st.sampled_from(["r0", "r1", "r4"]), max_size=3)))
    return messages, assignments, window, scopes, region_ids


def _same(a, b):
    """Equal summaries, with mean sentiments equal to the last bit."""
    assert a == b
    assert [s.mean_sentiment.hex() if s.mean_sentiment is not None else None for s in a.values()] == \
        [s.mean_sentiment.hex() if s.mean_sentiment is not None else None for s in b.values()]


class TestGroupedMatchesReference:
    """One grouped count equals the frozen per-object summaries, scope by scope."""

    @given(corpus(), st.dictionaries(st.sampled_from(["r0", "r1", "r2"]), st.integers(1, 1000)))
    @settings(max_examples=40, deadline=None)
    def test_summarize_regions(self, case, population):
        messages, assignments, window, scopes, region_ids = case
        table = message_table(messages)
        grouped = summarize_regions(table, codes_of(table, assignments), window, population=population,
                                    region_ids=region_ids, scopes=dict(enumerate(scopes)))
        for s, keywords in enumerate(scopes):
            expected = summarize_regions_reference(messages, assignments, window, keywords, population, region_ids)
            assert list(columns_of(grouped)[s]) == list(expected)
            _same(columns_of(grouped)[s], expected)

    @given(corpus(), st.sampled_from([1, 6, 24]), st.lists(st.integers(-6, 6), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_summarize_daily(self, case, hours, bins):
        messages, assignments, _, scopes, _ = case
        width = timedelta(hours=hours)
        keywords = scopes[0] or None  # the CLI's composition: an empty --keywords filters nothing
        table = message_table(messages, keywords)
        grouped = summarize_daily(table, codes_of(table, assignments), EPOCH, width, bins,
                                  population={"r1": 10})
        expected = summarize_daily_reference(messages, assignments, EPOCH, width, bins, keywords, {"r1": 10})
        assert list(grid_summaries(grouped)) == list(expected)
        _same(grid_summaries(grouped), expected)

    def test_reference_summary_of_one_region(self):
        messages = [
            message(i, user=f"u{i % 2}", retweet=i == 1, rebroadcasts=i % 3, sentiment=0.1 * i) for i in range(5)
        ]
        expected = compute_activity_summary_reference(messages, "r1", None, period_users=2, population=7)
        _same({"r1": summary(messages, population=7)}, {"r1": expected})


REGIONS = ("r0", "r1", "r2", "r3", "r4")


@st.composite
def plain_summary(draw, region):
    """One summary whose fields vary independently."""
    n = draw(st.integers(0, 9))
    retweets = draw(st.integers(0, n))
    return ActivitySummary(
        region, None, n, n - retweets, retweets, draw(st.integers(0, n)), draw(st.integers(0, n)),
        draw(st.integers(0, 5)), draw(st.one_of(st.none(), st.floats(-1, 1, allow_nan=False))),
        draw(st.one_of(st.none(), st.integers(-1, 50))),
    )


@st.composite
def plain_daily(draw):
    """A sparse (region, bin) -> summary mapping whose fields vary from cell to cell."""
    out = {}
    for region in draw(st.lists(st.sampled_from(REGIONS), min_size=3, unique=True)):
        for b in draw(st.lists(st.integers(-1, 1), min_size=1, unique=True)):
            out[(region, b)] = draw(plain_summary(region))
    return out


@st.composite
def series_args(draw):
    """Population, damage, the series' bins (repeats and unsummarized bins included) and the normalization."""
    population = draw(st.dictionaries(st.sampled_from(REGIONS + ("r9",)), st.integers(1, 1000), min_size=4))
    damage = draw(st.dictionaries(st.sampled_from(REGIONS), st.floats(0, 1e6, allow_nan=False)))
    bins = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=6))
    return population, damage, bins, draw(st.sampled_from(["per_capita", "per_period_user"]))


def with_population(summaries, population):
    """``summaries`` with each population taken from ``population``, its one home in a grid."""
    return {key: dataclasses.replace(s, population=population.get(s.region_id)) for key, s in summaries.items()}


def _bits(value):
    """``value`` with each float as its hex text, so NaN equals NaN and only equal bits compare equal;
    a dataclass compares as the tuple of its fields."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value.hex() if isinstance(value, float) else value


class TestSeriesMatchesReference:
    """The array-based series equals the region-by-region reference, for both kinds of input."""

    @given(corpus(), st.sampled_from([6, 24]), st.lists(st.integers(-6, 6), max_size=8), series_args())
    @settings(max_examples=40, deadline=None)
    def test_grouped_summaries(self, case, hours, bins, args):
        messages, assignments, _, scopes, _ = case
        population, damage, series_bins, normalization = args
        width = timedelta(hours=hours)
        keywords = scopes[0] or None
        table = message_table(messages, keywords)
        daily = summarize_daily(table, codes_of(table, assignments), EPOCH, width, bins, population)
        reference = summarize_daily_reference(messages, assignments, EPOCH, width, bins, keywords, population)
        got = daily_correlation_series(daily, damage, series_bins, EPOCH, width, normalization)
        expected = daily_correlation_series_reference(reference, damage, population, series_bins, normalization,
                                                      EPOCH, width)
        assert _bits(got) == _bits(expected)

    @given(plain_daily(), series_args())
    @settings(max_examples=60, deadline=None)
    def test_plain_mapping(self, summaries, args):
        population, damage, bins, normalization = args
        # a grid holds an unknown population as 0, so a population of 0 reads back as None
        assert grid_summaries(grid_from_mapping(summaries)) == {
            key: dataclasses.replace(s, population=s.population or None) for key, s in summaries.items()
        }
        summaries = with_population(summaries, population)
        got = daily_correlation_series(grid_from_mapping(summaries), damage, bins, EPOCH, DAY, normalization)
        expected = daily_correlation_series_reference(summaries, damage, population, bins, normalization, EPOCH, DAY)
        assert _bits(got) == _bits(expected)


@st.composite
def plain_regions(draw):
    """A region -> summary mapping."""
    return {region: draw(plain_summary(region)) for region in draw(st.lists(st.sampled_from(REGIONS), unique=True))}


@st.composite
def region_args(draw):
    """Census population, damage by source, and a region distance table with ties."""
    population = draw(st.dictionaries(st.sampled_from(REGIONS + ("r9",)), st.integers(1, 1000)))
    damage = draw(st.dictionaries(st.sampled_from(["ex_post", "hazus"]), st.dictionaries(
        st.sampled_from(REGIONS), st.one_of(st.floats(0, 1e6, allow_nan=False), st.integers(0, 10**6))),
        min_size=1))
    distances = {region: draw(st.sampled_from([5.0, 120.5, 300.0, 999.25])) for region in REGIONS + ("r9",)}
    return population, damage, distances


def _only(distances, subset):
    """The distances of the subset cities: the ranking covers the cities it has a distance for."""
    return distances if subset is None else {city: distances[city] for city in subset}


class TestAnalysesMatchReference:
    """The report, the keyword ranking and the nowcast equal the region-by-region
    references, bit for bit, for the grid of ``summarize_regions`` and for plain mappings."""

    @staticmethod
    def _same(got, expected):
        assert _bits(got) == _bits(expected)

    @given(corpus(), region_args(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_report_on_grid(self, case, args, original_only):
        messages, assignments, window, scopes, region_ids = case
        population, damage, _ = args
        table = message_table(messages)
        grid = summarize_regions(table, codes_of(table, assignments), window, population=population,
                                 region_ids=region_ids, scopes={f"s{s}": scope for s, scope in enumerate(scopes)})
        reference = {
            f"s{s}": summarize_regions_reference(messages, assignments, window, scope, population, region_ids)
            for s, scope in enumerate(scopes)
        }
        expected = damage_correlation_report_reference(reference, damage, population, original_only=original_only)
        self._same(damage_correlation_report(grid, damage, original_only=original_only), expected)
        self._same(damage_correlation_report(grid_of(reference), damage, original_only=original_only), expected)

    @given(st.dictionaries(st.sampled_from(["pooled", "gas", "sandy"]), plain_regions(), max_size=3), region_args(),
           st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_report_on_plain_mapping(self, scopes, args, original_only, sentiment):
        population, damage, _ = args
        scopes = {name: with_population(per, population) for name, per in scopes.items()}
        got = damage_correlation_report(grid_of(scopes), damage, original_only=original_only,
                                        include_sentiment=sentiment)
        expected = damage_correlation_report_reference(scopes, damage, population, original_only=original_only,
                                                       include_sentiment=sentiment)
        self._same(got, expected)

    @given(corpus(), region_args(), st.one_of(st.none(), st.lists(st.sampled_from(REGIONS), unique=True)))
    @settings(max_examples=40, deadline=None)
    def test_rank_keywords_on_grid(self, case, args, subset):
        messages, assignments, window, _, _ = case
        table = message_table(messages)
        grid = summarize_regions(table, codes_of(table, assignments), window,
                                 scopes={tag: frozenset({tag}) for tag in TAGS})
        _, _, distances = args
        expected = rank_keywords_reference(grid_summaries(grid), distances, subset)
        self._same(rank_keywords(grid, _only(distances, subset)), expected)

    @given(st.dictionaries(st.tuples(st.sampled_from(REGIONS), st.sampled_from(TAGS)), st.none()), st.data(),
           region_args(), st.one_of(st.none(), st.lists(st.sampled_from(REGIONS), unique=True)))
    @settings(max_examples=60, deadline=None)
    def test_rank_keywords_on_plain_mapping(self, keys, data, args, subset):
        summaries = {key: data.draw(plain_summary(key[0])) for key in keys}
        _, _, distances = args
        expected = rank_keywords_reference(summaries, distances, subset)
        self._same(rank_keywords(grid_from_mapping(summaries), _only(distances, subset)), expected)

    @given(corpus(), region_args(), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_nowcast_on_grid(self, case, args, original_only, with_damage):
        messages, assignments, window, scopes, region_ids = case
        population, damage, _ = args
        table = message_table(messages)
        grid = summarize_regions(table, codes_of(table, assignments), window, population, region_ids,
                                 scopes={"s": scopes[0]})
        damage_usd = damage["ex_post"] if with_damage and "ex_post" in damage else None
        expected = nowcast_reference(columns_of(grid)["s"], original_only=original_only, damage_usd=damage_usd)
        self._same(nowcast(grid, original_only=original_only, damage_usd=damage_usd), expected)

    @given(plain_regions(), region_args(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_nowcast_on_plain_mapping(self, summaries, args, original_only, with_damage):
        _, damage, _ = args
        damage_usd = next(iter(damage.values())) if with_damage else None
        expected = nowcast_reference(summaries, original_only=original_only, damage_usd=damage_usd)
        self._same(nowcast(grid_of({None: summaries}), original_only=original_only, damage_usd=damage_usd), expected)
