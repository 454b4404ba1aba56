"""Golden digests: the SHA-256 of every report the analysis commands write on
one small simulated bundle, and of every file of two simulated bundles.

The commands run from a fixed working directory with relative paths, so the
paths echoed in each report's ``#`` header are the same on every machine. A
digest changes only when a report's bytes change; a change that is meant to
alter a report updates its digest here and says why in CHANGES.md.
"""

import csv
import hashlib
from pathlib import Path

import pytest

from damagenowcast.cli import main
from damagenowcast.simulate import DamageModel, KeywordProfile, SimConfig, generate

BUNDLE = ("simulate", "--seed", "7", "--regions", "40", "--sigma", "0.5",
          "--base-rate", "0.002", "--out", "bundle")
INPUTS = ("--messages", "bundle/messages.csv", "--regions", "bundle/regions.geojson")
TABLES = ("--population", "bundle/population.csv", "--damage", "bundle/damage.csv")
COMMANDS = {
    "join": ("join", *INPUTS, "--out", "join"),
    "summarize": ("summarize", *INPUTS, "--population", "bundle/population.csv",
                  "--window", "2012-10-31..2012-11-05", "--out", "summarize"),
    "summarize-keywords": ("summarize", *INPUTS, "--population", "bundle/population.csv",
                           "--window", "2012-10-31..2012-11-05", "--keywords", "power,sandy",
                           "--out", "summarize-keywords"),
    "correlate": ("correlate", *INPUTS, *TABLES, "--overlay", "correlate/overlay.geojson",
                  "--out", "correlate"),
    "correlate-original": ("correlate", *INPUTS, *TABLES, "--original-only", "--keywords", "power,sandy",
                           "--out", "correlate-original"),
    "series": ("series", *INPUTS, *TABLES, "--out", "series"),
    "series-per-user": ("series", *INPUTS, *TABLES, "--normalization", "per_period_user", "--bin-hours", "6",
                        "--span", "2012-10-28..2012-11-03", "--out", "series-per-user"),
    "nowcast": ("nowcast", *INPUTS, *TABLES, "--out", "nowcast"),
    "nowcast-all": ("nowcast", *INPUTS, *TABLES, "--no-original-only", "--out", "nowcast-all"),
    "rank-keywords": ("rank-keywords", *INPUTS, "--track", "bundle/track.csv",
                      "--window", "2012-10-25..2012-11-08", "--out", "rank-keywords"),
}

TAGS = ("sandy", "power", "hurricane", "gas", "blackout", "stay safe", "flooding")
# rows the parser must convert one at a time: an offset, fractional seconds,
# padded cells, a duplicate id, a bad timestamp and a short row
EXTRA_ROWS = (
    "x1,r0001-u00001,2012-11-01T05:00:00+05:00,,,power,0,0,0.5",
    "x2,r0002-u00002,2012-11-01T01:02:03.25Z,,,Sandy; GAS ,1,2,",
    " x3 , r0003-u00003 ,2012-11-02T00:00:00Z,,,storm,0, 4 ,-0.25",
    "x1,r0004-u00004,2012-11-02T00:00:00Z,,,storm,0,0,",
    "x4,r0004-u00004,2012-11-31T00:00:00Z,,,storm,0,0,",
    "x5,r0004-u00004,2012-11-02T00:00:00Z",
)

GOLDEN = {
    "correlate/correlations.csv": "65f4e44ef3691580a695e5d3557c9b68b0b833d5c8f78750031798e3a7027119",
    "correlate-original/correlations.csv": "1f6072ac72ff89aeb8deb425c4449ee0c818df9ea22916cfb4b07707a0364f9d",
    "correlate/overlay.geojson": "ad86bc60f66cdb0791b4cbe7107916bc3eca2036e63386413d11608a38a92ac1",
    "join/join.csv": "65d55cb1e3f6d49505e827ef5e075048d103a526a04a749e1c3bbb6b8736475d",
    "nowcast-all/nowcast.csv": "85a17b6ae13aa258fc1bcb4bef8af24f8511087ebdc47c96daaf299c896a2997",
    "nowcast-all/nowcast_excluded.csv": "1274d2decdd9f16ba5233dc59af276b38987d11c7dabd42963752d953b646272",
    "nowcast/nowcast.csv": "7b1d222171d1a1a620fcc7f56e256e618aba655a35012a28ee4a1d8c32c3868f",  # damage_rank column
    "nowcast/nowcast_excluded.csv": "db0d7ba7af12742c49e6f5ca53bb9eac989ff7114b9e14f63bb711c5c57cc125",
    "rank-keywords/keywords.csv": "5cf1b3c22d8165b2004f139c2764261acadb8eea72e5e726791a6215bf8bbac5",
    "series/series.csv": "683e9c6dea776424c47633b607c458d77773c033ce42ef305060a0c576ec1635",
    "series-per-user/series.csv": "88e594fa3f77bfc104f739ab873caa881e7dc0556622b2087f6c7464e7c8945c",
    "summarize/summaries.csv": "61f55affb8a2f68db796e7effccca3d2420437023f18788a3f90f0b5209e5b57",
    "summarize-keywords/summaries.csv": "27a9f4340ce668779e8f462c255ca6467deee43f9f26cebb59f3e878bbafede0",
}

BUNDLE_GOLDEN = {
    "messages.csv": "d3f7808164f3f613f31602d8c54e661687d4d558c4419584292189a768e7d276",
    "regions.geojson": "7219b8d5fd7d7a52733756f1f2723a8a749cb3a65769136efc3e1a44708c0eea",
    "population.csv": "36f37324e69680f11ca40551c5a1a7bf6f8002484de1b65715d708bdc4b82252",
    "damage.csv": "f86a90d1242f119fc0be34469897707d4de310d2ea16d5a8ce9d074b14d3773e",
    "track.csv": "2f2973357e63b15324252bbf8eec8d76fb0f0e64f7a0c37447ead90c92c980a1",
    "ground_truth.csv": "a284047d339b49410f89b34e4d7c1780f98541e857769f86c0dc44f24831aa83",
}
# two keywords, a media burst, a non-default persistence, and populations so
# small that 9 of the 30 regions draw no message
SPARSE_CONFIG = SimConfig(
    seed=11,
    n_regions=30,
    population_range=(1, 12),
    keywords=(
        ("storm", KeywordProfile(base_rate=0.001, event_amplitude=0.02, post_event_persistence=0.5)),
        ("power", KeywordProfile(base_rate=0.0, event_amplitude=0.05, decay_cutoff_km=600.0,
                                 post_event_persistence=0.9)),
    ),
    media_burst=0.01,
    damage=DamageModel(noise_sigma=0.3),
)
SPARSE_GOLDEN = {
    "messages.csv": "59377d39b211da82df7e00a7601ef81fddb68aa12934e0913538abcc70b4d6be",
    "regions.geojson": "b0f5cc288b0ed9fed03245378580d68b5885931e0a6a77ce482f2bd2fc46ebfa",
    "population.csv": "686106b47acf1cb7030f2f8e1a77063ba6d67d327c88f3c939c2f1996401175a",
    "damage.csv": "ee8da2645ec2b8ca6d15994e41b7431f0cb7c532379b049b105c73df3482c328",
    "track.csv": "2f2973357e63b15324252bbf8eec8d76fb0f0e64f7a0c37447ead90c92c980a1",
    "ground_truth.csv": "ecc926043c1471d0e7a5c87139bb20b152f9fb60482d4872e9b8cfbb09f6a576",
}


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(directory.iterdir())}


def _retag(path: Path) -> None:
    """Spread the simulated messages over several tags and add rows the bulk parser cannot take."""
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    column = header.index("keywords")
    for i, row in enumerate(rows):
        tags = {TAGS[i % len(TAGS)]} | ({TAGS[i // 3 % 4]} if i % 3 == 0 else set())
        row[column] = ";".join(sorted(tags | {"storm"} if i % 5 == 0 else tags))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])
        handle.write("\n".join(EXTRA_ROWS) + "\n")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        assert main(list(BUNDLE)) == 0
        _retag(root / "bundle" / "messages.csv")
        codes = {name: main(list(argv)) for name, argv in COMMANDS.items()}
    return root, codes


def test_commands_succeed(reports):
    _, codes = reports
    assert codes == dict.fromkeys(COMMANDS, 0)


def test_report_digests(reports):
    root, _ = reports
    written = sorted(p.relative_to(root).as_posix() for name in COMMANDS for p in (root / name).iterdir())
    digests = {path: hashlib.sha256((root / path).read_bytes()).hexdigest() for path in written}
    assert digests == GOLDEN


def test_bundle_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(list(BUNDLE)) == 0
    assert _digests(tmp_path / "bundle") == BUNDLE_GOLDEN


def test_sparse_bundle_digests(tmp_path):
    bundle = generate(SPARSE_CONFIG, tmp_path)
    assert bundle.n_messages == 62
    assert _digests(tmp_path) == SPARSE_GOLDEN
    with open(bundle.messages_csv, encoding="utf-8", newline="") as handle:
        regions = {row["message_id"].split("-")[0] for row in csv.DictReader(handle)}
    assert len(regions) == SPARSE_CONFIG.n_regions - 9
