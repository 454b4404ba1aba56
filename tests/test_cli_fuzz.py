"""Property test: no damaged input crashes the CLI.

Each example copies a small simulated bundle and the bundled county table,
damages one to three of their files the way exported data goes wrong
(truncated rows, swapped columns, NaN/inf cells, integers beyond int64, a
byte-order mark, CRLF line ends, duplicate ids, empty files, GeoJSON that is
not an object, an over-long cell, an id that starts with ``#``), and runs
``join``, ``correlate --overlay``, ``series`` and ``nowcast`` on the bundle
and ``correlate`` and ``nowcast`` on the county table, in-process. Every run must return exit code 0, 1 or 2;
an exception escaping ``main`` fails the test, and so does a numpy
``RuntimeWarning``, the only sign of an overflow or an invalid operation.
"""

import csv
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damagenowcast.cli import main

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "sandy_counties.csv"
CSV_FILES = ("messages.csv", "population.csv", "damage.csv", "counties.csv")
LONG_CELL = "x" * 140_000  # over csv's default field limit of 131,072 characters
CELLS = ("nan", "inf", "-inf", "1e999", "1e300", "", "-1", "0", "#x", "2012-13-45", LONG_CELL,
         "9223372036854775808", "9" * 401)  # 2^63, the first integer beyond int64, and a 401-digit one
DOCUMENTS = ("[]", "null", "3", '"x"', "{", "NaN", '{"type": "FeatureCollection", "features": 5}',
             '{"type": "FeatureCollection", "features": [1, null, "x", []]}')
FEATURES = (None, 1, [], {"type": "Feature"}, {"type": "Feature", "properties": None, "geometry": None},
            {"type": "Feature", "properties": {"region_id": "r0000"},
             "geometry": {"type": "Polygon", "coordinates": [[[float("nan"), 0], [1, 1], [0, 1], [0, 0]]]}},
            {"type": "Feature", "properties": {"region_id": ["r"]},
             "geometry": {"type": "Point", "coordinates": [0, 0]}})


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "bundle"
    assert main(["simulate", "--seed", "3", "--regions", "6", "--base-rate", "0.0002", "--amplitude", "0.004",
                 "--out", str(out)]) == 0
    shutil.copyfile(FIXTURE, out / "counties.csv")
    return out


def _csv_mutation(text: str, kind: str, a: int, b: int, cell: str) -> str:
    lines = text.splitlines(keepends=True)
    k = a % len(lines)
    try:
        cells = next(csv.reader([lines[k]]), [])
    except csv.Error:  # an earlier damage left a cell over the field limit here
        cells = []
    if kind == "truncate":
        lines[k] = lines[k][: b % max(len(lines[k]), 1)] + "\n"
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind in ("swap", "cell", "hash_id") and cells:
        i, j = a % len(cells), b % len(cells)
        quoting = csv.QUOTE_MINIMAL
        if kind == "swap":
            cells[i], cells[j] = cells[j], cells[i]
        elif kind == "cell":
            cells[j] = cell
        else:
            cells[0] = "#" + cells[0]
            quoting = csv.QUOTE_ALL if b % 2 else csv.QUOTE_MINIMAL
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n", quoting=quoting).writerow(cells)
        lines[k] = buffer.getvalue()
    return "".join(lines)


def _geojson_mutation(text: str, kind: str, a: int, b: int) -> str:
    if kind == "document":
        return DOCUMENTS[a % len(DOCUMENTS)]
    if kind == "truncate":
        return text[: a % len(text)]
    try:
        collection = json.loads(text.lstrip("\ufeff"))
    except ValueError:
        return text  # an earlier damage left no JSON to change
    features = collection.get("features") if isinstance(collection, dict) else None
    if not isinstance(features, list) or not features:
        return text
    if kind == "feature":
        features[a % len(features)] = FEATURES[b % len(FEATURES)]
    elif kind == "duplicate":
        features.append(features[a % len(features)])
    return json.dumps(collection)


@st.composite
def mutations(draw):
    """One to three (file, kind, a, b, cell) damages; ``a`` and ``b`` pick the place."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(CSV_FILES + ("regions.geojson",)))
        shared = ["bom", "crlf", "empty", "truncate", "duplicate"]
        own = ["document", "feature"] if name.endswith(".geojson") else ["swap", "cell", "hash_id"]
        out.append((name, draw(st.sampled_from(shared + own)), draw(st.integers(0, 10**6)),
                    draw(st.integers(0, 10**6)), draw(st.sampled_from(CELLS))))
    return out


def _damage(directory: Path, name: str, kind: str, a: int, b: int, cell: str) -> None:
    path = directory / name
    text = path.read_text(encoding="utf-8")
    if kind == "bom":
        text = "\ufeff" + text
    elif kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "empty":
        text = ""
    elif text and name.endswith(".geojson"):
        text = _geojson_mutation(text, kind, a, b)
    elif text:
        text = _csv_mutation(text, kind, a, b, cell)
    path.write_text(text, encoding="utf-8", newline="")


@given(mutations())
@settings(max_examples=40, deadline=None)
def test_damaged_bundle_never_crashes(bundle, damages):
    with tempfile.TemporaryDirectory() as scratch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        root = Path(scratch)
        inputs = shutil.copytree(bundle, root / "in")
        for damage in damages:
            _damage(inputs, *damage)
        files = ["--messages", inputs / "messages.csv", "--regions", inputs / "regions.geojson"]
        tables = ["--population", inputs / "population.csv", "--damage", inputs / "damage.csv"]
        for argv in (
            ["join", *files, "--out", root / "join"],
            ["correlate", *files, *tables, "--overlay", root / "overlay.geojson", "--out", root / "correlate"],
            ["series", *files, *tables, "--out", root / "series"],
            ["nowcast", *files, *tables, "--out", root / "nowcast"],
            ["correlate", "--county-table", inputs / "counties.csv", "--out", root / "county-correlate"],
            ["nowcast", "--county-table", inputs / "counties.csv", "--out", root / "county-nowcast"],
        ):
            assert main([str(arg) for arg in argv]) in (0, 1, 2)
