"""File formats, atomic writes, and input digests.

All tabular inputs are UTF-8 CSV with a header row and dot decimal
separators; fares and the manifest are JSON.  Parse failures raise
ParseError naming the file, row, and column; the row is the file line
(the header is line 1), so blank lines, which are skipped, still count.
Floats are emitted with repr (shortest round-trip form), so loading and
re-emitting a file is lossless; every writer goes through a
temp-file-then-rename so readers never observe a partial file.

Markets file columns, in order: od_id, segment, o_lat, o_lon, d_lat,
d_lon, trips_per_day, driving_miles, the per-mode attribute columns, the
twelve taste columns, and optionally o_zone/d_zone.  The taste columns
may be omitted when a separate taste-parameters file keyed by
(od_id, segment) is supplied.  The unavailable-mode convention: the
available flag is 0 and the mode's numeric cells may be blank.

Leg matrices columns: zone_id, hub_id, mode, then to_hub_* and
from_hub_* column groups (min, access_min, egress_min, transfers,
miles); other columns are ignored.  One row per (zone, hub, leg mode): a
key repeated within or across files is an error, and so is a row with
fewer cells than the columns it needs.  Blank-cell rules: the key cells
may not be blank; a blank minutes cell means that direction is
unavailable (its other cells are then ignored, but any non-blank cell
must still be a finite number); blank access, egress and transfers mean
0; blank miles means no network distance is known.  Files are parsed
column-wise in batches of rows and written back sorted by (zone, hub,
mode name), an unavailable direction as five blank cells.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .choice import LEG_MODES, TASTE_FIELDS, Market, Mode, ModeAttr, Segment, TasteVector
from .geo import GeoPoint
from .hubs import LEG_MODE_ORDER, FareTable, LegMatrices, SurveyRecord
from .siting import Candidate, StopRecord

_INF = float("inf")


class ParseError(ValueError):
    """Malformed input file content."""


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------


def fmt(value) -> str:
    """Shortest round-trip text form of a value for CSV cells."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        value = float(value)  # plain-float repr, not the numpy scalar repr
        if value != value:
            raise ValueError("refusing to write NaN")
        return repr(value)
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def jsonable(obj):
    """Recursively coerce numpy scalars and arrays to JSON-native types."""
    if isinstance(obj, Mapping):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text to path via a sibling temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str | Path, obj) -> Path:
    return atomic_write_text(path, json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n")


def sha256_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _number(value: str) -> float:
    """The finite float in stripped, non-empty cell text; ValueError says
    why there is none."""
    try:
        out = float(value)
    except ValueError:
        raise ValueError(f"malformed number {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"non-finite number {value!r}")
    return out


class _Row:
    """One CSV row with typed, error-reporting cell access."""

    def __init__(self, path: str, line_no: int, data: Mapping[str, str]):
        self.path = path
        self.line_no = line_no
        self.data = data

    def fail(self, column: str, why: str) -> ParseError:
        return ParseError(f"{self.path} row {self.line_no}: {why} in column '{column}'")

    def text(self, column: str) -> str:
        value = self.data.get(column)
        if value is None:
            raise ParseError(f"{self.path}: missing column '{column}'")
        return value.strip()

    def require(self, column: str) -> str:
        value = self.text(column)
        if not value:
            raise self.fail(column, "empty value")
        return value

    def number(self, column: str, *, optional: bool = False) -> float | None:
        value = self.text(column)
        if not value:
            if optional:
                return None
            raise self.fail(column, "empty value")
        try:
            return _number(value)
        except ValueError as err:
            raise self.fail(column, str(err)) from None

    def flag(self, column: str, *, default: bool | None = None) -> bool:
        value = self.text(column)
        if not value and default is not None:
            return default
        if value == "1":
            return True
        if value == "0":
            return False
        raise self.fail(column, f"expected 0 or 1, got {value!r}")


def _read_rows(path: str | Path, required: Sequence[str]) -> list[_Row]:
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file")
        for col in required:
            if col not in reader.fieldnames:
                raise ParseError(f"{path}: missing column '{col}'")
        return [_Row(str(path), reader.line_num, row) for row in reader]


def _record_line(path: str | Path, index: int) -> int:
    """File line of the ``index``-th (0-based) non-blank record after the
    header.  Bulk parsers count records, not lines; only their error paths
    call this, re-reading the file to name the line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        next(itertools.islice(filter(None, reader), index, None))
        return reader.line_num


# ----------------------------------------------------------------------
# markets
# ----------------------------------------------------------------------

# column prefix, mode, numeric fields carried for that mode
_MODE_COLUMNS: tuple[tuple[str, Mode, tuple[str, ...]], ...] = (
    ("driving", Mode.DRIVING, ("ivt_min", "cost_usd")),
    ("transit", Mode.TRANSIT, ("ivt_min", "access_min", "egress_min", "transfers", "cost_usd")),
    ("ondemand", Mode.ON_DEMAND_AUTO, ("ivt_min", "cost_usd")),
    ("biking", Mode.BIKING, ("ivt_min",)),
    ("walking", Mode.WALKING, ("ivt_min",)),
    ("carpool", Mode.CARPOOL, ("ivt_min", "cost_usd")),
)

MARKET_BASE_COLUMNS = ("od_id", "segment", "o_lat", "o_lon", "d_lat", "d_lon", "trips_per_day", "driving_miles")


def market_columns(*, with_taste: bool = True, with_zones: bool = True) -> list[str]:
    cols = list(MARKET_BASE_COLUMNS)
    for prefix, _, fields_ in _MODE_COLUMNS:
        cols.extend(f"{prefix}_{f}" for f in fields_)
        cols.append(f"{prefix}_available")
    if with_taste:
        cols.extend(TASTE_FIELDS)
    if with_zones:
        cols.extend(("o_zone", "d_zone"))
    return cols


def _parse_segment(row: _Row, column: str = "segment") -> Segment:
    raw = row.require(column)
    try:
        return Segment(raw)
    except ValueError:
        raise row.fail(column, f"unknown segment {raw!r}") from None


def _parse_taste(row: _Row) -> TasteVector:
    values = {}
    for name in TASTE_FIELDS:
        values[name] = row.number(name)
    if values["beta_cost"] >= 0.0:
        raise row.fail("beta_cost", f"beta_cost must be negative, got {values['beta_cost']}")
    return TasteVector(**values)


def load_taste_parameters(path: str | Path) -> dict[tuple[str, Segment], TasteVector]:
    """Taste vectors keyed by (od_id, segment) from a standalone file."""
    rows = _read_rows(path, ("od_id", "segment") + TASTE_FIELDS)
    out: dict[tuple[str, Segment], TasteVector] = {}
    for row in rows:
        key = (row.require("od_id"), _parse_segment(row))
        if key in out:
            raise row.fail("od_id", f"duplicate taste entry for {key[0]}/{key[1].value}")
        out[key] = _parse_taste(row)
    return out


def load_markets(path: str | Path, taste_path: str | Path | None = None) -> list[Market]:
    """Markets from CSV; taste columns inline or joined from taste_path."""
    probe = _read_rows(path, MARKET_BASE_COLUMNS)
    if not probe:
        return []
    have_taste_cols = all(name in probe[0].data for name in TASTE_FIELDS)
    taste_lookup = None
    if not have_taste_cols:
        if taste_path is None:
            raise ParseError(f"{path}: taste columns absent and no taste-parameters file given")
        taste_lookup = load_taste_parameters(taste_path)

    markets = []
    for row in probe:
        od_id = row.require("od_id")
        segment = _parse_segment(row)
        origin = _point(row, "o_lat", "o_lon")
        destination = _point(row, "d_lat", "d_lon")
        trips = row.number("trips_per_day")
        if trips < 0:
            raise row.fail("trips_per_day", "negative trips")
        miles = row.number("driving_miles")
        attrs: dict[Mode, ModeAttr] = {}
        for prefix, mode, fields_ in _MODE_COLUMNS:
            available = row.flag(f"{prefix}_available")
            numbers = {}
            for f in fields_:
                val = row.number(f"{prefix}_{f}", optional=not available)
                numbers[f] = 0.0 if val is None else val
            attrs[mode] = ModeAttr(available=available, **numbers)
        if taste_lookup is not None:
            taste = taste_lookup.get((od_id, segment))
            if taste is None:
                raise row.fail("od_id", f"no taste parameters for {od_id}/{segment.value}")
        else:
            taste = _parse_taste(row)
        o_zone = row.data.get("o_zone", "").strip()
        d_zone = row.data.get("d_zone", "").strip()
        try:
            markets.append(
                Market(
                    od_id=od_id,
                    segment=segment,
                    origin=origin,
                    destination=destination,
                    trips_per_day=trips,
                    driving_miles=miles,
                    attrs=attrs,
                    taste=taste,
                    o_zone=o_zone,
                    d_zone=d_zone,
                )
            )
        except ValueError as err:
            raise ParseError(f"{row.path} row {row.line_no}: {err}") from None
    ids = [m.market_id for m in markets]
    if len(set(ids)) != len(ids):
        raise ParseError(f"{path}: duplicate (od_id, segment) rows")
    return markets


def _point(row: _Row, lat_col: str, lon_col: str) -> GeoPoint:
    try:
        return GeoPoint(lat=row.number(lat_col), lon=row.number(lon_col))
    except ValueError as err:
        if isinstance(err, ParseError):
            raise
        raise row.fail(lat_col, str(err)) from None


def write_markets(markets: Sequence[Market], path: str | Path) -> Path:
    header = market_columns()
    rows = []
    for m in sorted(markets, key=lambda m: m.market_id):
        row = [m.od_id, m.segment.value, m.origin.lat, m.origin.lon, m.destination.lat, m.destination.lon, m.trips_per_day, m.driving_miles]
        for prefix, mode, fields_ in _MODE_COLUMNS:
            attr = m.attrs.get(mode, ModeAttr(available=False))
            row.extend(getattr(attr, f) for f in fields_)
            row.append(attr.available)
        row.extend(getattr(m.taste, name) for name in TASTE_FIELDS)
        row.extend((m.o_zone, m.d_zone))
        rows.append(row)
    return write_csv(path, header, rows)


# ----------------------------------------------------------------------
# survey
# ----------------------------------------------------------------------

SURVEY_COLUMNS = ("hub_id", "o_lat", "o_lon", "d_lat", "d_lon", "entry_mode", "exit_mode", "segment", "complete")

_LEG_MODE_BY_VALUE = {m.value: m for m in LEG_MODES}


def _parse_leg_mode(row: _Row, column: str) -> Mode:
    raw = row.require(column)
    mode = _LEG_MODE_BY_VALUE.get(raw)
    if mode is None:
        raise row.fail(column, f"unknown leg mode {raw!r}")
    return mode


def load_survey(path: str | Path) -> list[SurveyRecord]:
    rows = _read_rows(path, SURVEY_COLUMNS[:7])
    out = []
    for row in rows:
        segment_raw = row.data.get("segment", "").strip()
        out.append(
            SurveyRecord(
                hub_id=row.require("hub_id"),
                origin=_point(row, "o_lat", "o_lon"),
                destination=_point(row, "d_lat", "d_lon"),
                entry_mode=_parse_leg_mode(row, "entry_mode"),
                exit_mode=_parse_leg_mode(row, "exit_mode"),
                segment=_parse_segment(row) if segment_raw else None,
                complete=row.flag("complete", default=True) if "complete" in row.data else True,
            )
        )
    return out


def write_survey(records: Sequence[SurveyRecord], path: str | Path) -> Path:
    rows = [
        [
            r.hub_id,
            r.origin.lat,
            r.origin.lon,
            r.destination.lat,
            r.destination.lon,
            r.entry_mode.value,
            r.exit_mode.value,
            r.segment.value if r.segment else "",
            r.complete,
        ]
        for r in records
    ]
    return write_csv(path, SURVEY_COLUMNS, rows)


# ----------------------------------------------------------------------
# stops and lots
# ----------------------------------------------------------------------


def load_stops(path: str | Path) -> list[StopRecord]:
    rows = _read_rows(path, ("stop_id", "lat", "lon"))
    return [StopRecord(stop_id=row.require("stop_id"), location=_point(row, "lat", "lon")) for row in rows]


def write_stops(stops: Sequence[StopRecord], path: str | Path) -> Path:
    return write_csv(path, ("stop_id", "lat", "lon"), [[s.stop_id, s.location.lat, s.location.lon] for s in stops])


def load_pr_lots(path: str | Path) -> list[GeoPoint]:
    rows = _read_rows(path, ("lot_id", "lat", "lon"))
    return [_point(row, "lat", "lon") for row in rows]


def write_pr_lots(lots: Sequence[GeoPoint], path: str | Path) -> Path:
    return write_csv(
        path,
        ("lot_id", "lat", "lon"),
        [[f"lot{i:04d}", p.lat, p.lon] for i, p in enumerate(lots)],
    )


# ----------------------------------------------------------------------
# leg matrices
# ----------------------------------------------------------------------

MATRIX_COLUMNS = (
    "zone_id",
    "hub_id",
    "mode",
    "to_hub_min",
    "to_hub_access_min",
    "to_hub_egress_min",
    "to_hub_transfers",
    "to_hub_miles",
    "from_hub_min",
    "from_hub_access_min",
    "from_hub_egress_min",
    "from_hub_transfers",
    "from_hub_miles",
)


# Rows parsed per batch: a batch's cell strings are dropped once its
# columns are arrays, so the strings held at once do not grow with the file.
_MATRIX_BATCH_ROWS = 2048


def _matrix_key_cell(ids: dict[str, int]):
    def convert(text: str) -> int:
        text = text.strip()
        if not text:
            raise ValueError("empty value")
        return ids.setdefault(text, len(ids))

    return convert


def _matrix_mode_cell(text: str) -> int:
    text = text.strip()
    if not text:
        raise ValueError("empty value")
    mode = _LEG_MODE_BY_VALUE.get(text)
    if mode is None:
        raise ValueError(f"unknown leg mode {text!r}")
    return LEG_MODE_ORDER.index(mode)


def _matrix_number_cell(text: str) -> float:
    text = text.strip()
    return _number(text) if text else math.nan


def _float_column(cells: Sequence[str]) -> np.ndarray | None:
    """The cells as floats, NaN for empty ones, when every other cell is a
    finite float literal (the common case, converted in bulk); else None."""
    literals = list(filter(None, cells))
    try:
        numbers = np.fromiter(map(float, literals), dtype=float, count=len(literals))
    except ValueError:
        return None
    if not np.isfinite(numbers).all():
        return None
    if len(literals) == len(cells):
        return numbers
    column = np.full(len(cells), np.nan)
    column[np.fromiter(map(bool, cells), dtype=bool, count=len(cells))] = numbers
    return column


def _matrix_batch(path, first: int, rows: list[list[str]], picks: Sequence[int], converters) -> list[np.ndarray]:
    """One array per matrix column of ``rows``, records ``first`` onward of
    the file.  Cells the bulk path does not take are converted once per
    distinct text; the first bad cell, in row then column order, raises a
    ParseError naming it."""
    columns = list(zip(*rows))
    out = []
    bad_cell = None  # (row index, column index, why)
    for j, (pick, convert) in enumerate(zip(picks, converters)):
        cells = columns[pick]
        column = _float_column(cells) if convert is _matrix_number_cell else None
        if column is None:
            values = dict.fromkeys(cells)
            bad = {}
            for text in values:
                try:
                    values[text] = convert(text)
                except ValueError as err:
                    bad[text] = str(err)
            if bad:
                i = min(cells.index(text) for text in bad)
                if bad_cell is None or i < bad_cell[0]:
                    bad_cell = (i, j, bad[cells[i]])
                continue
            dtype = np.int64 if j < 3 else float  # codes, then numbers
            column = np.fromiter(map(values.__getitem__, cells), dtype=dtype, count=len(cells))
        out.append(column)
    if bad_cell is not None:
        i, j, why = bad_cell
        raise ParseError(f"{path} row {_record_line(path, first + i)}: {why} in column '{MATRIX_COLUMNS[j]}'")
    return out


def load_matrices(paths: Sequence[str | Path]) -> LegMatrices:
    """Merge one or more leg matrix files; a key repeated within or across
    files is an error."""
    zone_ids: dict[str, int] = {}
    hub_ids: dict[str, int] = {}
    converters = [_matrix_key_cell(zone_ids), _matrix_key_cell(hub_ids), _matrix_mode_cell]
    converters += [_matrix_number_cell] * (len(MATRIX_COLUMNS) - 3)
    batches = []
    row_files = []  # (path, number of rows) per file
    for path in paths:
        n_rows = 0
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            where = {name: i for i, name in enumerate(header)}
            for col in MATRIX_COLUMNS:
                if col not in where:
                    raise ParseError(f"{path}: missing column '{col}'")
            picks = [where[col] for col in MATRIX_COLUMNS]
            width = max(picks) + 1
            while raw := list(itertools.islice(reader, _MATRIX_BATCH_ROWS)):
                # Blank lines are skipped; n_rows counts records, which
                # error paths map back to file lines.
                rows = list(filter(None, raw))
                if rows and min(map(len, rows)) < width:
                    short = next(i for i, r in enumerate(rows) if len(r) < width)
                    if short:
                        _matrix_batch(path, n_rows, rows[:short], picks, converters)
                    missing = next(c for c, p in zip(MATRIX_COLUMNS, picks) if p >= len(rows[short]))
                    line = _record_line(path, n_rows + short)
                    raise ParseError(f"{path} row {line}: missing cell in column '{missing}'")
                if rows:
                    zone, hub, mode, *numbers = _matrix_batch(path, n_rows, rows, picks, converters)
                    batches.append((zone, hub, mode, np.stack(numbers, axis=1)))
                n_rows += len(rows)
        row_files.append((path, n_rows))

    if not batches:
        return LegMatrices()
    # Copy the batches into one block per column, dropping each batch once
    # copied, so the batches and the block are never both held in full.
    n = sum(len(batch[0]) for batch in batches)
    zone, hub, mode = (np.empty(n, dtype=np.int64) for _ in range(3))
    numbers = np.empty((n, len(MATRIX_COLUMNS) - 3))
    at = 0
    batches.reverse()
    while batches:
        batch = batches.pop()
        rows = slice(at, at + len(batch[0]))
        for column, part in zip((zone, hub, mode, numbers), batch):
            column[rows] = part
        at = rows.stop
    legs = numbers.reshape(len(zone), 2, 5).transpose(1, 0, 2)
    # Blank access, egress and transfers cells mean 0; blank minutes and
    # miles stay NaN.
    counts = legs[:, :, 1:4]
    counts[np.isnan(counts)] = 0.0
    matrices = LegMatrices(list(zone_ids), list(hub_ids), zone, hub, mode, legs)
    if len(matrices) < len(zone):
        _raise_repeated_key(zone_ids, hub_ids, zone, hub, mode, row_files)
    return matrices


def _raise_repeated_key(zone_ids, hub_ids, zone, hub, mode, row_files) -> None:
    """Name the first row whose (zone, hub, mode) key an earlier row has."""
    zone_names, hub_names = list(zone_ids), list(hub_ids)
    seen = set()
    keys = zip(zone.tolist(), hub.tolist(), mode.tolist())
    for path, n_rows in row_files:
        for i, key in zip(range(n_rows), keys):
            if key in seen:
                z, h, m = key
                raise ParseError(
                    f"{path} row {_record_line(path, i)}: duplicate matrix entry "
                    f"({zone_names[z]}, {hub_names[h]}, {LEG_MODE_ORDER[m].value}) in column 'zone_id'"
                )
            seen.add(key)


def write_matrices(matrices: LegMatrices, path: str | Path) -> Path:
    """Rows in (zone, hub, mode name) order; an absent direction is five
    blank cells and unknown miles one."""
    columns = [
        list(map(matrices.zone_ids.__getitem__, matrices.zone.tolist())),
        list(map(matrices.hub_ids.__getitem__, matrices.hub.tolist())),
        [LEG_MODE_ORDER[c].value for c in matrices.mode.tolist()],
    ]
    for block in matrices.legs:
        absent = np.isnan(block[:, 0])
        if np.isnan(block[~absent, 1:4]).any():
            raise ValueError("refusing to write NaN")
        for f in range(5):
            cells = list(map(repr, block[:, f].tolist()))
            for i in np.flatnonzero(absent | np.isnan(block[:, f])).tolist():
                cells[i] = ""
            columns.append(cells)
    lines = [",".join(MATRIX_COLUMNS), *map(",".join, zip(*columns))]
    return atomic_write_text(path, "\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# fares
# ----------------------------------------------------------------------


def load_fares(path: str | Path) -> FareTable:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: fares must be a JSON object")
    unknown = sorted(set(data) - {"bus_fare_usd", "car_share_usd_per_hour", "bike_share_steps"})
    if unknown:
        raise ParseError(f"{path}: unknown fare keys: {unknown}")
    try:
        steps_raw = data.get("bike_share_steps") or [{"up_to_min": None, "fare_usd": 0.0}]
        steps = tuple(
            (float(s["up_to_min"]) if s["up_to_min"] is not None else _INF, float(s["fare_usd"])) for s in steps_raw
        )
        return FareTable(
            bus_fare_usd=float(data["bus_fare_usd"]),
            car_share_usd_per_hour=float(data["car_share_usd_per_hour"]),
            bike_share_steps=steps,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{path}: malformed fares: {err}") from None


def write_fares(fares: FareTable, path: str | Path) -> Path:
    steps = [
        {"up_to_min": None if math.isinf(bound) else bound, "fare_usd": fare}
        for bound, fare in fares.bike_share_steps
    ]
    return write_json(
        path,
        {
            "bus_fare_usd": fares.bus_fare_usd,
            "car_share_usd_per_hour": fares.car_share_usd_per_hour,
            "bike_share_steps": steps,
        },
    )


# ----------------------------------------------------------------------
# hub records (observed usage file)
# ----------------------------------------------------------------------

HUB_RECORD_COLUMNS = (
    "hub_id",
    "lat",
    "lon",
    "car_share_available",
    "bike_share_available",
    "backend_trips_per_month",
    "days_per_month",
    "service_share",
    "survey_responses",
    "survey_days",
    "sample_rate",
)


class HubRecord:
    """One hub definition plus its raw usage observations.

    Exactly one of two observation routes applies: backend counts
    (backend_trips_per_month, days_per_month, service_share) or survey
    expansion (survey_responses, survey_days, and a sample_rate that may
    be inherited from a backend hub).
    """

    def __init__(
        self,
        hub_id: str,
        location: GeoPoint,
        car_share_available: bool,
        bike_share_available: bool,
        backend_trips_per_month: float | None = None,
        days_per_month: float | None = None,
        service_share: float | None = None,
        survey_responses: float | None = None,
        survey_days: float | None = None,
        sample_rate: float | None = None,
    ):
        self.hub_id = hub_id
        self.location = location
        self.car_share_available = car_share_available
        self.bike_share_available = bike_share_available
        self.backend_trips_per_month = backend_trips_per_month
        self.days_per_month = days_per_month
        self.service_share = service_share
        self.survey_responses = survey_responses
        self.survey_days = survey_days
        self.sample_rate = sample_rate

    @property
    def has_backend(self) -> bool:
        return self.backend_trips_per_month is not None

    def __repr__(self) -> str:
        return f"HubRecord({self.hub_id!r})"


def load_hub_records(path: str | Path) -> list[HubRecord]:
    rows = _read_rows(path, HUB_RECORD_COLUMNS)
    out = []
    seen = set()
    for row in rows:
        hub_id = row.require("hub_id")
        if hub_id in seen:
            raise row.fail("hub_id", f"duplicate hub {hub_id!r}")
        seen.add(hub_id)
        backend = row.number("backend_trips_per_month", optional=True)
        days = row.number("days_per_month", optional=True)
        share = row.number("service_share", optional=True)
        if backend is not None and (days is None or share is None):
            raise row.fail("days_per_month", "backend counts need days_per_month and service_share")
        out.append(
            HubRecord(
                hub_id=hub_id,
                location=_point(row, "lat", "lon"),
                car_share_available=row.flag("car_share_available"),
                bike_share_available=row.flag("bike_share_available"),
                backend_trips_per_month=backend,
                days_per_month=days,
                service_share=share,
                survey_responses=row.number("survey_responses", optional=True),
                survey_days=row.number("survey_days", optional=True),
                sample_rate=row.number("sample_rate", optional=True),
            )
        )
    if not out:
        raise ParseError(f"{path}: no hub rows")
    return out


def write_hub_records(records: Sequence[HubRecord], path: str | Path) -> Path:
    rows = [
        [
            r.hub_id,
            r.location.lat,
            r.location.lon,
            r.car_share_available,
            r.bike_share_available,
            r.backend_trips_per_month,
            r.days_per_month,
            r.service_share,
            r.survey_responses,
            r.survey_days,
            r.sample_rate,
        ]
        for r in sorted(records, key=lambda r: r.hub_id)
    ]
    return write_csv(path, HUB_RECORD_COLUMNS, rows)


# ----------------------------------------------------------------------
# geojson
# ----------------------------------------------------------------------


def candidates_geojson(candidates: Sequence[Candidate], reference_ids: Sequence[str] = ()) -> dict:
    """FeatureCollection of candidate points with their metrics."""
    refs = set(reference_ids)
    features = []
    for c in sorted(candidates, key=lambda c: c.candidate_id):
        props = {
            "candidate_id": c.candidate_id,
            "member_stop_ids": list(c.member_stop_ids),
            "car_share_available": c.car_share_available,
            "bike_share_available": c.bike_share_available,
            "reference": c.candidate_id in refs,
        }
        if c.metrics is not None:
            props.update(
                {
                    "potential_demand": c.metrics.potential_demand,
                    "transit_delta": c.metrics.transit_delta,
                    "vmt_reduced": c.metrics.vmt_reduced,
                    "cs_total": c.metrics.cs_total,
                    "no_potential_trips": c.metrics.no_potential_trips,
                }
            )
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [c.location.lon, c.location.lat]},
                "properties": props,
            }
        )
    return {"type": "FeatureCollection", "features": features}
