"""File formats, atomic writes, and input digests.

All tabular inputs are UTF-8 CSV with a header row and dot decimal
separators; fares, params and the manifest are JSON.  Floats are
emitted with repr (shortest round-trip form), so loading and re-emitting
a file is lossless; every writer goes through a temp-file-then-rename so
readers never observe a partial file.

Every CSV file is read by one parser with one set of rules, those of
the csv module: a leading byte-order mark is dropped, lines may end in
LF or CRLF, and a quoted cell may hold commas, quotes and line breaks.
A column the file needs must be in the header, and a column read must
not be named twice; optional columns are read when present, others
ignored.  Blank lines are skipped but counted, so an error's row is the
file line (the header is line 1).  A row short of a column read is an
error (``missing cell``).  Cells are converted column by column, numbers
in bulk, and the first bad cell in row then column order raises
ParseError naming the file, row and column: numbers must be finite,
flags 0 or 1, keys and labels non-blank, and number cells non-blank
unless a rule below allows it.  Record checks (coordinates, beta_cost
sign, joins, duplicate keys) then name the first faulty row and its
column the same way; MarketTable runs the markets' own rules.

csv.reader reads a file in batches of ``_BATCH_CELLS // len(header)``
records (one at least); a batch's cells are converted, numbers in bulk
and text once per distinct value, and then dropped.  The batch size
bounds the parse's memory and changes no value and no error.  Writers
quote a text cell holding a comma, a quote or a line break as the csv
module does, so what they write reads back.

Markets columns, in order: od_id, segment, o_lat, o_lon, d_lat, d_lon,
trips_per_day, driving_miles, the per-mode attribute columns, the twelve
taste columns, and optionally o_zone/d_zone.  They load straight into a
MarketTable; the taste columns may be omitted when a taste-parameters
file keyed by (od_id, segment) is joined.  An unavailable mode (flag 0)
may have blank numeric cells.  A blank survey segment is unlabelled and
a blank complete flag means 1; blank observed-usage counts are unobserved.

Leg matrices columns: zone_id, hub_id, mode, then to_hub_* and
from_hub_* column groups (min, access_min, egress_min, transfers,
miles).  One row per (zone, hub, leg mode): a key repeated within or
across files is an error.  Every number cell is blank or from 0 (-0.0
too) to VALUE_BOUND.  A blank minutes cell means that direction is
unavailable (its other cells are then ignored, but must still keep that
rule); blank access, egress and transfers mean 0; blank miles means no
network distance is known.  The files' lines are counted first (LF,
CRLF and lone CR ends, as csv.reader splits them), which bounds their
records; the batches are parsed straight into one leg block of that
many rows, which becomes the LegMatrices store, with no further copy
when the rows arrive in key order.  Files are written back sorted by
(zone, hub, mode name), an unavailable direction as five blank cells.

A clean parse of a non-empty store also writes the store to a sidecar
beside the first file, ``.<file name>.<tag>.legs``, whose tag is a
sha256 over SIDECAR_VERSION and each file's sha256.  The next load of
the same bytes reads the store back from it instead of parsing; a
sidecar that does not read back whole is ignored and replaced.  The
files stay the only input: deleting a sidecar changes nothing but the
time the next load takes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .choice import SEGMENTS, TASTE_FIELDS, Segment
from .geo import GeoPoint
from .hubs import ATTR_FIELDS, LEG_MODE_ORDER, MARKET_MODE_COLUMNS, VALUE_BOUND, FareTable, LegMatrices, SurveyRecord
from .hubs import HubParams, MarketError, MarketTable
from .records import record

if TYPE_CHECKING:  # siting runs only in rank and gen-fixture
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


def _json_value(obj):
    """The JSON value of a node ``json`` cannot write itself: a numpy array
    or scalar, or a mapping that is not a dict."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Mapping):
        return dict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text to path via a sibling temp file and rename.  The temp file
    is created as ``open`` creates a file, so the result has the mode
    ``open`` would give it (0o666 less the umask)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object ``what`` in ``path``, UTF-8 with or without a
    byte-order mark; a file that does not decode, parse or hold an object
    is a ParseError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except ValueError as err:  # UnicodeDecodeError, JSONDecodeError
        raise ParseError(f"{path}: malformed JSON: {err}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: {what} must be a JSON object")
    return data


def is_finite_number(value) -> bool:
    """Whether a JSON value is an int or a finite float; a bool, a string,
    null, NaN, an infinity and an int beyond float range are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_number(key: str, value) -> float:
    """``value`` as a float when ``is_finite_number``; else a ValueError
    naming ``key``."""
    if not is_finite_number(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell: quoted, inner quotes doubled, when it holds
    a comma, a quote or a line break, as the csv module writes it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column, blank: np.ndarray | None = None) -> list[str]:
    """A column's CSV cells: each value as ``fmt`` writes it, quoted as
    ``_csv_cell`` quotes it; for an array, empty where ``blank`` is set.  A
    number or bool array, and a sequence of str, is formatted once per
    distinct value, floats by their bits so that -0.0 stays -0.0; any
    other sequence cell by cell."""
    if not (isinstance(column, np.ndarray) and column.dtype.kind in "biuf"):
        values = column.tolist() if isinstance(column, np.ndarray) else list(column)
        if not all(type(v) is str for v in values):
            return [_csv_cell(fmt(v)) for v in values]
        texts = {v: _csv_cell(v) for v in set(values)}
        return list(map(texts.__getitem__, values))
    floats = column.dtype.kind == "f"
    if floats:
        column = column.astype(float, copy=False) if blank is None else np.where(blank, 0.0, column)
    distinct, inverse = np.unique(column.view(np.int64) if floats else column, return_inverse=True)
    if floats:
        distinct = distinct.view(float)
        if np.isnan(distinct).any():
            raise ValueError("refusing to write NaN")
    texts = list(map(repr if floats else fmt, distinct.tolist()))
    if blank is not None:
        inverse = np.where(blank, len(texts), inverse)
    return np.array([*texts, ""], dtype=object)[inverse].tolist()


def _coded_cells(labels: Sequence[str], codes: np.ndarray) -> list[str]:
    """The CSV cell of each code's label, quoted once per label."""
    return np.array(_cells(labels), dtype=object)[codes].tolist()


def _write_cells(path: str | Path, header: Sequence[str], columns: Sequence[list[str]]) -> Path:
    lines = [",".join(header), *map(",".join, zip(*columns))]
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Header and rows of one length, formatted and quoted column by column
    (``_cells``)."""
    return _write_cells(path, header, [_cells(column) for column in zip(*rows, strict=True)])


def write_json(path: str | Path, obj) -> Path:
    return atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, default=_json_value) + "\n")


def sha256_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ----------------------------------------------------------------------
# the CSV reader
# ----------------------------------------------------------------------

# Cells per batch: a batch's rows are dropped once its columns are
# converted, so this bounds what a parse holds at once, while each batch
# pays a cost per column.  At 4,096 cells the first rank-1k `rank`, which
# parses its leg matrices, peaks at 46.5 MB; 1,024 cells lowered that by
# 0.15 MB but made every `rank` 15 ms slower, as its 41-column markets
# file then goes in 24-record batches.
_BATCH_CELLS = 4096

# Bytes read at a time when counting a file's lines.  Freeing a read this
# large also lifts glibc's dynamic mmap threshold above the parse's
# temporaries: with 64 KiB reads, rank-1k's `rank` ran 3% slower.
_COUNT_BYTES = 1 << 20

_LEG_MODE_NAMES = [mode.value for mode in LEG_MODE_ORDER]
_LEG_MODE_CODES = {name: i for i, name in enumerate(_LEG_MODE_NAMES)}

# Cell converters take the raw cell text and return its value or raise
# ValueError saying why there is none.


def _text_cell(text: str) -> str:
    text = text.strip()
    if not text:
        raise ValueError("empty value")
    return text


def _required_number_cell(text: str) -> float:
    text = _text_cell(text)
    try:
        out = float(text)
    except ValueError:
        raise ValueError(f"malformed number {text!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"non-finite number {text!r}")
    return out


def _number_cell(text: str) -> float:
    """A finite number; NaN for a blank cell."""
    return _required_number_cell(text) if text.strip() else math.nan


def _leg_cell(text: str) -> float:
    """A leg matrix number from 0 (-0.0 too) to VALUE_BOUND; NaN for a
    blank cell."""
    value = _number_cell(text)
    if value < 0.0:
        raise ValueError(f"negative value {value}")
    if value > VALUE_BOUND:
        raise ValueError(f"value {value} above {VALUE_BOUND}")
    return value


_NUMBER_CELLS = (_number_cell, _required_number_cell, _leg_cell)


def _out_of_range(convert: Callable, column: np.ndarray) -> bool:
    """Whether a number column converted in bulk holds a value that
    ``convert`` rejects for its size (NaN, a blank, never does)."""
    return convert is _leg_cell and bool(((column < 0.0) | (column > VALUE_BOUND)).any())


def _flag_cell(text: str) -> bool:
    text = text.strip()
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _segment_cell(text: str) -> Segment:
    text = _text_cell(text)
    try:
        return Segment(text)
    except ValueError:
        raise ValueError(f"unknown segment {text!r}") from None


def _segment_code_cell(text: str) -> int:
    """The segment's index in SEGMENTS."""
    return SEGMENTS.index(_segment_cell(text))


def _leg_mode_cell(text: str) -> int:
    """The leg mode's index in LEG_MODE_ORDER."""
    text = _text_cell(text)
    code = _LEG_MODE_CODES.get(text)
    if code is None:
        raise ValueError(f"unknown leg mode {text!r}")
    return code


def _record_line(path: str | Path, index: int) -> int:
    """File line of the ``index``-th (0-based) non-blank record after the
    header.  The reader counts records, not lines; only error paths call
    this, re-reading the file to name the line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        next(itertools.islice(filter(None, reader), index, None))
        return reader.line_num


def _row_error(path: str | Path, index: int, column: str, why: str) -> ParseError:
    """ParseError naming the file line of the ``index``-th record and the
    column of its bad cell."""
    return ParseError(f"{path} row {_record_line(path, index)}: {why} in column '{column}'")


def _float_column(cells: Sequence[str], blanks: bool) -> np.ndarray | None:
    """The cells as floats, NaN for empty ones when ``blanks`` allows
    them, when every other cell is a finite float literal (the common
    case, converted in bulk); else None."""
    literals = list(filter(None, cells))
    if len(literals) < len(cells) and not blanks:
        return None
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


def _convert_batch(path, first: int, rows: list[list[str]], read: Mapping[str, tuple[int, Callable]]) -> dict:
    """Each ``read`` column (name: cell index, converter) of ``rows``,
    records ``first`` onward of the file: a float array for a number
    column, an int64 array for a column of integer codes, else a list.
    Cells the bulk path does not take are converted once per distinct
    text; the first bad cell, in row then column order, raises a
    ParseError naming it, a row short of a ``read`` column its first
    missing cell."""
    width = max(pick for pick, _ in read.values()) + 1
    if min(map(len, rows)) < width:
        short = next(i for i, r in enumerate(rows) if len(r) < width)
        if short:  # a bad cell in an earlier row comes first
            _convert_batch(path, first, rows[:short], read)
        missing = next(col for col, (pick, _) in read.items() if pick >= len(rows[short]))
        raise _row_error(path, first + short, missing, "missing cell")
    columns = list(zip(*rows))
    out = {}
    bad_cell = None  # (row index, column, why)
    for name, (pick, convert) in read.items():
        cells = columns[pick]
        number = convert in _NUMBER_CELLS
        column = _float_column(cells, convert is not _required_number_cell) if number else None
        if column is None or _out_of_range(convert, column):
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
                    bad_cell = (i, name, bad[cells[i]])
                continue
            if number or all(type(v) is int for v in values.values()):
                column = np.fromiter(map(values.__getitem__, cells), float if number else np.int64, len(cells))
            else:
                column = list(map(values.__getitem__, cells))
        out[name] = column
    if bad_cell is not None:
        i, name, why = bad_cell
        raise _row_error(path, first + i, name, why)
    return out


def _read_batches(path: str | Path, columns: Mapping[str, Callable], optional: Mapping | None = None) -> Iterator[dict]:
    """The file's records in batches of about ``_BATCH_CELLS`` cells, each
    holding every column of ``columns`` (name: converter) and each of
    ``optional`` that the header has, in that order, as
    ``_convert_batch`` gives them."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        where = {name: i for i, name in enumerate(header)}
        for col in columns:
            if col not in where:
                raise ParseError(f"{path}: missing column '{col}'")
        read = {col: (where[col], f) for col, f in [*columns.items(), *(optional or {}).items()] if col in where}
        for col in read:
            if header.count(col) > 1:
                raise ParseError(f"{path}: column '{col}' appears twice in the header")
        size = max(1, _BATCH_CELLS // len(header))
        first = 0  # records before this batch, which error paths map to lines
        while raw := list(itertools.islice(reader, size)):
            rows = list(filter(None, raw))  # blank lines are skipped
            if rows:
                yield _convert_batch(path, first, rows, read)
            first += len(rows)


def _read_columns(path: str | Path, columns: Mapping[str, Callable], optional: Mapping | None = None) -> dict:
    """The whole file as {column: values in record order}, each column an
    array or a list as ``_convert_batch`` gives it.  A file with no
    records has no keys."""
    batches = list(_read_batches(path, columns, optional))
    table = {}
    for name in batches[0] if batches else ():
        parts = [batch[name] for batch in batches]
        table[name] = np.concatenate(parts) if isinstance(parts[0], np.ndarray) else list(itertools.chain(*parts))
    return table


def _read_table(path: str | Path, columns: Mapping[str, Callable], optional: Mapping | None = None) -> defaultdict:
    """``_read_columns`` with numbers as Python floats; a file with no
    records reads as empty columns."""
    table = _read_columns(path, columns, optional)
    return defaultdict(list, {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in table.items()})


def _point(path: str | Path, index: int, lat: float, lon: float, lat_column: str) -> GeoPoint:
    """A record's coordinates; a range error names the lat column."""
    try:
        return GeoPoint(lat=lat, lon=lon)
    except ValueError as err:
        raise _row_error(path, index, lat_column, str(err)) from None


# ----------------------------------------------------------------------
# markets
# ----------------------------------------------------------------------

MARKET_BASE_COLUMNS = ("od_id", "segment", "o_lat", "o_lon", "d_lat", "d_lon", "trips_per_day", "driving_miles")
# each mode's carried attributes, then its available flag: column -> field
_MODE_COLUMNS = {f"{prefix}_{f}": f for prefix, _, fields_ in MARKET_MODE_COLUMNS for f in (*fields_, "available")}
MARKET_COLUMNS = (*MARKET_BASE_COLUMNS, *_MODE_COLUMNS, *TASTE_FIELDS, "o_zone", "d_zone")

_TASTE_CELLS = dict.fromkeys(TASTE_FIELDS, _required_number_cell)
# A mode's numeric cells may be blank; MarketTable rejects blanks of an
# available mode.
_MARKET_CELLS = {
    "od_id": _text_cell,
    "segment": _segment_code_cell,
    **dict.fromkeys(MARKET_BASE_COLUMNS[2:], _required_number_cell),
    **{col: _flag_cell if f == "available" else _number_cell for col, f in _MODE_COLUMNS.items()},
}


def _check_beta_cost(path: str | Path, beta_cost: np.ndarray) -> None:
    if not (beta_cost < 0.0).all():
        i = int(np.argmin(beta_cost < 0.0))
        raise _row_error(path, i, "beta_cost", f"beta_cost must be negative, got {float(beta_cost[i])}")


def _read_tastes(path: str | Path) -> tuple[dict[tuple[str, int], int], dict[str, np.ndarray]]:
    """A taste-parameters file: the row of each (od_id, segment code) key,
    and the taste columns."""
    table = _read_columns(path, {"od_id": _text_cell, "segment": _segment_code_cell, **_TASTE_CELLS})
    taste = {name: table.get(name, np.empty(0)) for name in TASTE_FIELDS}
    rows: dict[tuple[str, int], int] = {}
    for i, key in enumerate(zip(table.get("od_id", ()), table.get("segment", np.empty(0)).tolist())):
        if key in rows:
            _check_beta_cost(path, taste["beta_cost"][:i])  # a sign fault on an earlier row comes first
            raise _row_error(path, i, "od_id", f"duplicate taste entry for {key[0]}/{SEGMENTS[key[1]].value}")
        rows[key] = i
    _check_beta_cost(path, taste["beta_cost"])
    return rows, taste


def load_markets(path: str | Path, taste_path: str | Path | None = None) -> MarketTable:
    """The markets file as a MarketTable; taste columns inline or joined
    from taste_path by (od_id, segment).  The file's own rules run here
    (cells, the taste join, a negative beta_cost), the market rules in
    MarketTable, and either names the file, row and column: a joined
    taste coefficient's, those of its taste-parameters file."""
    table = _read_columns(path, _MARKET_CELLS, {**_TASTE_CELLS, "o_zone": str.strip, "d_zone": str.strip})
    if not table:  # a header and no records
        modes = len(MARKET_MODE_COLUMNS)
        return MarketTable(
            [], np.empty(0, dtype=np.int64), *np.empty((6, 0)), attrs=dict.fromkeys(ATTR_FIELDS, np.empty((0, modes))),
            available=np.empty((0, modes), dtype=bool), taste=dict.fromkeys(TASTE_FIELDS, np.empty(0)), o_zones=[],
            d_zones=[],
        )
    od_ids, segments = table["od_id"], table["segment"]
    pick = None  # each market's row of a joined taste-parameters file
    if all(name in table for name in TASTE_FIELDS):
        taste = {name: table[name] for name in TASTE_FIELDS}
        _check_beta_cost(path, taste["beta_cost"])
    elif taste_path is None:
        raise ParseError(f"{path}: taste columns absent and no taste-parameters file given")
    else:
        rows, tastes = _read_tastes(taste_path)
        keys = zip(od_ids, segments.tolist())
        pick = np.fromiter(map(rows.get, keys, itertools.repeat(-1)), dtype=np.int64, count=len(od_ids))
        if (pick < 0).any():
            i = int(np.argmax(pick < 0))
            raise _row_error(path, i, "od_id", f"no taste parameters for {od_ids[i]}/{SEGMENTS[segments[i]].value}")
        taste = {name: column[pick] for name, column in tastes.items()}
    zeros = np.zeros(len(od_ids))
    modes = [prefix for prefix, _, _ in MARKET_MODE_COLUMNS]
    try:
        return MarketTable(
            od_ids,
            segments,
            *(table[col] for col in MARKET_BASE_COLUMNS[2:]),
            attrs={f: np.stack([table.get(f"{m}_{f}", zeros) for m in modes], axis=1) for f in ATTR_FIELDS},
            available=np.stack([table[f"{m}_available"] for m in modes], axis=1),
            taste=taste,
            o_zones=table.get("o_zone", [""] * len(od_ids)),
            d_zones=table.get("d_zone", [""] * len(od_ids)),
        )
    except MarketError as err:
        if err.column in TASTE_FIELDS and pick is not None:
            raise _row_error(taste_path, int(pick[err.row]), err.column, err.why) from None
        raise _row_error(path, err.row, err.column, err.why) from None


def write_markets(t: MarketTable, path: str | Path) -> Path:
    """The table's markets in market-id order, written column by column;
    NaN is refused."""
    columns = [t.o_lat, t.o_lon, t.d_lat, t.d_lon, t.trips, t.drive_miles]
    for j, (_, _, fields_) in enumerate(MARKET_MODE_COLUMNS):
        columns += [*(t.attrs[f][:, j] for f in fields_), t.available[:, j]]
    columns += [t.taste[name] for name in TASTE_FIELDS]
    cells = [_cells(t.od_ids), _coded_cells([s.value for s in SEGMENTS], t.segment_codes), *map(_cells, columns)]
    cells += [_coded_cells(t.zone_ids, codes) for codes in (t.o_zone_codes, t.d_zone_codes)]
    return _write_cells(path, MARKET_COLUMNS, cells)


# ----------------------------------------------------------------------
# survey
# ----------------------------------------------------------------------

SURVEY_COLUMNS = ("hub_id", "o_lat", "o_lon", "d_lat", "d_lon", "entry_mode", "exit_mode", "segment", "complete")

_SURVEY_CELLS = {
    "hub_id": _text_cell,
    **dict.fromkeys(SURVEY_COLUMNS[1:5], _required_number_cell),
    "entry_mode": _leg_mode_cell,
    "exit_mode": _leg_mode_cell,
}
_SURVEY_OPTIONAL_CELLS = {
    "segment": lambda text: _segment_cell(text) if text.strip() else None,
    "complete": lambda text: _flag_cell(text) if text.strip() else True,
}


def load_survey(path: str | Path) -> list[SurveyRecord]:
    table = _read_table(path, _SURVEY_CELLS, _SURVEY_OPTIONAL_CELLS)
    rows = zip(
        *(table[col] for col in SURVEY_COLUMNS[:7]),
        table.get("segment", itertools.repeat(None)),
        table.get("complete", itertools.repeat(True)),
    )
    return [
        SurveyRecord(
            hub_id=hub_id,
            origin=_point(path, i, o_lat, o_lon, "o_lat"),
            destination=_point(path, i, d_lat, d_lon, "d_lat"),
            entry_mode=LEG_MODE_ORDER[entry],
            exit_mode=LEG_MODE_ORDER[exit_],
            segment=segment,
            complete=complete,
        )
        for i, (hub_id, o_lat, o_lon, d_lat, d_lon, entry, exit_, segment, complete) in enumerate(rows)
    ]


def write_survey(records: Sequence[SurveyRecord], path: str | Path) -> Path:
    rows = [
        (r.hub_id, r.origin.lat, r.origin.lon, r.destination.lat, r.destination.lon, r.entry_mode.value)
        + (r.exit_mode.value, r.segment.value if r.segment else "", r.complete)
        for r in records
    ]
    return write_csv(path, SURVEY_COLUMNS, rows)


# ----------------------------------------------------------------------
# stops and lots
# ----------------------------------------------------------------------

_LAT_LON_CELLS = {"lat": _required_number_cell, "lon": _required_number_cell}


def load_stops(path: str | Path) -> list[StopRecord]:
    from .siting import StopRecord

    table = _read_table(path, {"stop_id": _text_cell, **_LAT_LON_CELLS})
    rows = zip(table["stop_id"], table["lat"], table["lon"])
    return [StopRecord(stop_id, _point(path, i, lat, lon, "lat")) for i, (stop_id, lat, lon) in enumerate(rows)]


def write_stops(stops: Sequence[StopRecord], path: str | Path) -> Path:
    return write_csv(path, ("stop_id", "lat", "lon"), [[s.stop_id, s.location.lat, s.location.lon] for s in stops])


def load_pr_lots(path: str | Path) -> list[GeoPoint]:
    # lot ids are not kept; the column is still part of the format
    table = _read_table(path, {"lot_id": str, **_LAT_LON_CELLS})
    return [_point(path, i, lat, lon, "lat") for i, (lat, lon) in enumerate(zip(table["lat"], table["lon"]))]


def write_pr_lots(lots: Sequence[GeoPoint], path: str | Path) -> Path:
    return write_csv(path, ("lot_id", "lat", "lon"), [[f"lot{i:04d}", p.lat, p.lon] for i, p in enumerate(lots)])


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


def _max_records(path: str | Path) -> int:
    """At most how many records follow the header of ``path``: its lines,
    ended as csv.reader ends them (LF, CRLF or a lone CR), less one."""
    lines = 0
    tail = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_COUNT_BYTES):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:  # LF-only chunks, the usual case, skip both CR counts
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            lines -= tail == b"\r" and chunk[:1] == b"\n"  # a CRLF split between chunks
            tail = chunk[-1:]
    lines += tail not in (b"", b"\n", b"\r")  # a last line with no line end
    return max(lines - 1, 0)


def load_matrices(paths: Sequence[str | Path], digests: list[str] | None = None) -> LegMatrices:
    """Merge one or more leg matrix files; a key repeated within or across
    files is an error.  Each file is hashed once, and the store is read
    from the sidecar of those digests when it reads back whole, else
    parsed and then written to that sidecar.  Each file's sha256 is
    appended to ``digests`` when one is given, in ``paths`` order."""
    paths = list(paths)  # read thrice: hashed, counted, then parsed
    stamps = list(map(_stamp, paths))
    sums = list(map(sha256_digest, paths))
    if digests is not None:
        digests.extend(sums)
    if not paths:
        return LegMatrices()
    tag = hashlib.sha256(" ".join([f"hubmodal leg store v{SIDECAR_VERSION}", *sums]).encode()).hexdigest()
    first = Path(paths[0])
    sidecar = first.with_name(f".{first.name}.{tag[:_TAG_CHARS]}{_SIDECAR_SUFFIX}")
    matrices = _read_sidecar(sidecar, tag)
    if matrices is None:
        matrices = _parse_matrices(paths)
        # A file that changed while it was read gives no sidecar.
        if len(matrices) and list(map(_stamp, paths)) == stamps:
            _write_sidecar(sidecar, tag, matrices)
    return matrices


def _stamp(path: str | Path) -> tuple[int, int, int]:
    stat = os.stat(path)
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def _parse_matrices(paths: list[str | Path]) -> LegMatrices:
    zone_ids: dict[str, int] = {}
    hub_ids: dict[str, int] = {}
    cells = {
        "zone_id": lambda text: zone_ids.setdefault(_text_cell(text), len(zone_ids)),
        "hub_id": lambda text: hub_ids.setdefault(_text_cell(text), len(hub_ids)),
        "mode": _leg_mode_cell,
        **dict.fromkeys(MATRIX_COLUMNS[3:], _leg_cell),
    }
    # The store's leg block, with a spare row for its sentinel, and each
    # row's zone, hub and mode code in file order: each batch is copied
    # into its own slice and dropped.
    n_max = sum(map(_max_records, paths))
    legs = np.empty((2, n_max + 1, 5))
    codes = np.empty((3, n_max), dtype=np.int32)
    n = 0
    row_files = []  # (path, number of rows) per file
    for path in paths:
        first = n
        for batch in _read_batches(path, cells):
            rows = slice(n, n + len(batch["mode"]))
            for column, name in zip(codes, MATRIX_COLUMNS[:3]):
                column[rows] = batch[name]
            for f, name in enumerate(MATRIX_COLUMNS[3:]):
                legs[f // 5, rows, f % 5] = batch[name]
            # Blank access, egress and transfers cells mean 0; blank minutes
            # and miles stay NaN.
            counts = legs[:, rows, 1:4]
            counts[np.isnan(counts)] = 0.0
            n = rows.stop
        row_files.append((path, n - first))

    if not n:
        return LegMatrices()
    zone, hub, mode = codes[:, :n]
    matrices = LegMatrices(list(zone_ids), list(hub_ids), zone, hub, mode, legs)
    if len(matrices) < n:
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


# ----------------------------------------------------------------------
# leg matrix sidecar
# ----------------------------------------------------------------------

# The sidecar format.  Bump it whenever the matrix rules or the store
# layout change: it enters each sidecar's tag, so no load reads a sidecar
# of another version.
SIDECAR_VERSION = 1
_SIDECAR_SUFFIX = ".legs"
_TAG_CHARS = 16  # of the tag in the file name; the header holds all of it


def _read_sidecar(path: Path, tag: str) -> LegMatrices | None:
    """The store in the sidecar at ``path``, or None when there is none,
    or it is cut short, has another tag or mode names, or does not make a
    store.  Its four .npy arrays are the header (the tag), the zone ids,
    hub ids and mode names as UTF-8 JSON, the store's key and its leg
    block, both with the sentinel row."""
    try:
        with open(path, "rb") as fh:
            if np.lib.format.read_array(fh, allow_pickle=False).tobytes() != tag.encode():
                return None
            names, key, legs = (np.lib.format.read_array(fh, allow_pickle=False) for _ in range(3))
            if fh.read(1):
                return None
            zone_ids, hub_ids, modes = json.loads(names.tobytes())
        if modes != _LEG_MODE_NAMES or not all(type(i) is str for ids in (zone_ids, hub_ids) for i in ids):
            return None
        return LegMatrices.from_store(zone_ids, hub_ids, key, legs)
    # A missing file, a short or malformed array, a header asking for more
    # than memory holds, or parts that make no store.
    except (OSError, ValueError, TypeError, MemoryError):
        return None


def _write_sidecar(path: Path, tag: str, matrices: LegMatrices) -> None:
    """Write ``matrices`` to the sidecar at ``path`` as ``_read_sidecar``
    reads it, then delete the other sidecars of the same first file.
    Each array goes to the file with ``tofile``, with no copy; the leg
    block one direction at a time, as a view of the parse's block is not
    contiguous.  A directory that cannot be written gets no sidecar."""
    names = json.dumps([matrices.zone_ids, matrices.hub_ids, _LEG_MODE_NAMES]).encode()
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for array in (np.frombuffer(tag.encode(), np.uint8), np.frombuffer(names, np.uint8), matrices._key):
                np.lib.format.write_array(fh, array, allow_pickle=False)
            np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(matrices._legs))
            for direction in matrices._legs:
                direction.tofile(fh)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        return
    prefix = path.name[: -len(_SIDECAR_SUFFIX) - _TAG_CHARS]
    for name in os.listdir(path.parent):
        tag_chars = name[len(prefix) : -len(_SIDECAR_SUFFIX)]
        stale = name.startswith(prefix) and name.endswith(_SIDECAR_SUFFIX) and len(tag_chars) == _TAG_CHARS
        if stale and name != path.name and set(tag_chars) <= set("0123456789abcdef"):
            with contextlib.suppress(OSError):
                os.unlink(path.parent / name)


def write_matrices(matrices: LegMatrices, path: str | Path) -> Path:
    """Rows in (zone, hub, mode name) order; an absent direction is five
    blank cells and unknown miles one.  Ids and modes are looked up from
    the codes decoded from the key, and NaN elsewhere in a present
    direction is refused."""
    labels = (matrices.zone_ids, matrices.hub_ids, _LEG_MODE_NAMES)
    columns = [_coded_cells(*pair) for pair in zip(labels, (matrices.zone, matrices.hub, matrices.mode))]
    for block in matrices.legs:
        absent = np.isnan(block[:, 0])
        columns += [_cells(block[:, f], absent | np.isnan(block[:, f]) if f == 4 else absent) for f in range(5)]
    return _write_cells(path, MATRIX_COLUMNS, columns)


# ----------------------------------------------------------------------
# fares and params
# ----------------------------------------------------------------------


def load_fares(path: str | Path) -> FareTable:
    data = read_json(path, "fares")
    unknown = sorted(set(data) - {"bus_fare_usd", "car_share_usd_per_hour", "bike_share_steps"})
    if unknown:
        raise ParseError(f"{path}: unknown fare keys: {unknown}")
    try:
        steps_raw = data.get("bike_share_steps") or [{"up_to_min": None, "fare_usd": 0.0}]
        steps = tuple(
            (
                _INF if s["up_to_min"] is None else check_number(f"bike_share_steps[{i}].up_to_min", s["up_to_min"]),
                check_number(f"bike_share_steps[{i}].fare_usd", s["fare_usd"]),
            )
            for i, s in enumerate(steps_raw)
        )
        return FareTable(
            bus_fare_usd=check_number("bus_fare_usd", data["bus_fare_usd"]),
            car_share_usd_per_hour=check_number("car_share_usd_per_hour", data["car_share_usd_per_hour"]),
            bike_share_steps=steps,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{path}: malformed fares: {err}") from None


def write_fares(fares: FareTable, path: str | Path) -> Path:
    steps = [{"up_to_min": None if math.isinf(up) else up, "fare_usd": fare} for up, fare in fares.bike_share_steps]
    prices = {"bus_fare_usd": fares.bus_fare_usd, "car_share_usd_per_hour": fares.car_share_usd_per_hour}
    return write_json(path, {**prices, "bike_share_steps": steps})


def load_params(path: str | Path) -> HubParams:
    """Nest parameters from a params file: ``params_json``'s object, at
    the top level or under ``"params"``, as a calibration report holds it."""
    data = read_json(path, "params file")
    node = data.get("params", data)
    try:
        beta_hub = check_number("beta_hub", node["beta_hub"])
        asc = node["asc_by_segment"]
        if not isinstance(asc, dict):
            raise ValueError(f"asc_by_segment must be an object of segment constants, got {asc!r}")
        return HubParams(
            beta_hub=beta_hub,
            asc_by_segment={Segment(k): check_number(f"asc_by_segment.{k}", v) for k, v in asc.items()},
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed params: {err}") from None


def params_json(params: HubParams) -> dict:
    """``params`` as the JSON object the reports hold and ``load_params`` reads."""
    return {
        "beta_hub": params.beta_hub,
        "asc_by_segment": {seg.value: params.asc_by_segment[seg] for seg in sorted(params.asc_by_segment, key=lambda s: s.value)},
    }


# ----------------------------------------------------------------------
# hub records (observed usage file)
# ----------------------------------------------------------------------

# after lat and lon, the HubRecord fields of the same names
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


@record(frozen=True)
class HubRecord:
    """One hub definition plus its raw usage observations.

    Exactly one of two observation routes applies: backend counts
    (backend_trips_per_month, days_per_month, service_share) or survey
    expansion (survey_responses, survey_days, and a sample_rate that may
    be inherited from a backend hub).
    """

    hub_id: str
    location: GeoPoint
    car_share_available: bool
    bike_share_available: bool
    backend_trips_per_month: float | None = None
    days_per_month: float | None = None
    service_share: float | None = None
    survey_responses: float | None = None
    survey_days: float | None = None
    sample_rate: float | None = None

    @property
    def has_backend(self) -> bool:
        return self.backend_trips_per_month is not None


_HUB_RECORD_CELLS = {
    "hub_id": _text_cell,
    **_LAT_LON_CELLS,
    "car_share_available": _flag_cell,
    "bike_share_available": _flag_cell,
    **dict.fromkeys(HUB_RECORD_COLUMNS[5:], _number_cell),
}


# What each given count must be for the usage routes' formulas
# (``calibration.derive_observed_rate``, ``derive_sample_rate`` and
# ``infer_trips_from_sample``), so a bad count is named where it is read.
_HUB_COUNT_RULES = {
    "backend_trips_per_month": (lambda v: v >= 0, "must be non-negative"),
    "days_per_month": (lambda v: v > 0, "must be positive"),
    "service_share": (lambda v: 0 < v <= 1, "must be in (0, 1]"),
    "survey_responses": (lambda v: v >= 0, "must be non-negative"),
    "survey_days": (lambda v: v > 0, "must be positive"),
    "sample_rate": (lambda v: v > 0, "must be positive"),
}


def load_hub_records(path: str | Path) -> list[HubRecord]:
    table = _read_table(path, _HUB_RECORD_CELLS)
    out = []
    seen = set()
    rows = zip(*(table[col] for col in HUB_RECORD_COLUMNS))
    for i, (hub_id, lat, lon, car_share, bike_share, *numbers) in enumerate(rows):
        if hub_id in seen:
            raise _row_error(path, i, "hub_id", f"duplicate hub {hub_id!r}")
        seen.add(hub_id)
        counts = [None if math.isnan(v) else v for v in numbers]  # blank: not observed
        for column, value in zip(HUB_RECORD_COLUMNS[5:], counts):
            valid, rule = _HUB_COUNT_RULES[column]
            if value is not None and not valid(value):
                raise _row_error(path, i, column, f"value {value!r} {rule}")
        backend, days, share = counts[:3]
        if backend is not None and (days is None or share is None):
            raise _row_error(path, i, "days_per_month", "backend counts need days_per_month and service_share")
        out.append(HubRecord(hub_id, _point(path, i, lat, lon, "lat"), car_share, bike_share, *counts))
    if not out:
        raise ParseError(f"{path}: no hub rows")
    return out


def write_hub_records(records: Sequence[HubRecord], path: str | Path) -> Path:
    rows = [
        [r.hub_id, r.location.lat, r.location.lon, *(getattr(r, col) for col in HUB_RECORD_COLUMNS[3:])]
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
