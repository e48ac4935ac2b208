"""File formats, atomic writes, and input digests.

All tabular inputs are UTF-8 CSV with a header row and dot decimal
separators; fares and the manifest are JSON.  Floats are emitted with
repr (shortest round-trip form), so loading and re-emitting a file is
lossless; every writer goes through a temp-file-then-rename so readers
never observe a partial file.

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

The parser reads a file in batches of lines.  A batch goes to numpy's C
reader (``np.loadtxt``): numbers come back as float64 arrays, and text
cells are converted once per distinct value.  A batch that reader could
read otherwise than the csv module (a literal nan or inf, a
whitespace-only or ``1_000`` number, a ragged row, a lone CR, a NUL)
goes to csv.reader instead, the only path that names a bad cell; from
the first batch holding a quote, csv.reader reads the rest of the file.
The two paths give the same values bit for bit.  Writers quote a text
cell holding a comma, a quote or a line break as the csv module does,
so what they write reads back.

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
across files is an error.  A blank minutes cell means that direction is
unavailable (its other cells are then ignored, but must still be blank
or finite); blank access, egress and transfers mean 0; blank miles means
no network distance is known.  The files' lines are counted first (LF,
CRLF and lone CR ends, as csv.reader splits them), which bounds their
records; the batches are parsed straight into one leg block of that
many rows, which becomes the LegMatrices store, with no further copy
when the rows arrive in key order.  Files are written back sorted by
(zone, hub, mode name), an unavailable direction as five blank cells.
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
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .choice import SEGMENTS, TASTE_FIELDS, Segment
from .geo import GeoPoint
from .hubs import ATTR_FIELDS, LEG_MODE_ORDER, MARKET_MODE_COLUMNS, FareTable, LegMatrices, SurveyRecord
from .hubs import MarketError, MarketTable

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
    return atomic_write_text(path, json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n")


def sha256_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ----------------------------------------------------------------------
# the CSV reader
# ----------------------------------------------------------------------

# Characters read per batch, which then runs on to the end of its last
# line: a batch's text and cells are dropped once its columns are
# converted, so what is held at once stays bounded.
_BATCH_CHARS = 1 << 17
# Records per batch once the csv module reads the rest of a file.
_BATCH_ROWS = 2048
# numpy's parser rejects an empty number, so a blank cell is rewritten to
# this text; it reads back as NaN in a number column and as itself in a
# text column.
_BLANK = "nan"
# Characters numpy keeps of a text cell at first; a batch holding a
# longer cell is parsed again with room for it.
_TEXT_WIDTH = 16

# Bytes read at a time when counting a file's lines.  Freeing a read this
# large also lifts glibc's dynamic mmap threshold above the parse's
# temporaries: with 64 KiB reads, rank-1k's `rank` ran 3% slower.
_COUNT_BYTES = 1 << 20

_LEG_MODE_CODES = {mode.value: i for i, mode in enumerate(LEG_MODE_ORDER)}

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


_NUMBER_CELLS = (_number_cell, _required_number_cell)


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
    ParseError naming it."""
    columns = list(zip(*rows))
    out = {}
    bad_cell = None  # (row index, column, why)
    for name, (pick, convert) in read.items():
        cells = columns[pick]
        number = convert in _NUMBER_CELLS
        column = _float_column(cells, convert is _number_cell) if number else None
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


def _exact_batch(path, first: int, rows: list[list[str]], read: Mapping[str, tuple[int, Callable]]) -> dict:
    """``_convert_batch`` of ``rows``, csv records ``first`` onward with
    blank lines dropped, after a short row has raised naming its first
    missing cell."""
    width = max(pick for pick, _ in read.values()) + 1
    if min(map(len, rows)) < width:
        short = next(i for i, r in enumerate(rows) if len(r) < width)
        if short:  # a bad cell in an earlier row comes first
            _convert_batch(path, first, rows[:short], read)
        missing = next(col for col, (pick, _) in read.items() if pick >= len(rows[short]))
        raise _row_error(path, first + short, missing, "missing cell")
    return _convert_batch(path, first, rows, read)


def _blank_cells(text: str) -> np.ndarray:
    """Offsets in ``text`` of the blank cells that follow a comma.  (A
    blank first cell needs no rewrite: numpy reads it as an empty text, or
    rejects it as a number.)"""
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), np.uint8)
    else:  # one code per character, so offsets stay string offsets
        codes = np.frombuffer(text.encode("utf-32-le"), np.uint32)
    comma = codes == 44
    cell_end = comma | (codes == 10) | (codes == 13)
    return np.flatnonzero(comma[:-1] & cell_end[1:]) + 1


def _convert_distinct(cells: np.ndarray, convert: Callable) -> np.ndarray | list | None:
    """A text column converted once per distinct cell (``_BLANK`` standing
    for a blank one): an int64 array when every value is an int code,
    else a list.  None when a cell does not convert."""
    distinct, inverse = np.unique(cells, return_inverse=True)
    try:
        values = [convert("" if text == _BLANK else text) for text in distinct.tolist()]
    except ValueError:
        return None
    inverse = inverse.ravel()
    if all(type(v) is int for v in values):
        return np.array(values, np.int64)[inverse]
    return list(map(values.__getitem__, inverse.tolist()))


def _parse_batch(text: str, numbers: Sequence[bool], read: Mapping[str, tuple[int, Callable]], width: int):
    """The C path: ``text``, whole lines with no quote, tokenized by
    ``np.loadtxt``, each header column a float64 field where ``numbers``
    says so and a text field of ``width`` characters (widened as needed)
    otherwise.  Returns (each ``read`` column as ``_convert_batch`` gives
    it, records, text width), or None when the batch must go the exact
    path (csv.reader and ``_convert_batch``), the only one that names a
    faulty cell.

    Both readers skip blank lines.  Blank cells are rewritten to
    ``_BLANK`` first.  numpy then rejects every row whose cells do not
    match the header one for one, and every number it does not read
    (``1_000``, a whitespace-only cell, a lone CR inside a line).  The
    batch is taken only when the NaN numbers and ``_BLANK`` texts number
    the rewrites, so that no cell spelled a NaN or ``_BLANK`` itself, and
    no number is infinite or a blank required number."""
    if "\x00" in text or text.isspace():  # numpy cuts a NUL off a text cell
        return None
    blanks = _blank_cells(text)
    if len(blanks):
        bounds = [0, *blanks.tolist(), len(text)]
        text = _BLANK.join([text[i:j] for i, j in zip(bounds, bounds[1:])])
    lines = text.split("\n")  # numpy takes a CR left at a line's end as its end
    while True:
        dtype = [(str(i), float if number else f"U{width}") for i, number in enumerate(numbers)]
        try:
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
        except ValueError:
            return None
        texts = [table[str(i)] for i, number in enumerate(numbers) if not number]
        if all(np.char.str_len(cells).max(initial=0) < width for cells in texts):
            break
        width *= 4  # a cell may have been cut short
    floats = [table[str(i)] for i, number in enumerate(numbers) if number]
    if any(np.isinf(cells).any() for cells in floats):
        return None
    if sum(np.isnan(cells).sum() for cells in floats) + sum((cells == _BLANK).sum() for cells in texts) != len(blanks):
        return None
    out = {}
    for name, (pick, convert) in read.items():
        cells = table[str(pick)]
        if not numbers[pick]:
            cells = _convert_distinct(cells, convert)
        elif convert is _required_number_cell and np.isnan(cells).any():
            cells = None
        if cells is None:
            return None
        out[name] = cells
    return out, len(table), width


def _read_batches(path: str | Path, columns: Mapping[str, Callable], optional: Mapping | None = None) -> Iterator[dict]:
    """The file's records in batches, each holding every column of
    ``columns`` (name: converter) and each of ``optional`` that the
    header has, in that order, as ``_convert_batch`` gives them.  A batch
    goes through ``_parse_batch`` when it can, else through csv.reader;
    from the first batch holding a quote, csv.reader reads the rest."""
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
        numbers = [False] * len(header)
        for pick, convert in read.values():
            numbers[pick] = convert in _NUMBER_CELLS
        width = _TEXT_WIDTH
        first = 0  # records before this batch, which error paths map to lines
        while text := fh.read(_BATCH_CHARS):
            text += fh.readline()  # end the batch at a line end
            if '"' in text:
                # A quoted cell may span lines; every line before is one record.
                reader = csv.reader(itertools.chain(StringIO(text, newline=""), fh))
                break
            parsed = _parse_batch(text, numbers, read, width)
            if parsed:
                batch, records, width = parsed
                yield batch
            else:
                rows = list(filter(None, csv.reader(StringIO(text, newline=""))))  # blank lines are skipped
                if rows:
                    yield _exact_batch(path, first, rows, read)
                records = len(rows)
            first += records
        while raw := list(itertools.islice(reader, _BATCH_ROWS)):
            rows = list(filter(None, raw))
            if rows:
                yield _exact_batch(path, first, rows, read)
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
    MarketTable, and either names the file, row and column."""
    table = _read_columns(path, _MARKET_CELLS, {**_TASTE_CELLS, "o_zone": str.strip, "d_zone": str.strip})
    if not table:
        return MarketTable.from_markets([])
    od_ids, segments = table["od_id"], table["segment"]
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


def load_matrices(paths: Sequence[str | Path]) -> LegMatrices:
    """Merge one or more leg matrix files; a key repeated within or across
    files is an error."""
    zone_ids: dict[str, int] = {}
    hub_ids: dict[str, int] = {}
    cells = {
        "zone_id": lambda text: zone_ids.setdefault(_text_cell(text), len(zone_ids)),
        "hub_id": lambda text: hub_ids.setdefault(_text_cell(text), len(hub_ids)),
        "mode": _leg_mode_cell,
        **dict.fromkeys(MATRIX_COLUMNS[3:], _number_cell),
    }
    # The store's leg block, with a spare row for its sentinel, and each
    # row's zone, hub and mode code in file order: each batch is copied
    # into its own slice and dropped.
    paths = list(paths)  # read twice: counted, then parsed
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


def write_matrices(matrices: LegMatrices, path: str | Path) -> Path:
    """Rows in (zone, hub, mode name) order; an absent direction is five
    blank cells and unknown miles one.  Ids and modes are looked up from
    the codes decoded from the key, and NaN elsewhere in a present
    direction is refused."""
    labels = (matrices.zone_ids, matrices.hub_ids, [mode.value for mode in LEG_MODE_ORDER])
    columns = [_coded_cells(*pair) for pair in zip(labels, (matrices.zone, matrices.hub, matrices.mode))]
    for block in matrices.legs:
        absent = np.isnan(block[:, 0])
        columns += [_cells(block[:, f], absent | np.isnan(block[:, f]) if f == 4 else absent) for f in range(5)]
    return _write_cells(path, MATRIX_COLUMNS, columns)


# ----------------------------------------------------------------------
# fares
# ----------------------------------------------------------------------


def load_fares(path: str | Path) -> FareTable:
    data = read_json(path, "fares")
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
    steps = [{"up_to_min": None if math.isinf(up) else up, "fare_usd": fare} for up, fare in fares.bike_share_steps]
    prices = {"bus_fare_usd": fares.bus_fare_usd, "car_share_usd_per_hour": fares.car_share_usd_per_hour}
    return write_json(path, {**prices, "bike_share_steps": steps})


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


@dataclass(frozen=True)
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
