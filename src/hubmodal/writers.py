"""CSV writers: the stages' CSV reports and the fixture's input files,
in the formats that ``io`` reads.

Every writer goes through ``io.atomic_write_text``, so readers never
observe a partial file.  Floats are emitted with repr (shortest
round-trip form), so loading and re-emitting a file is lossless.
Writers quote a text cell holding a comma, a quote or a line break as
the csv module does, so what they write reads back.  They format a
column at a time, once per distinct value, and write ``_WRITE_ROWS``
rows at a time.  Leg matrices are written sorted by (zone, hub, mode
name), an unavailable direction as five blank cells.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .choice import LEG_MODE_ORDER, SEGMENTS, TASTE_FIELDS
from .geo import GeoPoint
from .hubs import MARKET_MODE_COLUMNS, MarketTable, SurveyRecord
from .io import HUB_RECORD_COLUMNS, MARKET_COLUMNS, MATRIX_COLUMNS, SURVEY_COLUMNS, _LEG_MODE_NAMES, HubRecord
from .io import atomic_write_text, write_json
from .legs import FareTable, LegMatrices

if TYPE_CHECKING:  # siting runs only in rank and gen-fixture
    from .siting import StopRecord


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


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell: quoted, inner quotes doubled, when it holds
    a comma, a quote or a line break, as the csv module writes it."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column, blank: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A column's CSV cells as a table of cell texts (an object array) and
    each row's code into it, in the narrowest unsigned dtype: each value
    as ``fmt`` writes it, quoted as ``_csv_cell`` quotes it; for an array,
    the empty cell where ``blank`` is set.  A number or bool array is
    formatted once per distinct value, floats by their bits so that -0.0
    stays -0.0; any other sequence once per distinct ``fmt`` text, a str
    being its own."""
    if not (isinstance(column, np.ndarray) and column.dtype.kind in "biuf"):
        values = column.tolist() if isinstance(column, np.ndarray) else list(column)
        if not all(type(v) is str for v in values):
            values = list(map(fmt, values))
        index = {v: i for i, v in enumerate(dict.fromkeys(values))}
        codes = np.fromiter(map(index.__getitem__, values), np.min_scalar_type(max(len(index) - 1, 0)), len(values))
        return np.array(list(map(_csv_cell, index)), dtype=object), codes
    floats = column.dtype.kind == "f"
    if floats:
        column = column.astype(float, copy=False) if blank is None else np.where(blank, 0.0, column)
    distinct, inverse = np.unique(column.view(np.int64) if floats else column, return_inverse=True)
    if floats:
        distinct = distinct.view(float)
        if np.isnan(distinct).any():
            raise ValueError("refusing to write NaN")
    texts = list(map(repr if floats else fmt, distinct.tolist()))
    codes = inverse.astype(np.min_scalar_type(len(texts)))
    if blank is not None:
        codes[blank] = len(texts)
    return np.array([*texts, ""], dtype=object), codes


def _label_cells(labels: Sequence[str]) -> np.ndarray:
    """Each label's CSV cell, an object array indexed by label code."""
    return np.array(list(map(_csv_cell, labels)), dtype=object)


# Rows written at a time: a write holds each column's cell table and
# codes, and one block's cells and text.  The rank-1k matrices write in
# the same time in blocks of 2,048 to 16,384 rows; their traced peak is
# 8.1 MB at 16,384 and 19.9 MB at 65,536.
_WRITE_ROWS = 16384


def _write_cells(path: str | Path, header: Sequence[str], columns: Sequence[tuple]) -> Path:
    """Write ``header`` and the rows of ``columns``, (cell texts, codes)
    pairs as ``_cells`` gives them, ``_WRITE_ROWS`` rows at a time; codes
    are an array or any sequence that a slice of rows reads.  Each text
    is given the comma or line end that follows its cell once, and a
    block's cells are interleaved into one list and joined once."""
    n = len(columns[0][1]) if columns else 0
    width = len(columns)
    ends = [texts + ("," if j < width - 1 else "\n") for j, (texts, _) in enumerate(columns)]

    def chunks() -> Iterator[str]:
        yield ",".join(header) + "\n"
        for start in range(0, n, _WRITE_ROWS):
            rows = slice(start, min(start + _WRITE_ROWS, n))
            line = [""] * (width * (rows.stop - start))
            for j, (texts, (_, codes)) in enumerate(zip(ends, columns)):
                line[j::width] = texts[codes[rows]].tolist()
            yield "".join(line)

    return atomic_write_text(path, chunks())


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Header and rows of one length, formatted and quoted column by column
    (``_cells``)."""
    return _write_cells(path, header, [_cells(column) for column in zip(*rows, strict=True)])


def write_markets(t: MarketTable, path: str | Path) -> Path:
    """The table's markets in market-id order, written column by column;
    NaN is refused."""
    columns = [t.o_lat, t.o_lon, t.d_lat, t.d_lon, t.trips, t.drive_miles]
    for j, (_, _, fields_) in enumerate(MARKET_MODE_COLUMNS):
        columns += [*(t.attrs[f][:, j] for f in fields_), t.available[:, j]]
    columns += [t.taste[name] for name in TASTE_FIELDS]
    segments = _label_cells([s.value for s in SEGMENTS])
    cells = [_cells(t.od_ids), (segments, t.segment_codes), *map(_cells, columns)]
    zones = _label_cells(t.zone_ids)
    cells += [(zones, t.o_zone_codes), (zones, t.d_zone_codes)]
    return _write_cells(path, MARKET_COLUMNS, cells)


def write_survey(records: Sequence[SurveyRecord], path: str | Path) -> Path:
    rows = [
        (r.hub_id, r.origin.lat, r.origin.lon, r.destination.lat, r.destination.lon, r.entry_mode.value,
         r.exit_mode.value, r.segment.value if r.segment else "", r.complete)
        for r in records
    ]
    return write_csv(path, SURVEY_COLUMNS, rows)


def write_stops(stops: Sequence[StopRecord], path: str | Path) -> Path:
    return write_csv(path, ("stop_id", "lat", "lon"), [[s.stop_id, s.location.lat, s.location.lon] for s in stops])


def write_pr_lots(lots: Sequence[GeoPoint], path: str | Path) -> Path:
    return write_csv(path, ("lot_id", "lat", "lon"), [[f"lot{i:04d}", p.lat, p.lon] for i, p in enumerate(lots)])


class _KeyCodes:
    """Each row's code ``key // step % count``, one of the zone, hub and
    mode codes a leg store's key holds, decoded for the rows a slice reads."""

    def __init__(self, key: np.ndarray, step: int, count: int):
        self.key, self.step, self.count = key, step, count

    def __len__(self) -> int:
        return len(self.key)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.key[rows] // self.step % self.count


def write_matrices(matrices: LegMatrices, path: str | Path) -> Path:
    """Rows in (zone, hub, mode name) order; an absent direction is five
    blank cells and unknown miles one.  Ids and modes are looked up from
    the codes decoded from the key (derived once from the store's pair
    index) a block of rows at a time, and NaN elsewhere in a present
    direction is refused."""
    hubs, modes = len(matrices.hub_ids), len(LEG_MODE_ORDER)
    steps = [(hubs * modes, len(matrices.zone_ids)), (modes, hubs), (1, modes)]
    labels = (matrices.zone_ids, matrices.hub_ids, _LEG_MODE_NAMES)
    key = matrices.key
    columns = [(_label_cells(ids), _KeyCodes(key, *step)) for ids, step in zip(labels, steps)]
    for block in matrices.legs:
        absent = np.isnan(block[:, 0])
        columns += [_cells(block[:, f], absent | np.isnan(block[:, f]) if f == 4 else absent) for f in range(5)]
    return _write_cells(path, MATRIX_COLUMNS, columns)


def write_fares(fares: FareTable, path: str | Path) -> Path:
    steps = [{"up_to_min": None if math.isinf(up) else up, "fare_usd": fare} for up, fare in fares.bike_share_steps]
    prices = {"bus_fare_usd": fares.bus_fare_usd, "car_share_usd_per_hour": fares.car_share_usd_per_hour}
    return write_json(path, {**prices, "bike_share_steps": steps})


def write_hub_records(records: Sequence[HubRecord], path: str | Path) -> Path:
    rows = [
        [r.hub_id, r.location.lat, r.location.lon, *(getattr(r, col) for col in HUB_RECORD_COLUMNS[3:])]
        for r in sorted(records, key=lambda r: r.hub_id)
    ]
    return write_csv(path, HUB_RECORD_COLUMNS, rows)
