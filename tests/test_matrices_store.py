"""How ``load_matrices`` builds its store.

The rows are parsed straight into one leg block sized from the files'
line counts, and the store adopts that block.  Rows that arrive out of
key order, ids that first appear out of sorted order, and line ends
other than LF must all give the store that the sorted LF file gives; the
loader's peak memory stays near the store it returns.
"""

from __future__ import annotations

import csv
import io
import re
import tracemalloc

import numpy as np
import pytest

from conftest import load_both, snapshot
from hubmodal import LegMatrices, LegTimes, Mode, ParseError, load_matrices, write_matrices
from hubmodal.fixtures import generate_fixture
from hubmodal.hubs import LEG_MODE_ORDER
import hubmodal.io

KEY_MAX = np.iinfo(np.int64).max


def _store(zones=("z3", "z1", "z20", "z2"), hubs=("h2", "h10", "h1"), seed=5) -> LegMatrices:
    """About 40 rows over every leg mode, some with a direction absent or
    no network miles."""
    rng = np.random.default_rng(seed)
    keys = [(z, h, m) for z in range(len(zones)) for h in range(len(hubs)) for m in range(len(LEG_MODE_ORDER))]
    keys = [k for k in keys if rng.uniform() < 0.7]
    zone, hub, mode = (np.array(column) for column in zip(*keys))
    legs = np.round(rng.uniform(0.0, 30.0, (2, len(keys), 5)), 2)
    legs[:, rng.uniform(size=len(keys)) < 0.3, 4] = np.nan
    legs[1, rng.uniform(size=len(keys)) < 0.2, 0] = np.nan
    return LegMatrices(zones, hubs, zone, hub, mode, legs)


def _records(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _csv_text(records, line_end: str = "\n") -> str:
    """The records as CSV lines ended by ``line_end``, a cell holding a
    comma, a quote or a line break quoted."""
    return "".join(",".join(map(hubmodal.io._csv_cell, record)) + line_end for record in records)


def _first_seen(values) -> list[str]:
    return list(dict.fromkeys(values))


def _shuffled(tmp_path):
    """The sorted file of ``_store()``, and its header and data records with
    the records shuffled so that zone and hub ids first appear out of
    sorted order."""
    sorted_path = tmp_path / "sorted.csv"
    write_matrices(_store(), sorted_path)
    header, *rows = _records(sorted_path)
    rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
    for column in (0, 1):
        seen = _first_seen(row[column] for row in rows)
        assert seen != sorted(seen)
    return sorted_path, header, rows


def test_shuffled_rows_and_split_files_load_to_the_sorted_store(tmp_path):
    sorted_path, header, rows = _shuffled(tmp_path)
    expected = snapshot(load_matrices([sorted_path]))
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(_csv_text([header, *rows]))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text(_csv_text([header, *rows[:17]]))
    second.write_text(_csv_text([header, *rows[17:]]))
    # The paths are read twice (counted, then parsed), so an iterator of
    # them must load as a list does.
    for paths in ([shuffled], [first, second], [second, first], iter([second, first])):
        store = load_matrices(paths)
        assert snapshot(store) == expected, paths
        rewritten = tmp_path / "rewritten.csv"
        write_matrices(store, rewritten)
        assert rewritten.read_bytes() == sorted_path.read_bytes()


@pytest.mark.parametrize("earlier, later", [(0, 30), (21, 4), (12, 13)])
def test_repeated_key_among_shuffled_rows_names_the_later_row(tmp_path, earlier, later):
    _, header, rows = _shuffled(tmp_path)
    rows[later] = rows[earlier][:3] + rows[later][3:]
    path = tmp_path / "shuffled.csv"
    path.write_text(_csv_text([header, *rows]))
    row = max(earlier, later) + 2  # the header is line 1
    pattern = rf"{re.escape(str(path))} row {row}: duplicate matrix entry .* in column 'zone_id'$"
    with pytest.raises(ParseError, match=pattern):
        load_matrices([path])


LINE_ENDS = {
    "cr": lambda records: _csv_text(records, "\r"),
    "crlf": lambda records: _csv_text(records, "\r\n"),
    "blank_lines": lambda records: _csv_text(records[:1]) + "\n\r\n" + _csv_text(records[1:], "\n\n") + "\r\n",
    "no_final_newline": lambda records: _csv_text(records)[:-1],
}


@pytest.mark.parametrize("zone", ["z2", "z\n2"], ids=["one_line_ids", "quoted_id_over_two_lines"])
@pytest.mark.parametrize("line_end", LINE_ENDS)
@pytest.mark.parametrize("count_bytes", [1 << 20, 3])
def test_line_ends_give_the_store_of_the_lf_twin(tmp_path, monkeypatch, zone, line_end, count_bytes):
    twin = tmp_path / "lf.csv"
    write_matrices(_store(zones=("z3", "z1", "z20", zone)), twin)
    records = _records(twin)
    assert _csv_text(records) == twin.read_text()
    expected = snapshot(load_matrices([twin]))
    path = tmp_path / f"{line_end}.csv"
    text = LINE_ENDS[line_end](records)
    path.write_bytes(text.encode())
    # The block is sized from the file's lines, as csv.reader splits them.
    monkeypatch.setattr(hubmodal.io, "_COUNT_BYTES", count_bytes)
    assert hubmodal.io._max_records(path) == len(io.StringIO(text, newline="").readlines()) - 1
    for batch_chars in (64, 1 << 17):
        assert load_both(lambda p: load_matrices([p]), path, batch_chars) == (expected, expected)
    store = load_matrices([path])
    assert store._legs.shape == (2, len(store) + 1, 5)
    assert np.isnan(store._legs[:, -1]).all() and store._key[-1] == KEY_MAX


def test_constructor_adopts_a_block_with_a_spare_row():
    store = _store()
    n = len(store)
    block = np.empty((2, n + 1, 5))
    block[:, :n] = store.legs
    adopted = LegMatrices(store.zone_ids, store.hub_ids, store.zone, store.hub, store.mode, block)
    assert np.shares_memory(adopted._legs, block)
    assert snapshot(adopted) == snapshot(store)
    # Reversed rows are sorted in place within the given block.
    reverse = slice(None, None, -1)
    block = np.empty((2, n + 1, 5))
    block[:, :n] = store.legs[:, reverse]
    codes = (store.zone[reverse], store.hub[reverse], store.mode[reverse])
    sorted_in_place = LegMatrices(store.zone_ids, store.hub_ids, *codes, block)
    assert np.shares_memory(sorted_in_place._legs, block)
    assert snapshot(sorted_in_place) == snapshot(store)
    # A block with no spare row is copied and left as it was.
    exact = store.legs[:, reverse].copy()
    before = exact.tobytes()
    copied = LegMatrices(store.zone_ids, store.hub_ids, *codes, exact)
    assert not np.shares_memory(copied._legs, exact) and exact.tobytes() == before
    assert snapshot(copied) == snapshot(store)


def test_later_row_replaces_an_earlier_one_in_a_given_block():
    store = _store()
    n = len(store)
    block = np.empty((2, n + 2, 5))
    block[:, :n] = store.legs
    block[:, n] = store.legs[:, 0] + 1.0
    codes = (np.append(c, c[0]) for c in (store.zone, store.hub, store.mode))
    replaced = LegMatrices(store.zone_ids, store.hub_ids, *codes, block)
    assert len(replaced) == n
    assert replaced.legs[:, 0].tobytes() == (store.legs[:, 0] + 1.0).tobytes()
    assert replaced.legs[:, 1:].tobytes() == store.legs[:, 1:].tobytes()
    assert np.isnan(replaced._legs[:, n]).all() and replaced._key[n] == KEY_MAX


def _held_bytes(store: LegMatrices) -> int:
    """Bytes of every array the store's attributes keep alive."""
    held = {}
    for value in vars(store).values():
        if isinstance(value, np.ndarray):
            while value.base is not None:
                value = value.base
            held[id(value)] = value.nbytes
    return sum(held.values())


def test_entries_is_a_read_only_mapping_of_the_rows():
    matrices = LegMatrices()
    matrices.add("z1", "h1", Mode.BUS, LegTimes(minutes=15.0, access_min=5.0), None)
    matrices.add("z1", "h1", Mode.CAR, None, LegTimes(minutes=9.0, miles=2.5))
    matrices.add("z2", "h2", Mode.WALK_LEG, LegTimes(minutes=12.0), LegTimes(minutes=11.0))
    entries = matrices.entries
    # a row with one direction gives None for the other
    assert entries["z1", "h1", Mode.BUS] == (LegTimes(minutes=15.0, access_min=5.0), None)
    assert entries["z1", "h1", Mode.CAR] == (None, LegTimes(minutes=9.0, miles=2.5))
    absent = [
        ("z1", "h1", Mode.WALK_LEG),  # a leg mode with no row
        ("z9", "h1", Mode.BUS),  # an unknown zone
        ("z1", "h9", Mode.BUS),  # an unknown hub
        ("z1", "h1", Mode.DRIVING),  # not a leg mode
        ("z1", "h1"),  # not a (zone, hub, mode) key
    ]
    for key in absent:
        with pytest.raises(KeyError):
            entries[key]
        assert key not in entries
        assert entries.get(key) is None
        assert entries.get(key, (None, None)) == (None, None)
    present = ("z2", "h2", Mode.WALK_LEG)
    assert present in entries
    assert entries.get(present, (None, None)) == entries[present] == (LegTimes(12.0), LegTimes(11.0))
    # the keys, in (zone, hub, mode name) order
    assert list(entries) == [("z1", "h1", Mode.BUS), ("z1", "h1", Mode.CAR), present]
    assert len(entries) == len(matrices) == 3


def test_load_matrices_peak_memory_stays_near_the_store(tmp_path):
    """The rank-1k fixture's matrices (83k rows): the traced peak of the
    load is at most 1.5 times the arrays the store keeps, and those hold
    at most 90 bytes a row."""
    generate_fixture(tmp_path, seed=11, od_pairs=250, stops=100, pr_lots=5)
    tracemalloc.start()
    try:
        store = load_matrices([tmp_path / "matrices.csv"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = _held_bytes(store)
    assert len(store) > 80_000
    assert held <= 90 * len(store)
    assert peak <= 1.5 * held
