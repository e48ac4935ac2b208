"""How ``load_matrices`` builds its store.

The rows are parsed straight into one leg block sized from the files'
line counts, and the store adopts that block.  Rows that arrive out of
key order, ids that first appear out of sorted order, and line ends
other than LF must all give the store that the sorted LF file gives; the
loader's peak memory stays near the store it returns.

A clean parse writes the store to a sidecar beside the first file, and
the next load of the same bytes reads it back: the same store, bit for
bit.  A sidecar that does not read back whole is parsed over and
replaced, never an error, and a load that fails writes none.  The
markets go through the same sidecar code: their converted columns, read
back, make the same MarketTable through its one constructor.

The store keeps an index of its (zone, hub) pairs, not its key: the
constructor builds it from the rows' keys and a sidecar hit adopts it
after checking it, and a sidecar whose index does not count the rows in
order is parsed over.  ``rows`` answers a lookup from that index; it
finds the rows that the former ``searchsorted`` walk
(``reference_model.leg_rows``) found, and a store rebuilt by ``add`` is
looked up afresh.  The index is built in blocks of the key: every block
size gives the rows a brute-force dict lookup gives, and the build's
traced peak stays within 1 MiB of the index.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_attrs, load_batched, make_market, random_taste, snapshot
from reference_model import add_leg, leg_rows, table_from_markets
from hubmodal import TASTE_FIELDS, LegMatrices, LegTimes, Mode, ParseError, Segment, load_markets, load_matrices, sha256_digest, write_matrices
from hubmodal.fixtures import generate_fixture
from hubmodal.choice import LEG_MODE_ORDER
import hubmodal.io
import hubmodal.legs
import hubmodal.writers

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
    return "".join(",".join(map(hubmodal.writers._csv_cell, record)) + line_end for record in records)


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
    assert load_batched(lambda p: load_matrices([p]), path) == (expected, expected)
    store = load_matrices([path])
    assert store._legs.shape == (2, len(store) + 1, 5)
    _assert_sentinels(store)


def _assert_sentinels(store: LegMatrices) -> None:
    """The leg block's last row is all NaN, and the index's last entry,
    which code -1 reads, holds no mode and the row count."""
    assert np.isnan(store._legs[:, -1]).all()
    assert store._bits[-1] == 0 and not store._timed[:, -1].any() and store._first[-1] == len(store)


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
    assert replaced._legs.shape[1] == n + 1
    _assert_sentinels(replaced)


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
    add_leg(matrices, "z1", "h1", Mode.BUS, LegTimes(minutes=15.0, access_min=5.0), None)
    add_leg(matrices, "z1", "h1", Mode.CAR, None, LegTimes(minutes=9.0, miles=2.5))
    add_leg(matrices, "z2", "h2", Mode.WALK_LEG, LegTimes(minutes=12.0), LegTimes(minutes=11.0))
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


# ----------------------------------------------------------------------
# the sidecar
# ----------------------------------------------------------------------


def _sidecars(directory) -> list:
    return sorted(p.name for p in directory.glob(".*.legs"))


def _count_parses(monkeypatch) -> list:
    """A list that gets one entry per parse of leg matrix files."""
    parses = []
    parse = hubmodal.io._parse_matrices
    monkeypatch.setattr(hubmodal.io, "_parse_matrices", lambda paths: parses.append(paths) or parse(paths))
    return parses


def _store_bits(store: LegMatrices) -> tuple:
    return store.zone_ids, store.hub_ids, *(snapshot(a) for a in store.arrays)


def test_second_load_reads_the_sidecar_and_returns_an_equal_store(tmp_path, monkeypatch):
    parses = _count_parses(monkeypatch)
    path = tmp_path / "m.csv"
    write_matrices(_store(), path)
    parsed = load_matrices([path])
    (name,) = _sidecars(tmp_path)
    assert re.fullmatch(r"\.m\.csv\.[0-9a-f]{16}\.legs", name)
    read = load_matrices([path])
    assert len(parses) == 1
    # ids, pair index and the leg bits, NaNs and the sentinel rows included
    assert np.isnan(read.legs).any()
    assert _store_bits(read) == _store_bits(parsed)
    assert snapshot(read) == snapshot(parsed)
    assert read.entries == parsed.entries
    rewritten = tmp_path / "rewritten.csv"
    write_matrices(read, rewritten)
    assert rewritten.read_bytes() == path.read_bytes()


def test_split_files_share_one_sidecar_beside_the_first(tmp_path, monkeypatch):
    parses = _count_parses(monkeypatch)
    _, header, rows = _shuffled(tmp_path)
    first, second = tmp_path / "a" / "first.csv", tmp_path / "b" / "second.csv"
    for path, part in ((first, rows[:17]), (second, rows[17:])):
        path.parent.mkdir()
        path.write_text(_csv_text([header, *part]))
    expected = snapshot(load_matrices([first, second]))
    assert len(_sidecars(first.parent)) == 1 and _sidecars(second.parent) == []
    assert snapshot(load_matrices([first, second])) == expected
    assert len(parses) == 1
    # the files in the other order are other input: parsed, with a sidecar
    # beside the new first file
    assert snapshot(load_matrices([second, first])) == expected
    assert len(parses) == 2 and len(_sidecars(second.parent)) == 1


def test_changed_byte_gives_a_new_tag_and_deletes_the_stale_sidecar(tmp_path, monkeypatch):
    parses = _count_parses(monkeypatch)
    path = tmp_path / "m.csv"
    write_matrices(_store(), path)
    expected = snapshot(load_matrices([path]))
    (before,) = _sidecars(tmp_path)
    other = tmp_path / "other.csv"  # another file's sidecar stays
    write_matrices(_store(seed=6), other)
    load_matrices([other])
    kept = [".m.csv.keep.legs", f"{before}.0123456789abcdef.tmp", f".m.csv.{'f' * 17}.legs"]  # no sidecar names
    for name in kept:
        (tmp_path / name).write_bytes(b"x")
    path.write_bytes(path.read_bytes()[:-1] + b"\r")  # the last line ended by a lone CR
    changed = load_matrices([path])
    assert len(parses) == 3
    (after,) = [name for name in _sidecars(tmp_path) if name.startswith(".m.csv.") and name not in kept]
    assert after != before
    assert len(_sidecars(tmp_path)) == 2 + 2 and all((tmp_path / name).is_file() for name in kept)
    assert snapshot(changed) == snapshot(load_matrices([path])) == expected
    assert len(parses) == 3


# Damage done to a sidecar: each takes its path, the io module and the
# test's monkeypatch.
def _truncate(path, hubmodal_io, monkeypatch):
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])


def _cut_header(path, hubmodal_io, monkeypatch):
    path.write_bytes(path.read_bytes()[:40])


def _trailing_bytes(path, hubmodal_io, monkeypatch):
    path.write_bytes(path.read_bytes() + b"\0")


def _garbage(path, hubmodal_io, monkeypatch):
    path.write_bytes(bytes(range(256)) * 4)


def _other_version(path, hubmodal_io, monkeypatch):
    """The same files' sidecar as a later format version writes it, put
    where this version looks for its own."""
    csv_path = path.parent / (path.name[1:].rsplit(".", 2)[0])
    path.unlink()
    with monkeypatch.context() as mp:
        mp.setattr(hubmodal_io, "SIDECAR_VERSION", hubmodal_io.SIDECAR_VERSION + 1)
        load_matrices([csv_path])
    (written,) = [p for p in path.parent.glob(".*.legs")]
    written.rename(path)


def _other_mode_names(path, hubmodal_io, monkeypatch):
    """The same tag, written when the leg modes had other names."""
    csv_path = path.parent / (path.name[1:].rsplit(".", 2)[0])
    path.unlink()
    with monkeypatch.context() as mp:
        mp.setattr(hubmodal_io, "_LEG_MODE_NAMES", sorted(hubmodal_io._LEG_MODE_NAMES, reverse=True))
        load_matrices([csv_path])
    assert path.is_file()


def _index_edit(edit):
    """Damage that leaves a well-formed sidecar whose pair index and leg
    block do not make a store: ``edit`` changes its ``first``, ``bits``,
    ``timed`` and ``legs`` arrays in place, or returns the arrays to write
    in their place."""

    def damage(path, hubmodal_io, monkeypatch):
        with open(path, "rb") as fh:
            head, names, *arrays = (np.lib.format.read_array(fh) for _ in range(6))
        LegMatrices.from_store(*json.loads(names.tobytes())[:2], *arrays)  # a store before the edit
        arrays = edit(*arrays) or arrays
        with open(path, "wb") as fh:
            for array in (head, names, *arrays):
                np.lib.format.write_array(fh, array)

    damage.__name__ = edit.__name__
    return damage


def _first_off_by_one(first, bits, timed, legs):
    pair = np.flatnonzero(bits)[1]
    first[pair] += 1


def _timed_outside_bits(first, bits, timed, legs):
    pair = np.flatnonzero(bits & 1 == 0)[0]  # a pair without mode code 0
    timed[1, pair] |= 1


def _sentinel_not_empty(first, bits, timed, legs):
    bits[-1] = 1


def _short_first(first, bits, timed, legs):
    return first[:-1], bits, timed, legs


def _short_leg_block(first, bits, timed, legs):
    return first, bits, timed, legs[:, :-1]


@pytest.mark.parametrize(
    "damage",
    [
        _truncate, _cut_header, _trailing_bytes, _garbage, _other_version, _other_mode_names,
        *map(_index_edit, [_first_off_by_one, _timed_outside_bits, _sentinel_not_empty, _short_first, _short_leg_block]),
    ],
)  # fmt: skip
def test_unreadable_sidecar_is_parsed_and_rewritten(tmp_path, monkeypatch, damage):
    path = tmp_path / "m.csv"
    write_matrices(_store(), path)
    expected = snapshot(load_matrices([path]))
    (sidecar,) = tmp_path.glob(".*.legs")
    damage(sidecar, hubmodal.io, monkeypatch)
    parses = _count_parses(monkeypatch)
    assert snapshot(load_matrices([path])) == expected
    assert len(parses) == 1
    # rewritten: the next load reads it
    assert snapshot(load_matrices([path])) == expected
    assert len(parses) == 1 and _sidecars(tmp_path) == [sidecar.name]


def test_read_only_directory_loads_with_no_sidecar(tmp_path, monkeypatch):
    directory = tmp_path / "ro"
    directory.mkdir()
    path = directory / "m.csv"
    write_matrices(_store(), path)
    expected = snapshot(load_matrices([path]))
    for sidecar in directory.glob(".*.legs"):
        sidecar.unlink()
    directory.chmod(0o555)
    try:
        if os.access(directory, os.W_OK):  # a superuser writes anyway: refuse the sidecar's create as the OS would
            monkeypatch.setattr(hubmodal.io, "open", _refuse_create, raising=False)
        assert snapshot(load_matrices([path])) == expected
        assert snapshot(load_matrices([path])) == expected
    finally:
        directory.chmod(0o755)
    assert _sidecars(directory) == [] and sorted(p.name for p in directory.iterdir()) == ["m.csv"]


def _refuse_create(file, mode="r", *args, **kwargs):
    if "x" in mode:
        raise PermissionError(13, "Permission denied", str(file))
    return open(file, mode, *args, **kwargs)


@pytest.mark.parametrize("row", ["z1,h1,bus,abc,,,,,,,,,", "z1,h1,bus,-1.0,,,,,,,,,", "z1,h1,bus,5.0,,,,,,,,,"])
def test_failed_or_empty_load_writes_no_sidecar(tmp_path, row):
    path = tmp_path / "m.csv"
    path.write_text(",".join(hubmodal.io.MATRIX_COLUMNS) + f"\n{row}\n{row}\n")
    for _ in range(2):  # each load raises the same error
        with pytest.raises(ParseError, match=r"row [23]: .* in column '(to_hub_min|zone_id)'$"):
            load_matrices([path])
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(hubmodal.io.MATRIX_COLUMNS) + "\n")
    assert len(load_matrices([empty])) == 0
    assert _sidecars(tmp_path) == []


def test_file_changed_during_the_parse_writes_no_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    write_matrices(_store(), path)
    parse = hubmodal.io._parse_matrices

    def parse_then_append(paths):
        store = parse(paths)
        with open(path, "a") as fh:  # a writer appends while the loader works
            fh.write("\n")
        return store

    monkeypatch.setattr(hubmodal.io, "_parse_matrices", parse_then_append)
    load_matrices([path])
    assert _sidecars(tmp_path) == []


def test_key_repeated_across_files_raises_beside_a_sidecar(tmp_path):
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_matrices(_store(), p1)
    write_matrices(_store(seed=6), p2)
    load_matrices([p1])
    load_matrices([p2])
    for _ in range(2):
        with pytest.raises(ParseError, match=rf"^{re.escape(str(p2))} row \d+: duplicate matrix entry"):
            load_matrices([p1, p2])
    assert len(_sidecars(tmp_path)) == 2


def test_nul_suffixed_ids_round_trip_through_the_sidecar(tmp_path, monkeypatch):
    parses = _count_parses(monkeypatch)
    path = tmp_path / "m.csv"
    write_matrices(_store(zones=("z1\x00", "z1", "z\x002"), hubs=("h1", "h1\x00\x00")), path)
    parsed = load_matrices([path])
    assert "z1\x00" in parsed.zone_ids and "h1\x00\x00" in parsed.hub_ids
    read = load_matrices([path])
    assert len(parses) == 1
    assert _store_bits(read) == _store_bits(parsed)


def test_load_matrices_hands_back_each_files_digest(tmp_path):
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_matrices(_store(), p1)
    write_matrices(_store(zones=("y1",)), p2)
    for _ in range(2):  # parsed, then read from the sidecar
        digests = ["kept"]
        load_matrices([p1, p2], digests)
        assert digests == ["kept", sha256_digest(p1), sha256_digest(p2)]


def test_load_matrices_peak_memory_stays_near_the_store_on_a_sidecar_hit(tmp_path, monkeypatch):
    """The hit-path twin of the test above, with the same bound.  A hit
    reads no key: the store keeps its leg block and pair index, and beyond
    them only its ids and their code dicts (about 120 bytes an id here),
    and the load's traced peak exceeds what it keeps by at most 64 KiB.
    The key (8 bytes a row, 650 KiB here) fits under neither bound."""
    generate_fixture(tmp_path, seed=11, od_pairs=250, stops=100, pr_lots=5)
    path = tmp_path / "matrices.csv"
    load_matrices([path])
    parses = _count_parses(monkeypatch)
    tracemalloc.start()
    try:
        store = load_matrices([path])
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parses == []
    held = _held_bytes(store)
    assert len(store) > 80_000
    assert held <= 90 * len(store)
    assert peak <= 1.5 * held
    assert held == store._legs.nbytes + sum(a.nbytes for a in store.arrays[:3])
    assert current <= held + 256 * (len(store.zone_ids) + len(store.hub_ids))
    assert peak <= current + (64 << 10)


def _assert_rows_match_the_oracle(store: LegMatrices, zones, hubs) -> None:
    zones, hubs = np.asarray(zones, dtype=np.int64), np.asarray(hubs, dtype=np.int64)
    modes = (*LEG_MODE_ORDER, Mode.DRIVING)  # and a mode no row can hold
    got, expected = dict(zip(modes, store.rows(zones, hubs, modes))), leg_rows(store, zones, hubs, modes)
    assert list(got) == list(expected)
    for mode in modes:
        assert got[mode].dtype == expected[mode].dtype and got[mode].tolist() == expected[mode].tolist(), mode


@st.composite
def _stores_and_queries(draw):
    """A store of up to 4 zones x 4 hubs x every leg mode, possibly
    empty, each key present or not, and queries over every code and -1."""
    n_zones, n_hubs = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    every = [(z, h, m) for z in range(n_zones) for h in range(n_hubs) for m in range(len(LEG_MODE_ORDER))]
    keys = draw(st.lists(st.sampled_from(every), unique=True, max_size=len(every))) if every else []
    legs = np.arange(2 * len(keys) * 5, dtype=float).reshape(2, len(keys), 5)
    store = LegMatrices(
        [f"z{i}" for i in range(n_zones)],
        [f"h{i}" for i in range(n_hubs)],
        *(np.array(column, dtype=np.int64) for column in (zip(*keys) if keys else ((), (), ()))),
        legs,
    )
    _assert_store_holds(store, store.zone_ids, store.hub_ids, keys, legs)
    n = draw(st.integers(0, 30))
    zones = draw(st.lists(st.integers(-1, n_zones - 1), min_size=n, max_size=n))
    hubs = draw(st.lists(st.integers(-1, n_hubs - 1), min_size=n, max_size=n))
    return store, zones, hubs


def _assert_store_holds(store: LegMatrices, zone_ids, hub_ids, keys, legs) -> None:
    """``store`` holds the rows given as ``keys``, (zone, hub, mode) codes
    into ``zone_ids``, ``hub_ids`` and LEG_MODE_ORDER, with their ``legs``,
    a later row replacing an earlier one with its key, and no others.  It
    checks the pair index against the rows given, not against the key
    that the index gives back."""
    expected = {}
    for row, (z, h, m) in enumerate(keys):
        expected[zone_ids[z], hub_ids[h], LEG_MODE_ORDER[m]] = legs[:, row].tobytes()
    assert list(store.entries) == sorted(expected, key=lambda k: (k[0], k[1], LEG_MODE_ORDER.index(k[2])))
    assert len(store) == len(expected)
    for key, cells in expected.items():
        assert store.legs[:, store._row(*key)].tobytes() == cells, key


@settings(max_examples=150, deadline=None, database=None)
@given(case=_stores_and_queries())
def test_rows_finds_the_rows_the_searchsorted_walk_finds(case):
    store, zones, hubs = case
    _assert_rows_match_the_oracle(store, zones, hubs)
    # the same store adopted from its arrays, as a sidecar read builds it
    adopted = LegMatrices.from_store(store.zone_ids, store.hub_ids, *(a.copy() for a in store.arrays))
    _assert_rows_match_the_oracle(adopted, zones, hubs)


def test_rows_of_empty_and_one_row_stores(monkeypatch):
    monkeypatch.setattr(hubmodal.legs, "_INDEX_BLOCK", 1)
    empty = LegMatrices()
    _assert_rows_match_the_oracle(empty, [-1, -1], [-1, 0])
    assert empty.rows(np.array([-1]), np.array([-1]), [Mode.BUS]).tolist() == [[0]]
    assert _index_lists(empty) == ([0], [0], [[0], [0]])
    no_rows = LegMatrices(["z"], ["h"])
    _assert_rows_are_the_brute_force_lookup(no_rows)
    assert _index_lists(no_rows) == ([0, 0], [0, 0], [[0, 0], [0, 0]])
    one = LegMatrices(["z"], ["h"], [0], [0], [LEG_MODE_ORDER.index(Mode.CAR)], np.ones((2, 1, 5)))
    _assert_rows_match_the_oracle(one, [0, 0, -1, 0], [0, -1, 0, 0])
    assert one.rows(np.array([0]), np.array([0]), [Mode.CAR, Mode.BUS]).tolist() == [[0], [1]]
    car = 1 << LEG_MODE_ORDER.index(Mode.CAR)
    assert _index_lists(one) == ([0, 1], [car, 0], [[car, 0], [car, 0]])
    for store in (empty, no_rows, one):
        _assert_sentinels(store)


def _index_lists(store: LegMatrices) -> tuple:
    """The store's pair index: ``first``, ``bits`` and ``timed``, as lists."""
    return tuple(a.tolist() for a in store.arrays[:3])


def test_rows_of_a_store_read_from_its_sidecar(tmp_path, monkeypatch):
    parses = _count_parses(monkeypatch)
    path = tmp_path / "m.csv"
    write_matrices(_store(), path)
    load_matrices([path])
    read = load_matrices([path])
    assert len(parses) == 1  # the second load read the sidecar
    grid = np.array([(z, h) for z in range(-1, len(read.zone_ids)) for h in range(-1, len(read.hub_ids))])
    _assert_rows_match_the_oracle(read, grid[:, 0], grid[:, 1])


def test_lookup_after_add_sees_the_new_and_the_replaced_row():
    matrices = LegMatrices()
    add_leg(matrices, "z1", "h1", Mode.BUS, LegTimes(minutes=15.0), None)
    add_leg(matrices, "z2", "h1", Mode.CAR, LegTimes(minutes=9.0), LegTimes(minutes=8.0))
    entries = matrices.entries
    assert entries["z1", "h1", Mode.BUS] == (LegTimes(15.0), None)  # builds the index
    assert entries["z2", "h1", Mode.CAR] == (LegTimes(9.0), LegTimes(8.0))
    assert ("z1", "h1", Mode.WALK_LEG) not in entries
    # a new key ahead of z2's row, and a key that replaces z1's bus row
    add_leg(matrices, "z1", "h1", Mode.WALK_LEG, None, LegTimes(minutes=4.0))
    add_leg(matrices, "z1", "h1", Mode.BUS, LegTimes(minutes=12.0), LegTimes(minutes=13.0))
    assert len(matrices) == 3
    assert entries["z1", "h1", Mode.WALK_LEG] == (None, LegTimes(4.0))
    assert entries["z1", "h1", Mode.BUS] == (LegTimes(12.0), LegTimes(13.0))
    assert entries["z2", "h1", Mode.CAR] == (LegTimes(9.0), LegTimes(8.0))
    zones, hubs = matrices.zone_codes(["z1", "z2"]), matrices.hub_codes(["h1", "h1"])
    found = matrices.rows(zones, hubs, [Mode.BUS, Mode.WALK_LEG, Mode.CAR])
    assert found.tolist() == [[0, 3], [1, 3], [3, 2]]


# ----------------------------------------------------------------------
# the pair index, built in blocks of the key
# ----------------------------------------------------------------------


def _assert_rows_are_the_brute_force_lookup(store: LegMatrices) -> None:
    """``rows`` over every (zone, hub) code pair, -1 included, and every
    mode, a non-leg mode included, gives the row a dict of the store's
    decoded (zone, hub, mode) rows names, and ``len(store)`` where it has
    none."""
    lookup = {key: row for row, key in enumerate(zip(store.zone.tolist(), store.hub.tolist(), store.mode.tolist()))}
    grid = [(z, h) for z in range(-1, len(store.zone_ids)) for h in range(-1, len(store.hub_ids))]
    zones, hubs = (np.array(column, dtype=np.int64) for column in zip(*grid))
    modes = (*LEG_MODE_ORDER, Mode.DRIVING)
    codes = [LEG_MODE_ORDER.index(m) if m in LEG_MODE_ORDER else -1 for m in modes]
    expected = [[lookup.get((z, h, c), len(store)) for z, h in grid] for c in codes]
    assert store.rows(zones, hubs, modes).tolist() == expected
    # each direction's timed modes: those of the pair's rows with minutes that way
    hub_codes = np.arange(-1, len(store.hub_ids))
    for d in (0, 1):
        timed = np.zeros((len(store.hub_ids) + 1, len(store.zone_ids) + 1), dtype=np.uint8)  # code -1 last
        for (z, h, c), row in lookup.items():
            if not np.isnan(store.legs[d, row, 0]):
                timed[h, z] |= 1 << c
        assert store.timed_zones(d, hub_codes).tolist() == timed[hub_codes].tolist()


@settings(max_examples=150, deadline=None, database=None)
@given(
    n_zones=st.integers(0, 5),
    n_hubs=st.integers(0, 5),
    picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), max_size=60),
    untimed=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 1)), max_size=20),
    block=st.integers(1, 9),
)
def test_rows_equal_a_brute_force_lookup_at_every_block_size(n_zones, n_hubs, picks, untimed, block):
    # rows in any order, keys repeated, ids that do not arrive sorted, and
    # some rows without minutes one way or both
    keys = [(z, h, m) for z, h, m in picks if z < n_zones and h < n_hubs]
    legs = np.arange(2 * len(keys) * 5, dtype=float).reshape(2, len(keys), 5)
    for row, d in untimed if keys else ():
        legs[d, row % len(keys), 0] = np.nan
    zone_ids = [f"z{(7 * i) % 5}{i}" for i in range(n_zones)]
    hub_ids = [f"h{(3 * i) % 5}{i}" for i in range(n_hubs)]
    columns = [np.array(column, dtype=np.int64) for column in (zip(*keys) if keys else ((), (), ()))]
    store = LegMatrices(zone_ids, hub_ids, *columns, legs)
    _assert_store_holds(store, zone_ids, hub_ids, keys, legs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hubmodal.legs, "_INDEX_BLOCK", block)
        blocked = LegMatrices(zone_ids, hub_ids, *columns, legs)
    _assert_rows_are_the_brute_force_lookup(blocked)
    assert _store_bits(blocked) == _store_bits(store)


def _runs_store() -> LegMatrices:
    """Two zones x three hubs whose pairs hold runs of 1 to 5 rows, one
    pair every mode, and one pair none."""
    modes = [(0,), (1, 3), (0, 2, 4), (1, 2, 3, 4), (0, 1, 2, 3, 4), ()]
    keys = [(p // 3, p % 3, m) for p, ms in enumerate(modes) for m in ms]
    zone, hub, mode = (np.array(column, dtype=np.int64) for column in zip(*keys))
    return LegMatrices(["z0", "z1"], ["h0", "h1", "h2"], zone, hub, mode, np.ones((2, len(keys), 5)))


@pytest.mark.parametrize("block", range(1, 17))
def test_pair_runs_cut_at_every_offset_index_as_whole_runs(monkeypatch, block):
    # 15 rows: the block sizes 1 to 15 cut each run of 2 to 5 rows at each
    # of its offsets, and 16 holds the key in one block
    monkeypatch.setattr(hubmodal.legs, "_INDEX_BLOCK", block)
    store = _runs_store()
    assert len(store) == 15
    _assert_rows_are_the_brute_force_lookup(store)
    first, bits, timed = store.arrays[:3]
    assert first.dtype == np.int32 and bits.dtype == timed.dtype == np.uint8
    # a pair with no rows, and the last entry, start where the next rows would
    assert first.tolist() == [0, 1, 3, 6, 10, 15, 15]
    assert bits.tolist() == [0b1, 0b1010, 0b10101, 0b11110, 0b11111, 0, 0]
    assert timed.tolist() == [bits.tolist()] * 2


def test_pair_index_build_peak_stays_near_the_index():
    """On a store of over 300,000 rows, the traced peak of building the
    pair index exceeds its first rows and mode bits by at most 1 MiB: no
    temporary is as long as the key."""
    rng = np.random.default_rng(31)
    zones, hubs = 400, 200
    present = rng.uniform(size=zones * hubs * len(LEG_MODE_ORDER)) < 0.8
    key = np.flatnonzero(present)
    legs = np.zeros((2, len(key) + 1, 5))  # and the sentinel row
    assert len(key) >= 300_000
    tracemalloc.start()
    try:
        first, bits, timed = hubmodal.legs._pair_index(key, legs, zones * hubs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= first.nbytes + bits.nbytes + (1 << 20)
    # the index of those rows, as a store adopts it
    ids = [f"z{i:03d}" for i in range(zones)], [f"h{i:03d}" for i in range(hubs)]
    assert LegMatrices.from_store(*ids, first, bits, timed, legs).key.tolist() == key.tolist()


# ----------------------------------------------------------------------
# the pair index in the sidecar
# ----------------------------------------------------------------------


def _seed_7_fixture(directory):
    generate_fixture(directory, seed=7)
    return directory / "matrices.csv"


def _written(store_of):
    def write(directory):
        return write_matrices(store_of(), directory / "m.csv")

    write.__name__ = store_of.__name__
    return write


def _other_ids():
    return _store(zones=("z1\x00", "z1", "z\x002"), hubs=("h1", "h1\x00\x00"), seed=6)


@pytest.mark.parametrize("matrices", [_seed_7_fixture, *map(_written, [_store, _runs_store, _other_ids])])
def test_sidecar_hit_gives_the_parsed_store(tmp_path, monkeypatch, matrices):
    """The store a hit adopts equals the one the parse built: its index,
    timed masks, leg block, the key and codes derived from them, and every
    ``rows`` and ``timed_zones`` lookup, code -1 and a non-leg mode
    included."""
    parses = _count_parses(monkeypatch)
    path = matrices(tmp_path)
    parsed = load_matrices([path])
    read = load_matrices([path])
    assert len(parses) == 1 and len(read) > 10
    assert _store_bits(read) == _store_bits(parsed)
    for name in ("key", "zone", "hub", "mode"):
        assert snapshot(getattr(read, name)) == snapshot(getattr(parsed, name)), name
    grid = [(z, h) for z in range(-1, len(parsed.zone_ids)) for h in range(-1, len(parsed.hub_ids))]
    zones, hubs = (np.array(column, dtype=np.int64) for column in zip(*grid))
    modes = (*LEG_MODE_ORDER, Mode.DRIVING)
    assert snapshot(read.rows(zones, hubs, modes)) == snapshot(parsed.rows(zones, hubs, modes))
    hub_codes = np.arange(-1, len(parsed.hub_ids))
    for d in (0, 1):
        assert snapshot(read.timed_zones(d, hub_codes)) == snapshot(parsed.timed_zones(d, hub_codes))


def test_version_1_sidecar_is_ignored_and_deleted(tmp_path, monkeypatch):
    """A sidecar of the former layout (the key and the leg block, under a
    version-1 tag) beside the file is not read: the load parses, and the
    version-2 sidecar it writes replaces it."""
    path = tmp_path / "m.csv"
    write_matrices(_store(), path)
    store = load_matrices([path])
    expected = snapshot(store)
    for sidecar in tmp_path.glob(".*.legs"):
        sidecar.unlink()
    tag = hashlib.sha256(f"hubmodal legs v1 {sha256_digest(path)}".encode()).hexdigest()
    names = json.dumps([store.zone_ids, store.hub_ids, hubmodal.io._LEG_MODE_NAMES]).encode()
    old = tmp_path / f".m.csv.{tag[:16]}.legs"
    with open(old, "wb") as fh:
        for array in (tag.encode(), names, np.append(store.key, KEY_MAX), store._legs):
            np.lib.format.write_array(fh, np.frombuffer(array, np.uint8) if isinstance(array, bytes) else array)
    parses = _count_parses(monkeypatch)
    assert snapshot(load_matrices([path])) == expected
    assert len(parses) == 1
    (name,) = _sidecars(tmp_path)
    assert name != old.name and not old.exists()
    assert snapshot(load_matrices([path])) == expected
    assert len(parses) == 1


# ----------------------------------------------------------------------
# the markets sidecar
# ----------------------------------------------------------------------


def _market_sidecars(directory) -> list:
    return sorted(p.name for p in directory.glob(".*.markets"))


def _count_market_parses(monkeypatch) -> list:
    """A list that gets one entry per parse of a markets file."""
    parses = []
    parse = hubmodal.io._parse_markets
    monkeypatch.setattr(hubmodal.io, "_parse_markets", lambda *args: parses.append(args) or parse(*args))
    return parses


def _markets_files(directory, taste_file: bool = False) -> list:
    """A markets file of 24 markets, some with unavailable modes, blank
    zones and ids needing quotes, and with ``taste_file`` its taste
    columns moved to a taste-parameters file: the load's arguments."""
    rng = np.random.default_rng(17)
    markets = []
    for i in range(24):
        attrs = full_attrs()
        for mode in list(attrs)[1:]:
            if rng.uniform() < 0.3:
                attrs[mode] = replace(attrs[mode], available=False)
        markets.append(
            make_market(
                od_id=f"od,{i // 2}" if i % 5 == 0 else f"od{i // 2}", segment=list(Segment)[i % 4],
                o=(42.6 + rng.uniform(0, 0.1), -73.8 + rng.uniform(0, 0.1)), d=(42.6 + rng.uniform(0, 0.1), -73.8),
                trips=float(rng.uniform(0, 30)), taste=random_taste(rng), attrs=attrs,
            )
        )  # fmt: skip
    path = directory / "markets.csv"
    hubmodal.writers.write_markets(table_from_markets(markets), path)
    if not taste_file:
        return [path]
    header, *rows = _records(path)
    keep = [i for i, name in enumerate(header) if name not in TASTE_FIELDS]
    taste = [header.index(name) for name in ("od_id", "segment", *TASTE_FIELDS)]
    path.write_text(_csv_text([[row[i] for i in keep] for row in [header, *rows]]))
    taste_path = directory / "taste.csv"
    taste_path.write_text(_csv_text([[row[i] for i in taste] for row in [header, *reversed(rows)]]))
    return [path, taste_path]


@pytest.mark.parametrize("taste_file", [False, True], ids=["inline_taste", "taste_file"])
def test_second_markets_load_reads_the_sidecar_and_gives_equal_columns_and_table(tmp_path, monkeypatch, taste_file):
    parses = _count_market_parses(monkeypatch)
    columns = []  # the constructor's columns, parsed then read back
    table_of = hubmodal.io._market_table
    monkeypatch.setattr(hubmodal.io, "_market_table", lambda *args: columns.append(snapshot(list(args))) or table_of(*args))
    paths = _markets_files(tmp_path, taste_file)
    digests = {}
    parsed = load_markets(*paths, digests=digests)
    (name,) = _market_sidecars(tmp_path)
    assert re.fullmatch(r"\.markets\.csv\.[0-9a-f]{16}\.markets", name)
    assert list(digests.values()) == [sha256_digest(p) for p in paths]
    read = load_markets(*paths)
    assert len(parses) == 1 and len(columns) == 2
    assert columns[0] == columns[1]
    assert snapshot(read) == snapshot(parsed)
    assert not read.available.all()  # unavailable modes round-trip as well


@pytest.mark.parametrize("changed", [0, 1], ids=["markets_file", "taste_file"])
def test_changed_markets_byte_gives_a_new_tag_and_deletes_the_stale_sidecar(tmp_path, monkeypatch, changed):
    parses = _count_market_parses(monkeypatch)
    paths = _markets_files(tmp_path, taste_file=True)
    expected = snapshot(load_markets(*paths))
    (before,) = _market_sidecars(tmp_path)
    kept = [".markets.csv.keep.markets", f".markets.csv.{'f' * 17}.markets", ".markets.csv.0123456789abcdef.legs"]
    for name in kept:  # no sidecar name of this kind
        (tmp_path / name).write_bytes(b"x")
    paths[changed].write_bytes(paths[changed].read_bytes()[:-1] + b"\r")  # the last line ended by a lone CR
    changed_table = load_markets(*paths)
    assert len(parses) == 2
    (after,) = [name for name in _market_sidecars(tmp_path) if name not in kept]
    assert after != before and not (tmp_path / before).exists()
    assert all((tmp_path / name).is_file() for name in kept)
    assert snapshot(changed_table) == snapshot(load_markets(*paths)) == expected
    assert len(parses) == 2


def _short_ids(path, hubmodal_io, monkeypatch):
    """A well-formed markets sidecar whose od ids are one short."""
    with open(path, "rb") as fh:  # the tag, the ids, then five column arrays
        arrays = [np.lib.format.read_array(fh) for _ in range(7)]
    ids = json.loads(arrays[1].tobytes())
    ids[0] = ids[0][:-1]
    arrays[1] = np.frombuffer(json.dumps(ids).encode(), np.uint8)
    with open(path, "wb") as fh:
        for array in arrays:
            np.lib.format.write_array(fh, array)


def _other_market_version(path, hubmodal_io, monkeypatch):
    """The same files' markets sidecar as a later format version writes
    it, put where this version looks for its own."""
    markets = path.parent / "markets.csv"
    path.unlink()
    with monkeypatch.context() as mp:
        mp.setattr(hubmodal_io, "SIDECAR_VERSION", hubmodal_io.SIDECAR_VERSION + 1)
        load_markets(markets)
    (written,) = path.parent.glob(".*.markets")
    written.rename(path)


@pytest.mark.parametrize("damage", [_truncate, _cut_header, _trailing_bytes, _garbage, _other_market_version, _short_ids])
def test_unreadable_markets_sidecar_is_parsed_and_rewritten(tmp_path, monkeypatch, damage):
    (path,) = _markets_files(tmp_path)
    expected = snapshot(load_markets(path))
    (sidecar,) = tmp_path.glob(".*.markets")
    damage(sidecar, hubmodal.io, monkeypatch)
    parses = _count_market_parses(monkeypatch)
    assert snapshot(load_markets(path)) == expected
    assert len(parses) == 1
    # rewritten: the next load reads it
    assert snapshot(load_markets(path)) == expected
    assert len(parses) == 1 and _market_sidecars(tmp_path) == [sidecar.name]


def test_read_only_directory_loads_markets_with_no_sidecar(tmp_path, monkeypatch):
    directory = tmp_path / "ro"
    directory.mkdir()
    (path,) = _markets_files(directory)
    expected = snapshot(load_markets(path))
    for sidecar in directory.glob(".*.markets"):
        sidecar.unlink()
    directory.chmod(0o555)
    try:
        if os.access(directory, os.W_OK):  # a superuser writes anyway: refuse the sidecar's create as the OS would
            monkeypatch.setattr(hubmodal.io, "open", _refuse_create, raising=False)
        assert snapshot(load_markets(path)) == expected
        assert snapshot(load_markets(path)) == expected
    finally:
        directory.chmod(0o755)
    assert sorted(p.name for p in directory.iterdir()) == ["markets.csv"]


@pytest.mark.parametrize(
    "cell, error",
    [
        ("trips_per_day", r"row 3: negative trips in column 'trips_per_day'$"),  # a market rule
        ("o_lat", r"row 3: malformed number 'abc' in column 'o_lat'$"),  # a cell rule
        ("beta_cost", r"row 3: beta_cost must be negative, got 0.5 in column 'beta_cost'$"),  # a file rule
    ],
)
def test_failed_markets_load_writes_no_sidecar(tmp_path, cell, error):
    (path,) = _markets_files(tmp_path)
    header, *rows = _records(path)
    rows[1][header.index(cell)] = {"trips_per_day": "-1.0", "o_lat": "abc", "beta_cost": "0.5"}[cell]
    path.write_text(_csv_text([header, *rows]))
    for _ in range(2):  # each load raises the same error
        with pytest.raises(ParseError, match=error):
            load_markets(path)
    header_only = tmp_path / "empty.csv"
    header_only.write_text(",".join(header) + "\n")
    assert len(load_markets(header_only)) == 0
    assert _market_sidecars(tmp_path) == []


def test_markets_file_changed_during_the_parse_writes_no_sidecar(tmp_path, monkeypatch):
    (path,) = _markets_files(tmp_path)
    parse = hubmodal.io._parse_markets

    def parse_then_append(*args):
        parsed = parse(*args)
        with open(path, "a") as fh:  # a writer appends while the loader works
            fh.write("\n")
        return parsed

    monkeypatch.setattr(hubmodal.io, "_parse_markets", parse_then_append)
    load_markets(path)
    assert _market_sidecars(tmp_path) == []
