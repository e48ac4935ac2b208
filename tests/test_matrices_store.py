"""How ``load_matrices`` builds its store.

The rows are parsed straight into one leg block sized from the files'
line counts, and the store adopts that block.  Rows that arrive out of
key order, ids that first appear out of sorted order, and line ends
other than LF must all give the store that the sorted LF file gives; the
loader's peak memory stays near the store it returns.

A clean parse writes the store to a sidecar beside the first file, and
the next load of the same bytes reads it back: the same store, bit for
bit.  A sidecar that does not read back whole is parsed over and
replaced, never an error, and a load that fails writes none.
"""

from __future__ import annotations

import csv
import io
import os
import re
import tracemalloc

import numpy as np
import pytest

from conftest import load_both, snapshot
from hubmodal import LegMatrices, LegTimes, Mode, ParseError, load_matrices, sha256_digest, write_matrices
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
    return store.zone_ids, store.hub_ids, store._key.tobytes(), store._legs.tobytes(), store._legs.shape


def test_second_load_reads_the_sidecar_and_returns_an_equal_store(tmp_path, monkeypatch):
    parses = _count_parses(monkeypatch)
    path = tmp_path / "m.csv"
    write_matrices(_store(), path)
    parsed = load_matrices([path])
    (name,) = _sidecars(tmp_path)
    assert re.fullmatch(r"\.m\.csv\.[0-9a-f]{16}\.legs", name)
    read = load_matrices([path])
    assert len(parses) == 1
    # ids, key and the leg bits, NaNs and the sentinel row included
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


def _unsorted_key(path, hubmodal_io, monkeypatch):
    """A well-formed sidecar whose key does not make a store."""
    with open(path, "rb") as fh:
        head, names, key, legs = (np.lib.format.read_array(fh) for _ in range(4))
    key[:2] = key[1::-1]
    with open(path, "wb") as fh:
        for array in (head, names, key, legs):
            np.lib.format.write_array(fh, array)


@pytest.mark.parametrize(
    "damage",
    [_truncate, _cut_header, _trailing_bytes, _garbage, _other_version, _other_mode_names, _unsorted_key],
)
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
    """The hit-path twin of the test above, with the same bound."""
    generate_fixture(tmp_path, seed=11, od_pairs=250, stops=100, pr_lots=5)
    path = tmp_path / "matrices.csv"
    load_matrices([path])
    parses = _count_parses(monkeypatch)
    tracemalloc.start()
    try:
        store = load_matrices([path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parses == []
    held = _held_bytes(store)
    assert len(store) > 80_000
    assert held <= 90 * len(store)
    assert peak <= 1.5 * held
