from __future__ import annotations

import csv
import gc
import logging
import math
import sys
import tempfile
import tracemalloc
import weakref
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from procrec import (
    ColumnSchema,
    DuplicateTimestamp,
    IngestError,
    MalformedRow,
    NonPositivePrice,
    PriceSeries,
    SeriesTooShort,
    compute_log_returns,
    compute_stats,
    load_price_csv,
    split_halves,
)
from procrec import ingest
from procrec.cli import main

from conftest import mk_returns
from oracles import reference_isoformat, reference_load_price_csv

BASE = datetime(2022, 5, 20, tzinfo=timezone.utc)


def hourly(i: int) -> str:
    return (BASE + timedelta(hours=i)).isoformat()


def write_csv(path, rows, header="timestamp,price"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


HOUR_US = 3600 * 10**6
BASE_US = int(BASE.timestamp()) * 10**6


def mk_prices(values, instrument="t") -> PriceSeries:
    return PriceSeries(instrument, BASE_US + HOUR_US * np.arange(len(values)), values)


# --- load_price_csv -------------------------------------------------------


def test_load_basic(tmp_path):
    path = write_csv(tmp_path / "btc.csv", [f"{hourly(i)},{100 + i}" for i in range(5)])
    series = load_price_csv(path)
    assert series.instrument == "btc"
    assert len(series) == 5
    assert series.prices[0] == 100.0
    assert series.timestamps[0] == BASE_US
    assert series.timestamps.dtype == np.int64 and series.prices.dtype == np.float64


def test_load_instrument_override(tmp_path):
    path = write_csv(tmp_path / "x.csv", [f"{hourly(i)},{1 + i}" for i in range(3)])
    assert load_price_csv(path, instrument="BTC").instrument == "BTC"


def test_load_sorts_out_of_order(tmp_path):
    ordered = [f"{hourly(i)},{100 + i}" for i in range(6)]
    shuffled = [ordered[3], ordered[0], ordered[5], ordered[1], ordered[4], ordered[2]]
    a = load_price_csv(write_csv(tmp_path / "a.csv", ordered))
    b = load_price_csv(write_csv(tmp_path / "b.csv", shuffled))
    np.testing.assert_array_equal(a.timestamps, b.timestamps)
    np.testing.assert_array_equal(a.prices, b.prices)


def test_load_custom_columns(tmp_path):
    path = write_csv(
        tmp_path / "c.csv",
        [f"x,{hourly(i)},{10 + i}" for i in range(3)],
        header="junk,time,close",
    )
    series = load_price_csv(path, ColumnSchema(timestamp="time", price="close"))
    assert series.prices.tolist() == [10.0, 11.0, 12.0]


def test_schema_rejects_one_column_for_both_fields():
    with pytest.raises(ValueError, match="both 'p'"):
        ColumnSchema(timestamp="p", price="p")


@pytest.mark.parametrize("reader", ["blocks", "csv"])
def test_load_skips_utf8_bom(tmp_path, reader):
    # a spreadsheet's "CSV UTF-8" export begins with EF BB BF; a quote sends the file to csv.reader
    rows = [f"{hourly(i)},{100 + i}" for i in range(6)]
    if reader == "csv":
        rows[1] = f'"{hourly(1)}",101'
    plain = write_csv(tmp_path / "plain.csv", rows)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = load_price_csv(plain), load_price_csv(marked)
    np.testing.assert_array_equal(a.timestamps, b.timestamps)
    np.testing.assert_array_equal(a.prices, b.prices)
    # line numbers are the file's own
    marked.write_bytes(marked.read_bytes() + b"bad,row\n")
    with pytest.raises(MalformedRow) as exc:
        load_price_csv(marked)
    assert exc.value.line_no == 8


def test_load_epoch_seconds_and_zulu(tmp_path):
    epoch = int(BASE.timestamp())
    rows = [f"{epoch},100", f"{(BASE + timedelta(hours=1)).strftime('%Y-%m-%dT%H:%M:%S')}Z,101"]
    series = load_price_csv(write_csv(tmp_path / "e.csv", rows))
    assert series.timestamps.tolist() == [BASE_US, BASE_US + HOUR_US]


def test_load_epoch_seconds_range_ends(tmp_path):
    first, last = -62135596800, 253402300799  # 0001-01-01T00:00:00Z, 9999-12-31T23:59:59Z
    series = load_price_csv(write_csv(tmp_path / "ends.csv", [f"{first},1", f"{last},2"]))
    assert series.timestamps.tolist() == [first * 10**6, last * 10**6]
    for past in (first - 1, last + 1):
        rows = [f"{first},1", f"{past},2", f"{last},3"]
        path = write_csv(tmp_path / f"past{past}.csv", rows)
        with pytest.raises(MalformedRow) as exc:
            load_price_csv(path)
        assert exc.value.line_no == 3
        assert load_price_csv(path, lenient=True).prices.tolist() == [1.0, 3.0]


def test_load_zero_price_rejected(tmp_path):
    rows = [f"{hourly(0)},100", f"{hourly(1)},0", f"{hourly(2)},101"]
    with pytest.raises(NonPositivePrice) as exc:
        load_price_csv(write_csv(tmp_path / "z.csv", rows))
    assert exc.value.line_no == 3


def test_load_malformed_row_strict(tmp_path):
    rows = [f"{hourly(0)},100", "not-a-date,101", f"{hourly(2)},102"]
    with pytest.raises(MalformedRow) as exc:
        load_price_csv(write_csv(tmp_path / "m.csv", rows))
    assert exc.value.line_no == 3


def test_load_lenient_skips_and_warns(tmp_path, caplog):
    rows = [f"{hourly(0)},100", "garbage,?", f"{hourly(2)},-5", f"{hourly(3)},103", f"{hourly(4)},104"]
    with caplog.at_level("WARNING", logger="procrec.ingest"):
        series = load_price_csv(write_csv(tmp_path / "l.csv", rows), lenient=True)
    assert len(series) == 3
    assert len(caplog.records) == 2


def test_load_duplicate_timestamp_strict(tmp_path):
    rows = [f"{hourly(0)},100", f"{hourly(1)},101", f"{hourly(1)},102"]
    with pytest.raises(DuplicateTimestamp):
        load_price_csv(write_csv(tmp_path / "d.csv", rows))


def test_load_duplicate_timestamp_lenient_keeps_first(tmp_path):
    rows = [f"{hourly(0)},100", f"{hourly(1)},101", f"{hourly(1)},102"]
    series = load_price_csv(write_csv(tmp_path / "d.csv", rows), lenient=True)
    assert series.prices.tolist() == [100.0, 101.0]


def test_stamp_messages_share_one_text(tmp_path, caplog):
    # the strict duplicate error, the lenient duplicate warning and the series' order error
    # print a stamp as its isoformat(), "T" between date and time
    rows = ["2020-01-01T00:00:00+00:00,100", "2020-01-01T01:00:00+00:00,101", "2020-01-01T00:00:00Z,102"]
    path = write_csv(tmp_path / "d.csv", rows)
    with pytest.raises(DuplicateTimestamp) as exc:
        load_price_csv(path)
    assert str(exc.value) == "line 4: timestamp 2020-01-01T00:00:00+00:00 repeats"
    with caplog.at_level("WARNING", logger="procrec.ingest"):
        load_price_csv(path, lenient=True)
    assert caplog.messages == [f"{path} line 4 skipped: duplicate timestamp 2020-01-01T00:00:00+00:00"]
    us = int(datetime(2020, 1, 1, tzinfo=timezone.utc).timestamp()) * 10**6
    with pytest.raises(ValueError) as exc:
        PriceSeries("t", [us, us + 1, us + 1], [1.0, 2.0, 3.0])
    assert str(exc.value) == "t: timestamps not strictly increasing at 2020-01-01T00:00:00.000001+00:00"


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_price_csv(tmp_path / "nope.csv")


def test_load_missing_column(tmp_path):
    path = write_csv(tmp_path / "h.csv", ["1,2"], header="a,b")
    with pytest.raises(MalformedRow) as exc:
        load_price_csv(path)
    assert exc.value.line_no == 1


def test_load_too_few_rows(tmp_path):
    with pytest.raises(SeriesTooShort):
        load_price_csv(write_csv(tmp_path / "s.csv", [f"{hourly(0)},100"]))


OFFSETS = [timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-3))]


# hours before a day, month, year or leap-day end, and the ends of datetime's range
EDGE_ANCHORS = [
    datetime(*ymdh, tzinfo=timezone.utc)
    for ymdh in [(1, 1, 1, 0), (1999, 12, 31, 21), (1900, 2, 28, 22), (2000, 2, 28, 21), (2023, 2, 28, 22),
                 (2024, 2, 28, 21), (2022, 4, 30, 20), (2022, 5, 31, 22), (9999, 12, 31, 17)]
]


@st.composite
def timestamp_fields(draw):
    """A few instants, so repeats are common, written in every accepted form."""
    anchor = draw(st.just(BASE) | st.sampled_from(EDGE_ANCHORS))
    instant = anchor + timedelta(
        hours=draw(st.integers(0, 6)), microseconds=draw(st.sampled_from([0, 250_000, 123_456]))
    )
    form = draw(st.integers(0, 9))
    if form == 0:
        return draw(st.sampled_from(
            ["not-a-date", "", " ", "nan", "inf", "1e20", "-1e300", "0001-01-01T00:00:00+05:00",
             "9999-12-31T23:00:00-05:00", "2022-13-01T00:00:00",
             # the strict ISO layout with a day, hour or year that does not exist
             "2023-02-29T00:00:00+00:00", "1900-02-29T12:00:00Z", "2022-05-20T24:00:00Z", "0000-12-31T00:00:00+00:00",
             # whole epoch seconds at and past datetime's range, and the integer spellings int() takes
             "-62135596800", "-62135596801", "253402300799", "253402300800", "+1653004800",
             " 1653004800 ", "1_653_004_800", "\u0661\u0666\u0665\u0663\u0660\u0660\u0664\u0668\u0660\u0660",
             "9" * 5000, "-0", "01653004800", "9" * 18, "1" + "0" * 18, str(2**64 + 1653004800)]
        ))
    if form == 1:
        return instant.replace(tzinfo=None).isoformat() + draw(st.sampled_from(["Z", "z"]))
    if form == 2:
        return instant.replace(tzinfo=None).isoformat()
    if form == 3:
        return repr(instant.timestamp())
    if form == 4:
        return str(int(instant.timestamp()))
    try:
        return instant.astimezone(draw(st.sampled_from(OFFSETS))).isoformat()
    except OverflowError:  # the offset moves the range's end out of years 1..9999
        return instant.isoformat()


# one past csv.field_size_limit()'s default of 131,072 characters
OVERSIZED = "9" * 131_073


@st.composite
def csv_rows(draw, quoting=True):
    """Mostly well-formed rows, with zero, negative, NaN, inf and unparseable prices, junk lines
    and fields past the csv size limit; with ``quoting``, also quoted fields holding a comma or a
    line end, and NUL bytes."""
    kind = draw(st.integers(0, 23))
    if kind == 0:
        junk = ["", "   ", ",", "garbage", "only-one-field,"]
        return draw(st.sampled_from(junk + ['"2022-05-20T00:00:00",1'] * quoting))
    if kind == 1:
        price = draw(st.sampled_from(["0", "0.0", "-1.5", "nan", "-nan", "inf", "-inf", "1e309", "abc", ""]))
    elif kind == 3 and quoting:
        price = draw(st.sampled_from(['"1,5"', '"2\n5"', '"3\r\n5"', '"4"', '"5"""', '6"', '"7', "8\x00", "\x00"]))
    elif kind == 4:
        price = draw(st.sampled_from([OVERSIZED, OVERSIZED[1:], "1" + "0" * 400]))
    else:
        price = repr(draw(st.floats(min_value=1e-3, max_value=1e6)))
    stamp = draw(timestamp_fields())
    if kind == 5:
        stamps = [OVERSIZED, OVERSIZED[1:]]
        if quoting:
            stamps += [f'"{stamp}"', f'"{stamp},"', f'"{stamp}\n"', f"{stamp}\x00"]
        stamp = draw(st.sampled_from(stamps))
    extra = ",extra" if kind == 2 else ""
    return f"{stamp},{price}{extra}"


@st.composite
def csv_text(draw, max_size):
    """Rows from ``csv_rows``, the last one maybe without a line end. Half the files hold no quote,
    CR or NUL; the others end their lines with LF, CRLF, lone CR or a mix of them."""
    quoting = draw(st.booleans())
    ends = st.just("\n")
    if quoting:
        ends = draw(st.sampled_from([ends, st.just("\r\n"), st.just("\r"), st.sampled_from(["\n", "\r\n", "\r"])]))
    lines = draw(st.lists(st.tuples(csv_rows(quoting), ends), max_size=max_size))
    text = "".join(row + end for row, end in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(lines[-1][1])]
    return text


def _load_outcome(path, lenient):
    """load_price_csv's result in the oracle's form, with the warned lines."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("procrec.ingest")
    logger.addHandler(handler)
    try:
        series = load_price_csv(path, lenient=lenient)
    except IngestError as exc:
        return (type(exc).__name__, exc.line_no)
    except SeriesTooShort:
        return ("SeriesTooShort", None)
    finally:
        logger.removeHandler(handler)
    assert series.timestamps.dtype == np.int64 and series.prices.dtype == np.float64
    return ("ok", series.timestamps.tolist(), series.prices.tolist(), [r.args[1] for r in records])


def _check_against_reference(path, data, lenient, block_bytes=ingest._BLOCK_BYTES):
    """Write ``data`` to ``path`` and load it with the package, at ``block_bytes`` per block, and
    with the oracle."""
    path.write_bytes(data)
    with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
        assert _load_outcome(path, lenient) == reference_load_price_csv(path, lenient=lenient)


@given(text=csv_text(max_size=25), lenient=st.booleans())
@settings(deadline=None, max_examples=300)
def test_loader_matches_scalar_reference(text, lenient):
    with tempfile.TemporaryDirectory() as tmp:
        _check_against_reference(Path(tmp) / "p.csv", ("timestamp,price\n" + text).encode(), lenient)


# blocks of a few bytes put a block boundary at every place in a line, and make a long line span many reads
tiny_blocks = st.integers(1, 8)


@given(text=csv_text(max_size=25), lenient=st.booleans(), block_bytes=tiny_blocks)
@settings(deadline=None, max_examples=300)
def test_loader_matches_scalar_reference_tiny_blocks(text, lenient, block_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        _check_against_reference(Path(tmp) / "p.csv", ("timestamp,price\n" + text).encode(), lenient, block_bytes)


# bytes the csv tokenizer or the UTF-8 decoder treat apart, and a 2-byte character
special_bytes = st.lists(
    st.sampled_from([b'"', b"\r", b"\n", b"\r\n", b"\x00", b",", b"1", b" ", b"\xc3\xa9", b"\xc3", b"\xff"]),
    max_size=30,
).map(b"".join)
random_files = {
    "header": st.sampled_from([
        b"", b"timestamp,price\n", b"price,timestamp\r\n", b'"timestamp",price\r',
        b"\xef\xbb\xbftimestamp,price\n", b'\xef\xbb\xbf"timestamp",price\r', b"\xef\xbb\xbf",
    ]),
    "text": csv_text(max_size=6),
    "body": st.one_of(st.binary(max_size=200), special_bytes),
    "lenient": st.booleans(),
}


@given(**random_files)
@settings(deadline=None, max_examples=300)
def test_loader_random_bytes_outcomes(header, text, body, lenient):
    # a PriceSeries, an IngestError or SeriesTooShort: never another exception
    with tempfile.TemporaryDirectory() as tmp:
        _check_against_reference(Path(tmp) / "b.csv", header + text.encode() + body, lenient)


@given(**random_files, block_bytes=tiny_blocks)
@settings(deadline=None, max_examples=300)
def test_loader_random_bytes_outcomes_tiny_blocks(header, text, body, lenient, block_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        _check_against_reference(Path(tmp) / "b.csv", header + text.encode() + body, lenient, block_bytes)


def test_load_in_order_returns_views_of_its_buffers(tmp_path, monkeypatch):
    # the loader keeps stamps and prices, no line per row, and returns views of its two buffers: the
    # heap holds them, up to 1/16 slack each, and one bool per row for an order check, where a copy
    # of either buffer would add a whole one. Blocks of 4 KiB, so that one block's temporaries do not
    # count
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 12)
    n = 200_000
    stamps = 1_600_000_000 + 3600 * np.arange(n)
    path = tmp_path / "long.csv"
    path.write_text("timestamp,price\n" + "".join(f"{s},{100 + i / 8!r}\n" for i, s in enumerate(stamps.tolist())))
    tracemalloc.start()
    try:
        series = load_price_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = 8 * n
    assert series.timestamps.nbytes + series.prices.nbytes == 2 * buffer
    assert not series.timestamps.flags.owndata and not series.prices.flags.owndata
    assert peak < 2.3 * buffer, f"peak {peak / buffer:.2f} buffers of {buffer / 1e6:.1f} MB"


def test_load_undecodable_bytes_and_oversized_field(tmp_path):
    rows = [f"{hourly(0)},100", f"{hourly(1)},1\xff01", f"{hourly(2)},102", f"{hourly(3)},103"]
    path = tmp_path / "u.csv"
    path.write_bytes(("\n".join(["timestamp,price"] + rows) + "\n").encode("latin-1"))
    with pytest.raises(MalformedRow) as exc:
        load_price_csv(path)
    assert exc.value.line_no == 3
    assert len(load_price_csv(path, lenient=True)) == 3

    rows[1] = f"{hourly(1)},{'9' * 200_000}"
    path = write_csv(tmp_path / "f.csv", rows)
    for lenient in (False, True):
        with pytest.raises(MalformedRow) as exc:
            load_price_csv(path, lenient=lenient)
        assert exc.value.line_no == 3


def _read_stamp_column(stamps):
    """``_stamp_seconds`` of a block holding one ``stamp,1`` line per stamp."""
    data = "".join(f"{stamp},1\n" for stamp in stamps).encode()
    buf = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    return ingest._stamp_seconds(buf, seps, np.arange(0, len(seps), 2))


def _digit_strings(width):
    return st.lists(st.text("0123456789", min_size=width, max_size=width), min_size=1, max_size=6)


@given(
    stamps=st.integers(0, 22).flatmap(_digit_strings)
    | st.lists(
        st.text("0123456789", max_size=12) | st.sampled_from([" 1", "+1", "1_0", "-1", "\u0661"]), min_size=1, max_size=6
    )
)
def test_digit_runs_read_what_int_reads(stamps):
    # the block pass reads a stamp column from its bytes only when int() would give the same values
    out = _read_stamp_column(stamps)
    if all(s.isascii() and s.isdigit() for s in stamps) and len({len(s) for s in stamps}) == 1 and len(stamps[0]) <= 18:
        values, read = out
        assert values.dtype == np.int64 and values.tolist() == [int(s) for s in stamps] and read.all()
    else:
        assert out is None


# stamps in the strict layout at the ends of the calendar, which the block pass reads
ISO_READ = ["0001-01-01T00:00:00", "9999-12-31T23:59:59", "2000-02-29T12:00:00", "2024-02-29T23:59:59"]
# stamps it leaves to the row parser: days, hours and years that do not exist, and every other form
ISO_FLAGGED = [
    "1900-02-29T00:00:00+00:00", "2023-02-29T00:00:00Z", "2022-04-31T00:00:00+00:00", "2022-00-10T00:00:00Z",
    "2022-13-10T00:00:00+00:00", "0000-01-01T00:00:00+00:00", "2022-05-20T24:00:00+00:00",
    "2022-05-20T00:60:00Z", "2022-05-20T00:00:60+00:00", "2022-05-20 00:00:00+00:00", "2022-05-20t00:00:00Z",
    "2022-05-20T00:00:00z", "2022-05-20T00:00:00+05:30", "2022-05-20T00:00:00-00:00",
    "2022-05-20T00:00:00+00:00:00", "2022-05-20T00:00:00.000000+00:00", "2022-05-20T00:00:00",
    " 2022-05-20T00:00:00Z", "2022-05-20T00:00:00Z ", "+2022-05-20T00:00:00Z", "22-05-20T00:00:00+00:00",
]
iso_stamps = st.builds(
    lambda instant, suffix: instant.replace(microsecond=0).isoformat() + suffix,
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)),
    st.sampled_from(["+00:00", "Z"]),
)


@given(stamps=st.lists(iso_stamps | st.sampled_from(ISO_FLAGGED), min_size=1, max_size=8))
def test_iso_layout_reads_what_parse_timestamp_reads(stamps):
    # the block pass reads each strict-form stamp as the row parser would, and flags every other one
    out = _read_stamp_column(stamps)
    values, read = out if out is not None else (np.zeros(len(stamps), dtype=np.int64), np.zeros(len(stamps), bool))
    assert read.tolist() == [s not in ISO_FLAGGED for s in stamps]
    assert [int(v) * 10**6 for v in values[read]] == [ingest._parse_timestamp(s) for s, r in zip(stamps, read) if r]


@pytest.mark.parametrize("suffix", ["+00:00", "Z"])
def test_iso_layout_calendar_ends(suffix):
    stamps = [s + suffix for s in ISO_READ]
    values, read = _read_stamp_column(stamps)
    assert read.all() and (values * 10**6).tolist() == [ingest._parse_timestamp(s) for s in stamps]
    assert values[:2].tolist() == [ingest._EPOCH_SECONDS_MIN, ingest._EPOCH_SECONDS_MAX]


@pytest.mark.parametrize("stamp", ISO_FLAGGED)
def test_iso_layout_flags_other_forms(stamp):
    values, read = _read_stamp_column([ISO_READ[0] + "Z", stamp, ISO_READ[1] + "+00:00"])
    assert read.tolist() == [True, False, True]


@pytest.mark.parametrize("odd", ["2022-05-20T12:30:00+05:30", "2023-02-29T00:00:00+00:00", "2022-05-21T05:00:00z"])
def test_loader_flags_one_odd_iso_stamp(tmp_path, odd):
    # in a block of strict ISO stamps, only the odd stamp's line goes through the row parser
    stamps = [
        (BASE + timedelta(hours=i)).strftime("%Y-%m-%dT%H:%M:%S") + ("Z" if i % 2 else "+00:00") for i in range(40)
    ]
    rows = [f"{stamp},{100 + i}" for i, stamp in enumerate(stamps)]
    rows[20] = f"{odd},1.5"
    path = write_csv(tmp_path / "iso.csv", rows)
    seen = []
    add_row = ingest._PriceRows.add_row

    def counted(self, row, line):
        seen.append(line)
        add_row(self, row, line)

    with mock.patch.object(ingest._PriceRows, "add_row", counted):
        for lenient in (False, True):
            seen.clear()
            assert _load_outcome(path, lenient) == reference_load_price_csv(path, lenient=lenient)
            assert seen == [22]  # line 1 is the header


def test_loader_block_boundaries(tmp_path):
    # a read boundary between the two bytes of a character, inside a flagged line, and just
    # before the first quote, from where csv.reader reads the rest of the file
    rows = [
        "timestamp,price,note", "1653004800,100,café", "1653008400,-5,x", "1653012000,102,y", "bad,103,z",
        '1653015600,"104",q', "1653019200,0,w", "1653012000,105,repeat",
    ]
    data = ("\n".join(rows) + "\r\n").encode()
    path = tmp_path / "edges.csv"
    path.write_bytes(data)
    boundaries = (data.index("é".encode()) + 1, data.index(b"-5"), data.index(b'"'))
    expected = ("ok", [1653004800 * 10**6, 1653012000 * 10**6, 1653015600 * 10**6], [100.0, 102.0, 104.0], [3, 5, 7, 8])
    assert reference_load_price_csv(path, lenient=True) == expected
    for block_bytes in (*boundaries, *range(1, 9), len(data)):
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            assert _load_outcome(path, lenient=True) == expected
            assert _load_outcome(path, lenient=False) == reference_load_price_csv(path) == ("NonPositivePrice", 3)


def test_loader_resumes_columns_after_a_bad_value(tmp_path):
    # a value int() or float() rejects sends only its own block through the row parser
    rows = [f"{1600000000 + 3600 * i},{100 + i}.5" for i in range(60)]
    rows[5], rows[40] = "garbage,1", f"{1600000000 + 3600 * 40},1.2.3"
    path = write_csv(tmp_path / "bad.csv", rows)
    bad_lines = (7, 42)  # line 1 is the header

    with mock.patch.object(ingest, "_BLOCK_BYTES", 64), path.open("rb") as fh:
        block_lines = [data.count(b"\n") for _, data in ingest._blocks(fh)]
    ends = np.cumsum(block_lines)
    assert len(block_lines) > 10 and ends[0] < bad_lines[0] and ends[-2] > bad_lines[1]
    rerun = [
        line
        for first, last in zip(ends - block_lines + 1, ends)
        if any(first <= b <= last for b in bad_lines)
        for line in range(first, last + 1)
    ]

    seen = []
    add_row = ingest._PriceRows.add_row

    def counted(self, row, line):
        seen.append(line)
        add_row(self, row, line)

    with mock.patch.object(ingest, "_BLOCK_BYTES", 64), mock.patch.object(ingest._PriceRows, "add_row", counted):
        outcome = _load_outcome(path, lenient=True)
        assert outcome == reference_load_price_csv(path, lenient=True)
        assert outcome[3] == list(bad_lines) and len(outcome[1]) == 58
        assert seen == rerun  # later blocks are converted by columns again
        seen.clear()
        assert _load_outcome(path, lenient=False) == reference_load_price_csv(path) == ("MalformedRow", 7)


# --- behaviour that differs between Python versions -------------------------


def test_csv_reader_nul_by_python_version():
    # Python 3.10 rejects a NUL byte in csv.reader input; 3.11 and later read it as text
    if sys.version_info >= (3, 11):
        assert list(csv.reader(["1\x00,2\n"])) == [["1\x00", "2"]]
    else:
        with pytest.raises(csv.Error, match="NUL"):
            list(csv.reader(["1\x00,2\n"]))


def test_int_digit_limit_by_python_version():
    # int() rejects strings of more than 4,300 digits from Python 3.10.7 on (3.11 included);
    # float() reads them as inf on every version
    if sys.version_info >= (3, 10, 7):
        assert sys.get_int_max_str_digits() == 4300
        assert int("9" * 4300) > 0
        with pytest.raises(ValueError, match="4300"):
            int("9" * 4301)
    else:
        assert int("9" * 4301) > 0
    assert float("9" * 4301) == math.inf


ABORTED, SKIPPED = ("MalformedRow", 4), ("ok", [4])  # the oracle's outcome, with the warned lines only
VERSION_CASES = {
    # Python 3.10's csv.reader aborts on the NUL; 3.11 reads it into an unparseable price
    "nul": ("1653012000,10\x002", ABORTED, ABORTED if sys.version_info < (3, 11) else SKIPPED),
    # a field past csv.field_size_limit() aborts in either mode
    "oversized_stamp": (f"{OVERSIZED},102", ABORTED, ABORTED),
    "oversized_price": (f"1653012000,{OVERSIZED}", ABORTED, ABORTED),
    # int() rejects it from 3.10.7 on and takes it before; either way it is out of range
    "over_int_digit_limit": (f"{'9' * 4301},102", ABORTED, SKIPPED),
}


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("case", VERSION_CASES)
def test_version_dependent_rows_match_reference(tmp_path, case, lenient):
    row, strict_outcome, lenient_outcome = VERSION_CASES[case]
    rows = [f"{1653004800 + 3600 * i},{100 + i}" for i in range(5)]
    rows[2] = row
    path = write_csv(tmp_path / "v.csv", rows)
    outcome = _load_outcome(path, lenient)
    assert outcome == reference_load_price_csv(path, lenient=lenient)
    summary = outcome[:1] + outcome[3:] if outcome[0] == "ok" else outcome
    assert summary == (lenient_outcome if lenient else strict_outcome)


def test_market_scale_row_count(market_scale_csv):
    series = load_price_csv(market_scale_csv)
    assert len(series) == 6307
    assert len(compute_log_returns(series)) == 6306


# --- compute_log_returns ---------------------------------------------------


def test_returns_constant_prices():
    returns = compute_log_returns(mk_prices([100, 100, 100]))
    assert returns.values.tolist() == [0.0, 0.0]


def test_returns_single_step_value():
    # ln(105/100), checked against a 30-digit evaluation: 0.0487901641694320030...
    returns = compute_log_returns(mk_prices([100, 105]))
    assert returns.values[0] == pytest.approx(0.04879016416943205, abs=1e-15)


def test_returns_antisymmetry():
    up = compute_log_returns(mk_prices([100, 105])).values[0]
    down = compute_log_returns(mk_prices([105, 100])).values[0]
    assert down == pytest.approx(-up, abs=1e-15)


def test_returns_length():
    prices = mk_prices(range(100, 110))
    returns = compute_log_returns(prices)
    assert len(returns) == len(prices) - 1


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 keeps a temporary argument in the caller's frame until the call returns",
)
def test_compute_log_returns_frees_prices_before_the_difference(monkeypatch):
    # the caller holds no name for the series: its timestamps are gone before the logs are taken,
    # and its prices once they are
    refs, alive = [], []

    def fresh_prices():
        prices = mk_prices(np.linspace(100.0, 200.0, 1_000))
        refs.extend((weakref.ref(prices), weakref.ref(prices.prices), weakref.ref(prices.timestamps)))
        return prices

    def spy(fn):
        def call(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(np, "log", spy(np.log))
    monkeypatch.setattr(np, "diff", spy(np.diff))
    returns = compute_log_returns(fresh_prices())
    # series, prices, timestamps: at np.log only the prices, its argument, are alive; at np.diff none
    assert alive == [[False, True, False], [False, False, False]]
    assert len(returns) == 999


def test_price_series_too_short():
    with pytest.raises(SeriesTooShort):
        mk_prices([100])


def test_price_series_rejects_bad_columns():
    ts = BASE_US + HOUR_US * np.arange(3)
    with pytest.raises(ValueError, match="strictly increasing"):
        PriceSeries("t", ts[[0, 2, 1]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        PriceSeries("t", ts[[0, 1, 1]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="equal length"):
        PriceSeries("t", ts, [1.0, 2.0])


def test_price_point_rejects_nonpositive():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mk_prices([100.0, bad, 101.0])


@given(
    values=st.lists(st.floats(min_value=0.001, max_value=1000.0), min_size=2, max_size=40),
    scale=st.floats(min_value=0.001, max_value=1000.0),
)
@settings(deadline=None)
def test_returns_scale_invariance(values, scale):
    base = compute_log_returns(mk_prices(values)).values
    scaled = compute_log_returns(mk_prices([scale * v for v in values])).values
    np.testing.assert_allclose(scaled, base, rtol=0.0, atol=1e-12)


# --- compute_stats ----------------------------------------------------------


def test_stats_degenerate_series():
    stats = compute_stats(mk_returns([0.0, 0.0, 0.0]))
    assert stats.mean == 0.0 and stats.std == 0.0 and stats.count == 3


def test_stats_symmetric_pair():
    stats = compute_stats(mk_returns([-1.0, 1.0]))
    assert stats.mean == 0.0 and stats.std == 1.0


def test_stats_population_divisor():
    # hand computation with divisor N=4: mean 2.5, sqrt(5/4)
    stats = compute_stats(mk_returns([1.0, 2.0, 3.0, 4.0]))
    assert stats.mean == pytest.approx(2.5, abs=0)
    assert stats.std == pytest.approx(1.118033988749895, abs=1e-15)


def test_stats_too_short():
    with pytest.raises(SeriesTooShort):
        compute_stats(mk_returns([0.1]))


@given(
    values=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=60),
    shift=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(deadline=None)
def test_stats_shift_property(values, shift):
    base = compute_stats(mk_returns(values))
    assume(base.std > 0.01)
    moved = compute_stats(mk_returns([v + shift for v in values]))
    assert moved.mean == pytest.approx(base.mean + shift, rel=1e-12, abs=1e-12)
    assert moved.std == pytest.approx(base.std, rel=1e-12)


# --- split_halves -----------------------------------------------------------


def test_split_even():
    h1, h2 = split_halves(mk_returns(np.arange(6306, dtype=float)))
    assert len(h1) == 3153 and len(h2) == 3153


def test_split_odd_gives_extra_to_test_half():
    h1, h2 = split_halves(mk_returns(np.arange(7, dtype=float)))
    assert len(h1) == 3 and len(h2) == 4


def test_split_four():
    h1, h2 = split_halves(mk_returns([1.0, 2.0, 3.0, 4.0]))
    assert h1.values.tolist() == [1.0, 2.0]
    assert h2.values.tolist() == [3.0, 4.0]


def test_split_too_short():
    with pytest.raises(SeriesTooShort):
        split_halves(mk_returns([1.0, 2.0, 3.0]))


@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=4, max_size=99))
@settings(deadline=None)
def test_split_concat_identity(values):
    series = mk_returns(values)
    h1, h2 = split_halves(series)
    np.testing.assert_array_equal(np.concatenate([h1.values, h2.values]), series.values)
    # views, not copies: the halves hold no memory of their own
    assert np.shares_memory(h1.values, series.values) and np.shares_memory(h2.values, series.values)


# --- phase-space pairs, as the returns command writes them ----------------------


def _phase_space(tmp_path, prices):
    """The returns of ``prices`` and the ``(r_t, r_t+1)`` pairs and lines of ``_phase_space.csv``."""
    src = write_csv(tmp_path / "ps.csv", [f"{hourly(i)},{float(p)!r}" for i, p in enumerate(prices)])
    out = tmp_path / "out"
    assert main(["returns", "--input", str(src), "--out", str(out)]) == 0
    values = compute_log_returns(load_price_csv(src)).values.tolist()
    lines = (out / "ps_phase_space.csv").read_text().strip().splitlines()
    pairs = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    return values, pairs, lines


def test_pairs_basic(tmp_path):
    values, pairs, _ = _phase_space(tmp_path, 100.0 * np.exp(np.cumsum([0.0, 0.1, 0.2, 0.3])))
    assert len(values) == 3
    assert pairs == [(values[0], values[1]), (values[1], values[2])]


def test_pairs_count(tmp_path):
    values, pairs, _ = _phase_space(tmp_path, 100.0 * np.exp(np.linspace(0, 1, 38)))
    assert len(values) == 37
    assert len(pairs) == 36


def test_pairs_csv_roundtrip(tmp_path):
    values, pairs, lines = _phase_space(tmp_path, 100.0 * np.exp(np.cumsum([0.0, 0.1, -0.2, 0.3])))
    assert lines[0] == "r_t,r_t_plus_1"
    assert pairs == list(zip(values[:-1], values[1:]))


# --- write_text_atomic -----------------------------------------------------------


def test_write_text_atomic_slices_keep_the_bytes(tmp_path):
    # three slices; multi-byte characters end the first, open the second and fill the third
    size = ingest._WRITE_SLICE
    text = "a" * (size - 1) + "é😀\r\n" + "€" * size + "\n😀" + "b" * 5
    path = tmp_path / "out.txt"
    ingest.write_text_atomic(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    # the same text as pieces: one longer than a slice, an empty one, and the rest
    ingest.write_text_atomic(path, iter([text[: size + 3], "", text[size + 3 :]]))
    assert path.read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_text_atomic_pieces_that_raise_keep_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def pieces():
        yield "new\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError):
        ingest.write_text_atomic(path, pieces())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_text_atomic_holds_no_encoded_copy(tmp_path):
    size = 16 * 2**20
    text = "x" * size
    tracemalloc.start()
    try:
        ingest.write_text_atomic(tmp_path / "big.txt", text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.txt").stat().st_size == size
    assert peak < size / 4, f"peak {peak / 2**20:.1f} MiB writing {size / 2**20:.0f} MiB"


# --- utc_isoformat ------------------------------------------------------------

# the stamps a PriceSeries can hold: 0001-01-01T00:00:00 through 9999-12-31T23:59:59.999999 UTC
US_MIN, US_MAX = -62_135_596_800 * 10**6, 253_402_300_800 * 10**6 - 1
YEAR_999_US = (datetime(999, 7, 4, 12, 30, 15, tzinfo=timezone.utc) - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(
        st.one_of(
            st.integers(US_MIN // 10**6, US_MAX // 10**6).map(lambda s: s * 10**6),  # whole seconds
            st.integers(US_MIN, US_MAX),
        ),
        max_size=20,
    )
)
@example([0, -1, 1, -86_400 * 10**6, -1_000_000, YEAR_999_US, YEAR_999_US + 123, US_MIN, US_MAX])
@example([])
def test_utc_isoformat_matches_datetime(us):
    text = ingest.utc_isoformat(np.array(us, dtype=np.int64)).tolist()
    assert text == reference_isoformat(us)
    assert all(type(t) is str for t in text)
