from __future__ import annotations

import logging
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    phase_space_pairs,
    split_halves,
)
from procrec.ingest import write_phase_space_csv

from conftest import mk_returns
from oracles import reference_load_price_csv

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


@st.composite
def timestamp_fields(draw):
    """A few instants, so repeats are common, written in every accepted form."""
    instant = BASE + timedelta(
        hours=draw(st.integers(0, 6)), microseconds=draw(st.sampled_from([0, 250_000, 123_456]))
    )
    form = draw(st.integers(0, 9))
    if form == 0:
        return draw(st.sampled_from(
            ["not-a-date", "", " ", "nan", "inf", "1e20", "-1e300", "0001-01-01T00:00:00+05:00",
             "9999-12-31T23:00:00-05:00", "2022-13-01T00:00:00",
             # whole epoch seconds at and past datetime's range, and the integer spellings int() takes
             "-62135596800", "-62135596801", "253402300799", "253402300800", "+1653004800",
             " 1653004800 ", "1_653_004_800", "\u0661\u0666\u0665\u0663\u0660\u0660\u0664\u0668\u0660\u0660",
             "9" * 5000, "-0"]
        ))
    if form == 1:
        return instant.replace(tzinfo=None).isoformat() + draw(st.sampled_from(["Z", "z"]))
    if form == 2:
        return instant.replace(tzinfo=None).isoformat()
    if form == 3:
        return repr(instant.timestamp())
    if form == 4:
        return str(int(instant.timestamp()))
    return instant.astimezone(draw(st.sampled_from(OFFSETS))).isoformat()


@st.composite
def csv_rows(draw):
    """Mostly well-formed rows, with zero, negative, NaN, inf and unparseable prices and junk lines."""
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(st.sampled_from(["", "   ", ",", "garbage", "only-one-field,", '"2022-05-20T00:00:00",1']))
    if kind == 1:
        price = draw(st.sampled_from(["0", "0.0", "-1.5", "nan", "-nan", "inf", "-inf", "1e309", "abc", ""]))
    else:
        price = repr(draw(st.floats(min_value=1e-3, max_value=1e6)))
    extra = ",extra" if kind == 2 else ""
    return f"{draw(timestamp_fields())},{price}{extra}"


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


@given(rows=st.lists(csv_rows(), max_size=25), lenient=st.booleans())
@settings(deadline=None, max_examples=300)
def test_loader_matches_scalar_reference(rows, lenient):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "p.csv", rows)
        assert _load_outcome(path, lenient) == reference_load_price_csv(path, lenient=lenient)


@given(
    header=st.sampled_from([b"", b"timestamp,price\n", b"price,timestamp\r\n"]),
    rows=st.lists(csv_rows(), max_size=6),
    body=st.binary(max_size=200),
    lenient=st.booleans(),
)
@settings(deadline=None, max_examples=300)
def test_loader_random_bytes_outcomes(header, rows, body, lenient):
    # a PriceSeries, an IngestError or SeriesTooShort: never another exception
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.csv"
        path.write_bytes(header + "".join(r + "\n" for r in rows).encode() + body)
        assert _load_outcome(path, lenient) == reference_load_price_csv(path, lenient=lenient)


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


def test_returns_length_and_span():
    prices = mk_prices(range(100, 110))
    returns = compute_log_returns(prices)
    assert len(returns) == len(prices) - 1
    assert returns.span == (BASE, BASE + timedelta(hours=9))


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


# --- phase_space_pairs ------------------------------------------------------


def test_pairs_basic():
    assert phase_space_pairs(mk_returns([0.1, 0.2, 0.3])) == [(0.1, 0.2), (0.2, 0.3)]


def test_pairs_constant_on_diagonal():
    pairs = phase_space_pairs(mk_returns([0.5] * 6))
    assert all(a == b == 0.5 for a, b in pairs)


def test_pairs_count():
    assert len(phase_space_pairs(mk_returns(np.linspace(0, 1, 37)))) == 36


def test_pairs_csv_roundtrip(tmp_path):
    pairs = phase_space_pairs(mk_returns([0.1, -0.2, 0.3]))
    out = tmp_path / "ps.csv"
    write_phase_space_csv(pairs, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r_t,r_t_plus_1"
    parsed = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert parsed == pairs
