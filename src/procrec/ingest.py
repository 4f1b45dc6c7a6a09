"""Price CSV ingestion, log returns, summary stats, and series splitting.

Input CSV contract: a header row, one row per observation, with a timestamp
column (ISO-8601 or epoch seconds, assumed UTC when naive) and a positive
price column. Column names are configurable; defaults are ``timestamp`` and
``price``. Rows are canonicalized by sorting on timestamp.

Whole epoch seconds are read exactly by ``int`` without ``datetime``, which
keeps the per-row cost of a long epoch-stamped file low; fractional epochs
and ISO-8601 stamps go through ``datetime``.
"""

from __future__ import annotations

import csv
import io
import logging
import os
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateTimestamp,
    MalformedRow,
    NonPositivePrice,
    SeriesTooShort,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ColumnSchema",
    "PriceSeries",
    "ReturnSeries",
    "SeriesStats",
    "load_price_csv",
    "compute_log_returns",
    "compute_stats",
    "split_halves",
    "phase_space_pairs",
    "write_phase_space_csv",
    "utc_datetime",
    "write_text_atomic",
]


@dataclass(frozen=True)
class ColumnSchema:
    """Maps the logical timestamp/price fields onto CSV column names."""

    timestamp: str = "timestamp"
    price: str = "price"


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Ordered hourly price observations for one instrument, as two columns.

    ``timestamps``: int64 microseconds since the Unix epoch (UTC), strictly
    increasing. ``prices``: float64, positive and finite. At least two points.
    """

    instrument: str
    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=np.float64))
        ts, prices = self.timestamps, self.prices
        if ts.ndim != 1 or ts.shape != prices.shape:
            raise ValueError(f"{self.instrument}: timestamps and prices must be 1-D, of equal length")
        if len(ts) < 2:
            raise SeriesTooShort(f"{self.instrument}: need at least 2 price points, got {len(ts)}")
        if not np.all((prices > 0) & (prices < np.inf)):
            raise ValueError(f"{self.instrument}: prices must be positive and finite")
        steps = ts[1:] <= ts[:-1]
        if steps.any():
            at = utc_datetime(ts[1 + np.argmax(steps)])
            raise ValueError(f"{self.instrument}: timestamps not strictly increasing at {at}")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """One-period log returns, dimensionless, one shorter than the price series.

    ``span`` records the first and last timestamp of the source price series;
    slices produced by :func:`split_halves` keep the parent span as provenance.
    """

    instrument: str
    values: np.ndarray
    span: tuple[datetime, datetime]

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.instrument}: non-finite return values")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SeriesStats:
    """Sample mean and population standard deviation (divisor N) of a return series."""

    mean: float
    std: float
    count: int

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("std must be nonnegative")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 through ``<path>.tmp`` and ``os.replace``.

    A failed write or rename leaves any old file at ``path`` whole and
    removes the temp file. Newlines are written as given, on every platform.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def utc_datetime(us: int) -> datetime:
    """The aware UTC datetime of a ``PriceSeries`` timestamp."""
    return _EPOCH + timedelta(microseconds=int(us))


# the whole epoch seconds datetime.fromtimestamp(s, tz=timezone.utc) accepts:
# 0001-01-01T00:00:00 through 9999-12-31T23:59:59 UTC
_EPOCH_SECONDS_MIN, _EPOCH_SECONDS_MAX = -62_135_596_800, 253_402_300_799


def _parse_timestamp(raw: str) -> int:
    """Microseconds since the Unix epoch of an ISO-8601 or epoch-seconds stamp.

    Whole epoch seconds in ``datetime``'s range are converted exactly by
    integer arithmetic. Fractional or out-of-range epochs and ISO stamps go
    through ``datetime``, which rounds half-even to the microsecond and
    raises outside years 1..9999 UTC.
    """
    try:
        seconds = int(raw)  # accepts what float() accepts of integer strings
    except ValueError:
        pass
    else:
        if _EPOCH_SECONDS_MIN <= seconds <= _EPOCH_SECONDS_MAX:
            return seconds * 1_000_000
    text = raw.strip()
    try:
        epoch = float(text)
    except ValueError:
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        ts = datetime.fromisoformat(text)
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        ts = ts.astimezone(timezone.utc)  # OverflowError outside years 1..9999 UTC
    else:
        ts = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return (ts - _EPOCH) // _MICROSECOND


def load_price_csv(
    path: str | Path,
    schema: ColumnSchema | None = None,
    *,
    instrument: str | None = None,
    lenient: bool = False,
) -> PriceSeries:
    """Load one instrument's price series from a CSV file.

    Rows are sorted by timestamp before validation, so out-of-order input is
    accepted. In strict mode (default) the first malformed or non-positive
    row in file order, then the first duplicate timestamp in time order,
    aborts the load with its line number. With ``lenient=True`` offending
    rows are skipped with a logged warning; duplicate timestamps keep the
    first occurrence in file order. A byte that is not UTF-8 makes its field
    unparseable; text the ``csv`` module rejects aborts in either mode.
    """
    path = Path(path)
    schema = schema or ColumnSchema()
    name = instrument if instrument is not None else path.stem

    stamps, prices, lines = array("q"), array("d"), array("q")
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise MalformedRow(1, "empty file, expected a header row")
            header = [h.strip() for h in header]
            if schema.timestamp not in header or schema.price not in header:
                raise MalformedRow(
                    1, f"header {header!r} does not contain columns {schema.timestamp!r} and {schema.price!r}"
                )
            ts_col, price_col = header.index(schema.timestamp), header.index(schema.price)
            n_cols = max(ts_col, price_col) + 1

            add_stamp, add_price, add_line = stamps.append, prices.append, lines.append
            inf = float("inf")
            for row in reader:
                try:
                    us = _parse_timestamp(row[ts_col])
                    price = float(row[price_col])
                except (IndexError, ValueError, OverflowError, OSError) as exc:
                    if all(not c.strip() for c in row):  # a blank row never parses
                        continue
                    if lenient:
                        reason = "too few fields" if len(row) < n_cols else exc
                        logger.warning("%s line %d skipped: %s", path, reader.line_num, reason)
                        continue
                    raise MalformedRow(reader.line_num, f"unparseable row {row!r}") from None
                line = reader.line_num
                if not 0 < price < inf:
                    if lenient:
                        logger.warning("%s line %d skipped: non-positive price %r", path, line, price)
                        continue
                    raise NonPositivePrice(line, f"price {price!r} is not positive")
                add_stamp(us)
                add_price(price)
                add_line(line)
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, f"unreadable CSV: {exc}") from None

    ts, line_nos = np.frombuffer(stamps, dtype=np.int64), np.frombuffer(lines, dtype=np.int64)
    order = np.lexsort((line_nos, ts))
    ts, values, line_nos = ts[order], np.frombuffer(prices, dtype=np.float64)[order], line_nos[order]
    dup = np.flatnonzero(ts[1:] == ts[:-1]) + 1
    if len(dup) and not lenient:
        stamp = utc_datetime(ts[dup[0]]).isoformat()
        raise DuplicateTimestamp(int(line_nos[dup[0]]), f"timestamp {stamp} repeats")
    for line, us in zip(line_nos[dup].tolist(), ts[dup].tolist()):
        logger.warning("%s line %d skipped: duplicate timestamp %s", path, line, utc_datetime(us))
    if len(dup):
        ts, values = np.delete(ts, dup), np.delete(values, dup)
    return PriceSeries(instrument=name, timestamps=ts, prices=values)


def compute_log_returns(prices: PriceSeries) -> ReturnSeries:
    """Natural-log price ratios: values[i] = ln(price[i+1]) - ln(price[i])."""
    return ReturnSeries(
        instrument=prices.instrument,
        values=np.diff(np.log(prices.prices)),
        span=(utc_datetime(prices.timestamps[0]), utc_datetime(prices.timestamps[-1])),
    )


def compute_stats(returns: ReturnSeries) -> SeriesStats:
    """Arithmetic mean and population standard deviation (divisor N)."""
    if len(returns) < 2:
        raise SeriesTooShort(f"{returns.instrument}: need at least 2 returns for stats")
    values = returns.values
    return SeriesStats(
        mean=float(np.mean(values)),
        std=float(np.std(values)),
        count=len(values),
    )


def split_halves(returns: ReturnSeries) -> tuple[ReturnSeries, ReturnSeries]:
    """Split into a training half H1 and a test half H2.

    H1 gets the first floor(n/2) values; an odd leftover goes to H2 so the
    training half is never the larger one. Concatenating the halves
    reproduces the input exactly.
    """
    n = len(returns)
    if n < 4:
        raise SeriesTooShort(f"{returns.instrument}: need at least 4 returns to split, got {n}")
    cut = n // 2
    h1 = ReturnSeries(returns.instrument, returns.values[:cut].copy(), returns.span)
    h2 = ReturnSeries(returns.instrument, returns.values[cut:].copy(), returns.span)
    return h1, h2


def phase_space_pairs(returns: ReturnSeries) -> list[tuple[float, float]]:
    """Consecutive return pairs (r_t, r_{t+1}), the plot-ready dynamics data."""
    if len(returns) < 2:
        raise SeriesTooShort(f"{returns.instrument}: need at least 2 returns for pairs")
    v = returns.values
    return [(float(a), float(b)) for a, b in zip(v[:-1], v[1:])]


def write_phase_space_csv(pairs: Iterable[tuple[float, float]], path: str | Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["r_t", "r_t_plus_1"])
    writer.writerows([repr(a), repr(b)] for a, b in pairs)
    write_text_atomic(path, buf.getvalue())
