"""Price CSV ingestion, log returns, summary stats, series splitting, and the
text and file writing that every output shares.

Input CSV contract: a header row, one row per observation, with a timestamp
column (ISO-8601 or epoch seconds, assumed UTC when naive) and a positive
price column. Column names are configurable; defaults are ``timestamp`` and
``price``. Rows are canonicalized by sorting on timestamp.

``load_price_csv`` reads a file in blocks of whole lines and converts each
block one column at a time: one pass over the stamps (integer arithmetic on
the bytes for digit runs of one width or strict ``YYYY-MM-DDTHH:MM:SS``
stamps ending ``+00:00`` or ``Z``, else ``int``), one ``float`` pass over the
prices, then the stamp and price checks as array masks. Only the lines the
block pass flags go through the row parser, which reads other ISO-8601
forms and fractional epoch stamps with ``datetime``; from the first quote,
CR or NUL byte on, ``csv.reader`` reads the rest of the file. Either way a
file loads to the same series, errors and warnings.
"""

from __future__ import annotations

import csv
import io
import logging
import math
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
    "utc_isoformat",
    "write_text_atomic",
]


@dataclass(frozen=True)
class ColumnSchema:
    """Maps the logical timestamp/price fields onto CSV column names."""

    timestamp: str = "timestamp"
    price: str = "price"

    def __post_init__(self):
        if self.timestamp == self.price:
            raise ValueError(f"timestamp and price columns are both {self.price!r}")


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
        if not (prices.min() > 0 and prices.max() < np.inf):  # NaN fails both; no bool array of the prices
            raise ValueError(f"{self.instrument}: prices must be positive and finite")
        steps = ts[1:] <= ts[:-1]
        if steps.any():
            at = utc_isoformat(ts[[1 + np.argmax(steps)]])[0]
            raise ValueError(f"{self.instrument}: timestamps not strictly increasing at {at}")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """One-period log returns, dimensionless, one shorter than the price series."""

    instrument: str
    values: np.ndarray

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


_WRITE_SLICE = 1 << 16  # characters handed to the file at a time


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of strings, as UTF-8 through ``<path>.tmp`` and ``os.replace``.

    A failed write or rename, or an iterable that raises, leaves any old file at
    ``path`` whole and removes the temp file. Newlines are written as given, on
    every platform. Each string is encoded a slice at a time, so a large output
    is never held a second time as one ``bytes`` object.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            for piece in [text] if isinstance(text, str) else text:
                for start in range(0, len(piece), _WRITE_SLICE):
                    fh.write(piece[start : start + _WRITE_SLICE])
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def utc_isoformat(us: np.ndarray) -> np.ndarray:
    """The ``isoformat()`` text of each ``PriceSeries`` timestamp in ``us`` as an aware UTC datetime, as an
    object array of ``str``: ``YYYY-MM-DDTHH:MM:SS``, then ``.ffffff`` unless a whole second, then ``+00:00``."""
    stamps = us.astype("M8[us]")
    text = np.datetime_as_string(stamps, unit="s").astype(object)
    fractional = np.flatnonzero(us % 1_000_000)
    text[fractional] = np.datetime_as_string(stamps[fractional], unit="us")
    return text + "+00:00"


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


# bytes read per block of the columnar pass; each block is cut back to its last newline.
# Small enough that one block's field strings are few: 1 MiB blocks left about 8 MB more
# resident after a 1M-row load, and the peak of the run that followed rose with it.
_BLOCK_BYTES = 1 << 16
# bytes that hand the rest of a file to csv.reader: quoted fields may hold commas and line
# ends, CR ends lines, and csv.reader treats NUL differently across Python versions
_CSV_BYTES = (b'"', b"\r", b"\0")
_BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports begin


def _blocks(fh):
    """``(offset, data)`` over a binary file from its position on, in blocks of whole lines.

    Each ``data`` is at least one ``_BLOCK_BYTES`` read, cut back to its last
    newline; a final line without a newline is given one.
    """
    offset, parts = fh.tell(), []
    while chunk := fh.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        parts.append(chunk[:cut])
        data = b"".join(parts)
        yield offset, data
        offset += len(data)
        parts = [chunk[cut:]]
    tail = b"".join(parts)
    if tail:
        yield offset, tail + b"\n"


def _csv_rows(lines, line0: int):
    """``(row, line number)`` of ``csv.reader(lines)``, counting lines from ``line0 + 1``."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield row, line0 + reader.line_num
    except csv.Error as exc:
        raise MalformedRow(line0 + reader.line_num, f"unreadable CSV: {exc}") from None


# stamp forms the block pass reads from the bytes: "#" is a digit, every other byte itself
_ISO_LAYOUTS = (b"####-##-##T##:##:##+00:00", b"####-##-##T##:##:##Z")
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])  # in a common year


def _fixed_fields(buf: np.ndarray, first: np.ndarray, width: np.ndarray, layout: bytes):
    """The digits in ``layout``'s ``#`` slots of the fields starting at ``first``, one row per slot,
    and which fields fit ``layout``: ``width`` as long, a digit in every slot and the layout's own
    byte elsewhere."""
    pattern = np.frombuffer(layout, dtype=np.uint8)
    slot = pattern == ord("#")
    # slot-major, as reductions over rows are faster than within them; clipped: a field narrower
    # than the layout may run off the block, and it cannot fit anyway
    cells = np.take(buf, np.arange(len(pattern))[:, None] + first, mode="clip")
    digits = cells[slot] - ord("0")  # uint8: a byte below "0" wraps past 9
    fits = (width == len(pattern)) & (digits <= 9).all(axis=0) & (cells[~slot] == pattern[~slot, None]).all(axis=0)
    return digits, fits


def _stamp_seconds(buf: np.ndarray, seps: np.ndarray, field_ids: np.ndarray):
    """``(seconds, read)``: the epoch seconds of a block's stamp fields ``field_ids``, read from the
    bytes, and which of them were read; None when none were.

    ``buf`` holds the block's bytes and ``seps`` the offsets of its commas and newlines, so field
    ``j`` ends at ``seps[j]``. A column of ASCII digit runs, all of one length up to 18, is read
    whole, as ``int`` reads it. Otherwise each stamp ``YYYY-MM-DDTHH:MM:SS`` ending ``+00:00`` or
    ``Z`` that names a second of years 1..9999 is read, as ``_parse_timestamp`` reads it.
    """
    first = np.where(field_ids > 0, seps[field_ids - 1] + 1, 0)
    width = seps[field_ids] - first
    if len(width) and 0 < width[0] <= 18:
        digits, read = _fixed_fields(buf, first, width, b"#" * int(width[0]))
        if read.all():
            return 10 ** np.arange(width[0] - 1, -1, -1) @ digits, read
    digits, read = _fixed_fields(buf, first, width, _ISO_LAYOUTS[0])
    read |= _fixed_fields(buf, first, width, _ISO_LAYOUTS[1])[1]  # a Z stamp's digits sit in the same slots
    if not read.any():
        return None
    century, yy, month, day, hour, minute, second = (digits[0::2] * 10 + digits[1::2]).astype(np.int64)
    year = 100 * century + yy
    leap = (yy % 4 == 0) & ((yy != 0) | (century % 4 == 0))
    read &= (year >= 1) & (month >= 1) & (month <= 12) & (hour <= 23) & (minute <= 59) & (second <= 59)
    read &= (day >= 1) & (day <= np.take(_MONTH_DAYS, month, mode="clip") + (leap & (month == 2)))
    # Hinnant's days_from_civil: years start in March, so a leap day is the last of its year
    year -= month <= 2
    days = 365 * year + year // 4 - year // 100 + year // 400 + (153 * ((month + 9) % 12) + 2) // 5 + day - 719469
    return ((days * 24 + hour) * 60 + minute) * 60 + second, read


class _PriceRows:
    """The accepted rows of one price CSV, read a block or a row at a time."""

    def __init__(self, path: Path, schema: ColumnSchema, lenient: bool):
        self.path, self.schema, self.lenient = path, schema, lenient
        self.width = 0  # fields in the header row; 0 until it is read
        self.limit = csv.field_size_limit()
        self.stamps, self.prices = array("q"), array("d")  # accepted rows
        # the file line of row r is r + line_offsets[i], i the last with line_starts[i] <= r: one
        # entry per run of rows with no skipped line between them, not one per row
        self.line_starts, self.line_offsets = array("q"), array("q")

    def set_header(self, row: list[str] | None) -> None:
        if row is None:
            raise MalformedRow(1, "empty file, expected a header row")
        header = [h.strip() for h in row]
        ts, price = self.schema.timestamp, self.schema.price
        if ts not in header or price not in header:
            raise MalformedRow(1, f"header {header!r} does not contain columns {ts!r} and {price!r}")
        self.ts_col, self.price_col = header.index(ts), header.index(price)
        self.n_cols = max(self.ts_col, self.price_col) + 1
        self.width = len(header)

    def add_row(self, row: list[str], line: int) -> None:
        """Check one row's fields and keep its stamp and price, skip it, or raise."""
        try:
            us = _parse_timestamp(row[self.ts_col])
            price = float(row[self.price_col])
        except (IndexError, ValueError, OverflowError, OSError) as exc:
            if all(not c.strip() for c in row):  # a blank row never parses
                return
            if self.lenient:
                reason = "too few fields" if len(row) < self.n_cols else exc
                logger.warning("%s line %d skipped: %s", self.path, line, reason)
                return
            raise MalformedRow(line, f"unparseable row {row!r}") from None
        if not 0 < price < math.inf:
            if self.lenient:
                logger.warning("%s line %d skipped: non-positive price %r", self.path, line, price)
                return
            raise NonPositivePrice(line, f"price {price!r} is not positive")
        row = len(self.stamps)
        if not self.line_offsets or line - row != self.line_offsets[-1]:
            self.line_starts.append(row)
            self.line_offsets.append(line - row)
        self.stamps.append(us)
        self.prices.append(price)

    def add_block(self, data: bytes, line0: int) -> int:
        """Load ``data``, whole lines with no quote, CR or NUL, the first being line ``line0 + 1``;
        return the number of lines.

        The columns are converted in one pass each; flagged lines, in file
        order, go through :meth:`add_row` (see :func:`load_price_csv`).
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
        ends = np.flatnonzero(buf[seps] == ord("\n"))  # each line's last field, as an index into fields
        starts = np.concatenate(([0], ends[:-1] + 1))
        fields = data.decode("utf-8", "surrogateescape").replace("\n", ",").split(",")
        fields.pop()  # the empty text after the last newline
        flagged = ends - starts + 1 != self.width
        # a field's bytes bound its characters, which csv.field_size_limit() counts, from above
        oversized = np.zeros(len(ends), dtype=bool)
        oversized[np.searchsorted(ends, np.flatnonzero(np.diff(seps, prepend=-1) > self.limit + 1))] = True
        flagged |= oversized
        rows = np.flatnonzero(~flagged)
        if len(rows) == len(ends):
            ts_text, price_text = fields[self.ts_col :: self.width], fields[self.price_col :: self.width]
        else:
            texts = np.array(fields, dtype=object)
            ts_text, price_text = texts[starts[rows] + self.ts_col], texts[starts[rows] + self.price_col]
        try:
            stamps = _stamp_seconds(buf, seps, starts[rows] + self.ts_col)
            if stamps is None:
                stamps = np.fromiter(map(int, ts_text), dtype=np.int64, count=len(rows)), True
            prices = np.fromiter(map(float, price_text), dtype=np.float64, count=len(rows))
        except (ValueError, OverflowError):
            flagged[:] = True  # this block goes through the row parser; the next is tried again
        else:
            seconds, read = stamps
            good = read & (seconds >= _EPOCH_SECONDS_MIN) & (seconds <= _EPOCH_SECONDS_MAX)
            good &= (prices > 0) & (prices < np.inf)
            kept = rows[good]
            offsets = line0 + 1 + kept - np.arange(len(self.stamps), len(self.stamps) + len(kept))
            new = np.flatnonzero(np.diff(offsets, prepend=self.line_offsets[-1] if self.line_offsets else 0))
            self.line_starts.frombytes((len(self.stamps) + new).tobytes())
            self.line_offsets.frombytes(offsets[new].tobytes())
            self.stamps.frombytes((seconds[good] * 1_000_000).tobytes())
            self.prices.frombytes(prices[good].tobytes())
            flagged[rows[~good]] = True
        rows = np.flatnonzero(flagged)
        for i, first, last, over in zip(
            rows.tolist(), starts[rows].tolist(), ends[rows].tolist(), oversized[rows].tolist()
        ):
            row, line = fields[first : last + 1], line0 + 1 + i
            if over and max(map(len, row)) > self.limit:
                raise MalformedRow(line, f"unreadable CSV: field larger than field limit ({self.limit})")
            self.add_row(row, line)
        return len(ends)

    def line_numbers(self) -> np.ndarray:
        """The file line of every accepted row."""
        starts = np.frombuffer(self.line_starts, dtype=np.int64)
        offsets = np.frombuffer(self.line_offsets, dtype=np.int64)
        return np.arange(len(self.stamps)) + np.repeat(offsets, np.diff(starts, append=len(self.stamps)))

    def add_csv(self, fh, offset: int, line0: int) -> None:
        """Load the rest of ``fh`` from byte ``offset``, line ``line0 + 1``, through ``csv.reader``."""
        fh.seek(offset)
        with io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape", newline="") as text:
            rows = _csv_rows(text, line0)
            if not self.width:
                self.set_header(next(rows, (None, 0))[0])
            for row, line in rows:
                self.add_row(row, line)


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

    The header row is parsed by ``csv.reader``. The rest of the file is read
    in blocks of ``_BLOCK_BYTES``, each cut back to its last newline. A block
    has its separators found in one numpy scan, its text split into fields
    once, and its timestamp and price columns converted one pass each. The
    stamps are read from the bytes by integer arithmetic: a column of ASCII
    digit runs, all of one width up to 18, as ``int`` reads it; else each
    stamp ``YYYY-MM-DDTHH:MM:SS`` ending ``+00:00`` or ``Z``, as
    ``datetime.fromisoformat`` reads it. A column with neither form gets one
    ``int`` pass. A line goes through the row parser instead when it is
    flagged:

    - its field count differs from the header's (a blank line's does);
    - a field has more bytes than ``csv.field_size_limit()`` allows characters;
    - its stamp lies outside the whole epoch seconds ``datetime`` accepts;
    - its stamp is ISO-8601 of another form, such as another offset, a space
      separator or fractional seconds, or names no real second of years
      1..9999, such as February 29 of a common year, hour 24 or second 60;
    - its price is not positive and finite.

    When ``int`` or ``float`` rejects a value in a block, that block goes
    through the row parser line by line, and the next block is converted by
    columns again. The block holding the first
    quote, CR or NUL byte, and everything after it, goes through
    ``csv.reader``, which keeps quoted fields and CR line ends exact. A final
    line without a newline is read as if it had one. A UTF-8 byte-order mark
    at the start of the file is skipped.
    """
    path = Path(path)
    name = instrument if instrument is not None else path.stem
    table = _PriceRows(path, schema or ColumnSchema(), lenient)
    with path.open("rb") as fh:
        if fh.read(len(_BOM)) != _BOM:
            fh.seek(0)
        line0 = 0
        for offset, data in _blocks(fh):
            if any(b in data for b in _CSV_BYTES):
                table.add_csv(fh, offset, line0)
                break
            if not table.width:
                cut = data.index(b"\n") + 1
                row, line0 = next(_csv_rows([data[:cut].decode("utf-8", "surrogateescape")], 0))
                table.set_header(row)
                data = data[cut:]
            if data:
                line0 += table.add_block(data, line0)
    if not table.width:
        table.set_header(None)

    ts, values = np.frombuffer(table.stamps, dtype=np.int64), np.frombuffer(table.prices, dtype=np.float64)
    if (ts[1:] > ts[:-1]).all():  # the usual case: in order, no duplicates
        # views, not copies: a buffer grows by at most 1/16 beyond its rows, and the view pins that
        # slack only while the series lives, where a copy held a third column at the load's peak
        return PriceSeries(instrument=name, timestamps=ts, prices=values)
    line_nos = table.line_numbers()
    order = np.lexsort((line_nos, ts))
    ts, values, line_nos = ts[order], values[order], line_nos[order]
    dup = np.flatnonzero(ts[1:] == ts[:-1]) + 1
    if len(dup) and not lenient:
        raise DuplicateTimestamp(int(line_nos[dup[0]]), f"timestamp {utc_isoformat(ts[dup[:1]])[0]} repeats")
    for line, stamp in zip(line_nos[dup].tolist(), utc_isoformat(ts[dup])):
        logger.warning("%s line %d skipped: duplicate timestamp %s", path, line, stamp)
    if len(dup):
        ts, values = np.delete(ts, dup), np.delete(values, dup)
    return PriceSeries(instrument=name, timestamps=ts, prices=values)


def compute_log_returns(prices: PriceSeries) -> ReturnSeries:
    """Natural-log price ratios: values[i] = ln(price[i+1]) - ln(price[i]).

    Releases the series, and so its timestamps, before taking the logs, and the prices once it has
    them: a temporary argument is the callee's from CPython 3.11.
    """
    instrument, values = prices.instrument, prices.prices
    del prices
    values = np.log(values)  # the prices go once their logs are taken
    values = np.diff(values)  # the logs go once differenced
    return ReturnSeries(instrument=instrument, values=values)


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
    reproduces the input exactly. Both halves are views of the input's
    values, not copies: they add no memory, and they see any later write to
    the input.
    """
    n = len(returns)
    if n < 4:
        raise SeriesTooShort(f"{returns.instrument}: need at least 4 returns to split, got {n}")
    return tuple(ReturnSeries(returns.instrument, v) for v in np.split(returns.values, [n // 2]))

