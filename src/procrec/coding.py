"""Threshold coding of return series into small integer alphabets.

Two codes are built from the sample mean and population standard deviation s
of a return series. Both classify the centered value v = r - mean:

five-symbol, {-2,-1,0,1,2}:
    v > s -> 2;  s >= v > s/3 -> 1;  s/3 >= v > -s/3 -> 0;
    -s/3 >= v > -s -> -1;  v <= -s -> -2

three-symbol, {-1,0,1}:
    v > s -> 1;  s >= v > -s -> 0;  v <= -s -> -1

Band edges are upper-inclusive / lower-exclusive, so every real value maps to
exactly one symbol, including values exactly on a threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateStd
from .ingest import ReturnSeries, SeriesStats, write_text_atomic

__all__ = [
    "CodingScheme",
    "SymbolSequence",
    "make_five_symbol_scheme",
    "make_three_symbol_scheme",
    "make_scheme",
    "encode_series",
    "dump_coding_sidecar",
    "dump_symbols_csv",
]


@dataclass(frozen=True)
class CodingScheme:
    """A total, monotone map from centered return values to integer symbols.

    ``cut_points`` are strictly increasing and expressed in centered return
    units (relative to the series mean). Symbol i labels the half-open band
    (cut[i-1], cut[i]], with the outermost bands unbounded.
    """

    name: str
    symbols: tuple[int, ...]
    cut_points: tuple[float, ...]

    def __post_init__(self):
        if len(self.cut_points) != len(self.symbols) - 1:
            raise ValueError("need exactly one fewer cut point than symbols")
        if any(a >= b for a, b in zip(self.cut_points, self.cut_points[1:])):
            raise ValueError("cut points must be strictly increasing")
        if any(a >= b for a, b in zip(self.symbols, self.symbols[1:])):
            raise ValueError("symbols must be strictly increasing")

    def classify_array(self, v: np.ndarray) -> np.ndarray:
        """Symbols of centered values; a value's band index is the number of cuts below it."""
        idx = np.searchsorted(np.asarray(self.cut_points), v, side="left")
        return np.asarray(self.symbols, dtype=np.int64)[idx]


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """A coded series: integer symbols drawn from one scheme's alphabet."""

    instrument: str
    scheme: str
    symbols: np.ndarray
    alphabet: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=np.int64))
        extra = set(np.unique(self.symbols).tolist()) - set(self.alphabet)
        if extra:
            raise ValueError(f"symbols {sorted(extra)} not in alphabet {self.alphabet}")

    def __len__(self) -> int:
        return len(self.symbols)


def make_five_symbol_scheme(stats: SeriesStats) -> CodingScheme:
    if stats.std <= 0:
        raise DegenerateStd("five-symbol scheme needs std > 0")
    s = stats.std
    return CodingScheme(
        name="five",
        symbols=(-2, -1, 0, 1, 2),
        cut_points=(-s, -s / 3, s / 3, s),
    )


def make_three_symbol_scheme(stats: SeriesStats) -> CodingScheme:
    if stats.std <= 0:
        raise DegenerateStd("three-symbol scheme needs std > 0")
    s = stats.std
    return CodingScheme(
        name="three",
        symbols=(-1, 0, 1),
        cut_points=(-s, s),
    )


def make_scheme(name: str, stats: SeriesStats) -> CodingScheme:
    if name == "five":
        return make_five_symbol_scheme(stats)
    if name == "three":
        return make_three_symbol_scheme(stats)
    raise ValueError(f"unknown scheme {name!r}")


def encode_series(
    returns: ReturnSeries, stats: SeriesStats, scheme: CodingScheme
) -> SymbolSequence:
    """Apply the scheme element-wise to centered returns r - mean."""
    if stats.std <= 0:
        raise DegenerateStd("cannot encode with zero standard deviation")
    centered = returns.values - stats.mean
    return SymbolSequence(
        instrument=returns.instrument,
        scheme=scheme.name,
        symbols=scheme.classify_array(centered),
        alphabet=scheme.symbols,
    )


def dump_coding_sidecar(
    scheme: CodingScheme, stats: SeriesStats, path: str | Path
) -> None:
    """Record the scheme and the stats it was built from, at full float precision."""
    payload = {
        "scheme": scheme.name,
        "mean": stats.mean,
        "std": stats.std,
        "count": stats.count,
        "symbols": list(scheme.symbols),
        "cut_points": list(scheme.cut_points),
    }
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")


def dump_symbols_csv(seq: SymbolSequence, path: str | Path) -> None:
    lines = ["symbol"] + [str(int(s)) for s in seq.symbols]
    write_text_atomic(path, "\n".join(lines) + "\n")
