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

``SCHEME_TABLE`` holds both codes as (symbols, std divisors): cut point i is
s / divisor[i], so (-1, -3, 3, 1) gives (-s, -s/3, s/3, s) exactly, IEEE
division being sign-symmetric. A coded series holds band indices, and its
alphabet, built here, decides the symbol value each index stands for.
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
    "make_scheme",
    "encode_series",
    "coding_record",
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

    def band_indices(self, v: np.ndarray) -> np.ndarray:
        """Band index of each centered value, the number of cuts below it, in ``SymbolSequence``'s dtype."""
        v = np.asarray(v)
        bands = np.zeros(v.shape, dtype=np.uint8 if len(self.symbols) <= 256 else np.int64)
        for cut in self.cut_points:
            bands += v > cut
        return bands


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """A coded series: uint8 positions (int64 past 256 symbols) in a strictly increasing alphabet."""

    indices: np.ndarray
    alphabet: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.alphabet, self.alphabet[1:])):
            raise ValueError(f"alphabet must be strictly increasing, got {self.alphabet}")
        idx = np.asarray(self.indices)
        if len(idx) and (idx.min() < 0 or idx.max() >= len(self.alphabet)):
            raise ValueError(f"indices outside the alphabet's positions 0..{len(self.alphabet) - 1}")
        dtype = np.uint8 if len(self.alphabet) <= 256 else np.int64
        object.__setattr__(self, "indices", idx.astype(dtype, copy=False))

    @property
    def symbols(self) -> np.ndarray:
        """The symbol values, ``alphabet[indices]``."""
        return np.asarray(self.alphabet, dtype=np.int64)[self.indices]

    def __len__(self) -> int:
        return len(self.indices)


# name -> (symbols, std divisors of the cut points)
SCHEME_TABLE = {
    "five": ((-2, -1, 0, 1, 2), (-1, -3, 3, 1)),
    "three": ((-1, 0, 1), (-1, 1)),
}
SCHEMES = tuple(SCHEME_TABLE)


def make_scheme(name: str, stats: SeriesStats) -> CodingScheme:
    if name not in SCHEME_TABLE:
        raise ValueError(f"unknown scheme {name!r}")
    if stats.std <= 0:
        raise DegenerateStd(f"{name}-symbol scheme needs std > 0")
    symbols, divisors = SCHEME_TABLE[name]
    return CodingScheme(name=name, symbols=symbols, cut_points=tuple(stats.std / d for d in divisors))


def encode_series(
    returns: ReturnSeries, stats: SeriesStats, scheme: CodingScheme
) -> SymbolSequence:
    """Band index of every centered return r - mean, over the scheme's symbols."""
    if stats.std <= 0:
        raise DegenerateStd("cannot encode with zero standard deviation")
    return SymbolSequence(indices=scheme.band_indices(returns.values - stats.mean), alphabet=scheme.symbols)


def coding_record(scheme: CodingScheme, stats: SeriesStats) -> dict:
    """The scheme and the stats it was built from, as the sidecar and a report's "coding" hold them."""
    return {
        "scheme": scheme.name,
        "mean": stats.mean,
        "std": stats.std,
        "count": stats.count,
        "symbols": list(scheme.symbols),
        "cut_points": list(scheme.cut_points),
    }


def dump_coding_sidecar(scheme: CodingScheme, stats: SeriesStats, path: str | Path) -> None:
    """Write ``coding_record`` as JSON; floats keep full precision."""
    write_text_atomic(path, json.dumps(coding_record(scheme, stats), indent=2) + "\n")


def dump_symbols_csv(seq: SymbolSequence, path: str | Path) -> None:
    """One symbol per line under a ``symbol`` header, each alphabet symbol's text formatted once."""
    names = np.array([str(s) for s in seq.alphabet], dtype=object)
    write_text_atomic(path, "\n".join(["symbol", *names[seq.indices].tolist()]) + "\n")
