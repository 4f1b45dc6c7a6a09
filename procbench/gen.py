"""Seeded synthetic price CSVs for the benchmark workloads.

Every path is a GARCH(1,1) process with unit-variance Student-t(4)
innovations: volatility clustering plus a few large moves, the shape of
hourly crypto returns. The same (workload, seed) always gives the same bytes.
Generated inputs are cached per seed under the cache directory, so a repeated
seed skips generation; only the newest few seeds per workload are kept.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OMEGA, ALPHA, BETA = 2e-7, 0.08, 0.90
T_DOF = 4
ISO_START = np.datetime64("2022-05-20T00:00:00", "s")
EPOCH_START = 1_600_000_000
STEP_S = 3600
KEEP_SEEDS = 3


@dataclass(frozen=True)
class Instrument:
    label: str
    n_prices: int
    p0: float


@dataclass(frozen=True)
class InputSpec:
    """Make-up of one workload's inputs."""

    tag: int  # mixed into the seed so workloads never share a path
    instruments: tuple[Instrument, ...]
    timestamps: str  # "iso" (ISO-8601, +00:00) or "epoch" (seconds)


def garch_prices(n_prices: int, p0: float, rng: np.random.Generator) -> np.ndarray:
    """GARCH(1,1) price path; innovations are drawn in one call."""
    eps = (rng.standard_t(T_DOF, size=n_prices - 1) / math.sqrt(T_DOF / (T_DOF - 2))).tolist()
    var = OMEGA / (1.0 - ALPHA - BETA)
    prev_sq = var
    returns = []
    append = returns.append
    sqrt = math.sqrt
    for e in eps:
        var = OMEGA + ALPHA * prev_sq + BETA * var
        r = sqrt(var) * e
        append(r)
        prev_sq = r * r
    log_prices = math.log(p0) + np.concatenate(([0.0], np.cumsum(returns)))
    return np.exp(log_prices)


def _timestamps(n: int, style: str) -> list[str]:
    if style == "epoch":
        return [str(EPOCH_START + STEP_S * i) for i in range(n)]
    stamps = np.datetime_as_string(ISO_START + np.arange(n) * np.timedelta64(STEP_S, "s"), unit="s")
    return [s + "+00:00" for s in stamps.tolist()]


def _write_csv(path: Path, prices: np.ndarray, style: str) -> None:
    rows = [f"{ts},{p!r}" for ts, p in zip(_timestamps(len(prices), style), prices.tolist())]
    path.write_text("timestamp,price\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _prune(cache: Path, name: str) -> None:
    entries = sorted(cache.glob(f"{name}-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[KEEP_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)


def make_inputs(name: str, spec: InputSpec, seed: int, cache: Path) -> tuple[dict[str, Path], dict[str, np.ndarray]]:
    """CSV path and time-ordered prices per instrument label, generated or cached."""
    entry = cache / f"{name}-{seed}"
    if not (entry / "prices.npz").exists():
        tmp = cache / f".tmp-{name}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        arrays = {}
        for i, inst in enumerate(spec.instruments):
            rng = np.random.default_rng(np.random.SeedSequence([seed, spec.tag, i]))
            prices = garch_prices(inst.n_prices, inst.p0, rng)
            _write_csv(tmp / f"{inst.label}.csv", prices, spec.timestamps)
            arrays[inst.label] = prices
        np.savez(tmp / "prices.npz", **arrays)
        shutil.rmtree(entry, ignore_errors=True)
        os.replace(tmp, entry)
        _prune(cache, name)
    os.utime(entry)
    with np.load(entry / "prices.npz") as data:
        prices = {inst.label: data[inst.label] for inst in spec.instruments}
    paths = {inst.label: entry / f"{inst.label}.csv" for inst in spec.instruments}
    return paths, prices
