"""Byte-level pins of the predict and returns outputs.

``predict`` runs on the seeded market-scale path (6,306 returns, k 1..8,
50 runs, master seed 2023) with every dump on, once per case. The report must
match a checked-in copy byte for byte; the plot, coding sidecar, tables and
symbols dumps must match checked-in sha256 digests. Any change to coding,
estimation, back-off, sampling or the writers that moves one bit of output
fails here, so a refactor can prove it changed nothing.

``returns`` runs on two small inputs built here: shuffled ISO-8601 rows with
UTC offsets, ``Z``, naive stamps and fractional seconds, and epoch seconds
with fractions. Its returns, stats and phase-space outputs must match
checked-in sha256 digests, which pins the timestamps the loader hands on.

The pins hold for one floating-point environment: the synthetic prices go
through ``np.exp``/``np.log``, whose last bits may differ between numpy
builds.
"""

from __future__ import annotations

import hashlib
import json
import random
from datetime import timedelta, timezone
from pathlib import Path

import pytest

from procrec.cli import main

import synth

DATA_DIR = Path(__file__).parent / "data"

CASES = {
    "sample": ["--mode", "sample"],
    "argmax_three": ["--mode", "argmax", "--scheme", "three"],
    "signed_marginal": ["--mode", "sample", "--metric", "signed", "--baseline", "marginal"],
}
DIGESTED = ("plot.csv", "coding.json", "tables.json", "symbols.csv")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_predict_outputs_match_golden_bytes(tmp_path, market_scale_csv, case):
    out = tmp_path / "out"
    argv = ["predict", "--input", str(market_scale_csv), "--out", str(out),
            "--kmin", "1", "--kmax", "8", "--runs", "50", "--seed", "2023",
            "--dump-tables", "--dump-symbols", *CASES[case]]
    assert main(argv) == 0
    label = market_scale_csv.stem
    golden = (DATA_DIR / f"golden_{case}_report.json").read_bytes()
    assert (out / f"{label}_report.json").read_bytes() == golden
    digests = json.loads((DATA_DIR / "golden_digests.json").read_text())[case]
    assert sorted(digests) == sorted(DIGESTED)
    for suffix in DIGESTED:
        assert _sha256(out / f"{label}_{suffix}") == digests[suffix], suffix


RETURNS_DIGESTED = ("returns.csv", "stats.json", "phase_space.csv")
OFFSETS = (timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-3)))


def _iso_shuffled_rows(prices):
    rows = []
    for i, p in enumerate(prices):
        ts = synth.START + timedelta(hours=i, microseconds=(i * 7919) % 1_000_000)
        if i % 5 == 3:
            stamp = ts.replace(tzinfo=None).isoformat()
        elif i % 5 == 4:
            stamp = ts.isoformat().replace("+00:00", "Z")
        else:
            stamp = ts.astimezone(OFFSETS[i % 3]).isoformat()
        rows.append(f"{stamp},{float(p)!r}")
    random.Random(17).shuffle(rows)
    return rows


def _epoch_rows(prices):
    start = int(synth.START.timestamp())
    return [f"{start + 3600 * i + (i % 4) / 4},{float(p)!r}" for i, p in enumerate(prices)]


RETURNS_CASES = {"iso_shuffled": _iso_shuffled_rows, "epoch": _epoch_rows}


@pytest.mark.parametrize("case", sorted(RETURNS_CASES))
def test_returns_outputs_match_golden_digests(tmp_path, case):
    rows = RETURNS_CASES[case](synth.crypto_like_prices(501, seed=17))
    path = tmp_path / f"{case}.csv"
    path.write_text("\n".join(["timestamp,price", *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["returns", "--input", str(path), "--out", str(out)]) == 0
    digests = json.loads((DATA_DIR / "golden_digests.json").read_text())[f"returns_{case}"]
    assert sorted(digests) == sorted(RETURNS_DIGESTED)
    for suffix in RETURNS_DIGESTED:
        assert _sha256(out / f"{case}_{suffix}") == digests[suffix], suffix
