"""Byte-level pins of the predict outputs at paper scale.

``predict`` runs on the seeded market-scale path (6,306 returns, k 1..8,
50 runs, master seed 2023) with every dump on, once per case. The report must
match a checked-in copy byte for byte; the plot, coding sidecar, tables and
symbols dumps must match checked-in sha256 digests. Any change to coding,
estimation, back-off, sampling or the writers that moves one bit of output
fails here, so a refactor can prove it changed nothing.

The pins hold for one floating-point environment: the synthetic prices go
through ``np.exp``/``np.log``, whose last bits may differ between numpy
builds.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from procrec.cli import main

DATA_DIR = Path(__file__).parent / "data"

CASES = {
    "sample": ["--mode", "sample"],
    "argmax_three": ["--mode", "argmax", "--scheme", "three"],
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
