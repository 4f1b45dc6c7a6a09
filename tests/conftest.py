from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest

from procrec import ReturnSeries, SymbolSequence

import synth

SPAN = (
    datetime(2022, 5, 20, 0, 0, tzinfo=timezone.utc),
    datetime(2023, 1, 8, 0, 0, tzinfo=timezone.utc),
)


def mk_returns(values, instrument="test") -> ReturnSeries:
    return ReturnSeries(instrument=instrument, values=np.asarray(values, dtype=float), span=SPAN)


def mk_seq(symbols, alphabet) -> SymbolSequence:
    """The sequence of the given symbol values, coded as positions in ``alphabet``."""
    alphabet = tuple(alphabet)
    return SymbolSequence([alphabet.index(s) for s in symbols], alphabet)


@pytest.fixture
def make_returns():
    return mk_returns


@pytest.fixture(scope="session")
def market_scale_csv(tmp_path_factory):
    """One instrument at market scale: 6307 hourly prices, so 6306 returns."""
    path = tmp_path_factory.mktemp("data") / "btcx.csv"
    synth.write_price_csv(path, synth.crypto_like_prices(6307, seed=101))
    return path


@pytest.fixture(scope="session")
def market_scale_csv_trio(tmp_path_factory):
    root = tmp_path_factory.mktemp("trio")
    paths = []
    for label, seed in (("btcx", 101), ("ethx", 202), ("xrpx", 303)):
        paths.append(synth.write_price_csv(root / f"{label}.csv", synth.crypto_like_prices(6307, seed=seed)))
    return paths
