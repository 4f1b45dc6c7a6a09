from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from procrec import (
    CodingScheme,
    DegenerateStd,
    SeriesStats,
    SymbolSequence,
    compute_stats,
    encode_series,
    make_scheme,
)
from procrec.coding import dump_coding_sidecar, dump_symbols_csv

from conftest import mk_returns
from oracles import ALPHABET3, ALPHABET5, coarsen_five_to_three, five_band_matches, three_band_matches

STATS = SeriesStats(mean=0.001, std=0.02, count=100)
S = STATS.std


def symbol_of(scheme, v):
    return scheme.symbols[scheme.band_indices(v)]


# 1e-323 is the smallest std whose s/3 does not underflow to zero
@given(s=st.floats(min_value=1e-323, max_value=1e300))
@example(s=1e-323)
@example(s=2.2250738585072014e-308)  # the smallest normal
@example(s=S)
@example(s=1e300)
@settings(deadline=None)
def test_scheme_table_cuts_are_exact(s):
    five = make_scheme("five", SeriesStats(mean=0.001, std=s, count=100))
    three = make_scheme("three", SeriesStats(mean=0.001, std=s, count=100))
    assert (five.name, five.symbols) == ("five", (-2, -1, 0, 1, 2))
    assert (three.name, three.symbols) == ("three", (-1, 0, 1))
    assert [c.hex() for c in five.cut_points] == [c.hex() for c in (-s, -s / 3, s / 3, s)]
    assert [c.hex() for c in three.cut_points] == [c.hex() for c in (-s, s)]


def test_five_scheme_band_boundaries():
    scheme = make_scheme("five", STATS)
    assert symbol_of(scheme, 0.0) == 0
    assert symbol_of(scheme, S) == 1  # upper bound of band 1 is inclusive
    assert symbol_of(scheme, np.nextafter(S, np.inf)) == 2
    assert symbol_of(scheme, S / 3) == 0
    assert symbol_of(scheme, -S / 3) == -1
    assert symbol_of(scheme, -S) == -2
    assert symbol_of(scheme, 2 * S) == 2
    assert symbol_of(scheme, -2 * S) == -2


def test_three_scheme_band_boundaries():
    scheme = make_scheme("three", STATS)
    assert scheme.symbols == (-1, 0, 1)
    assert symbol_of(scheme, 0.0) == 0
    assert symbol_of(scheme, 1.5 * S) == 1
    assert symbol_of(scheme, -1.5 * S) == -1
    assert symbol_of(scheme, S) == 0
    assert symbol_of(scheme, -S) == -1


def test_make_scheme_by_name():
    assert make_scheme("five", STATS).name == "five"
    assert make_scheme("three", STATS).name == "three"
    with pytest.raises(ValueError, match="^unknown scheme 'seven'$"):
        make_scheme("seven", STATS)


def test_degenerate_std_rejected():
    flat = SeriesStats(mean=0.0, std=0.0, count=10)
    with pytest.raises(DegenerateStd, match="^five-symbol scheme needs std > 0$"):
        make_scheme("five", flat)
    with pytest.raises(DegenerateStd, match="^three-symbol scheme needs std > 0$"):
        make_scheme("three", flat)
    with pytest.raises(DegenerateStd):
        encode_series(mk_returns([0.0] * 5), flat, make_scheme("five", STATS))


def test_scheme_validation():
    with pytest.raises(ValueError):
        CodingScheme("bad", (-1, 0, 1), (0.5,))  # wrong cut count
    with pytest.raises(ValueError):
        CodingScheme("bad", (-1, 0, 1), (0.5, 0.5))  # not increasing


def test_encode_constant_at_mean():
    returns = mk_returns([STATS.mean] * 7)
    seq = encode_series(returns, STATS, make_scheme("five", STATS))
    assert seq.symbols.tolist() == [0] * 7
    assert seq.indices.tolist() == [2] * 7
    assert seq.alphabet == (-2, -1, 0, 1, 2)
    assert len(seq) == 7


def test_encode_band_construction():
    returns = mk_returns([STATS.mean + 2 * S, STATS.mean, STATS.mean - 2 * S])
    seq = encode_series(returns, STATS, make_scheme("five", STATS))
    assert seq.symbols.tolist() == [2, 0, -2]


def test_encode_matches_bruteforce_bands():
    rng = np.random.default_rng(42)
    values = rng.normal(0.0, 0.01, 100)
    returns = mk_returns(values)
    stats = compute_stats(returns)
    seq = encode_series(returns, stats, make_scheme("five", stats))
    for r, sym in zip(values, seq.symbols.tolist()):
        matches = five_band_matches(r - stats.mean, stats.std)
        assert matches == [sym]


@given(
    s=st.floats(min_value=1e-6, max_value=1e3),
    v=st.floats(min_value=-1e4, max_value=1e4),
)
@example(s=0.02, v=0.02)  # v = s
@example(s=0.02, v=-0.02)
@example(s=0.3, v=0.1)  # v = s/3
@example(s=0.3, v=-0.1)
@settings(deadline=None, max_examples=300)
def test_totality_exactly_one_band(s, v):
    stats = SeriesStats(mean=0.0, std=s, count=10)
    five = make_scheme("five", stats)
    three = make_scheme("three", stats)
    m5 = five_band_matches(v, s)
    m3 = three_band_matches(v, s)
    assert len(m5) == 1 and m5[0] == symbol_of(five, v)
    assert len(m3) == 1 and m3[0] == symbol_of(three, v)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308, 1e308, -1e308]


@given(
    name=st.sampled_from(("five", "three")),
    s=st.floats(min_value=1e-323, max_value=1e300),
    values=st.lists(st.floats(allow_nan=False), max_size=20),
)
@example(name="five", s=1e-323, values=[])
@example(name="three", s=1e300, values=[])
@settings(deadline=None)
def test_band_indices_match_searchsorted(name, s, values):
    # one compare per cut counts the cuts strictly below v: searchsorted's left insertion point
    scheme = make_scheme(name, SeriesStats(mean=0.0, std=s, count=10))
    cuts = np.asarray(scheme.cut_points)
    on_cuts = [float(x) for c in cuts for x in (c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf))]
    v = np.array(values + EDGE_VALUES + on_cuts)
    got = scheme.band_indices(v)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, np.searchsorted(cuts, v, side="left"))
    for x in v.tolist():  # a Python float gives the same index
        assert int(scheme.band_indices(x)) == int(np.searchsorted(cuts, x, side="left"))


def test_band_indices_past_256_symbols_are_int64():
    scheme = CodingScheme("wide", tuple(range(300)), tuple(float(c) for c in range(299)))
    v = np.array([-1.0, 0.0, 0.5, 150.0, 298.0, 298.5, 1e308])
    got = scheme.band_indices(v)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.searchsorted(np.asarray(scheme.cut_points), v, side="left"))


@given(
    s=st.floats(min_value=1e-6, max_value=1e3),
    v1=st.floats(min_value=-1e4, max_value=1e4),
    v2=st.floats(min_value=-1e4, max_value=1e4),
)
@settings(deadline=None)
def test_monotonicity(s, v1, v2):
    scheme = make_scheme("five", SeriesStats(mean=0.0, std=s, count=10))
    lo, hi = min(v1, v2), max(v1, v2)
    assert scheme.band_indices(lo) <= scheme.band_indices(hi)


@given(
    values=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=60),
    scale=st.floats(min_value=0.1, max_value=10.0),
    shift=st.floats(min_value=-0.05, max_value=0.05),
)
@settings(deadline=None)
def test_affine_invariance(values, scale, shift):
    base = mk_returns(values)
    base_stats = compute_stats(base)
    assume(base_stats.std > 1e-3)
    moved = mk_returns([scale * v + shift for v in values])
    moved_stats = compute_stats(moved)

    # keep away from band edges, where a half-ulp of stats noise could flip a symbol
    for series, stats in ((base, base_stats), (moved, moved_stats)):
        cuts = np.array(make_scheme("five", stats).cut_points)
        centered = series.values - stats.mean
        gap = np.abs(centered[:, None] - cuts[None, :]).min()
        assume(gap > 1e-7 * stats.std)

    seq_base = encode_series(base, base_stats, make_scheme("five", base_stats))
    seq_moved = encode_series(moved, moved_stats, make_scheme("five", moved_stats))
    assert seq_base.symbols.tolist() == seq_moved.symbols.tolist()


def test_three_is_coarsening_of_five():
    rng = np.random.default_rng(7)
    for _ in range(25):
        returns = mk_returns(rng.standard_t(4, 150) * 0.01)
        stats = compute_stats(returns)
        five = encode_series(returns, stats, make_scheme("five", stats))
        three = encode_series(returns, stats, make_scheme("three", stats))
        expected = [coarsen_five_to_three(s) for s in five.symbols.tolist()]
        assert three.symbols.tolist() == expected


def test_large_event_counts_match_across_schemes():
    rng = np.random.default_rng(11)
    returns = mk_returns(rng.standard_t(3, 500) * 0.02)
    stats = compute_stats(returns)
    five = encode_series(returns, stats, make_scheme("five", stats))
    three = encode_series(returns, stats, make_scheme("three", stats))
    assert np.sum(np.abs(five.symbols) == 2) == np.sum(np.abs(three.symbols) == 1)


def test_symbol_sequence_rejects_foreign_symbols():
    five = (-2, -1, 0, 1, 2)
    for bad in ([0, -1], [0, len(five)]):
        with pytest.raises(ValueError, match="outside"):
            SymbolSequence(np.array(bad), five)
    assert len(SymbolSequence(np.array([], dtype=np.int64), five)) == 0
    seq = SymbolSequence(np.array([4, 0, 2, 3]), five)
    assert seq.indices.dtype == np.uint8  # a byte per symbol while the alphabet fits in one
    wide = SymbolSequence(np.array([0, 256]), tuple(range(257)))
    assert wide.indices.dtype == np.int64 and wide.indices.tolist() == [0, 256]
    np.testing.assert_array_equal(seq.symbols, np.asarray(five)[seq.indices])
    assert seq.symbols.tolist() == [2, -2, 0, 1]


def test_sidecar_dump(tmp_path):
    scheme = make_scheme("five", STATS)
    out = tmp_path / "coding.json"
    dump_coding_sidecar(scheme, STATS, out)
    payload = json.loads(out.read_text())
    assert payload["scheme"] == "five"
    assert payload["mean"] == STATS.mean
    assert payload["std"] == STATS.std
    assert payload["cut_points"] == list(scheme.cut_points)
    assert payload["symbols"] == [-2, -1, 0, 1, 2]


def test_symbols_csv_dump(tmp_path):
    returns = mk_returns([STATS.mean + 2 * S, STATS.mean, STATS.mean - 2 * S])
    seq = encode_series(returns, STATS, make_scheme("five", STATS))
    out = tmp_path / "symbols.csv"
    dump_symbols_csv(seq, out)
    assert out.read_text().splitlines() == ["symbol", "2", "0", "-2"]


@given(
    alphabet=st.sampled_from([ALPHABET3, ALPHABET5, (-40, 7, 1234)]),
    picks=st.lists(st.integers(0, 4), min_size=1, max_size=200),
)
@example(alphabet=ALPHABET5, picks=[0])  # one symbol, negative
@example(alphabet=ALPHABET3, picks=[2])
@settings(deadline=None)
def test_symbols_csv_matches_per_symbol_text(tmp_path_factory, alphabet, picks):
    seq = SymbolSequence(np.array(picks) % len(alphabet), alphabet)
    out = tmp_path_factory.mktemp("symbols") / "symbols.csv"
    dump_symbols_csv(seq, out)
    assert out.read_bytes() == ("\n".join(["symbol"] + [str(int(s)) for s in seq.symbols]) + "\n").encode()
