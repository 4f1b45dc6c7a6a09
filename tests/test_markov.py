from __future__ import annotations

import contextlib
import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procrec import (
    SequenceTooShort,
    build_conditional_tables,
    census_blocks,
    compute_stats,
    encode_series,
    make_scheme,
    resolve_fallback,
)
from procrec import ingest, markov
from procrec.markov import dump_tables_json, write_census_csv

from conftest import mk_returns, mk_seq
from oracles import (
    ALPHABET3,
    ALPHABET5,
    brute_force_back_off,
    brute_force_distinct_blocks,
    brute_force_tables,
    context_rows,
    reference_census_csv,
    reference_tables_json,
    sequential_cum,
    table_cum,
)

import synth


def random_symbols(rng, length, alphabet):
    return [int(alphabet[i]) for i in rng.integers(0, len(alphabet), length)]


# --- census ----------------------------------------------------------------


def test_census_constant_sequence():
    census = census_blocks(mk_seq([0, 0, 0, 0], ALPHABET5), 2)
    assert census[1].order == 2
    assert census[1].distinct_count == 1
    assert census[1].total_windows == 3
    assert census[1].max_possible == 25
    assert all(c.distinct_count == 1 for c in census)


def test_census_alternating():
    census = census_blocks(mk_seq([1, 2, 1, 2], (1, 2)), 2)
    assert census[1].distinct_count == 2  # [1,2] and [2,1]


def test_census_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(20):
        symbols = random_symbols(rng, int(rng.integers(10, 120)), ALPHABET3)
        census = census_blocks(mk_seq(symbols, ALPHABET3), 4)
        for c in census:
            assert c.distinct_count == brute_force_distinct_blocks(symbols, c.order)
            assert c.total_windows == len(symbols) - c.order + 1
            assert c.max_possible == 3**c.order


def test_census_iid_uniform_saturation():
    # near-complete coverage for small k, far below the ceiling for large k
    rng = np.random.default_rng(12)
    seq = mk_seq(random_symbols(rng, 3153, ALPHABET5), ALPHABET5)
    by_k = {c.order: c for c in census_blocks(seq, 8)}
    for k in (1, 2, 3, 4):
        assert by_k[k].distinct_count >= 0.9 * by_k[k].max_possible
    for k in (6, 7, 8):
        assert by_k[k].distinct_count <= 0.25 * by_k[k].max_possible


def test_census_too_short():
    with pytest.raises(SequenceTooShort):
        census_blocks(mk_seq([0, 0], ALPHABET3), 3)


@given(st.lists(st.sampled_from(ALPHABET3), min_size=8, max_size=80))
@settings(deadline=None)
def test_census_growth_bound(symbols):
    census = census_blocks(mk_seq(symbols, ALPHABET3), 4)
    for prev, cur in zip(census, census[1:]):
        assert cur.distinct_count <= prev.distinct_count * 3


# --- conditional tables -----------------------------------------------------


def test_tables_constant_sequence():
    tables = build_conditional_tables(mk_seq([0, 0, 0, 0, 0], ALPHABET5), 1)
    rows = context_rows(tables, 1)
    assert set(rows) == {(0,)}
    counts, cum = rows[(0,)]
    assert counts.tolist() == [0, 0, 4, 0, 0]
    assert cum.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]


def test_tables_alternating_sequence():
    tables = build_conditional_tables(mk_seq([1, -1, 1, -1, 1], ALPHABET3), 1)
    rows = context_rows(tables, 1)
    assert rows[(1,)][1].tolist() == [1.0, 1.0, 1.0]  # P(-1 | 1) = 1
    assert rows[(-1,)][1].tolist() == [0.0, 0.0, 1.0]  # P(1 | -1) = 1


def test_context_is_most_recent_first():
    # series ... a, b -> next: the context must read (b, a), newest first
    tables = build_conditional_tables(mk_seq([-1, 0, 1, -1, 0, 1], ALPHABET3), 2)
    rows = context_rows(tables, 2)
    assert (0, -1) in rows  # after [-1, 0] comes 1
    assert (-1, 0) not in rows
    assert rows[(0, -1)][0].tolist() == [0, 0, 2]


def test_tables_match_bruteforce_exactly():
    rng = np.random.default_rng(9)
    for alphabet in (ALPHABET3, ALPHABET5):
        for _ in range(15):
            symbols = random_symbols(rng, int(rng.integers(20, 200)), alphabet)
            tables = build_conditional_tables(mk_seq(symbols, alphabet), 4)
            expected, marginal = brute_force_tables(symbols, 4, alphabet)
            for k in range(1, 5):
                rows = context_rows(tables, k)
                assert set(rows) == set(expected[k])
                for ctx, (counts, probs) in expected[k].items():
                    got_counts, got_cum = rows[ctx]
                    assert got_counts.tolist() == counts
                    for got, want in zip(got_cum, np.cumsum([float(p) for p in probs])):
                        assert abs(got - want) <= 1e-12
            assert tables.counts[0].tolist() == marginal


def test_count_conservation_and_row_sums():
    rng = np.random.default_rng(5)
    symbols = random_symbols(rng, 300, ALPHABET5)
    tables = build_conditional_tables(mk_seq(symbols, ALPHABET5), 6)
    for k in tables.tables:
        total = 0
        for counts, cum in context_rows(tables, k).values():
            assert cum.tolist() == sequential_cum(counts.tolist())
            assert abs(cum[-1] - 1.0) <= 1e-9
            total += int(counts.sum())
        assert total == len(symbols) - k


def test_marginalization_consistency():
    # summed over the oldest slot, order-k counts reproduce order-(k-1) counts
    # restricted to positions with a full k-context (t >= k)
    rng = np.random.default_rng(17)
    symbols = random_symbols(rng, 150, ALPHABET3)
    k = 3
    tables = build_conditional_tables(mk_seq(symbols, ALPHABET3), k)

    restricted: dict[tuple, np.ndarray] = {}
    idx = {s: i for i, s in enumerate(ALPHABET3)}
    for t in range(k, len(symbols)):
        ctx = tuple(reversed(symbols[t - (k - 1) : t]))
        vec = restricted.setdefault(ctx, np.zeros(3, dtype=np.int64))
        vec[idx[symbols[t]]] += 1

    summed: dict[tuple, np.ndarray] = {}
    for ctx, (counts, _) in context_rows(tables, k).items():
        short = ctx[:-1]
        summed.setdefault(short, np.zeros(3, dtype=np.int64))
        summed[short] += counts

    assert set(summed) == set(restricted)
    for ctx in restricted:
        assert summed[ctx].tolist() == restricted[ctx].tolist()


@given(st.lists(st.sampled_from(ALPHABET3), min_size=6, max_size=120))
@settings(deadline=None)
def test_tables_invariants_property(symbols):
    tables = build_conditional_tables(mk_seq(symbols, ALPHABET3), 3)
    for k in tables.tables:
        totals = 0
        for counts, cum in context_rows(tables, k).values():
            assert abs(cum[-1] - 1.0) <= 1e-9
            totals += int(counts.sum())
        assert totals == len(symbols) - k
    assert tables.counts[0].sum() == len(symbols)
    assert abs(table_cum(tables, 0)[-1] - 1.0) <= 1e-9


def test_counts_hold_one_column_per_symbol():
    # the set holds each table once, as counts whose symbol columns are contiguous; scoring derives cum
    rng = np.random.default_rng(29)
    tables = build_conditional_tables(mk_seq(random_symbols(rng, 400, ALPHABET5), ALPHABET5), 4)
    n_rows = len(tables.counts)
    assert tables.counts.shape == (n_rows, 5) and tables.counts.T.flags.c_contiguous
    assert not hasattr(tables, "cum")
    assert [f.name for f in dataclasses.fields(tables)] == ["alphabet", "k_max", "tables", "n_train", "counts", "parents"]
    # an order's table is its rows' oldest symbols and row ids: no context code outlives the build
    assert [f.name for f in dataclasses.fields(tables.tables[1])] == ["oldest", "rows"]
    cum = table_cum(tables, np.arange(n_rows))
    for r in range(n_rows):
        assert cum[:, r].tolist() == sequential_cum(tables.counts[r].tolist())


@given(st.data())
@settings(deadline=None)
def test_row_ids_tile_the_stacked_rows(data):
    alphabet = data.draw(st.sampled_from([ALPHABET3, ALPHABET5]))
    k_max = data.draw(st.integers(1, 8))
    symbols = data.draw(st.lists(st.sampled_from(alphabet), min_size=k_max + 1, max_size=k_max + 200))
    tables = build_conditional_tables(mk_seq(symbols, alphabet), k_max)
    assert sorted(tables.tables) == list(range(1, k_max + 1))
    start = 1  # row 0 is the marginal
    for k, table in sorted(tables.tables.items()):
        assert table.rows == range(start, start + len(table.rows))
        assert len(table.rows) == len(table.oldest) > 0
        start = table.rows.stop
        # each parent lies in the order below: row 0, the marginal, for order 1
        below = range(0, 1) if k == 1 else tables.tables[k - 1].rows
        parents = tables.parents[table.rows.start : table.rows.stop]
        assert below.start <= parents.min() and parents.max() < below.stop
        # rows follow their contexts' lexicographic order, most recent symbol first: by parent, then by oldest
        tree = list(zip(parents.tolist(), table.oldest.tolist()))
        assert all(x < y for x, y in zip(tree, tree[1:])) and 0 <= table.oldest.min() <= table.oldest.max() < len(alphabet)
    assert start == len(tables.counts)
    assert tables.parents[0] == 0


def test_counts_are_int32_while_row_totals_fit():
    # a row total is at most n_train, the marginal's; the widths are chosen without building that much
    assert markov._count_dtype(2**31 - 1) is np.int32
    assert markov._count_dtype(2**31) is np.int64
    rng = np.random.default_rng(30)
    tables = build_conditional_tables(mk_seq(random_symbols(rng, 400, ALPHABET5), ALPHABET5), 4)
    assert tables.counts.dtype == np.int32


@pytest.mark.parametrize(
    "alphabet, k_max, dtype",
    [
        (ALPHABET5, 12, np.int32),  # 5**13 < 2**31
        (ALPHABET5, 13, np.int64),  # 5**14 > 2**31
        (tuple(range(300)), 2, np.int32),  # int64 indices, past 256 symbols, added into int32 codes
    ],
)
def test_codes_are_int32_while_blocks_fit(alphabet, k_max, dtype, monkeypatch):
    # a (k_max + 1)-block, a context and its next symbol, sets the width: 2**31 itself takes int64
    assert markov._code_dtype(2, 29) is np.int32 and markov._code_dtype(2, 30) is np.int64
    rng = np.random.default_rng(k_max)
    symbols = random_symbols(rng, 400, alphabet)
    seq = mk_seq(symbols, alphabet)
    seen, context_codes = [], markov._context_codes

    def spy(*args):
        for codes in context_codes(*args):
            seen.append(codes.dtype)
            yield codes

    monkeypatch.setattr(markov, "_context_codes", spy)
    tables, census = build_conditional_tables(seq, k_max), census_blocks(seq, k_max)
    assert seen == [np.dtype(dtype)] * (2 * k_max)
    # the oldest symbols are held in the sequence's index dtype: uint8 up to 256 symbols, int64 beyond
    assert {table.oldest.dtype for table in tables.tables.values()} == {seq.indices.dtype}
    assert seq.indices.dtype == (np.int64 if len(alphabet) > 256 else np.uint8)
    # the same tables and census from int64 codes, and from the oracles
    monkeypatch.setattr(markov, "_code_dtype", lambda a, k_max: np.int64)
    wide = build_conditional_tables(seq, k_max)
    for k, table in tables.tables.items():
        np.testing.assert_array_equal(table.oldest, wide.tables[k].oldest, strict=True)
        assert table.rows == wide.tables[k].rows
    np.testing.assert_array_equal(tables.counts, wide.counts)
    np.testing.assert_array_equal(tables.parents, wide.parents, strict=True)
    assert census == census_blocks(seq, k_max)
    expected, marginal = brute_force_tables(symbols, k_max, alphabet)
    for k in range(1, k_max + 1):
        got = {ctx: counts.tolist() for ctx, (counts, _) in context_rows(tables, k).items()}
        assert got == {ctx: counts for ctx, (counts, _) in expected[k].items()}
    assert tables.counts[0].tolist() == marginal
    for c in census:
        assert c.distinct_count == brute_force_distinct_blocks(symbols, c.order)


def test_build_frees_each_order_before_stacking(monkeypatch):
    # many contexts: the stacking holds each order's count block, the stacked counts and the codes,
    # so any order's temporaries still alive after the loop would add to it
    rng = np.random.default_rng(31)
    seq = mk_seq(random_symbols(rng, 200_000, ALPHABET5), ALPHABET5)
    concatenate, stacking = np.concatenate, []

    def spy(arrays, *args, **kwargs):
        if "out" not in kwargs:  # np.unique's own concatenations
            return concatenate(arrays, *args, **kwargs)
        stacking.append(tracemalloc.get_traced_memory()[0])  # the stacked counts are allocated already
        tracemalloc.reset_peak()
        stacked = concatenate(arrays, *args, **kwargs)
        stacking.append(tracemalloc.get_traced_memory()[1])
        return stacked

    monkeypatch.setattr(markov.np, "concatenate", spy)
    tracemalloc.start()
    try:
        tables = build_conditional_tables(seq, 8)
    finally:
        tracemalloc.stop()
    # the codes of every seen context, held through the stacking and freed once they have made the tree
    codes = (len(tables.counts) - 1) * np.dtype(markov._code_dtype(5, 8)).itemsize
    held = 2 * tables.counts.nbytes + codes
    assert len(stacking) == 2
    assert max(stacking) < 1.03 * held, f"{max(stacking) / 1e6:.1f} MB against {held / 1e6:.1f} MB held by the stacking"


def test_tables_too_short():
    with pytest.raises(SequenceTooShort):
        build_conditional_tables(mk_seq([0, 1, 0], ALPHABET3), 3)


def test_unsorted_alphabet_rejected():
    for alphabet in ((1, 0), (0, 0, 1)):
        with pytest.raises(ValueError, match="strictly increasing"):
            mk_seq([0, 1, 0, 1], alphabet)


def test_order_too_large_to_pack():
    seq = mk_seq([-1, 0, 1] * 30, ALPHABET3)
    with pytest.raises(ValueError, match="too large"):
        census_blocks(seq, 45)
    with pytest.raises(ValueError, match="too large"):
        build_conditional_tables(seq, 45)


def test_lookup_longest_suffix():
    train = [0, 0, 1, 0, 0, 1, 0]
    # test contexts, most recent first: (0, 1), (0, 0), (1, 0), (1, 1), (-1, 1), (-1, -1)
    seq = mk_seq(train + [0, 1, 1, -1, -1, 0], ALPHABET3)
    n = len(train)
    tables = build_conditional_tables(mk_seq(train, ALPHABET3), 2)
    res = resolve_fallback(tables, seq, 2)
    # (1, 1) never occurs in train but (1,) does; -1 never occurs at all
    assert res.orders.tolist() == [2, 2, 2, 1, 0, 0]
    expected = brute_force_back_off(seq.symbols.tolist(), n, 2, 2, ALPHABET3)
    assert res.orders.tolist() == [order for order, _ in expected]
    for i in (4, 5):
        assert res.row_ids[i] == 0  # the marginal


# --- dumps -------------------------------------------------------------------


def test_dump_tables_json(tmp_path):
    symbols = [1, -1, 1, -1, 1, 1, -1]
    tables = build_conditional_tables(mk_seq(symbols, ALPHABET3), 2)
    out = tmp_path / "tables.json"
    dump_tables_json(tables, out)
    payload = json.loads(out.read_text())
    assert payload["alphabet"] == [-1, 0, 1]
    assert payload["k_max"] == 2
    assert payload["n_train"] == len(symbols)
    ks = [t["k"] for t in payload["tables"]]
    assert ks == [1, 2]
    order2 = payload["tables"][1]["rows"]
    assert "1,-1" in order2  # context string is most-recent-first, comma separated
    expected, marginal = brute_force_tables(symbols, 2, ALPHABET3)
    counts2, _ = expected[2][(1, -1)]
    assert order2["1,-1"]["counts"] == counts2
    assert payload["marginal"]["counts"] == marginal


@st.composite
def table_sets(draw):
    """Table sets over 3 symbols with k_max 1..12 or 5 symbols with k_max 1..8.

    The symbols come from a drawn subset of the alphabet, so a one-symbol
    subset gives single-row orders whose probabilities are 1.0 and 0.0.
    Sequences run to a few hundred symbols, so equal counts rows recur within
    an order and across orders.
    """
    alphabet = draw(st.sampled_from([ALPHABET3, ALPHABET5]))
    k_max = draw(st.integers(1, 12 if alphabet == ALPHABET3 else 8))
    pool = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=len(alphabet), unique=True))
    symbols = draw(st.lists(st.sampled_from(sorted(pool)), min_size=k_max + 1, max_size=k_max + 300))
    return build_conditional_tables(mk_seq(symbols, alphabet), k_max)


def crypto_like_tables(n_returns, k_max):
    """Five-symbol tables of the first half of a synthetic hourly crypto-like series."""
    returns = mk_returns(np.diff(np.log(synth.crypto_like_prices(n_returns + 1, seed=7))))
    stats = compute_stats(returns)
    seq = encode_series(returns, stats, make_scheme("five", stats))
    return build_conditional_tables(dataclasses.replace(seq, indices=seq.indices[: n_returns // 2]), k_max)


@given(table_sets())
@example(build_conditional_tables(mk_seq([1, 1, 1, 1], ALPHABET5), 3))  # one row per order, probs 0.0 and 1.0
@example(build_conditional_tables(mk_seq([-1, 0, 0, -1, 1], ALPHABET3), 2))  # every counts row distinct
@example(build_conditional_tables(mk_seq([1, 0, 1, -1, 1, 0, 0], ALPHABET3), 3))  # orders 1-3 share (0, 0, 1)
@example(crypto_like_tables(4000, 8))
@settings(deadline=None, max_examples=300)
def test_dump_tables_json_matches_reference(tables):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tables.json"
        dump_tables_json(tables, path)
        assert path.read_bytes() == reference_tables_json(tables).encode("utf-8")
        assert [p.name for p in Path(tmp).iterdir()] == ["tables.json"]


@pytest.mark.parametrize("block", [1, 2, 3, 300, None])
@given(table_sets())
@example(build_conditional_tables(mk_seq([1, 1, 1, 1], ALPHABET5), 3))  # single-row orders: every edge at an order start
@example(crypto_like_tables(4000, 8))  # orders of 5 to 1,947 rows
@settings(deadline=None, max_examples=50)
def test_dump_tables_json_blocks_keep_the_bytes(block, tables):
    # blocks of 1, 2 and 3 rows put block edges at order starts, inside orders and on single-row orders.
    # 300 rows of crypto_like_tables(4000, 8), about 270 characters each, overrun one write slice, which
    # write_text_atomic then cuts; None keeps the production rule, whose every piece fits one slice
    pieces = []

    def write(path, text):
        pieces.extend(text)
        ingest.write_text_atomic(path, pieces)

    rows = mock.patch.object(markov, "_block_rows", lambda longest: block) if block else contextlib.nullcontext()
    with rows, mock.patch.object(markov, "write_text_atomic", write), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tables.json"
        dump_tables_json(tables, path)
        assert path.read_bytes() == reference_tables_json(tables).encode("utf-8")
    if block is None:
        assert max(map(len, pieces)) <= ingest._WRITE_SLICE


def test_dump_tables_json_memory_is_bounded_by_blocks(tmp_path):
    # the dump holds the text of each distinct counts row and one order's keys, which the data sets,
    # and one block's text beyond them. Joining the whole file read 1.68 times the file's size
    # here, and joining each whole order 0.78 times. Blocks of 1,024 rows read 0.52 times with the
    # grouping's temporaries held through the writes and two concatenations a key; blocks that fit
    # one write slice, with those temporaries dropped and one concatenation a key, read 0.32 times
    tables = crypto_like_tables(20_000, 8)
    path = tmp_path / "tables.json"
    tracemalloc.start()
    try:
        dump_tables_json(tables, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.40 * size, f"peak {peak / 2**20:.2f} MiB for a {size / 2**20:.2f} MiB file"
    assert path.read_bytes() == reference_tables_json(tables).encode("utf-8")


def test_write_census_csv(tmp_path):
    census = census_blocks(mk_seq([0, 1, 0, 1, 0], ALPHABET3), 2)
    out = tmp_path / "census.csv"
    write_census_csv(census, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,distinct,max_possible,total_windows"
    assert lines[1] == "1,2,3,5"
    assert lines[2] == "2,2,9,4"
    assert out.read_bytes().startswith(b"k,distinct,max_possible,total_windows\r\n1,2,3,5\r\n")
    census = census_blocks(mk_seq(np.random.default_rng(4).integers(0, 3, 500) - 1, ALPHABET3), 8)
    write_census_csv(census, out)
    assert out.read_bytes() == reference_census_csv(census).encode()
