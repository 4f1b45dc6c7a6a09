"""Empirical block statistics: the block census and the conditional tables.

Context convention: a context block is ordered most-recent-first, so the
context of position t at order k is (seq[t-1], seq[t-2], ..., seq[t-k]).
The build codes a context as an integer whose most significant digit is the
most recent symbol: dropping the oldest symbol drops the least significant
digit, so a row's parent, its context less the oldest symbol, has code // |alphabet|.

A table set stacks the distributions of all its contexts, and a row id is the
one name of a context's row: each order's ``rows`` range, the set's
``parents`` and a resolution's ``row_ids`` all hold row ids. The seen contexts
are prefix-closed, so they form a tree, and the set holds it as each row's
parent and oldest symbol: a context is its parent's context plus its oldest
symbol, and no context code outlives the build. A table is held once, as
counts, one row per row id and each symbol's column contiguous: the layout in
which scoring gathers them and derives its cumulative distributions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coding import SymbolSequence
from .errors import SequenceTooShort
from .ingest import _WRITE_SLICE, write_text_atomic

__all__ = [
    "BlockCensus",
    "ConditionalTable",
    "ConditionalTableSet",
    "census_blocks",
    "check_order",
    "build_conditional_tables",
    "dump_tables_json",
    "write_census_csv",
]


@dataclass(frozen=True)
class BlockCensus:
    """Distinct k-block count against the |alphabet|^k ceiling."""

    order: int
    distinct_count: int
    max_possible: int
    total_windows: int


def _normalized(counts: np.ndarray) -> np.ndarray:
    """counts / total, row by row; any slice of rows gives the same bits as the whole."""
    return counts / counts.sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Order-k contexts seen in training, and the stacked row ids of their distributions.

    The order k is the table's key in ``ConditionalTableSet.tables``.

    Row ``rows[i]`` of the table set's stacked arrays is the distribution of
    the context whose parent row is ``parents[rows[i]]`` and whose oldest
    symbol has index ``oldest[i]``, in the training sequence's index dtype.
    Rows follow the lexicographic order of the context tuples, most recent
    symbol first.
    """

    oldest: np.ndarray
    rows: range


@dataclass(frozen=True, eq=False)
class ConditionalTableSet:
    """Tables for orders 1..k_max plus the order-0 marginal fallback.

    ``counts`` stacks every row of the set, ``(n_rows, |alphabet|)``, int32
    while ``n_train < 2**31`` and int64 beyond: row 0 is
    the marginal, then each order's rows in turn, so one row id addresses any
    distribution. It is held column-major, so ``counts.T`` is C-contiguous and
    each symbol's counts over all rows are one run of memory. ``parents``,
    int32, holds per stacked row the row of its context less the oldest
    symbol; row 0, the marginal, is the parent of every order-1 row and of
    itself. An order's table holds its rows' oldest symbols and ``rows``, the
    range of their row ids. Sampling, argmax and the writer all read ``counts``.
    """

    alphabet: tuple[int, ...]
    k_max: int
    tables: Mapping[int, ConditionalTable]
    n_train: int
    counts: np.ndarray
    parents: np.ndarray


def check_order(alphabet_size: int, k_max: int) -> None:
    """Raise ValueError unless orders 1 .. ``k_max`` pack into integer codes over ``alphabet_size`` symbols:
    a (k_max + 1)-block, a context with its next symbol, takes int64 codes up to 2**62."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    # fails loudly instead of wrapping
    if alphabet_size ** (k_max + 1) > 2**62:
        raise ValueError(f"order {k_max} too large to pack over {alphabet_size} symbols")


def _code_dtype(a: int, k_max: int) -> type:
    """int32 while every (k_max + 1)-block over ``a`` symbols, a context with its next symbol, fits in it."""
    return np.int32 if a ** (k_max + 1) < 2**31 else np.int64


def _context_codes(idx: np.ndarray, a: int, k_max: int) -> Iterator[np.ndarray]:
    """Context codes of orders 1 .. k_max over a sequence of alphabet indices.

    The k-th array holds, for t = k .. len(idx), the code of the context
    (idx[t-1], ..., idx[t-k]) in base ``a``, the most recent symbol as the
    most significant digit. Its entries are also the codes of every k-block.
    They are of ``_code_dtype(a, k_max)``: int32 while a ** (k_max + 1) < 2**31,
    as for five symbols up to order 12, so a code takes 4 bytes.
    """
    n = len(idx)
    codes = np.zeros(n + 1, dtype=_code_dtype(a, k_max))  # order 0, t = 0 .. n
    for k in range(1, k_max + 1):
        # append symbol t-k as the least significant digit, added into the product: the codes keep
        # their dtype whatever the indices' is, and each order allocates one array, not two
        codes = codes[1:] * a
        codes += idx[: n - k + 1]
        yield codes


def census_blocks(seq: SymbolSequence, k_max: int) -> list[BlockCensus]:
    """Count distinct contiguous k-blocks for every k up to k_max."""
    n, a = len(seq), len(seq.alphabet)
    check_order(a, k_max)
    if n < k_max:
        raise SequenceTooShort(f"sequence of length {n} has no block of size {k_max}")
    return [
        BlockCensus(
            order=k,
            distinct_count=int(len(np.unique(codes))),
            max_possible=a**k,
            total_windows=len(codes),
        )
        for k, codes in enumerate(_context_codes(seq.indices, a, k_max), start=1)
    ]


def _count_dtype(n_train: int) -> type:
    """int32 while every row total, at most ``n_train``, fits in it; int64 beyond."""
    return np.int32 if n_train < 2**31 else np.int64


def _order_rows(ctx: np.ndarray, nxt: np.ndarray, a: int, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """The sorted context codes seen at one order and their count rows, ``(n_rows, a)`` of ``dtype``.

    ``ctx`` holds each position's context code and ``nxt`` its next symbol's index. The
    order's temporaries are this call's locals, each deleted once read, so they are freed
    by the time it returns.
    """
    # each context with its next symbol as the least significant digit, in the codes' dtype
    keys = ctx * a
    keys += nxt
    uniq, counts = np.unique(keys, return_counts=True)
    del keys
    ctx_codes, next_idx = np.divmod(uniq, a)
    del uniq
    first = np.ones(len(ctx_codes), dtype=bool)
    first[1:] = ctx_codes[1:] != ctx_codes[:-1]
    # each pair's flat index into the block, its context's row times a plus its next symbol, in one array
    cells = np.cumsum(first, dtype=np.intp)
    cells -= 1
    cells *= a
    cells += next_idx
    del next_idx
    block = np.zeros((int(first.sum()), a), dtype=dtype)
    block.reshape(-1)[cells] = counts
    return ctx_codes[first], block


def build_conditional_tables(train: SymbolSequence, k_max: int) -> ConditionalTableSet:
    """Count every (context, next) transition inside the training sequence.

    For order k, every position t with k preceding symbols contributes one
    count to row context=(train[t-1],...,train[t-k]), column train[t]. Row
    totals therefore sum to n_train - k. The marginal is the plain symbol
    frequency over all of train. Counts are int32 while n_train < 2**31, and
    context codes while |alphabet| ** (k_max + 1) < 2**31.
    """
    alpha = tuple(train.alphabet)
    n, a = len(train), len(alpha)
    check_order(a, k_max)
    if n < k_max + 1:
        raise SequenceTooShort(
            f"training sequence of length {n} cannot support order {k_max}"
        )
    idx = train.indices
    dtype = _count_dtype(n)

    # the contexts of t = k .. n-1 use only train[:-1]; coding them over all of train
    # gives arrays one longer, which raised peak RSS by 4 MB at 1M returns (glibc, x86-64)
    contexts = _context_codes(idx[:-1], a, k_max)
    codes, blocks = zip(*(_order_rows(ctx, idx[k:], a, dtype) for k, ctx in enumerate(contexts, start=1)))
    # row 0 of the stacked arrays is the marginal, then each order's rows. Stacked into a
    # column-major array, so each symbol's column is contiguous and scoring's take reads it in place
    blocks = [np.bincount(idx, minlength=a).astype(dtype)[None, :], *blocks]
    all_counts = np.concatenate(blocks, out=np.empty((sum(map(len, blocks)), a), dtype, order="F"))
    del blocks  # the tree is made once the blocks are freed, so its temporaries do not add to the stacking
    parents = np.zeros(len(all_counts), dtype=np.int32)
    tables: dict[int, ConditionalTable] = {}
    start = 1
    for k, order_codes in enumerate(codes, start=1):
        rows = range(start, start + len(order_codes))
        if k > 1:  # seen contexts are prefix-closed, so every parent code is in the table below
            parents[start : rows.stop] = tables[k - 1].rows.start + np.searchsorted(codes[k - 2], order_codes // a)
        tables[k] = ConditionalTable(oldest=(order_codes % a).astype(idx.dtype), rows=rows)
        start = rows.stop
    return ConditionalTableSet(alphabet=alpha, k_max=k_max, tables=tables, n_train=n, counts=all_counts, parents=parents)


def _block_rows(longest_row: int) -> int:
    """Rows of the tables file joined into one string at a time: as many as fit one write slice at
    ``longest_row`` characters a row, so ``write_text_atomic`` hands each block to the file uncopied."""
    return max(1, _WRITE_SLICE // longest_row)


def _distribution_template(a: int, indent: int) -> str:
    """The "counts" and "probs" members of one row, as json.dumps(indent=2) lays them out.

    ``indent`` is the members' indent in spaces; the template takes ``a``
    ints, then ``a`` floats.
    """
    pad = " " * indent
    sep = ",\n" + pad + "  "
    return (
        f'{pad}"counts": [\n{pad}  ' + sep.join(["%d"] * a) + f"\n{pad}],\n"
        f'{pad}"probs": [\n{pad}  ' + sep.join(["%r"] * a) + f"\n{pad}]"
    )


def dump_tables_json(tables: ConditionalTableSet, path: str | Path) -> None:
    """Write the table set as JSON, formatted directly from its arrays.

    The file is a contract; its bytes are what
    ``json.dumps(payload, indent=2) + "\\n"`` gives for this payload::

        {"alphabet": [...], "k_max": K, "n_train": N,
         "marginal": {"counts": [...], "probs": [...]},
         "tables": [{"k": 1, "rows": {"a1": {"counts": [...], "probs": [...]}, ...}},
                    ..., {"k": K, "rows": {"a1,...,aK": ...}}]}

    Indent 2, keys in this order, one table per order k = 1..K. A row key
    lists the context's symbols ``a1,...,ak`` with the most recent first, and
    rows follow in the lexicographic order of the context tuples. ``counts``
    are ints and ``probs`` floats written as ``repr``, one entry per alphabet
    symbol. The file goes through a temp file and ``os.replace``.

    A row's body depends only on its counts (probs are counts / total), so
    each distinct counts row is formatted once and shared by every row that
    has it. A row's key is its parent's key plus its oldest symbol. Rows are
    joined ``_block_rows`` at a time, so that a block's text fits one write
    slice: beyond the bodies, each row's body index and one order's keys, no
    text of an order or of the file is held.
    """
    a = len(tables.alphabet)
    # group equal counts rows: sort them, then mark each row that differs from the one before
    order = np.lexsort(tables.counts.T)
    ranked = tables.counts[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    del ranked
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    distinct = tables.counts[order[new]]
    del order, new
    body = '": {\n' + _distribution_template(a, 10) + "\n        }"
    # row 0's body goes unused: the marginal has its own indent
    bodies = np.array([body % (*c, *p) for c, p in zip(distinct.tolist(), _normalized(distinct).tolist())], object)
    del distinct

    names = np.array([str(s) for s in tables.alphabet], dtype=object)
    tails = "," + names  # what a key gains over its parent's key: its oldest symbol
    marginal = (*tables.counts[0].tolist(), *_normalized(tables.counts[0]).tolist())
    sep = ',\n        "'
    longest_key = tables.k_max * max(map(len, tails.tolist())) - 1
    block = _block_rows(len(sep) + longest_key + max(map(len, bodies.tolist())))

    def pieces() -> Iterator[str]:
        yield '{\n  "alphabet": [\n    %s\n  ],\n' % ",\n    ".join(names.tolist())
        yield '  "k_max": %d,\n  "n_train": %d,\n' % (tables.k_max, tables.n_train)
        yield '  "marginal": {\n%s\n  },\n  "tables": [\n' % (_distribution_template(a, 4) % marginal)
        triples = np.empty((block, 3), dtype=object)  # (separator, key, body) of each row of a block
        triples[:, 0] = sep
        for k, table in sorted(tables.tables.items()):
            rows, oldest = slice(table.rows.start, table.rows.stop), table.oldest
            # the keys of order k - 1 are dropped once they have given order k its parent keys
            keys = names[oldest] if k == 1 else keys[tables.parents[rows] - tables.tables[k - 1].rows.start] + tails[oldest]
            yield '%s    {\n      "k": %d,\n      "rows": {\n        "' % ("" if k == 1 else ",\n", k)
            for start in range(0, len(keys), block):
                span, part = slice(start, start + block), triples[: len(keys) - start]
                part[:, 1], part[:, 2] = keys[span], bodies[group[rows][span]]
                yield "".join(part.ravel()[start == 0 :].tolist())  # the order's first key follows its opening
            yield "\n      }\n    }"
        yield "\n  ]\n}\n"

    write_text_atomic(path, pieces())


def write_census_csv(census: Iterable[BlockCensus], path: str | Path) -> None:
    lines = ["k,distinct,max_possible,total_windows"]
    lines += [f"{c.order},{c.distinct_count},{c.max_possible},{c.total_windows}" for c in census]
    write_text_atomic(path, "\r\n".join(lines) + "\r\n")
