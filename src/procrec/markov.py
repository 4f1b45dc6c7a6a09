"""Empirical block statistics: the block census and the conditional tables.

Context convention: a context block is ordered most-recent-first, so the
context of position t at order k is (seq[t-1], seq[t-2], ..., seq[t-k]).
Tables store a context as an integer code whose most significant digit is the
most recent symbol: dropping the oldest symbol drops the least significant
digit, and the back-off predictor extends codes one older digit at a time.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coding import SymbolSequence
from .errors import SequenceTooShort
from .ingest import write_text_atomic

__all__ = [
    "BlockCensus",
    "ContextRow",
    "ConditionalTable",
    "ConditionalTableSet",
    "census_blocks",
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


@dataclass(frozen=True, eq=False)
class ContextRow:
    """Next-symbol counts and probabilities for one context."""

    counts: np.ndarray  # int64, one slot per alphabet symbol
    probs: np.ndarray  # counts / total
    cum: np.ndarray  # inclusive cumulative sum of probs, for sampling

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Order-k conditional next-symbol distributions, one row per seen context.

    ``codes`` holds the contexts as sorted base-|alphabet| integers of symbol
    indices, the most recent symbol as the most significant digit, so code
    order is the lexicographic order of the context tuples. Row i of
    ``counts``/``probs``/``cum`` (shape (m, |alphabet|)) belongs to
    ``codes[i]`` and is row ``offset + i`` of the table set's stacked arrays.
    """

    order: int
    alphabet: tuple[int, ...]
    codes: np.ndarray
    offset: int
    counts: np.ndarray
    probs: np.ndarray
    cum: np.ndarray

    def contexts(self) -> np.ndarray:
        """(m, order) context symbols of every row, most recent first."""
        a = len(self.alphabet)
        weights = a ** np.arange(self.order - 1, -1, -1, dtype=np.int64)
        return np.asarray(self.alphabet, dtype=np.int64)[self.codes[:, None] // weights % a]

    @property
    def rows(self) -> Mapping[tuple[int, ...], ContextRow]:
        """Read-only {context tuple: ContextRow} view over the arrays."""
        return _RowView(self)


class _RowView(Mapping):
    def __init__(self, table: ConditionalTable):
        self._table = table
        self._index = {s: i for i, s in enumerate(table.alphabet)}

    def __len__(self) -> int:
        return len(self._table.codes)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(tuple, self._table.contexts().tolist())

    def __getitem__(self, context: tuple[int, ...]) -> ContextRow:
        t = self._table
        if len(context) != t.order:
            raise KeyError(context)
        code = 0
        for s in context:
            code = code * len(t.alphabet) + self._index[s]  # KeyError for a foreign symbol
        i = int(np.searchsorted(t.codes, code))
        if i == len(t.codes) or t.codes[i] != code:
            raise KeyError(context)
        return ContextRow(counts=t.counts[i], probs=t.probs[i], cum=t.cum[i])


@dataclass(frozen=True, eq=False)
class ConditionalTableSet:
    """Tables for orders 1..k_max plus the order-0 marginal fallback.

    ``counts``/``probs``/``cum`` stack every row of the set: row 0 is the
    marginal, then each order's rows in turn. The per-order tables and the
    marginal are views into them, so one row id addresses any distribution.
    """

    alphabet: tuple[int, ...]
    k_max: int
    tables: Mapping[int, ConditionalTable]
    n_train: int
    counts: np.ndarray
    probs: np.ndarray
    cum: np.ndarray

    @property
    def marginal(self) -> ContextRow:
        return ContextRow(counts=self.counts[0], probs=self.probs[0], cum=self.cum[0])


def _check_packable(alphabet_size: int, k_max: int) -> None:
    # blocks are packed into int64 codes; fails loudly instead of wrapping
    if alphabet_size ** (k_max + 1) > 2**62:
        raise ValueError(f"order {k_max} too large to pack over {alphabet_size} symbols")


def _context_codes(idx: np.ndarray, a: int, k_max: int) -> Iterator[np.ndarray]:
    """Context codes of orders 1 .. k_max over a sequence of alphabet indices.

    The k-th array holds, for t = k .. len(idx), the code of the context
    (idx[t-1], ..., idx[t-k]) in base ``a``, the most recent symbol as the
    most significant digit. Its entries are also the codes of every k-block.
    """
    n = len(idx)
    codes = np.zeros(n + 1, dtype=np.int64)  # order 0, t = 0 .. n
    for k in range(1, k_max + 1):
        # append symbol t-k as the least significant digit
        codes = codes[1:] * a + idx[: n - k + 1]
        yield codes


def census_blocks(seq: SymbolSequence, k_max: int) -> list[BlockCensus]:
    """Count distinct contiguous k-blocks for every k up to k_max."""
    n = len(seq)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if n < k_max:
        raise SequenceTooShort(f"sequence of length {n} has no block of size {k_max}")
    a = len(seq.alphabet)
    _check_packable(a, k_max)
    return [
        BlockCensus(
            order=k,
            distinct_count=int(len(np.unique(codes))),
            max_possible=a**k,
            total_windows=len(codes),
        )
        for k, codes in enumerate(_context_codes(seq.indices, a, k_max), start=1)
    ]


def build_conditional_tables(train: SymbolSequence, k_max: int) -> ConditionalTableSet:
    """Count every (context, next) transition inside the training sequence.

    For order k, every position t with k preceding symbols contributes one
    count to row context=(train[t-1],...,train[t-k]), column train[t]. Row
    totals therefore sum to n_train - k. The marginal is the plain symbol
    frequency over all of train.
    """
    alpha = tuple(train.alphabet)
    n = len(train)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if n < k_max + 1:
        raise SequenceTooShort(
            f"training sequence of length {n} cannot support order {k_max}"
        )
    a = len(alpha)
    _check_packable(a, k_max)
    idx = train.indices

    # row 0 of the stacked arrays is the marginal, then each order's rows
    blocks = [np.bincount(idx, minlength=a)[None, :]]
    codes_by_order = []
    # the contexts of t = k .. n-1 use only train[:-1]; coding them over all of train
    # gives arrays one longer, which raised peak RSS by 4 MB at 1M returns (glibc, x86-64)
    for k, ctx in enumerate(_context_codes(idx[:-1], a, k_max), start=1):
        # each context with its next symbol as the least significant digit
        uniq, counts = np.unique(ctx * a + idx[k:], return_counts=True)
        ctx_codes, next_idx = np.divmod(uniq, a)
        first = np.ones(len(uniq), dtype=bool)
        first[1:] = ctx_codes[1:] != ctx_codes[:-1]
        block = np.zeros((int(first.sum()), a), dtype=np.int64)
        block[np.cumsum(first) - 1, next_idx] = counts
        codes_by_order.append(ctx_codes[first])
        blocks.append(block)

    all_counts = np.concatenate(blocks).astype(np.int64, copy=False)
    probs = all_counts / all_counts.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    tables: dict[int, ConditionalTable] = {}
    offset = 1
    for k, codes in enumerate(codes_by_order, start=1):
        rows = slice(offset, offset + len(codes))
        tables[k] = ConditionalTable(
            order=k,
            alphabet=alpha,
            codes=codes,
            offset=offset,
            counts=all_counts[rows],
            probs=probs[rows],
            cum=cum[rows],
        )
        offset += len(codes)
    return ConditionalTableSet(
        alphabet=alpha,
        k_max=k_max,
        tables=tables,
        n_train=n,
        counts=all_counts,
        probs=probs,
        cum=cum,
    )


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
    """
    a = len(tables.alphabet)
    members = _distribution_template(a, 10)
    blocks = []
    for k, table in sorted(tables.tables.items()):
        # the key's k symbols, then the row's a counts and a probabilities
        row = '        "' + ",".join(["%d"] * k) + '": {\n' + members + "\n        }"
        rows = ",\n".join(
            [
                row % (*ctx, *counts, *probs)
                for ctx, counts, probs in zip(
                    table.contexts().tolist(), table.counts.tolist(), table.probs.tolist()
                )
            ]
        )
        blocks.append('    {\n      "k": %d,\n      "rows": {\n%s\n      }\n    }' % (k, rows))
    marginal = (*tables.counts[0].tolist(), *tables.probs[0].tolist())
    text = (
        '{\n  "alphabet": [\n    %s\n  ],\n' % ",\n    ".join(map(str, tables.alphabet))
        + '  "k_max": %d,\n  "n_train": %d,\n' % (tables.k_max, tables.n_train)
        + '  "marginal": {\n%s\n  },\n' % (_distribution_template(a, 4) % marginal)
        + '  "tables": [\n%s\n  ]\n}\n' % ",\n".join(blocks)
    )
    write_text_atomic(path, text)


def write_census_csv(census: Iterable[BlockCensus], path: str | Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "distinct", "max_possible", "total_windows"])
    writer.writerows([c.order, c.distinct_count, c.max_possible, c.total_windows] for c in census)
    write_text_atomic(path, buf.getvalue())
