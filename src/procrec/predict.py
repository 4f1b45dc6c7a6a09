"""Back-off next-symbol prediction and the split-halves forecasting experiment.

Prediction at order k looks up the k most recent symbols in the order-k table
and samples the next symbol from that row's empirical distribution. When the
context was never seen in training the context is shortened one symbol at a
time (dropping the oldest) until a seen context supplies a row; if nothing
matches down to order 1 the training marginal is used (fallback order 0), so
every prediction is well defined.

A context seen at order j in training is also seen at every shorter order, so
each test position t has one longest match L_t and order k answers at
min(L_t, k). The seen contexts form a tree, and the answer at order k is the
answer at order k - 1 taken one older symbol deeper where that context was
seen: ``FallbackResolution.deepen`` links the rows of one order to their
children and moves each position one step down the tree, with gathers only.
``resolve_fallback`` deepens the marginal k times. A resolution keeps the row id
of order min(L_t, k), the table set and the coded series. The set stacks its
rows order by order, so a row id names its order, and scoring needs nothing
but the resolution.

All randomness flows from ``run_generators``: run j at order k of an instrument
draws from two PCG64 generators, "model" and "baseline", seeded exactly as
numpy's ``SeedSequence(master_seed, spawn_key=(crc32(instrument), j, k,
crc32(purpose)))`` would seed them. Every stream is independent and
platform-stable, and the whole experiment is reproducible from (data, config,
master seed). Such a key always hashes to the same 8 uint32 words, so one pass
of SeedSequence's hash as uint32 column arithmetic seeds a chunk of streams of
an instrument, and no SeedSequence object is made per run.
"""

from __future__ import annotations

import functools
import itertools
import zlib
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .coding import SCHEMES, CodingScheme, SymbolSequence, _slices, coding_record, encode_series, make_scheme
from .errors import SplitTooSmall
from .ingest import ReturnSeries, SeriesStats, compute_stats, split_halves
from .markov import ConditionalTableSet, build_conditional_tables

__all__ = [
    "run_generators",
    "OrderErrors",
    "ExperimentConfig",
    "ExperimentReport",
    "FallbackResolution",
    "resolve_fallback",
    "evaluate_run",
    "run_experiment",
    "report_to_json_dict",
]

METRICS = ("abs", "signed")
BASELINES = ("uniform", "marginal")
MODES = ("sample", "argmax")
STATS_ON = ("full", "train")  # the returns whose mean and std set the coding thresholds
_CHOICES = {"scheme": SCHEMES, "metric": METRICS, "baseline": BASELINES, "mode": MODES, "stats_on": STATS_ON}

REPORT_SCHEMA_VERSION = 1

_MAX_K = 12


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on 32-bit words, its 4-word pool
# and its multipliers as Python ints; numpy guarantees these streams stay stable across versions
_M32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_XSHIFT = 16

_PURPOSES = (zlib.crc32(b"model"), zlib.crc32(b"baseline"))  # the last spawn key word of a run's two streams
_SEED_CHUNK = 1024  # (run, order) keys hashed per pass, and runs scored per gather: 400 (50 runs x 8 orders) take one


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """(n, 4) uint64 ``generate_state(4, uint64)`` of n SeedSequences from their (n, 8) uint32 entropy.

    Each step of SeedSequence's ``mix_entropy`` and ``generate_state`` is one uint32 column
    operation over all n rows. The hash constant each step uses depends only on the step, so
    it is carried as a Python int.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    n, length = entropy.shape
    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, length):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    hash_const = _INIT_B
    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const
        state[:, i_dst] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)  # word pairs, low word first


@functools.cache
def _preseeded() -> type:
    """A seed sequence that hands PCG64 seed words computed beforehand.

    PCG64 asks its seed sequence for ``generate_state(4, uint64)`` and seeds
    itself from those words. The class is made on first use, so that
    importing procrec does not import ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Preseeded(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Preseeded


def run_generators(seed: int, instrument: str, keys: Iterable[tuple[int, int]]) -> Iterator[np.random.Generator]:
    """The model and then the baseline generator of each (run j, order k) key, in order.

    Each is PCG64 seeded as ``SeedSequence(seed, spawn_key=(crc32(instrument), j, k,
    crc32(purpose)))`` seeds it, which numpy keeps identical on every platform and version;
    ``crc32`` reads a text's UTF-8 bytes, and the surrogates of a label taken from a file name
    that is not UTF-8 as the bytes they stand for. With a seed below 2**64 and keys below 2**32
    that sequence hashes the same 8 words for every stream,
    ``(seed & 0xFFFFFFFF, seed >> 32, 0, 0, crc32(instrument), j, k, crc32(purpose))``, so
    ``_SEED_CHUNK`` keys are checked and hashed at once as one (n, 8) uint32 array: the first
    chunk by the call, each later one when the iterator reaches it, so memory does not grow with
    the keys. Each generator is built only when the iterator reaches it, so a caller holds only
    the generators it has taken and ``numpy.random`` loads with the first one.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    head = (seed & _M32, seed >> 32, 0, 0, zlib.crc32(instrument.encode("utf-8", "surrogateescape")))
    keys = iter(keys)

    def hash_next_chunk() -> np.ndarray:
        words = array("Q")
        for j, k in itertools.islice(keys, _SEED_CHUNK):
            if not (0 <= j <= _M32 and 0 <= k <= _M32):
                raise ValueError(f"run and order keys must fit in an unsigned 32-bit integer, got ({j}, {k})")
            for purpose in _PURPOSES:
                words.extend((*head, j, k, purpose))
        return _pcg64_seeds(np.asarray(words).astype(np.uint32).reshape(-1, 8))

    def generators(seeds: np.ndarray) -> Iterator[np.random.Generator]:
        while len(seeds):
            yield from (np.random.Generator(np.random.PCG64(_preseeded()(state))) for state in seeds)
            seeds = hash_next_chunk()

    return generators(hash_next_chunk())


@dataclass(frozen=True, eq=False)
class OrderErrors:
    """Averaged model and baseline error of every run at one order, in run order."""

    e: np.ndarray  # float64, one per run
    e_rand: np.ndarray  # float64, one per run
    n_predictions: int  # test positions x runs


@dataclass(frozen=True, eq=False)
class FallbackResolution:
    """Per-position back-off outcome over the test half of ``tables``, reusable across runs.

    Which row answers each position depends only on the tables and the symbol
    sequence, never on the random stream, so one resolution serves every run.
    A position's order and counts row are read off its row id; scoring gathers
    the counts, and the actual symbols from ``seq`` past ``tables.n_train``, a
    slice of positions at a time and keeps nothing it gathered.
    """

    tables: ConditionalTableSet
    seq: SymbolSequence  # the whole coded series the tables' training half was taken from
    order: int
    row_ids: np.ndarray  # int32, per test position the stacked row id of its row in ``tables``

    @property
    def n_test(self) -> int:
        return len(self.row_ids)

    def deepen(self) -> FallbackResolution:
        """The resolution at order + 1; shares no array it makes with this one.

        A position answered at this order moves to the row that adds the next older symbol,
        where that context was seen in training, and every other position keeps its row.
        Past the tables' ``k_max`` it raises ValueError.
        """
        k, tables = self.order + 1, self.tables
        if k > tables.k_max:
            raise ValueError(f"order {k} outside built range 1..{tables.k_max}")
        a, table = len(tables.alphabet), tables.tables[k]
        # child[(r - base) * a + s] is the row of r's context extended by the older symbol s, for the rows r
        # of this order, and 0 where that context was not seen. base is the row before this order's first,
        # so entries 0 .. a - 1 hold no child, and the index of any row below base clips to entry 0
        base = tables.tables[self.order].rows.start - 1 if self.order else -1
        child = np.zeros((table.rows.start - base) * a, dtype=np.int32)
        links = tables.parents[table.rows.start : table.rows.stop] - base
        links *= a
        links += table.oldest
        child[links] = np.arange(table.rows.start, table.rows.stop, dtype=np.int32)
        del links
        n, idx = tables.n_train, self.seq.indices
        row_ids = np.empty_like(self.row_ids)
        for part in _slices(self.n_test):  # a slice at a time, so the step's temporaries are a slice's
            ids = self.row_ids[part]
            # symbol t - k of the slice's positions t extends each order-(k - 1) context. A child's row id
            # lies past every row of a lower order and a miss reads 0, so the larger of the two answers
            older = idx[n + part.start - k : n + part.start - k + len(ids)]
            np.maximum(ids, child.take((ids - base) * a + older, mode="clip"), out=row_ids[part])
        return replace(self, order=k, row_ids=row_ids)


def resolve_fallback(tables: ConditionalTableSet, seq: SymbolSequence, k: int) -> FallbackResolution:
    """Resolve the back-off chain at order k for every test position t = n .. len(seq)-1.

    ``seq`` is the whole coded series whose first n = ``tables.n_train``
    symbols the tables were built on; the rest is the test half. Contexts are
    the k symbols immediately preceding t and may reach back across the split
    boundary into the training half for the first positions. Every position
    starts at the marginal, order 0, and is deepened k times.
    """
    n, total = tables.n_train, len(seq)
    n_test = total - n
    if n_test < 1:
        raise SplitTooSmall(f"split index {n} leaves no test positions in {total}")
    if not 1 <= k <= tables.k_max:  # the build needs n >= k_max + 1, so every context fits in seq
        raise ValueError(f"order {k} outside built range 1..{tables.k_max}")
    if tuple(seq.alphabet) != tables.alphabet:  # indices of another alphabet would be misread
        raise ValueError(f"sequence alphabet {seq.alphabet} is not the tables' {tables.alphabet}")
    resolution = FallbackResolution(tables=tables, seq=seq, order=0, row_ids=np.zeros(n_test, dtype=np.int32))
    for _ in range(k):
        resolution = resolution.deepen()
    return resolution


def _heads(counts: np.ndarray) -> np.ndarray:
    """The (|alphabet| - 1, m) heads of an (|alphabet|, m) count block: head j is count j over the column
    total plus head j - 1, the probabilities summed left to right. One head is divided at a time, as
    dividing the whole block would cast whole copies of it."""
    total = counts.sum(axis=0, dtype=counts.dtype)  # a total is at most n_train, which the count dtype holds
    heads = np.empty((len(counts) - 1, counts.shape[1]))
    for j, head in enumerate(heads):
        np.divide(counts[j], total, out=head)
        if j:
            head += heads[j - 1]
    return heads


@functools.cache
def _gap_runs(alphabet: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, slice], ...]]:
    """(steps, cuts, runs) of an alphabet of a symbols: the (a - 1, 1) columns of indices j and of uint32
    ceil((j + 1) * 2**32 / a), the least word that draws above j from range(a), and the rows in runs of
    one gap alpha[j + 1] - alpha[j], each (gap, rows); an evenly spaced alphabet is one run."""
    gaps = [int(high) - int(low) for low, high in zip(alphabet, alphabet[1:])]
    starts = [j for j, gap in enumerate(gaps) if j == 0 or gap != gaps[j - 1]]
    runs = tuple((gaps[start], slice(start, stop)) for start, stop in zip(starts, [*starts[1:], len(gaps)]))
    steps = np.arange(len(gaps))[:, None]
    cuts = np.array([-(-(j << 32) // len(alphabet)) for j in range(1, len(alphabet))], dtype=np.uint32)[:, None]
    steps.flags.writeable = cuts.flags.writeable = False  # shared by every run over this alphabet
    return steps, cuts, runs


def _accepted_words(bit_generator: np.random.PCG64, a: int, n: int) -> np.ndarray:
    """The n 32-bit words x whose draws (x * a) >> 32 are ``Generator.integers(0, a, n)``, for a <= 2**32.

    Like numpy's bounded draw (Lemire's multiply-shift), it reads each 64-bit PCG64 word low half
    first, leaves an unused high half in ``has_uint32`` and ``uinteger`` for the next call, rejects
    x while (x * a) mod 2**32 < 2**32 mod a, and draws no word when a = 1. Any bit generator but
    PCG64 and PCG64DXSM raises ValueError.
    """
    if a == 1:
        return np.zeros(n, np.uint32)
    raw = bit_generator.random_raw((n + 1) // 2)  # what numpy draws when no half is carried in
    state = bit_generator.state
    if state["bit_generator"] not in ("PCG64", "PCG64DXSM"):  # a 2**128 period, 64-bit words and a carried half
        raise ValueError(f"the uniform baseline draws from PCG64 or PCG64DXSM, not {state['bit_generator']}")
    if state["has_uint32"] and n % 2:  # numpy reads the carried half first and draws one word less
        raw = raw[:-1]
        state["state"] = bit_generator.advance(2**128 - 1).state["state"]  # one step back: the period is 2**128
    halves = raw.astype("<u8", copy=False).view("<u4")  # low half first on any platform
    if state["has_uint32"]:
        halves = np.concatenate(([np.uint32(state["uinteger"])], halves))
    if len(raw):
        state["uinteger"] = int(raw[-1]) >> 32  # the last word's high half, used or not
    state["has_uint32"] = len(halves) - n
    bit_generator.state = state
    words, bound = halves[:n], (1 << 32) % a
    if bound and (words * np.uint32(a)).min(initial=bound) < bound:  # numpy draws a word again for each it rejects
        words = words[words * np.uint32(a) >= bound]
        return np.concatenate((words, _accepted_words(bit_generator, a, n - len(words))))
    return words


def _error_sum(picked: np.ndarray, above: np.ndarray, runs: tuple[tuple[int, slice], ...], metric: str) -> int:
    """Sum over positions of predicted - actual ("signed") or of its absolute value, from crossings.

    Row j of ``picked`` and ``above`` says the pick and the actual index exceed j. Over a strictly
    increasing alphabet, predicted - actual is the sum of gap_j * ([pick > j] - [actual > j]), and
    |predicted - actual| the sum of gap_j * ([pick > j] xor [actual > j]); ``picked`` is overwritten.
    """
    if metric == "signed":
        return int(sum(gap * (np.count_nonzero(picked[rows]) - np.count_nonzero(above[rows])) for gap, rows in runs))
    np.bitwise_xor(picked, above, out=picked)
    return int(sum(gap * np.count_nonzero(picked[rows]) for gap, rows in runs))


def evaluate_run(
    resolution: FallbackResolution,
    config: ExperimentConfig,
    pairs: Iterable[tuple[np.random.Generator, np.random.Generator]],
) -> OrderErrors:
    """Score every run of the resolution's order over the test half it resolved in its tables.

    ``pairs`` yields each run's (model, baseline) generators in run order. Returns each run's
    model error e and baseline error e_rand, by ``config``'s metric, baseline and mode. With
    metric "abs" both are mean |predicted - actual| over symbol values; with "signed" the mean
    of (predicted - actual). Model draws come from the model generator (none in "argmax" mode)
    and baseline draws from the baseline one, so the two never perturb each other. The marginal
    baseline draws from the training marginal of the resolution's tables. The uniform one reads
    the words ``integers(0, |alphabet|, n_test)`` would read from the baseline's bit generator
    and compares them with cuts; that bit generator must be PCG64 or PCG64DXSM, or it raises
    ValueError.
    """
    alphabet, n_test, row_ids = resolution.tables.alphabet, resolution.n_test, resolution.row_ids
    steps, cuts, runs = _gap_runs(alphabet)
    actual = resolution.seq.indices[resolution.tables.n_train :]
    actual_steps = steps.astype(actual.dtype)  # uint8 indices against uint8 steps: no intp copy of a slice
    by_symbol = resolution.tables.counts.T  # C-contiguous: each symbol's counts are one run, read in place
    marginal_heads = _heads(resolution.tables.counts[:1].T)
    # The inverse-CDF pick, the first index whose cum exceeds u, exceeds j when head j <= u, as the
    # heads never fall. Integer error sums give each mean the float of the per-position errors' mean.
    # Each slice's counts are gathered once for a batch of runs and dropped before the next slice;
    # each run's streams continue across slices. A batch holds at most _SEED_CHUNK runs' generators.
    e_sums: list[int] = []
    rand_sums: list[int] = []
    pairs = iter(pairs)
    while batch := list(itertools.islice(pairs, _SEED_CHUNK)):
        first = len(e_sums)
        e_sums += [0] * len(batch)
        rand_sums += [0] * len(batch)
        for part in _slices(n_test):
            above = actual[part] > actual_steps  # row j says the actual index > j
            size = above.shape[1]
            counts = by_symbol.take(row_ids[part], axis=1)
            if config.mode == "argmax":  # one error for every run: the first index on ties, which the heads keep
                argmax_sum = _error_sum(counts.argmax(axis=0) > steps, above, runs, config.metric)
            else:
                heads = _heads(counts)
            del counts
            for i, (model_gen, baseline_gen) in enumerate(batch, first):
                if config.mode == "argmax":
                    e_sums[i] += argmax_sum
                else:
                    e_sums[i] += _error_sum(heads <= model_gen.random(size), above, runs, config.metric)
                if config.baseline == "marginal":  # the model's draw from the marginal's one cum
                    picked = marginal_heads <= baseline_gen.random(size)
                else:  # the stream continues across slices with the odd half a slice leaves
                    picked = _accepted_words(baseline_gen.bit_generator, len(alphabet), size) >= cuts
                rand_sums[i] += _error_sum(picked, above, runs, config.metric)
            heads = picked = above = None  # freed before the next slice is gathered
    return OrderErrors(
        e=np.array(e_sums, dtype=np.float64) / n_test,
        e_rand=np.array(rand_sums, dtype=np.float64) / n_test,
        n_predictions=n_test * len(e_sums),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything the experiment depends on besides the data itself; checked when built.

    The fields are in the order of the report's ``config`` block.
    """

    scheme: str = "five"
    k_min: int = 1
    k_max: int = 8
    runs: int = 50
    metric: str = "abs"
    baseline: str = "uniform"
    mode: str = "sample"
    stats_on: str = "full"
    master_seed: int = 0

    def __post_init__(self):
        for name in ("k_min", "k_max", "runs", "master_seed"):  # a bool, float or numpy integer gets no further
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if not 1 <= self.runs <= _M32:  # a run number is one 32-bit word of its streams' key
            raise ValueError("runs must be between 1 and 2**32 - 1")
        if not 1 <= self.k_min <= self.k_max <= _MAX_K:
            raise ValueError(f"need 1 <= k_min <= k_max <= {_MAX_K}")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}")
        if not 0 <= self.master_seed < 2**64:  # the two seed words of run_generators, checked before any work
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")


@dataclass(eq=False)
class ExperimentReport:
    """Across-run averages of e_k and eRand_k plus the audit trail.

    ``sequence`` and ``tables`` are the coded series and the training-half
    tables the run used, kept for the symbol and table dumps; the series is
    split after the tables' ``n_train`` symbols.
    """

    instrument: str
    config: ExperimentConfig
    coding: CodingScheme
    k_values: tuple[int, ...]
    stats: SeriesStats
    e_mean: tuple[float, ...]
    e_std: tuple[float, ...]
    rand_mean: tuple[float, ...]
    rand_std: tuple[float, ...]
    fallback_histogram: dict[int, dict[int, int]]
    per_run: dict[int, OrderErrors]
    sequence: SymbolSequence
    tables: ConditionalTableSet


def run_experiment(config: ExperimentConfig, returns: ReturnSeries) -> ExperimentReport:
    """Full protocol on one instrument: code, split, estimate, predict, average.

    Tables are estimated on the first half only; every run j and order k draws
    from the substreams (master seed, instrument, j, k, "model" | "baseline"),
    so reports are invariant to run scheduling and to which other instruments
    are processed alongside.
    """
    instrument, h1 = returns.instrument, split_halves(returns)[0]
    n = len(h1)
    stats = compute_stats(returns if config.stats_on == "full" else h1)
    scheme = make_scheme(config.scheme, stats)
    seq = encode_series(returns, stats, scheme)
    # nothing later reads the returns: freed here, unless the caller still holds them (CPython 3.10
    # keeps a temporary argument in the caller's frame until the call returns)
    del returns, h1
    train = replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, config.k_max)

    k_values = tuple(range(config.k_min, config.k_max + 1))
    keys = ((j, k) for k in k_values for j in range(1, config.runs + 1))
    gens = run_generators(config.master_seed, instrument, keys)
    pairs = zip(gens, gens)  # the model and baseline generators of every run, in the order they are scored

    per_run: dict[int, OrderErrors] = {}
    for k in k_values:  # one order at a time, each one step deeper than the last
        resolution = resolve_fallback(tables, seq, k) if k == config.k_min else resolution.deepen()
        per_run[k] = evaluate_run(resolution, config, itertools.islice(pairs, config.runs))
    # positions whose longest match reaches each order 0 .. k_max, the k_max row ids at or past the order's
    # first row; order k answers those at k or above at k
    starts = [0, *(tables.tables[j].rows.start for j in range(1, config.k_max + 1))]
    reached = [int(np.count_nonzero(resolution.row_ids >= start)) for start in starts]
    fallback_histogram = {k: {**{j: reached[j] - reached[j + 1] for j in range(k)}, k: reached[k]} for k in k_values}
    e_mean, e_std, r_mean, r_std = [], [], [], []
    for errors in per_run.values():
        e_mean.append(float(errors.e.mean()))
        e_std.append(float(errors.e.std()))
        r_mean.append(float(errors.e_rand.mean()))
        r_std.append(float(errors.e_rand.std()))

    return ExperimentReport(
        instrument=instrument,
        config=config,
        coding=scheme,
        k_values=k_values,
        stats=stats,
        e_mean=tuple(e_mean),
        e_std=tuple(e_std),
        rand_mean=tuple(r_mean),
        rand_std=tuple(r_std),
        fallback_histogram=fallback_histogram,
        per_run=per_run,
        sequence=seq,
        tables=tables,
    )


def json_label(label: str) -> str:
    """A label as valid Unicode: each lone surrogate, a file name's byte outside UTF-8, as ``\\xNN``."""
    return label.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


def report_to_json_dict(report: ExperimentReport) -> dict:
    """Stable wire form of a report; key order is fixed so dumps are byte-stable."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "instrument": json_label(report.instrument),
        "master_seed": report.config.master_seed,
        "config": asdict(report.config),
        "series": {
            "n_returns": len(report.sequence),
            "n_train": report.tables.n_train,
            "n_test": len(report.sequence) - report.tables.n_train,
        },
        "coding": coding_record(report.coding, report.stats),
        "results": [
            {
                "k": k,
                "e_mean": report.e_mean[i],
                "e_std": report.e_std[i],
                "e_rand_mean": report.rand_mean[i],
                "e_rand_std": report.rand_std[i],
            }
            for i, k in enumerate(report.k_values)
        ],
        "fallback_histogram": {
            str(k): {str(o): c for o, c in sorted(hist.items())}
            for k, hist in sorted(report.fallback_histogram.items())
        },
    }

