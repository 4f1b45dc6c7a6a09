"""Back-off next-symbol prediction and the split-halves forecasting experiment.

Prediction at order k looks up the k most recent symbols in the order-k table
and samples the next symbol from that row's empirical distribution. When the
context was never seen in training the context is shortened one symbol at a
time (dropping the oldest) until a seen context supplies a row; if nothing
matches down to order 1 the training marginal is used (fallback order 0), so
every prediction is well defined.

A context seen at order j in training is also seen at every shorter order, so
each test position t has one longest match L_t and order k answers at
min(L_t, k). ``resolve_fallback`` links each table row to its children, the
rows one older symbol longer, and walks the links down from the marginal with
gathers only, as in a suffix tree. It keeps the row of order L_t and each
row's parent, so ``FallbackResolution.truncate(k)`` climbs to order k.

All randomness flows from a RandomStream: a seeded PCG64 stream addressed by
a derivation path, so runs, orders and purposes get independent,
platform-stable substreams and the whole experiment is reproducible from
(data, config, master seed).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coding import SCHEMES, CodingScheme, SymbolSequence, encode_series, make_scheme
from .errors import SplitTooSmall
from .ingest import ReturnSeries, SeriesStats, compute_stats, split_halves
from .markov import ConditionalTableSet, build_conditional_tables

__all__ = [
    "RandomStream",
    "RunErrors",
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

REPORT_SCHEMA_VERSION = 1

_MAX_K = 12


def _tag_code(tag: int | str) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    if tag < 0:
        raise ValueError(f"stream tags must be nonnegative, got {tag}")
    return int(tag)


@dataclass(frozen=True)
class RandomStream:
    """Seeded, addressable source of reproducible randomness.

    The generator is PCG64 keyed by (seed, path) through numpy's SeedSequence,
    which guarantees identical draws for identical keys on every platform.
    Substreams extend the path, so (seed, run, order, purpose) streams are
    mutually independent and do not depend on evaluation order.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def substream(self, *tags: int | str) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(_tag_code(t) for t in tags))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class RunErrors:
    """Averaged model and baseline error of one run at one order."""

    order: int
    e: float
    e_rand: float
    metric: str
    n_predictions: int


@dataclass(frozen=True, eq=False)
class FallbackResolution:
    """Per-position back-off outcome over a test half, reusable across runs.

    Which row answers each position depends only on the tables and the symbol
    sequence, never on the random stream, so one resolution serves every run.
    """

    order: int
    orders: np.ndarray  # int8, fallback order used per test position: min(L_t, order)
    row_ids: np.ndarray  # int32, per test position the index into cum_rows/prob_rows of its row
    parents: np.ndarray  # int32, per stacked row the row of its context less the oldest symbol
    cum_rows: np.ndarray  # the table set's stacked rows, (n_rows, |alphabet|)
    prob_rows: np.ndarray
    actual_idx: np.ndarray  # alphabet index of the realized symbol

    @property
    def n_test(self) -> int:
        return len(self.orders)

    @cached_property
    def cum_columns(self) -> np.ndarray:
        """(|alphabet| - 1, n_test) cum of every position's row, last column dropped."""
        return np.take(self.cum_rows[:, :-1].T, self.row_ids, axis=1)

    @cached_property
    def argmax_picks(self) -> np.ndarray:
        """(n_test,) alphabet index of every position's most probable symbol, the first on ties."""
        return np.argmax(self.prob_rows, axis=1)[self.row_ids]

    def truncate(self, k: int) -> "FallbackResolution":
        """The resolution at order k <= order, climbing one order per step."""
        if not 1 <= k <= self.order:
            raise ValueError(f"order {k} outside resolved range 1..{self.order}")
        row_ids = self.row_ids
        for j in range(self.order, k, -1):  # positions answered at order j or above climb to j - 1
            row_ids = np.where(self.orders >= j, self.parents[row_ids], row_ids)
        return replace(self, order=k, orders=np.minimum(self.orders, k), row_ids=row_ids)

    def order_histogram(self) -> dict[int, int]:
        counts = np.bincount(self.orders, minlength=self.order + 1)
        return {j: int(counts[j]) for j in range(self.order + 1)}


def resolve_fallback(
    tables: ConditionalTableSet, seq: SymbolSequence, n: int, k: int
) -> FallbackResolution:
    """Resolve the back-off chain for every test position t = n .. len(seq)-1.

    Contexts are the k symbols immediately preceding t and may reach back
    across the split boundary into the training half for the first positions.
    Every position walks from the marginal to the child row that adds the next
    older symbol, k times or until it misses, and keeps the last row it reached.
    ``truncate`` serves the lower orders.
    """
    total = len(seq)
    n_test = total - n
    if n_test < 1:
        raise SplitTooSmall(f"split index {n} leaves no test positions in {total}")
    if not 1 <= k <= tables.k_max:
        raise ValueError(f"order {k} outside built range 1..{tables.k_max}")
    if n < k:
        raise ValueError(f"first test context would precede the series (n={n}, k={k})")
    if tuple(seq.alphabet) != tables.alphabet:  # indices of another alphabet would be misread
        raise ValueError(f"sequence alphabet {seq.alphabet} is not the tables' {tables.alphabet}")

    a, n_rows = len(tables.alphabet), len(tables.cum)
    parents = np.zeros(n_rows, dtype=np.int32)  # row 0, the marginal, is every order-1 row's parent
    # child[r * a + s]: the row of r's context extended by the older symbol s. Row n_rows and
    # every missing child are n_rows, "no such context", so a walk that misses stays missed
    child = np.full((n_rows + 1) * a, n_rows, dtype=np.int32)  # flat: 1-D gathers beat 2-D ones
    for j, table in tables.tables.items():
        rows = np.arange(table.offset, table.offset + len(table.codes), dtype=np.int32)
        if j > 1:  # seen contexts are prefix-closed, so every parent code is in the table below
            up = tables.tables[j - 1]
            parents[rows] = up.offset + np.searchsorted(up.codes, table.codes // a)
        child[parents[rows] * a + table.codes % a] = rows

    idx = seq.indices
    cur = np.zeros(n_test, dtype=np.int32)
    longest = np.zeros(n_test, dtype=np.int8)
    row_ids = np.zeros(n_test, dtype=np.int32)
    for j in range(1, k + 1):
        # symbol t-j of t = n .. total-1 extends each position's order-(j-1) context
        cur = child[cur * a + idx[n - j : total - j]]
        hit = cur != n_rows
        longest += hit  # no hit follows a miss, so the hits count the order
        np.copyto(row_ids, cur, where=hit)
    return FallbackResolution(
        order=k,
        orders=longest,
        row_ids=row_ids,
        parents=parents,
        cum_rows=tables.cum,
        prob_rows=tables.probs,
        actual_idx=idx[n:],
    )


def _model_indices(
    res: FallbackResolution, gen: np.random.Generator, mode: str, onto: np.ndarray
) -> np.ndarray:
    """Add each position's model pick, an alphabet index, onto ``onto`` in place."""
    if mode == "argmax":
        onto += res.argmax_picks.astype(onto.dtype)
        return onto
    u = gen.random(res.n_test)
    # the first index whose cum exceeds u, the last when none does
    for column in res.cum_columns:
        onto += (column <= u).view(np.uint8)
    return onto


def _baseline_indices(
    tables: ConditionalTableSet,
    n_test: int,
    gen: np.random.Generator,
    baseline: str,
) -> np.ndarray:
    a = len(tables.alphabet)
    if baseline == "marginal":
        u = gen.random(n_test)
        return np.minimum(np.searchsorted(tables.marginal.cum, u, side="right"), a - 1)
    return gen.integers(0, a, size=n_test)


def evaluate_run(
    tables: ConditionalTableSet,
    resolution: FallbackResolution,
    metric: str,
    rng: RandomStream,
    *,
    baseline: str = "uniform",
    mode: str = "sample",
) -> RunErrors:
    """Score one run over the test half that ``resolution`` resolved in ``tables``.

    Returns the model error e and the baseline error e_rand at the
    resolution's order. With metric "abs" both are mean |predicted - actual|
    over symbol values; with "signed" the mean of (predicted - actual). Model
    draws and baseline draws come from independent substreams of ``rng``, so
    the two never perturb each other.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if baseline not in BASELINES:
        raise ValueError(f"baseline must be one of {BASELINES}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")

    a, n_test = len(tables.alphabet), resolution.n_test
    alpha = np.asarray(tables.alphabet, dtype=np.int64)
    errors = (alpha[None, :] - alpha[:, None]).ravel()  # predicted - actual at actual * a + predicted
    if metric == "abs":
        errors = np.abs(errors)
    # each position's (actual, predicted) pair as actual * a + predicted, in uint8 while a * a fits.
    # Pair counts times pair errors sum to integers below 2**53, so each mean is the same float as
    # the mean of the per-position errors; `@` would page in numpy's matmul code, 0.15 MB resident
    actual = resolution.actual_idx.astype(np.uint8 if a * a <= 256 else np.int64) * a
    pairs = _model_indices(resolution, rng.substream("model").generator(), mode, actual.copy())
    e = int((np.bincount(pairs, minlength=a * a) * errors).sum()) / n_test
    pairs = actual + _baseline_indices(tables, n_test, rng.substream("baseline").generator(), baseline)
    e_rand = int((np.bincount(pairs, minlength=a * a) * errors).sum()) / n_test
    return RunErrors(order=resolution.order, e=e, e_rand=e_rand, metric=metric, n_predictions=n_test)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything the experiment depends on besides the data itself."""

    scheme: str = "five"
    k_min: int = 1
    k_max: int = 8
    runs: int = 50
    master_seed: int = 0
    metric: str = "abs"
    baseline: str = "uniform"
    mode: str = "sample"
    stats_on: str = "full"

    def validate_params(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not 1 <= self.k_min <= self.k_max <= _MAX_K:
            raise ValueError(f"need 1 <= k_min <= k_max <= {_MAX_K}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.baseline not in BASELINES:
            raise ValueError(f"baseline must be one of {BASELINES}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.stats_on not in ("full", "train"):
            raise ValueError("stats_on must be 'full' or 'train'")


@dataclass(eq=False)
class ExperimentReport:
    """Across-run averages of e_k and eRand_k plus the audit trail.

    ``sequence`` and ``tables`` are the coded series and the training-half
    tables the run used, kept for the symbol and table dumps.
    """

    instrument: str
    config: ExperimentConfig
    coding: CodingScheme
    k_values: tuple[int, ...]
    n_returns: int
    n_train: int
    n_test: int
    stats: SeriesStats
    e_mean: tuple[float, ...]
    e_std: tuple[float, ...]
    rand_mean: tuple[float, ...]
    rand_std: tuple[float, ...]
    fallback_histogram: dict[int, dict[int, int]]
    per_run: dict[int, tuple[RunErrors, ...]]
    sequence: SymbolSequence
    tables: ConditionalTableSet


def run_experiment(config: ExperimentConfig, returns: ReturnSeries) -> ExperimentReport:
    """Full protocol on one instrument: code, split, estimate, predict, average.

    Tables are estimated on the first half only; every run j and order k gets
    the substream (master seed, instrument, j, k), so reports are invariant to
    run scheduling and to which other instruments are processed alongside.
    """
    config.validate_params()
    h1, h2 = split_halves(returns)
    n = len(h1)
    stats = compute_stats(returns if config.stats_on == "full" else h1)
    scheme = make_scheme(config.scheme, stats)
    seq = encode_series(returns, stats, scheme)
    train = replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, config.k_max)

    stream = RandomStream(config.master_seed).substream(returns.instrument)
    k_values = tuple(range(config.k_min, config.k_max + 1))
    resolution = resolve_fallback(tables, seq, n, config.k_max)

    per_run: dict[int, tuple[RunErrors, ...]] = {}
    fallback_histogram: dict[int, dict[int, int]] = {}
    for k in reversed(k_values):
        # one order at a time, one climb below the last, so only that order's gathered rows are held
        resolution = resolution.truncate(k)
        fallback_histogram[k] = resolution.order_histogram()
        per_run[k] = tuple(
            evaluate_run(
                tables, resolution, config.metric, stream.substream(j, k), baseline=config.baseline, mode=config.mode
            )
            for j in range(1, config.runs + 1)
        )
    per_run, fallback_histogram = dict(sorted(per_run.items())), dict(sorted(fallback_histogram.items()))
    e_mean, e_std, r_mean, r_std = [], [], [], []
    for runs in per_run.values():
        es = np.array([r.e for r in runs])
        rs = np.array([r.e_rand for r in runs])
        e_mean.append(float(es.mean()))
        e_std.append(float(es.std()))
        r_mean.append(float(rs.mean()))
        r_std.append(float(rs.std()))

    return ExperimentReport(
        instrument=returns.instrument,
        config=config,
        coding=scheme,
        k_values=k_values,
        n_returns=len(returns),
        n_train=n,
        n_test=len(h2),
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


def report_to_json_dict(report: ExperimentReport) -> dict:
    """Stable wire form of a report; key order is fixed so dumps are byte-stable."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "instrument": report.instrument,
        "master_seed": report.config.master_seed,
        "config": {
            "scheme": report.config.scheme,
            "k_min": report.config.k_min,
            "k_max": report.config.k_max,
            "runs": report.config.runs,
            "metric": report.config.metric,
            "baseline": report.config.baseline,
            "mode": report.config.mode,
            "stats_on": report.config.stats_on,
            "master_seed": report.config.master_seed,
        },
        "series": {
            "n_returns": report.n_returns,
            "n_train": report.n_train,
            "n_test": report.n_test,
        },
        "coding": {
            "scheme": report.coding.name,
            "mean": report.stats.mean,
            "std": report.stats.std,
            "count": report.stats.count,
            "symbols": list(report.coding.symbols),
            "cut_points": list(report.coding.cut_points),
        },
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

