"""Back-off next-symbol prediction and the split-halves forecasting experiment.

Prediction at order k looks up the k most recent symbols in the order-k table
and samples the next symbol from that row's empirical distribution. When the
context was never seen in training the context is shortened one symbol at a
time (dropping the oldest) until a seen context supplies a row; if nothing
matches down to order 1 the training marginal is used (fallback order 0), so
every prediction is well defined.

A context seen at order j in training is also seen at every shorter order, so
each test position t has one longest match L_t and order k answers at
min(L_t, k). One ``resolve_fallback`` at the largest order keeps L_t and every
order's row ids, and ``FallbackResolution.truncate(k)`` derives order k.

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
from .markov import ConditionalTableSet, _context_codes, build_conditional_tables

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
    row_ids_by_order: np.ndarray  # int32 (order + 1, n_test); row j: the row ids at order j
    cum_rows: np.ndarray  # the table set's stacked rows, (n_rows, |alphabet|)
    prob_rows: np.ndarray
    actual_idx: np.ndarray  # alphabet index of the realized symbol

    @property
    def n_test(self) -> int:
        return len(self.orders)

    @property
    def row_ids(self) -> np.ndarray:
        """Per test position, the index into cum_rows/prob_rows of its row."""
        return self.row_ids_by_order[self.order]

    @cached_property
    def cum_columns(self) -> np.ndarray:
        """(|alphabet| - 1, n_test) cum of every position's row, last column dropped."""
        return np.take(self.cum_rows[:, :-1].T, self.row_ids, axis=1)

    def truncate(self, k: int) -> "FallbackResolution":
        """The resolution at order k <= order, derived without another search."""
        if not 1 <= k <= self.order:
            raise ValueError(f"order {k} outside resolved range 1..{self.order}")
        return replace(
            self, order=k, orders=np.minimum(self.orders, k), row_ids_by_order=self.row_ids_by_order[: k + 1]
        )

    def order_histogram(self) -> dict[int, int]:
        counts = np.bincount(self.orders, minlength=self.order + 1)
        return {j: int(counts[j]) for j in range(self.order + 1)}


def resolve_fallback(
    tables: ConditionalTableSet, seq: SymbolSequence, n: int, k: int
) -> FallbackResolution:
    """Resolve the back-off chain for every test position t = n .. len(seq)-1.

    Contexts are the k symbols immediately preceding t and may reach back
    across the split boundary into the training half for the first positions.
    Each order j <= k is searched once; ``truncate`` serves the lower orders.
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

    idx = seq.indices
    longest = np.zeros(n_test, dtype=np.int8)
    row_ids = np.zeros((k + 1, n_test), dtype=np.int32)  # row 0: the marginal
    # the contexts of t = n .. total-1 lie in idx[n - k : total - 1]
    for j, codes in enumerate(_context_codes(idx[n - k : -1], len(tables.alphabet), k), start=1):
        codes = codes[k - j :]
        table = tables.tables[j]
        pos = np.searchsorted(table.codes, codes)
        hit = table.codes[np.minimum(pos, len(table.codes) - 1)] == codes
        longest[hit] = j
        row_ids[j] = np.where(hit, table.offset + pos, row_ids[j - 1])
    return FallbackResolution(
        order=k,
        orders=longest,
        row_ids_by_order=row_ids,
        cum_rows=tables.cum,
        prob_rows=tables.probs,
        actual_idx=idx[n:],
    )


def _model_indices(
    res: FallbackResolution, gen: np.random.Generator, mode: str
) -> np.ndarray:
    if mode == "argmax":
        return np.argmax(res.prob_rows[res.row_ids], axis=1)
    u = gen.random(res.n_test)
    # the first index whose cum exceeds u, the last when none does
    picked = np.zeros(res.n_test, dtype=np.intp)
    for column in res.cum_columns:
        picked += column <= u
    return picked


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

    alpha_arr = np.asarray(tables.alphabet, dtype=np.int64)
    pred_idx = _model_indices(resolution, rng.substream("model").generator(), mode)
    base_idx = _baseline_indices(
        tables, resolution.n_test, rng.substream("baseline").generator(), baseline
    )
    pred_err = alpha_arr[pred_idx] - alpha_arr[resolution.actual_idx]
    base_err = alpha_arr[base_idx] - alpha_arr[resolution.actual_idx]
    if metric == "abs":
        np.abs(pred_err, out=pred_err)
        np.abs(base_err, out=base_err)
    e, e_rand = float(pred_err.mean()), float(base_err.mean())
    return RunErrors(
        order=resolution.order, e=e, e_rand=e_rand, metric=metric, n_predictions=resolution.n_test
    )


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
    longest = resolve_fallback(tables, seq, n, config.k_max)

    per_run: dict[int, tuple[RunErrors, ...]] = {}
    fallback_histogram: dict[int, dict[int, int]] = {}
    e_mean, e_std, r_mean, r_std = [], [], [], []
    for k in k_values:
        # one order at a time, so only that order's gathered rows are held
        resolution = longest.truncate(k)
        fallback_histogram[k] = resolution.order_histogram()
        runs = per_run[k] = tuple(
            evaluate_run(
                tables, resolution, config.metric, stream.substream(j, k), baseline=config.baseline, mode=config.mode
            )
            for j in range(1, config.runs + 1)
        )
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

