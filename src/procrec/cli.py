"""Command-line front end: returns | census | predict.

A command checks its options before any input loads, then runs each input on
its own: an input's outputs, report and stderr lines come before the next one
loads, and its error line names its label once. Every command takes --input
once per instrument. Exit codes: 0 on success, 1 when an experiment fails, 2
for usage or ingest errors, a bad option among them; with several inputs, the
most severe.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable

from . import __version__
from .coding import SCHEME_TABLE, SCHEMES, _slices, dump_coding_sidecar, dump_symbols_csv, encode_series, make_scheme
from .errors import IngestError, SequenceTooShort, SeriesTooShort
from .ingest import (
    ColumnSchema,
    PriceSeries,
    compute_log_returns,
    compute_stats,
    load_price_csv,
    utc_isoformat,
    write_text_atomic,
)
from .markov import census_blocks, check_order, dump_tables_json, write_census_csv
from .predict import (
    BASELINES,
    METRICS,
    MODES,
    STATS_ON,
    ExperimentConfig,
    json_label,
    report_to_json_dict,
    run_experiment,
)

EXIT_OK = 0
EXIT_EXPERIMENT = 1
EXIT_USAGE = 2

SEED_ENV_VAR = "PROCREC_SEED"


class PathError(Exception):
    """An --input that cannot be opened as a file, or an --out that cannot be created."""


USAGE_ERRORS = (PathError, IngestError, SeriesTooShort, SequenceTooShort)


def _parse_input(value: str) -> tuple[str, Path]:
    """Accept PATH or LABEL=PATH; the label defaults to the file stem."""
    if "=" in value:
        label, _, raw = value.partition("=")
        label = label.strip()
        path = Path(raw.strip())
        if not label:
            raise argparse.ArgumentTypeError(f"empty label in {value!r}")
    else:
        path = Path(value)
        label = path.stem
    return label, path


def _uint64(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {value!r}")
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return seed


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return _uint64(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"${SEED_ENV_VAR}: {exc}") from None


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input",
        type=_parse_input,
        required=True,
        action="append",
        metavar="[LABEL=]PATH",
        help="price CSV, repeatable, one per instrument",
    )
    p.add_argument("--out", type=Path, default=Path("."), metavar="DIR", help="output directory")
    p.add_argument("--timestamp-col", default="timestamp", help="timestamp column name")
    p.add_argument("--price-col", default="price", help="price column name")
    p.add_argument("--lenient", action="store_true", help="skip bad CSV rows instead of aborting")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procrec",
        description="Symbolize return series and forecast them with variable-order Markov chains.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ret = sub.add_parser("returns", help="compute log returns, stats and phase-space pairs")
    _add_io_args(p_ret)

    p_cen = sub.add_parser("census", help="count distinct symbol blocks per order")
    _add_io_args(p_cen)
    p_cen.add_argument("--scheme", choices=SCHEMES, default="five")
    p_cen.add_argument("--kmax", type=int, default=8)
    p_cen.add_argument("--dump-symbols", action="store_true", help="also write the coded sequence and coding sidecar")

    p_pred = sub.add_parser("predict", help="run the split-halves forecasting experiment")
    _add_io_args(p_pred)
    p_pred.add_argument("--scheme", choices=SCHEMES, default="five")
    # the option of a config field stores under the field's name, which _check_options reads
    p_pred.add_argument("--kmin", dest="k_min", metavar="KMIN", type=int, default=1)
    p_pred.add_argument("--kmax", dest="k_max", metavar="KMAX", type=int, default=8)
    p_pred.add_argument("--runs", type=int, default=50)
    p_pred.add_argument("--seed", dest="master_seed", metavar="SEED", type=_uint64, default=None,
                        help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    p_pred.add_argument("--metric", choices=METRICS, default="abs")
    p_pred.add_argument("--baseline", choices=BASELINES, default="uniform")
    p_pred.add_argument("--mode", choices=MODES, default="sample")
    p_pred.add_argument("--stats-on", choices=STATS_ON, default="full")
    p_pred.add_argument("--jobs", type=int, default=1,
                        help="most worker processes to use (>= 1); none are started, instruments run one at a time")
    p_pred.add_argument("--dump-symbols", action="store_true", help="also write the coded sequence and coding sidecar")
    p_pred.add_argument("--dump-tables", action="store_true", help="also write the conditional tables as JSON")
    return parser


def _load(args: argparse.Namespace, schema: ColumnSchema, label: str, path: Path) -> PriceSeries:
    try:
        return load_price_csv(path, schema, instrument=label, lenient=args.lenient)
    except OSError as exc:  # missing, a directory, unreadable: the loader's only OS errors
        raise PathError(exc) from None


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out is a file, or lies under one
        raise PathError(f"--out: {exc}") from None


def _pair_lines(values) -> str:
    """The ``r_t,r_t_plus_1`` lines of each return in ``values`` but the last, paired with the next."""
    texts = list(map(repr, values.tolist()))
    return "".join(map("{},{}\r\n".format, texts, texts[1:]))


def _returns_one(args: argparse.Namespace, schema: ColumnSchema, label: str, path: Path) -> None:
    prices = _load(args, schema, label, path)
    stamps = prices.timestamps  # a view of the stamp buffer alone: the series and its prices go after the logs
    returns = compute_log_returns(prices)
    del prices
    stats = compute_stats(returns)
    out = args.out
    _make_out_dir(out)
    # each file is written a slice of rows at a time, so its text is never held whole
    values = returns.values
    lines = (
        "".join(map("{},{}\n".format, utc_isoformat(stamps[1:][part]), map(repr, values[part].tolist())))
        for part in _slices(len(values))
    )
    write_text_atomic(out / f"{label}_returns.csv", itertools.chain(["timestamp,log_return\n"], lines))
    first, last = utc_isoformat(stamps[[0, -1]])
    write_text_atomic(
        out / f"{label}_stats.json",
        json.dumps(
            {
                "instrument": json_label(label),
                "count": stats.count,
                "mean": stats.mean,
                "std": stats.std,
                "first_timestamp": first,
                "last_timestamp": last,
            },
            indent=2,
        )
        + "\n",
    )
    # a slice's last pair reads the first return of the next slice
    pairs = (_pair_lines(values[part.start : part.stop + 1]) for part in _slices(len(values) - 1))
    write_text_atomic(out / f"{label}_phase_space.csv", itertools.chain(["r_t,r_t_plus_1\r\n"], pairs))
    print(f"{label}: {len(stamps)} prices -> {len(returns)} returns (mean {stats.mean:.6g}, std {stats.std:.6g})")


def _census_one(args: argparse.Namespace, schema: ColumnSchema, label: str, path: Path) -> None:
    returns = compute_log_returns(_load(args, schema, label, path))  # the prices go once read: nothing later needs them
    stats = compute_stats(returns)
    scheme = make_scheme(args.scheme, stats)
    seq = encode_series(returns, stats, scheme)
    census = census_blocks(seq, args.kmax)
    out = args.out
    _make_out_dir(out)
    write_census_csv(census, out / f"{label}_census.csv")
    if args.dump_symbols:
        dump_symbols_csv(seq, out / f"{label}_symbols.csv")
        dump_coding_sidecar(scheme, stats, out / f"{label}_coding.json")
    for c in census:
        print(f"{label}: k={c.order} distinct={c.distinct_count} max={c.max_possible} windows={c.total_windows}")


def _predict_one(config: ExperimentConfig, args: argparse.Namespace, schema: ColumnSchema, label: str, path: Path) -> None:
    report = run_experiment(config, compute_log_returns(_load(args, schema, label, path)))  # no name keeps the prices
    out = args.out
    _make_out_dir(out)  # only now, so a predict that fails on every input leaves no --out behind
    doc = report_to_json_dict(report)
    write_text_atomic(out / f"{label}_report.json", json.dumps(doc, indent=2) + "\n")
    plot_lines = ["k,e_k,eRand_k", *(f"{r['k']},{r['e_mean']!r},{r['e_rand_mean']!r}" for r in doc["results"])]
    write_text_atomic(out / f"{label}_plot.csv", "\n".join(plot_lines) + "\n")

    if args.dump_symbols:
        dump_symbols_csv(report.sequence, out / f"{label}_symbols.csv")
        dump_coding_sidecar(report.coding, report.stats, out / f"{label}_coding.json")
    if args.dump_tables:
        dump_tables_json(report.tables, out / f"{label}_tables.json")
    print(f"instrument={label} scheme={config.scheme} runs={config.runs} "
          f"seed={config.master_seed} metric={config.metric}")
    print("  k    e_k               eRand_k")
    for r in doc["results"]:
        print(f"  {r['k']:<4d} {r['e_mean']:.4f} +/- {r['e_std']:.4f}  "
              f"{r['e_rand_mean']:.4f} +/- {r['e_rand_std']:.4f}")


def _check_options(args: argparse.Namespace) -> Callable[[str, Path], None]:
    """Check the command's options, before any input loads; return the command's work on one input.

    Raises ValueError naming the first bad option.
    """
    labels = [label for label, _ in args.input]
    for label in labels:  # so outputs stay inside --out and never overwrite each other
        if label in ("", ".", "..") or Path(label).name != label:
            raise ValueError(f"label {label!r} is not a plain file name")
        if labels.count(label) > 1:
            raise ValueError(f"label {label!r} is given to more than one input")
    schema = ColumnSchema(timestamp=args.timestamp_col, price=args.price_col)
    if args.command == "returns":
        return functools.partial(_returns_one, args, schema)
    if args.command == "census":
        check_order(len(SCHEME_TABLE[args.scheme][0]), args.kmax)
        return functools.partial(_census_one, args, schema)
    values = {field.name: getattr(args, field.name) for field in dataclasses.fields(ExperimentConfig)}
    if values["master_seed"] is None:
        values["master_seed"] = _default_seed()
    config = ExperimentConfig(**values)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    return functools.partial(_predict_one, config, args, schema)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        run_one = _check_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    status, printed = EXIT_OK, set()
    for label, path in args.input:
        try:
            run_one(label, path)  # returns nothing, so no report outlives its input
        except Exception as exc:  # noqa: BLE001 - per-input isolation
            message = str(exc)
            if not message.startswith((f"{label}: ", "--out: ")):  # these already name what failed
                message = f"{label}: {message}"
            if message not in printed:  # an --out that cannot be made fails every input alike
                print(f"error: {message}", file=sys.stderr)
                printed.add(message)
            if isinstance(exc, USAGE_ERRORS):
                status = EXIT_USAGE
            elif status == EXIT_OK:
                status = EXIT_EXPERIMENT
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
