"""Acceptance gate: each criterion runs at its stated tolerance and prints one
PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -v -s``).

Criterion 5 wants market-scale real hourly data (>= 6000 observations). The
repository ships no exchange dumps, so by default it runs on the seeded
GARCH-with-fat-tails synthetic series from tests/synth.py; point
PROCREC_ACCEPT_CSV at a real hourly price CSV to run it on market data.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import procrec.predict as predict_mod
from procrec import (
    SeriesStats,
    build_conditional_tables,
    census_blocks,
    compute_log_returns,
    compute_stats,
    encode_series,
    evaluate_run,
    load_price_csv,
    make_scheme,
    resolve_fallback,
    run_experiment,
)
from procrec.cli import main
from procrec.predict import ExperimentConfig

from conftest import mk_returns, mk_seq
from oracles import (
    ALPHABET3,
    ALPHABET5,
    brute_force_tables,
    coarsen_five_to_three,
    context_rows,
    expected_sampled_abs_error_order2,
    five_band_matches,
    generate_order2_symbols,
    make_order2_chain,
    reference_run_generators,
    table_cum,
    three_band_matches,
)
import synth


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {title}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {title}: PASS")


def random_corpus(n_sequences: int, seed: int):
    rng = np.random.default_rng(seed)
    for i in range(n_sequences):
        alphabet = ALPHABET3 if i % 2 == 0 else ALPHABET5
        length = int(rng.integers(8, 201))
        symbols = [int(alphabet[j]) for j in rng.integers(0, len(alphabet), length)]
        yield symbols, alphabet


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence (counts)"):
        start = time.perf_counter()
        for symbols, alphabet in random_corpus(500, seed=20240101):
            tables = build_conditional_tables(mk_seq(symbols, alphabet), 4)
            expected, marginal = brute_force_tables(symbols, 4, alphabet)
            for k in range(1, 5):
                got = context_rows(tables, k)
                assert set(got) == set(expected[k])
                for ctx, (counts, probs) in expected[k].items():
                    got_counts, got_cum = got[ctx]
                    assert got_counts.tolist() == counts
                    for c_got, c_want in zip(got_cum, np.cumsum([float(p) for p in probs])):
                        assert abs(c_got - c_want) <= 1e-12
            assert tables.counts[0].tolist() == marginal
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"


def test_criterion_2_row_stochasticity_and_conservation(market_scale_csv):
    with criterion(2, "row-stochasticity & count conservation"):
        table_sets = []
        for symbols, alphabet in random_corpus(200, seed=20240202):
            table_sets.append((len(symbols), build_conditional_tables(mk_seq(symbols, alphabet), 4)))

        returns = compute_log_returns(load_price_csv(market_scale_csv))
        stats = compute_stats(returns)
        seq = encode_series(returns, stats, make_scheme("five", stats))
        n = len(returns) // 2
        train = dataclasses.replace(seq, indices=seq.indices[:n])
        table_sets.append((n, build_conditional_tables(train, 8)))

        for n_train, tables in table_sets:
            for k in tables.tables:
                total = 0
                for counts, cum in context_rows(tables, k).values():
                    assert (np.diff(cum) >= 0).all() and abs(cum[-1] - 1.0) <= 1e-9
                    total += int(counts.sum())
                assert total == n_train - k
            marginal = table_cum(tables, 0)
            assert (np.diff(marginal) >= 0).all() and abs(marginal[-1] - 1.0) <= 1e-9


def test_criterion_3_coding_property():
    with criterion(3, "coding totality & coarsening"):
        rng = np.random.default_rng(20240303)
        stds = rng.lognormal(mean=-4.0, sigma=1.5, size=100_000)
        values = rng.normal(0.0, 3.0, size=100_000) * stds
        # inject the exact boundary values the band chains pivot on
        for i in range(0, 100_000, 1000):
            s = stds[i]
            values[i] = s
            values[i + 1] = -s
            values[i + 2] = s / 3
            values[i + 3] = -s / 3
            values[i + 4] = 0.0

        for v, s in zip(values.tolist(), stds.tolist()):
            st = SeriesStats(mean=0.0, std=s, count=10)
            m5 = five_band_matches(v, s)
            m3 = three_band_matches(v, s)
            five, three = make_scheme("five", st), make_scheme("three", st)
            assert len(m5) == 1 and m5[0] == five.symbols[five.band_indices(v)]
            assert len(m3) == 1 and m3[0] == three.symbols[three.band_indices(v)]

        for i in range(100):
            returns = mk_returns(rng.standard_t(4, 120) * 0.01)
            stats = compute_stats(returns)
            five = encode_series(returns, stats, make_scheme("five", stats))
            three = encode_series(returns, stats, make_scheme("three", stats))
            expected = [coarsen_five_to_three(sym) for sym in five.symbols.tolist()]
            assert three.symbols.tolist() == expected


def test_criterion_4_synthetic_recovery():
    with criterion(4, "synthetic order-2 chain recovery"):
        start = time.perf_counter()
        chain = make_order2_chain()
        symbols = generate_order2_symbols(chain, 100_000, seed=15)
        seq = mk_seq(symbols, ALPHABET3)

        # estimated conditionals from the generated data vs the generator
        rows = context_rows(build_conditional_tables(seq, 2), 2)
        for (recent_i, older_i), probs in chain.items():
            counts, _ = rows[(ALPHABET3[recent_i], ALPHABET3[older_i])]
            for j in range(3):
                assert abs(counts[j] / counts.sum() - probs[j]) <= 0.01

        # split protocol: past half predicts the future half
        n = len(symbols) // 2
        train = dataclasses.replace(seq, indices=seq.indices[:n])
        tables = build_conditional_tables(train, 2)
        res = {k: resolve_fallback(tables, seq, k) for k in (1, 2)}
        runs = {
            k: [
                evaluate_run(res[k], ExperimentConfig(metric="abs"), *reference_run_generators(20240002, "chain", j, k))
                for j in range(1, 51)
            ]
            for k in (1, 2)
        }
        e1 = float(np.mean([r.e for r in runs[1]]))
        e2 = float(np.mean([r.e for r in runs[2]]))
        oracle_e2 = expected_sampled_abs_error_order2(chain)
        assert abs(e2 - oracle_e2) <= 0.02

        diffs = np.array([r.e_rand - r.e for r in runs[2]])
        assert e2 <= e1
        assert diffs.mean() > 3.0 * diffs.std()

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"synthetic recovery took {elapsed:.2f}s"


def _acceptance_series(market_scale_csv):
    override = os.environ.get("PROCREC_ACCEPT_CSV")
    path = Path(override) if override else market_scale_csv
    returns = compute_log_returns(load_price_csv(path))
    assert len(returns) >= 6000, f"need >= 6000 observations, got {len(returns)}"
    return returns


def test_criterion_5_model_beats_random(market_scale_csv):
    with criterion(5, "empirical probabilities beat random choice"):
        returns = _acceptance_series(market_scale_csv)
        cfg = ExperimentConfig(runs=50, k_min=1, k_max=4, scheme="five", master_seed=20240005)
        report = run_experiment(cfg, returns)
        for i, k in enumerate(report.k_values):
            assert report.e_mean[i] < report.rand_mean[i], (
                f"k={k}: e={report.e_mean[i]:.4f} not below eRand={report.rand_mean[i]:.4f}"
            )

        # census saturation sets in around k=4: near-complete block coverage
        # below it, a collapsing fraction of the 5^k ceiling above it
        stats = compute_stats(returns)
        seq = encode_series(returns, stats, make_scheme("five", stats))
        ratios = {
            c.order: c.distinct_count / c.max_possible for c in census_blocks(seq, 8)
        }
        for k in (1, 2, 3):
            assert ratios[k] >= 0.8
        assert ratios[6] <= 0.5
        assert ratios[8] <= 0.05
        for k in (5, 6, 7, 8):
            assert ratios[k] < ratios[k - 1]


def test_criterion_6_byte_identical_reports(tmp_path):
    with criterion(6, "determinism under repeated execution and any --jobs"):
        paths = [
            synth.write_price_csv(tmp_path / f"i{j}.csv", synth.crypto_like_prices(401, seed=60 + j))
            for j in range(2)
        ]
        argv = ["predict", "--runs", "5", "--kmax", "4", "--seed", "99", "--dump-tables"]
        for p in paths:
            argv += ["--input", str(p)]
        # two runs at --jobs 2, then one at --jobs 1: neither a repeat nor the option may change a byte
        outs = {name: tmp_path / name for name in ("a", "b", "serial")}
        for name, out in outs.items():
            jobs = "1" if name == "serial" else "2"
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        for j in range(2):
            for suffix in ("report.json", "plot.csv", "tables.json"):
                a, b, serial = ((out / f"i{j}_{suffix}").read_bytes() for out in outs.values())
                assert a == b == serial, f"i{j}_{suffix}"


def test_criterion_7_train_test_hygiene(monkeypatch):
    with criterion(7, "table construction never reads the test half"):
        captured = []
        real_build = predict_mod.build_conditional_tables

        def spy(train, k_max):
            tables = real_build(train, k_max)
            captured.append((train.symbols.copy(), tables))
            return tables

        monkeypatch.setattr(predict_mod, "build_conditional_tables", spy)
        rng = np.random.default_rng(71)
        returns = mk_returns(rng.standard_t(4, 1000) * 0.01, instrument="hyg")
        cfg = ExperimentConfig(runs=1, k_min=1, k_max=4, master_seed=2, stats_on="train")
        run_experiment(cfg, returns)

        # the builder received exactly the first-half symbols, nothing past the split
        n = len(returns) // 2
        h1 = mk_returns(returns.values[:n], instrument="hyg")
        stats = compute_stats(h1)
        seq = encode_series(returns, stats, make_scheme("five", stats))
        symbols_seen, tables_clean = captured[0]
        assert len(symbols_seen) == n
        np.testing.assert_array_equal(symbols_seen, seq.symbols[:n])

        # corrupting the test half must leave the constructed tables untouched
        mutated_values = returns.values.copy()
        mutated_values[n:] = mutated_values[n:][::-1] * 5.0 + 0.07
        run_experiment(cfg, mk_returns(mutated_values, instrument="hyg"))
        _, tables_mutated = captured[1]
        for k in tables_clean.tables:
            rows_a = context_rows(tables_clean, k)
            rows_b = context_rows(tables_mutated, k)
            assert set(rows_a) == set(rows_b)
            for ctx, (counts, _) in rows_a.items():
                np.testing.assert_array_equal(counts, rows_b[ctx][0])


def test_criterion_8_market_scale_runtime(tmp_path, market_scale_csv_trio):
    with criterion(8, "full market-scale experiment under two minutes"):
        out = tmp_path / "out"
        argv = ["predict", "--runs", "50", "--kmax", "8", "--seed", "1", "--out", str(out)]
        for p in market_scale_csv_trio:
            argv += ["--input", str(p)]
        start = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"market-scale experiment took {elapsed:.1f}s"
        for p in market_scale_csv_trio:
            report = json.loads((out / f"{p.stem}_report.json").read_text())
            assert len(report["results"]) == 8
            assert report["series"]["n_returns"] == 6306
