"""The benchmark's span tracer still finds and counts what it wraps.

``procbench/tracing.py`` wraps procrec functions by module attribute name and
reads counters off their return values. A rename or a changed return type
would otherwise surface only as a benchmark error, so this test loads the
tracer by path and runs it around a small ``predict``.
"""

from __future__ import annotations

import importlib
import importlib.util
import time
from pathlib import Path

import numpy as np

import synth
from conftest import mk_seq

from procrec import build_conditional_tables
from procrec.cli import main

TRACING = Path(__file__).resolve().parents[1] / "procbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("procbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# cli builds no tables of its own any more; the tracer skips call sites it cannot find
UNBOUND = {("procrec.cli", "build_conditional_tables")}


def test_tracer_wraps_and_counts_predict(tmp_path, capsys):
    tracing = _load_tracing()
    for module_name, attr, _, _ in tracing.WRAPPED:
        bound = callable(getattr(importlib.import_module(module_name), attr, None))
        assert bound != ((module_name, attr) in UNBOUND), (module_name, attr)

    csv = synth.write_price_csv(tmp_path / "demo.csv", synth.crypto_like_prices(401, seed=5))
    argv = ["predict", "--input", str(csv), "--out", str(tmp_path / "out"), "--runs", "3", "--kmax", "4", "--dump-tables"]
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = main(argv)
    finally:
        end = time.perf_counter()
        tracer.uninstall()
    assert code == 0
    capsys.readouterr()

    # every layer the tracer names shows up as a span
    assert {span[2] for span in tracer.spans} == {name for _, _, name, _ in tracing.WRAPPED}
    metrics, wall_s, self_sum = tracing.layer_metrics(
        {"spans": [(0, -1, tracing.ROOT, start, end, 0)] + tracer.spans, "build_peak_mb": 0.0}
    )
    n_test = 200  # 401 prices, 400 returns, split in halves
    assert metrics["predict.resolve_fallback.calls"] == 1
    assert metrics["predict.positions_resolved"] == n_test
    assert metrics["predict.evaluate_run.calls"] == 3 * 4
    assert metrics["predict.predictions"] == 3 * 4 * n_test
    assert abs(self_sum - wall_s) < 1e-6



def test_context_rows_counter_counts_the_stacked_rows_past_the_marginal():
    # markov.context_rows sums this counter over the builds: one per seen context, the marginal not counted
    tracing = _load_tracing()
    counters = [counter for _, attr, _, counter in tracing.WRAPPED if attr == "build_conditional_tables"]
    assert counters
    symbols = np.random.default_rng(3).integers(-2, 3, 500).tolist()
    tables = build_conditional_tables(mk_seq(symbols, (-2, -1, 0, 1, 2)), 6)
    for counter in counters:
        assert counter(tables) == len(tables.counts) - 1
