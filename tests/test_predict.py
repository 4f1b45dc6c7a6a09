from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import procrec.predict as predict_mod
from procrec import (
    SplitTooSmall,
    build_conditional_tables,
    evaluate_run,
    resolve_fallback,
    run_experiment,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from procrec.predict import ExperimentConfig, RandomStream, report_to_json_dict

from conftest import mk_returns, mk_seq
from oracles import (
    ALPHABET3,
    ALPHABET5,
    brute_force_back_off,
    sample_index,
    scalar_evaluate_run,
    sequential_cum,
)


def split_tables(symbols, alphabet, n, k_max):
    """(sequence, tables of its first n symbols) for a split at n."""
    seq = mk_seq(symbols, alphabet)
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    return seq, build_conditional_tables(train, k_max)


# --- RandomStream ------------------------------------------------------------


def test_stream_repeatable():
    a = RandomStream(7).substream("x", 3).generator().random(5)
    b = RandomStream(7).substream("x", 3).generator().random(5)
    np.testing.assert_array_equal(a, b)


def test_stream_substreams_differ():
    root = RandomStream(7)
    a = root.substream(1, 2).generator().random(4)
    b = root.substream(2, 1).generator().random(4)
    c = root.generator().random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_cross_platform_pin():
    # frozen draws document the fixed-generator contract: same seed, same
    # sequence, everywhere
    g = RandomStream(12345).substream("model").generator()
    np.testing.assert_allclose(
        g.random(3),
        [0.2579337492286621, 0.24496871883348414, 7.006638758488837e-05],
        rtol=0,
        atol=0,
    )
    g2 = RandomStream(12345).substream("model").generator()
    assert g2.integers(0, 5, 6).tolist() == [2, 1, 4, 1, 4, 0]


def test_stream_rejects_bad_seeds_and_tags():
    with pytest.raises(ValueError):
        RandomStream(-1)
    with pytest.raises(ValueError):
        RandomStream(2**64)
    with pytest.raises(ValueError):
        RandomStream(3).substream(-2)


# --- next-symbol prediction and the baseline draws -------------------------


def test_predict_next_deterministic_row():
    # in 1, 0, 1, 1, 0, 1, ... every order-2 context has one successor
    seq, tables = split_tables([1, 0, 1] * 40, ALPHABET3, 60, 2)
    res = resolve_fallback(tables, seq, 60, 2)
    assert res.orders.tolist() == [2] * 60
    for seed in (0, 1, 99):
        # every draw is the realized symbol
        assert evaluate_run(tables, res, "abs", RandomStream(seed)).e == 0.0
    assert tables.tables[2].rows[(0, 1)].probs.tolist() == [0.0, 0.0, 1.0]


def test_predict_next_falls_back_one_order():
    # (1, 1) never occurs in train, its suffix (1,) does
    train = [0, 0, 1, 0, 0, 1, 0, 0]
    seq, tables = split_tables(train + [1, 1, 0], ALPHABET3, len(train), 2)
    res = resolve_fallback(tables, seq, len(train), 2)
    assert seq.symbols[-3:-1].tolist() == [1, 1]  # the last position's context
    assert res.orders[-1] == 1
    gen = RandomStream(5).substream("model").generator()
    predicted = predict_mod._model_indices(res, gen, "sample")
    assert ALPHABET3[predicted[-1]] == 0  # every 1 in train is followed by 0


def test_predict_next_marginal_fallback():
    train = [-1, 0, 1, -1, 0, 1]  # symbol 2 absent from train
    seq, tables = split_tables(train + [2, 2, 0], ALPHABET5, len(train), 2)
    res = resolve_fallback(tables, seq, len(train), 2)
    assert res.orders.tolist()[-2:] == [0, 0]  # contexts (2, 1) and (2, 2)
    np.testing.assert_array_equal(res.cum_rows[res.row_ids[-1]], tables.marginal.cum)


def test_predict_next_sampling_frequencies():
    # in train, context (0,) is followed by 0 twice, 1 three times, 2 five times
    train = [0, 0, 0] + [1, 0] * 3 + [2, 0] * 5
    seq, tables = split_tables(train + [0] * 100_000, (0, 1, 2), len(train), 1)
    assert tables.tables[1].rows[(0,)].counts.tolist() == [2, 3, 5]
    stream = RandomStream(314).substream("lln")
    res = resolve_fallback(tables, seq, len(train), 1)
    draws = predict_mod._model_indices(res, stream.substream("model").generator(), "sample")
    for symbol, want in ((0, 0.2), (1, 0.3), (2, 0.5)):
        assert abs(np.mean(draws == symbol) - want) < 0.01


def test_baseline_uniform_frequencies():
    # the uniform baseline evaluate_run scores, against a constant 0 test half
    seq, tables = split_tables([0] * 100_100, ALPHABET5, 100, 1)
    stream = RandomStream(2718).substream("base")
    result = evaluate_run(tables, resolve_fallback(tables, seq, 100, 1), "signed", stream)
    draws = stream.substream("baseline").generator().integers(0, 5, size=100_000)
    drawn = np.asarray(ALPHABET5)[draws]
    assert result.e_rand == float(drawn.mean())
    for symbol in ALPHABET5:
        assert abs(np.mean(drawn == symbol) - 0.2) < 0.01


def test_baseline_single_symbol_and_determinism():
    seq, tables = split_tables([4] * 20, (4,), 10, 1)
    res = resolve_fallback(tables, seq, 10, 1)
    assert evaluate_run(tables, res, "abs", RandomStream(1)).e_rand == 0.0
    seq, tables = split_tables([-1, 0, 1, 1, 0] * 8, ALPHABET3, 20, 1)
    res = resolve_fallback(tables, seq, 20, 1)
    a = [evaluate_run(tables, res, "abs", RandomStream(9).substream(i)).e_rand for i in range(20)]
    b = [evaluate_run(tables, res, "abs", RandomStream(9).substream(i)).e_rand for i in range(20)]
    assert a == b
    assert len(set(a)) > 1


# --- evaluate_run -------------------------------------------------------------


def test_evaluate_constant_sequence():
    seq = mk_seq([0] * 4000, ALPHABET5)
    n = 2000
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 3)
    res = resolve_fallback(tables, seq, n, 3)
    result = evaluate_run(tables, res, "abs", RandomStream(0).substream(1, 3))
    assert result.e == 0.0  # the only rows are certain about 0
    # uniform baseline against a constant 0: E|u| = (2+1+0+1+2)/5 = 1.2
    assert result.e_rand == pytest.approx(1.2, abs=0.1)
    assert result.n_predictions == 2000


def test_evaluate_alternating_sequence():
    seq = mk_seq([1, -1] * 300, ALPHABET3)
    n = 300
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 3)
    for k in (1, 2, 3):
        res = resolve_fallback(tables, seq, n, k)
        result = evaluate_run(tables, res, "abs", RandomStream(3).substream(1, k))
        assert result.e == 0.0


def test_evaluate_signed_metric():
    seq = mk_seq([0] * 1000, ALPHABET5)
    n = 500
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 1)
    res = resolve_fallback(tables, seq, n, 1)
    result = evaluate_run(tables, res, "signed", RandomStream(4).substream(1, 1))
    assert result.e == 0.0
    assert abs(result.e_rand) < 0.3  # uniform draws vs 0: signed mean near zero
    assert result.metric == "signed"


def test_evaluate_marginal_baseline_constant():
    seq = mk_seq([0] * 400, ALPHABET5)
    n = 200
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 1)
    res = resolve_fallback(tables, seq, n, 1)
    result = evaluate_run(tables, res, "abs", RandomStream(4).substream(1, 1), baseline="marginal")
    assert result.e_rand == 0.0  # the marginal has all its mass on 0


def test_evaluate_argmax_mode_deterministic():
    rng = np.random.default_rng(31)
    symbols = [int(ALPHABET3[i]) for i in rng.integers(0, 3, 800)]
    seq = mk_seq(symbols, ALPHABET3)
    n = 400
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 2)
    res = resolve_fallback(tables, seq, n, 2)
    a = evaluate_run(tables, res, "abs", RandomStream(1).substream(1, 2), mode="argmax")
    b = evaluate_run(tables, res, "abs", RandomStream(999).substream(7, 2), mode="argmax")
    assert a.e == b.e  # model side ignores the stream entirely under argmax


def test_evaluate_split_too_small():
    seq = mk_seq([0, 1, 0, 1], ALPHABET3)
    tables = build_conditional_tables(dataclasses.replace(seq, indices=seq.indices[:4]), 1)
    with pytest.raises(SplitTooSmall):
        resolve_fallback(tables, seq, 4, 1)


def test_resolve_fallback_rejects_another_alphabet():
    _, tables = split_tables([-1, 0, 1, 0, -1, 1], ALPHABET3, 4, 1)
    # index 4 of the five-symbol sequence has no meaning over three symbols
    with pytest.raises(ValueError, match="alphabet"):
        resolve_fallback(tables, mk_seq([-2, 0, 2, 0, -2, 2], ALPHABET5), 4, 1)


def test_contexts_span_the_split_boundary():
    symbols = [1, 0, 1, 0, 1, 0]
    seq, tables = split_tables(symbols, ALPHABET3, 4, 3)
    res = resolve_fallback(tables, seq, 4, 3)
    # the first test position, t = 4, has context (0, 1, 0): it reaches two
    # symbols back into the training half, where only (0, 1) was seen
    assert res.n_test == 2
    expected = brute_force_back_off(symbols, 4, 3, 3, ALPHABET3)
    assert res.orders.tolist() == [order for order, _ in expected]
    assert res.orders[0] == 2
    np.testing.assert_array_equal(res.cum_rows[res.row_ids[0]], tables.tables[2].rows[(0, 1)].cum)


def test_vectorized_path_matches_sequential_predict_next():
    # one uniform per position, in order: the batched experiment path must
    # reproduce a scalar back-off and draw, position by position
    rng = np.random.default_rng(3)
    symbols = [int(ALPHABET5[i]) for i in rng.integers(0, 5, 400)]
    seq, tables = split_tables(symbols, ALPHABET5, 200, 3)
    stream = RandomStream(5).substream(1, 3)
    res = resolve_fallback(tables, seq, 200, 3)
    predicted = predict_mod._model_indices(res, stream.substream("model").generator(), "sample")
    gen = stream.substream("model").generator()
    expected = brute_force_back_off(symbols, 200, 3, 3, ALPHABET5)
    for i, (order, counts) in enumerate(expected):
        assert sample_index(sequential_cum(counts), float(gen.random())) == predicted[i]
        assert order == res.orders[i]
    assert len(expected) == len(predicted) == res.n_test == 200


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_resolve_fallback_matches_scalar_back_off(data):
    alphabet = data.draw(st.sampled_from((ALPHABET3, ALPHABET5)))
    symbols = data.draw(st.lists(st.sampled_from(alphabet), min_size=6, max_size=300))
    k = data.draw(st.integers(1, min(5, len(symbols) - 2)))
    n = data.draw(st.integers(k + 1, len(symbols) - 1))
    k_max = data.draw(st.integers(k, min(5, n - 1)))
    seq, tables = split_tables(symbols, alphabet, n, k_max)
    res = resolve_fallback(tables, seq, n, k)
    expected = brute_force_back_off(symbols, n, k, k_max, alphabet)
    assert res.orders.tolist() == [order for order, _ in expected]
    for i, (_, counts) in enumerate(expected):
        assert res.cum_rows[res.row_ids[i]].tolist() == sequential_cum(counts)
        assert res.prob_rows[res.row_ids[i]].tolist() == [c / sum(counts) for c in counts]
    # seen contexts are prefix-closed, so the order at k is the longest match capped at k
    longest = resolve_fallback(tables, seq, n, k_max).orders
    np.testing.assert_array_equal(res.orders, np.minimum(longest, k))


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_truncate_matches_direct_resolution(data):
    alphabet = data.draw(st.sampled_from((ALPHABET3, ALPHABET5)))
    symbols = data.draw(st.lists(st.sampled_from(alphabet), min_size=3, max_size=300))
    n = data.draw(st.integers(2, len(symbols) - 1))
    k_max = data.draw(st.integers(1, min(5, n - 1)))
    seq, tables = split_tables(symbols, alphabet, n, k_max)
    full = resolve_fallback(tables, seq, n, k_max)
    assert full.orders.dtype == np.int8 and full.row_ids_by_order.dtype == np.int32
    assert full.row_ids_by_order.shape == (k_max + 1, len(symbols) - n)
    for k in range(1, k_max + 1):
        derived, direct = full.truncate(k), resolve_fallback(tables, seq, n, k)
        assert derived.order == direct.order == k
        np.testing.assert_array_equal(derived.orders, direct.orders)
        np.testing.assert_array_equal(derived.row_ids, direct.row_ids)
        np.testing.assert_array_equal(derived.row_ids_by_order, direct.row_ids_by_order)
        np.testing.assert_array_equal(derived.cum_columns, direct.cum_rows[direct.row_ids, :-1].T)
        expected = brute_force_back_off(symbols, n, k, k_max, alphabet)
        assert derived.orders.tolist() == [order for order, _ in expected]
        for i, (_, counts) in enumerate(expected):
            assert derived.cum_rows[derived.row_ids[i]].tolist() == sequential_cum(counts)
    with pytest.raises(ValueError):
        full.truncate(k_max + 1)
    with pytest.raises(ValueError):
        full.truncate(0)


class _FixedDraws:
    """Stands in for a generator whose next uniforms are known."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == len(self.u)
        return self.u


def _sampled(cum_rows, row_ids, u):
    """_model_indices over hand-made rows and uniforms, next to sample_index on each."""
    n_test = len(row_ids)
    res = predict_mod.FallbackResolution(
        order=1,
        orders=np.ones(n_test, dtype=np.int8),
        row_ids_by_order=np.array([np.zeros(n_test), row_ids], dtype=np.int32),
        cum_rows=cum_rows,
        prob_rows=cum_rows,
        actual_idx=np.zeros(n_test, dtype=np.intp),
    )
    got = predict_mod._model_indices(res, _FixedDraws(u), "sample").tolist()
    return got, [sample_index(cum_rows[r].tolist(), x) for r, x in zip(row_ids, u)]


def test_model_indices_sampling_edges():
    short = np.nextafter(1.0, 0.0)
    cum_rows = np.array([
        [0.0, 0.5, 0.5, 1.0, 1.0],  # counts 0, 2, 0, 2, 0: zero-count columns repeat cum
        [0.2, 0.4, 0.6, 0.8, 0.9],  # a last entry below 1.0
    ])
    row_ids = [0, 0, 0, 0, 0, 1, 1, 1, 1]
    u = [0.0, 0.25, 0.5, np.nextafter(0.5, 0.0), short, 0.2, 0.8, 0.9, 0.95]
    got, want = _sampled(cum_rows, row_ids, u)
    assert got == want == [1, 1, 3, 1, 3, 1, 4, 4, 4]


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_model_indices_matches_sample_index(data):
    a = data.draw(st.sampled_from((len(ALPHABET3), len(ALPHABET5))))
    counts = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=a, max_size=a).filter(any), min_size=1, max_size=6
    )))
    # the package's own cum, which may end a rounding step below 1.0
    cum_rows = np.cumsum(counts / counts.sum(axis=1, keepdims=True), axis=1)
    row_ids = data.draw(st.lists(st.integers(0, len(cum_rows) - 1), min_size=1, max_size=40))
    u = [
        data.draw(st.one_of(
            st.sampled_from(cum_rows[r].tolist()),  # u equal to a cum entry
            st.just(float(np.nextafter(cum_rows[r, -1], 1.0))),  # above the last entry when it is short
            st.floats(0.0, 1.0, exclude_max=True),
        ))
        for r in row_ids
    ]
    got, want = _sampled(cum_rows, row_ids, u)
    assert got == want


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_evaluate_run_matches_scalar_scorer(data):
    alphabet = data.draw(st.sampled_from((ALPHABET3, ALPHABET5)))
    symbols = data.draw(st.lists(st.sampled_from(alphabet), min_size=6, max_size=300))
    k = data.draw(st.integers(1, min(5, len(symbols) - 2)))
    n = data.draw(st.integers(k + 1, len(symbols) - 1))
    k_max = data.draw(st.integers(k, min(5, n - 1)))
    metric = data.draw(st.sampled_from(predict_mod.METRICS))
    baseline = data.draw(st.sampled_from(predict_mod.BASELINES))
    mode = data.draw(st.sampled_from(predict_mod.MODES))
    run = data.draw(st.integers(1, 50))
    root = RandomStream(data.draw(st.integers(0, 2**64 - 1)))
    seq, tables = split_tables(symbols, alphabet, n, k_max)
    full = resolve_fallback(tables, seq, n, k_max)
    # the resolution at k itself, then every order derived from the one at k_max,
    # each scored for two runs so the second reuses the gathered rows
    for res in (resolve_fallback(tables, seq, n, k), *(full.truncate(j) for j in range(1, k_max + 1))):
        for j in (run, run + 1):
            stream = root.substream(j, res.order)
            got = evaluate_run(tables, res, metric, stream, baseline=baseline, mode=mode)
            want = scalar_evaluate_run(
                symbols, n, res.order, k_max, alphabet, metric,
                stream.substream("model").generator(), stream.substream("baseline").generator(),
                baseline=baseline, mode=mode,
            )
            assert (got.e, got.e_rand) == want
            assert got.order == res.order and got.n_predictions == len(symbols) - n


def test_fallback_orders_replay_against_tables():
    rng = np.random.default_rng(77)
    symbols = [int(ALPHABET5[i]) for i in rng.integers(0, 5, 500)]
    seq = mk_seq(symbols, ALPHABET5)
    n = 250
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 5)
    res = resolve_fallback(tables, seq, n, 5)
    for i, t in enumerate(range(n, len(symbols))):
        context = tuple(reversed(symbols[t - 5 : t]))
        largest, row = 0, tables.marginal
        for j in range(5, 0, -1):
            if context[:j] in tables.tables[j].rows:
                largest, row = j, tables.tables[j].rows[context[:j]]
                break
        assert res.orders[i] == largest
        np.testing.assert_array_equal(res.cum_rows[res.row_ids[i]], row.cum)


# --- run_experiment -----------------------------------------------------------


def small_returns(seed=19, n=800):
    rng = np.random.default_rng(seed)
    return mk_returns(rng.standard_t(4, n) * 0.01, instrument="demo")


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(runs=3, k_min=1, k_max=4, master_seed=42)
    returns = small_returns()
    a = report_to_json_dict(run_experiment(cfg, returns))
    b = report_to_json_dict(run_experiment(cfg, returns))
    assert a == b


def test_run_experiment_shapes_and_histogram():
    cfg = ExperimentConfig(runs=4, k_min=1, k_max=8, master_seed=7)
    report = run_experiment(cfg, small_returns())
    assert report.k_values == tuple(range(1, 9))
    assert len(report.e_mean) == 8 and len(report.rand_mean) == 8
    assert report.n_train == 400 and report.n_test == 400
    for k in report.k_values:
        hist = report.fallback_histogram[k]
        assert sum(hist.values()) == report.n_test
        assert all(0 <= order <= k for order in hist)
        assert len(report.per_run[k]) == 4


def test_report_means_match_per_run():
    cfg = ExperimentConfig(runs=5, k_min=1, k_max=3, master_seed=11)
    report = run_experiment(cfg, small_returns())
    for i, k in enumerate(report.k_values):
        es = [r.e for r in report.per_run[k]]
        rs = [r.e_rand for r in report.per_run[k]]
        assert report.e_mean[i] == pytest.approx(float(np.mean(es)), abs=1e-12)
        assert report.rand_mean[i] == pytest.approx(float(np.mean(rs)), abs=1e-12)
        assert min(es) <= report.e_mean[i] <= max(es)


def test_run_experiment_instrument_decouples_streams():
    cfg = ExperimentConfig(runs=2, k_min=1, k_max=2, master_seed=5)
    r1 = small_returns(seed=19)
    r2 = dataclasses.replace(r1, instrument="other")
    a = run_experiment(cfg, r1)
    b = run_experiment(cfg, r2)
    assert a.e_mean != b.e_mean  # different substreams per instrument


def test_run_experiment_stats_on_train():
    from procrec import split_halves

    cfg_full = ExperimentConfig(runs=1, k_min=1, k_max=2, master_seed=3, stats_on="full")
    cfg_train = ExperimentConfig(runs=1, k_min=1, k_max=2, master_seed=3, stats_on="train")
    returns = small_returns(seed=23)
    full = run_experiment(cfg_full, returns)
    train = run_experiment(cfg_train, returns)
    h1, _ = split_halves(returns)
    assert train.stats.count == len(h1)
    assert full.stats.count == len(returns)


def test_run_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0).validate_params()
    with pytest.raises(ValueError):
        ExperimentConfig(k_min=0).validate_params()
    with pytest.raises(ValueError):
        ExperimentConfig(k_min=5, k_max=4).validate_params()
    with pytest.raises(ValueError):
        ExperimentConfig(k_max=13).validate_params()
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="seven").validate_params()


def test_order2_model_beats_order1_on_synthetic_chain():
    from oracles import generate_order2_symbols, make_order2_chain

    chain = make_order2_chain()
    symbols = generate_order2_symbols(chain, 20_000, seed=4)
    seq = mk_seq(symbols, ALPHABET3)
    n = 10_000
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 2)
    stream = RandomStream(99).substream("chain")
    res1, res2 = resolve_fallback(tables, seq, n, 1), resolve_fallback(tables, seq, n, 2)
    e1 = np.mean([evaluate_run(tables, res1, "abs", stream.substream(j, 1)).e for j in range(10)])
    e2 = np.mean([evaluate_run(tables, res2, "abs", stream.substream(j, 2)).e for j in range(10)])
    assert e2 < e1 - 0.3  # order-1 conditionals of this chain are exactly uniform


# --- train/test hygiene --------------------------------------------------------


def test_table_build_sees_only_the_training_half(monkeypatch):
    captured = {}
    real_build = predict_mod.build_conditional_tables

    def spy(train, k_max):
        captured["symbols"] = train.symbols.copy()
        captured["tables"] = real_build(train, k_max)
        return captured["tables"]

    monkeypatch.setattr(predict_mod, "build_conditional_tables", spy)
    returns = small_returns(seed=29, n=600)
    cfg = ExperimentConfig(runs=1, k_min=1, k_max=3, master_seed=1)
    run_experiment(cfg, returns)

    from procrec import compute_stats, encode_series, make_scheme

    stats = compute_stats(returns)
    seq = encode_series(returns, stats, make_scheme("five", stats))
    n = len(returns) // 2
    assert len(captured["symbols"]) == n
    np.testing.assert_array_equal(captured["symbols"], seq.symbols[:n])


def test_tables_unaffected_by_test_half_content(monkeypatch):
    # with training-half stats, corrupting H2 must leave the tables untouched
    captured = []
    real_build = predict_mod.build_conditional_tables

    def spy(train, k_max):
        tables = real_build(train, k_max)
        captured.append(tables)
        return tables

    monkeypatch.setattr(predict_mod, "build_conditional_tables", spy)
    cfg = ExperimentConfig(runs=1, k_min=1, k_max=3, master_seed=1, stats_on="train")
    returns = small_returns(seed=31, n=600)
    mutated_values = returns.values.copy()
    mutated_values[300:] = mutated_values[300:][::-1] * 3.0 + 0.05
    mutated = mk_returns(mutated_values, instrument="demo")

    run_experiment(cfg, returns)
    run_experiment(cfg, mutated)
    a, b = captured
    assert set(a.tables) == set(b.tables)
    for k in a.tables:
        assert set(a.tables[k].rows) == set(b.tables[k].rows)
        for ctx, row in a.tables[k].rows.items():
            np.testing.assert_array_equal(row.counts, b.tables[k].rows[ctx].counts)
