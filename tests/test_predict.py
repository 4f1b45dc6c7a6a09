from __future__ import annotations

import dataclasses
import gc
import itertools
import sys
import tracemalloc
import weakref
import zlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import procrec.coding as coding_mod
import procrec.predict as predict_mod
from procrec import (
    ConditionalTableSet,
    SplitTooSmall,
    SymbolSequence,
    build_conditional_tables,
    compute_log_returns,
    evaluate_run,
    load_price_csv,
    resolve_fallback,
    run_experiment,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procrec.predict import ExperimentConfig, report_to_json_dict, run_generators

from conftest import mk_returns, mk_seq
from oracles import (
    ALPHABET3,
    ALPHABET5,
    brute_force_back_off,
    context_rows,
    orders_of,
    reference_generator,
    reference_run_generators,
    reference_seed_sequence,
    sample_index,
    scalar_evaluate_run,
    searchsorted_pick,
    sequential_cum,
    table_cum,
)


def split_tables(symbols, alphabet, n, k_max):
    """(sequence, tables of its first n symbols) for a split at n."""
    seq = mk_seq(symbols, alphabet)
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    return seq, build_conditional_tables(train, k_max)


def heads_of(res):
    """Every position's heads as scoring derives them: ``_heads`` of its gathered counts, a slice at a time."""
    by_symbol = res.tables.counts.T
    parts = coding_mod._slices(res.n_test)
    return np.hstack([predict_mod._heads(by_symbol.take(res.row_ids[part], axis=1)) for part in parts])


def deepen_chain(tables, seq):
    """The resolutions at orders 1 .. k_max of ``tables``, each deepened from the one before."""
    res = resolve_fallback(tables, seq, 1)
    yield res
    for _ in range(1, tables.k_max):
        res = res.deepen()
        yield res


def model_picks(res, gen):
    """The alphabet index the model draws at each test position: the count of the heads it crosses."""
    return np.count_nonzero(heads_of(res) <= gen.random(res.n_test), axis=0)


def evaluate_one(res, config, model_gen, baseline_gen):
    """One run scored in its own ``evaluate_run`` call: its e and e_rand as floats."""
    result = evaluate_run(res, config, [(model_gen, baseline_gen)])
    assert result.e.dtype == result.e_rand.dtype == np.float64 and result.e.shape == result.e_rand.shape == (1,)
    return SimpleNamespace(e=float(result.e[0]), e_rand=float(result.e_rand[0]), n_predictions=result.n_predictions)


def draw_symbols(data, alphabet, min_size):
    """Free symbols, or a repeated motif with a few changes, so that long contexts recur."""
    if data.draw(st.booleans()):
        return data.draw(st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=300))
    motif = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6))
    size = data.draw(st.integers(min_size, 300))
    symbols = (motif * size)[:size]
    for i in data.draw(st.lists(st.integers(0, size - 1), max_size=8)):
        symbols[i] = data.draw(st.sampled_from(alphabet))
    return symbols


def deepest(alphabet):
    """The largest order the property tests build: three symbols go to the CLI's k_max of 12."""
    return 12 if alphabet == ALPHABET3 else 5


# --- run_generators ----------------------------------------------------------


def run_pair(seed, instrument, j, k):
    """The package's own (model, baseline) generators of run j at order k."""
    return tuple(run_generators(seed, instrument, [(j, k)]))


def test_stream_repeatable():
    a = run_pair(7, "x", 3, 1)[0].random(5)
    b = run_pair(7, "x", 3, 1)[0].random(5)
    np.testing.assert_array_equal(a, b)


def test_stream_substreams_differ():
    # a change of seed, instrument, run, order or purpose gives another stream
    draws = [
        gen.random(4).tolist()
        for seed, instrument, j, k in ((7, "x", 1, 2), (7, "x", 2, 1), (7, "y", 1, 2), (8, "x", 1, 2))
        for gen in run_pair(seed, instrument, j, k)
    ]
    assert len({tuple(d) for d in draws}) == len(draws)


def test_stream_cross_platform_pin():
    # frozen draws document the fixed-generator contract: same seed, same
    # sequence, everywhere; numpy's SeedSequence -> PCG64 for one key ...
    np.testing.assert_allclose(
        reference_generator(12345, "model").random(3),
        [0.2579337492286621, 0.24496871883348414, 7.006638758488837e-05],
        rtol=0,
        atol=0,
    )
    assert reference_generator(12345, "model").integers(0, 5, 6).tolist() == [2, 1, 4, 1, 4, 0]
    # ... and the model and baseline streams of one run key, from the package's seeding and from numpy's
    pins = (
        ([0.7395005341537522, 0.2069079878950687, 0.8302210921293076], [2, 3, 1, 1, 0, 4]),
        ([0.5280460665154483, 0.8949210359658082, 0.3046299966037037], [2, 2, 4, 4, 3, 1]),
    )
    for make in (lambda: run_pair(12345, "btcx", 1, 8), lambda: reference_run_generators(12345, "btcx", 1, 8)):
        for i, (random, integers) in enumerate(pins):
            np.testing.assert_allclose(make()[i].random(3), random, rtol=0, atol=0)
            assert make()[i].integers(0, 5, 6).tolist() == integers


SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]))
INSTRUMENTS = st.one_of(st.text(max_size=8), st.sampled_from(["", "btcx", "xü", "比特币"]))
KEYS = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2**32 - 1]))


@given(seed=SEEDS, instrument=INSTRUMENTS, keys=st.lists(st.tuples(KEYS, KEYS), max_size=10))
@settings(deadline=None, max_examples=200)
@example(seed=2**64 - 1, instrument="", keys=[(0, 0), (2**32 - 1, 2**32 - 1)])
@example(seed=2**32, instrument="xü", keys=[(1, 8), (2**32 - 1, 0)])
@example(seed=2**32 - 1, instrument="比特币", keys=[(0, 2**32 - 1)])
@example(seed=0, instrument="", keys=[])
def test_run_generators_match_seed_sequence(seed, instrument, keys):
    # one hash pass gives every stream numpy's seed words, and every generator numpy's
    # PCG64 state and increment and numpy's first draws
    real, passes = predict_mod._pcg64_seeds, []

    def spy(entropy):
        passes.append(real(entropy))
        return passes[-1]

    with mock.patch.object(predict_mod, "_pcg64_seeds", spy):
        gens = run_generators(seed, instrument, keys)
    want = [
        reference_seed_sequence(seed, instrument, j, k, purpose).generate_state(4, np.uint64)
        for j, k in keys
        for purpose in ("model", "baseline")
    ]
    assert len(passes) == 1 and passes[0].dtype == np.uint64
    np.testing.assert_array_equal(passes[0], np.array(want, dtype=np.uint64).reshape(-1, 4))
    refs = [gen for j, k in keys for gen in reference_run_generators(seed, instrument, j, k)]
    for gen, ref in zip(gens, refs, strict=True):
        assert gen.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(gen.random(3), ref.random(3))
        assert gen.integers(0, 5, 4).tolist() == ref.integers(0, 5, 4).tolist()


def test_stream_rejects_bad_seeds_and_tags():
    # a ValueError, not numpy's or array's OverflowError, raised by the call before any generator is built
    for seed, keys in ((-1, [(1, 1)]), (2**64, [(1, 1)]), (3, [(-2, 1)]), (3, [(1, 2**32)]), (3, [(1, 1), (2**63, 1)])):
        with pytest.raises(ValueError, match="seed|keys"):
            run_generators(seed, "x", keys)


def test_run_generators_match_seed_sequence_across_chunks():
    # the keys after the first chunk are hashed as the iterator reaches them, into the same streams
    keys = [(j, 1 + j % 8) for j in range(predict_mod._SEED_CHUNK + 3)]
    refs = [gen for j, k in keys for gen in reference_run_generators(7, "btcx", j, k)]
    for gen, ref in zip(run_generators(7, "btcx", keys), refs, strict=True):
        assert gen.bit_generator.state == ref.bit_generator.state


def test_run_generators_seed_a_label_that_is_not_utf8_by_its_bytes():
    # the file name x\xff.csv gives the label "x\udcff"; its key word is the crc32 of b"x\xff"
    model = run_pair(5, "x\udcff", 1, 1)[0]
    key = (zlib.crc32(b"x\xff"), 1, 1, zlib.crc32(b"model"))
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5, spawn_key=key)))
    assert model.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(model.random(3), want.random(3))


def test_run_generators_reject_bad_key_in_a_later_chunk():
    gens = run_generators(3, "x", [(1, 1)] * predict_mod._SEED_CHUNK + [(1, 2**32)])
    for _ in range(2 * predict_mod._SEED_CHUNK):
        next(gens)
    with pytest.raises(ValueError, match="keys"):
        next(gens)


def test_run_generators_memory_does_not_grow_with_runs():
    # 20,000 runs x 8 orders are 320,000 streams; hashed at once they took 65 MB before the first draw
    run_pair(1, "x", 1, 1)  # numpy.random and the seed class load outside the measurement
    tracemalloc.start()
    try:
        next(run_generators(1, "x", ((j, k) for k in range(8, 0, -1) for j in range(1, 20_001))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_numpy_streams_continue_across_calls():
    # evaluate_run draws a slice at a time and relies on this: two calls give what one call of
    # their total size gives. NEP 19 does not promise it across numpy releases; if one breaks it,
    # this test fails first, not every golden report
    for n1, n2 in ((1, 1), (1, 6), (7, 9), (1000, 3), (4096, 4097)):
        gen, whole = reference_generator(5, n1, n2), reference_generator(5, n1, n2)
        np.testing.assert_array_equal(np.concatenate([gen.random(n1), gen.random(n2)]), whole.random(n1 + n2))
        for high in (2, 3, 5, 17, 256, 1000):
            gen, whole = reference_generator(6, high, n1, n2), reference_generator(6, high, n1, n2)
            parts = [gen.integers(0, high, n1), gen.integers(0, high, n2)]
            assert parts[0].dtype == parts[1].dtype == np.int64
            np.testing.assert_array_equal(np.concatenate(parts), whole.integers(0, high, n1 + n2))


def word_picks(words, a):
    """The int64 draws from range(a) that numpy's multiply-shift makes of accepted 32-bit words."""
    return ((np.asarray(words, np.uint64) * np.uint64(a)) >> np.uint64(32)).astype(np.int64)


@given(
    a=st.one_of(st.integers(2, 1000), st.sampled_from([2**31 + 1, 2**32 - 1, 2**32])),
    sizes=st.lists(st.integers(0, 301), min_size=1, max_size=6),  # odd sizes carry a half to the next call
    seed=st.integers(0, 2**64 - 1),
)
@settings(deadline=None, max_examples=200)
@example(a=5, sizes=[3153, 3153], seed=0)
@example(a=3, sizes=[1, 1, 2, 1, 0, 3], seed=1)
def test_accepted_words_match_numpy_integers(a, sizes, seed):
    # the words the uniform baseline compares with its cuts are the words integers(0, a, n) draws from:
    # after every call the picks and the whole bit generator state, has_uint32 and uinteger included, agree
    gen, numpy_gen = reference_generator(seed, "words"), reference_generator(seed, "words")
    for n in sizes:
        words = predict_mod._accepted_words(gen.bit_generator, a, n)
        assert words.dtype == np.uint32 and len(words) == n
        np.testing.assert_array_equal(word_picks(words, a), numpy_gen.integers(0, a, n))
        assert gen.bit_generator.state == numpy_gen.bit_generator.state


@pytest.mark.parametrize("sizes", [(1000,), (999, 1, 37), (1, 2, 3) * 40])
def test_accepted_words_draw_again_after_rejections(sizes):
    # at a = 3 * 2**30 + 1, 2**30 - 1 of every 2**32 words reject: numpy draws a further word for each,
    # and the word path consumes no more and no fewer words than numpy does
    a = 3 * 2**30 + 1
    bound = 2**32 % a
    assert bound == 2**30 - 1
    gen, numpy_gen = reference_generator(17, "reject"), reference_generator(17, "reject")
    stream = reference_generator(17, "reject").bit_generator.random_raw(sum(sizes))
    halves = stream.astype("<u8").view("<u4").tolist()
    drawn = 0
    for n in sizes:
        words = predict_mod._accepted_words(gen.bit_generator, a, n)
        np.testing.assert_array_equal(word_picks(words, a), numpy_gen.integers(0, a, n))
        assert gen.bit_generator.state == numpy_gen.bit_generator.state
        # the stream read so far is every accepted word in order, with the rejected ones between them
        kept = []
        while len(kept) < n:
            x, drawn = halves[drawn], drawn + 1
            if (x * a) % 2**32 >= bound:
                kept.append(x)
        assert words.tolist() == kept
    assert drawn > sum(sizes)  # some words were rejected


def test_cuts_are_where_the_draw_crosses_each_step():
    # word x draws above j from range(a) exactly when x >= cut j: checked for each j at its cut, one
    # below it, and at the smallest and largest words; uncached, so the 999 alphabets are not kept
    for a in range(2, 1001):
        steps, cuts, _ = predict_mod._gap_runs.__wrapped__(tuple(range(a)))
        assert cuts.shape == steps.shape == (a - 1, 1) and cuts.dtype == np.uint32
        assert not cuts.flags.writeable
        for words in (cuts, cuts - 1, np.zeros_like(cuts), np.full_like(cuts, 2**32 - 1)):
            np.testing.assert_array_equal(words >= cuts, word_picks(words, a) > steps, err_msg=str(a))


def test_accepted_words_of_pcg64dxsm_match_numpy_integers():
    # PCG64DXSM shares PCG64's period, 64-bit words and carried half, so its words are integers' words too
    gen, numpy_gen = (np.random.Generator(np.random.PCG64DXSM(19)) for _ in range(2))
    for n in (3, 1, 3153, 0, 2, 7):
        words = predict_mod._accepted_words(gen.bit_generator, 5, n)
        np.testing.assert_array_equal(word_picks(words, 5), numpy_gen.integers(0, 5, n))
        assert gen.bit_generator.state == numpy_gen.bit_generator.state


@pytest.mark.parametrize("bit_generator", ["Philox", "SFC64", "MT19937"])
def test_accepted_words_refuse_other_bit_generators(bit_generator):
    # Philox would step back by the wrong period, SFC64 cannot advance and MT19937 carries no half:
    # each is refused by name, with and without a half waiting, and through evaluate_run
    gen = np.random.Generator(getattr(np.random, bit_generator)(5))
    with pytest.raises(ValueError, match=f"not {bit_generator}$"):
        predict_mod._accepted_words(gen.bit_generator, 5, 4)
    gen.integers(0, 5, 1)  # a half waits where the bit generator carries one
    with pytest.raises(ValueError, match=f"not {bit_generator}$"):
        predict_mod._accepted_words(gen.bit_generator, 5, 3)
    seq, tables = split_tables([-2, 0, 1, 2, 0] * 8, ALPHABET5, 20, 1)
    model_gen = reference_run_generators(1)[0]
    with pytest.raises(ValueError, match=f"not {bit_generator}$"):
        evaluate_one(resolve_fallback(tables, seq, 1), ExperimentConfig(), model_gen, gen)


def test_accepted_words_of_one_symbol_draw_nothing():
    # integers(0, 1, n) draws no word, so neither the word path nor a run over one symbol may
    gen = reference_generator(3, "one")
    gen.bit_generator.random_raw(1)
    gen.integers(0, 5, 1)  # a half waits in the bit generator
    before = gen.bit_generator.state
    assert before["has_uint32"] == 1
    assert predict_mod._accepted_words(gen.bit_generator, 1, 7).tolist() == [0] * 7
    assert gen.bit_generator.state == before
    seq, tables = split_tables([4] * 20, (4,), 10, 1)
    model_gen, baseline_gen = reference_run_generators(1)
    before = baseline_gen.bit_generator.state
    result = evaluate_one(resolve_fallback(tables, seq, 1), ExperimentConfig(metric="abs"), model_gen, baseline_gen)
    assert result.e_rand == 0.0
    assert baseline_gen.bit_generator.state == before


# --- next-symbol prediction and the baseline draws -------------------------


def test_predict_next_deterministic_row():
    # in 1, 0, 1, 1, 0, 1, ... every order-2 context has one successor
    seq, tables = split_tables([1, 0, 1] * 40, ALPHABET3, 60, 2)
    res = resolve_fallback(tables, seq, 2)
    assert orders_of(res).tolist() == [2] * 60
    for seed in (0, 1, 99):
        # every draw is the realized symbol
        assert evaluate_one(res, ExperimentConfig(metric="abs"), *reference_run_generators(seed)).e == 0.0
    assert context_rows(tables, 2)[(0, 1)][1].tolist() == [0.0, 0.0, 1.0]  # after 1, 0 always 1


def test_predict_next_falls_back_one_order():
    # (1, 1) never occurs in train, its suffix (1,) does
    train = [0, 0, 1, 0, 0, 1, 0, 0]
    seq, tables = split_tables(train + [1, 1, 0], ALPHABET3, len(train), 2)
    res = resolve_fallback(tables, seq, 2)
    assert seq.symbols[-3:-1].tolist() == [1, 1]  # the last position's context
    assert orders_of(res)[-1] == 1
    gen = reference_generator(5, "model")
    predicted = model_picks(res, gen)
    assert ALPHABET3[predicted[-1]] == 0  # every 1 in train is followed by 0


def test_predict_next_marginal_fallback():
    train = [-1, 0, 1, -1, 0, 1]  # symbol 2 absent from train
    seq, tables = split_tables(train + [2, 2, 0], ALPHABET5, len(train), 2)
    res = resolve_fallback(tables, seq, 2)
    assert orders_of(res).tolist()[-2:] == [0, 0]  # contexts (2, 1) and (2, 2)
    assert res.row_ids[-1] == 0  # the marginal


def test_predict_next_sampling_frequencies():
    # in train, context (0,) is followed by 0 twice, 1 three times, 2 five times
    train = [0, 0, 0] + [1, 0] * 3 + [2, 0] * 5
    seq, tables = split_tables(train + [0] * 100_000, (0, 1, 2), len(train), 1)
    assert context_rows(tables, 1)[(0,)][0].tolist() == [2, 3, 5]
    res = resolve_fallback(tables, seq, 1)
    draws = model_picks(res, reference_generator(314, "lln", "model"))
    for symbol, want in ((0, 0.2), (1, 0.3), (2, 0.5)):
        assert abs(np.mean(draws == symbol) - want) < 0.01


def test_baseline_uniform_frequencies():
    # the uniform baseline evaluate_run scores, against a constant 0 test half
    seq, tables = split_tables([0] * 100_100, ALPHABET5, 100, 1)
    result = evaluate_one(
        resolve_fallback(tables, seq, 1), ExperimentConfig(metric="signed"), *reference_run_generators(2718, "base")
    )
    draws = reference_generator(2718, "base", "baseline").integers(0, 5, size=100_000)
    drawn = np.asarray(ALPHABET5)[draws]
    assert result.e_rand == float(drawn.mean())
    for symbol in ALPHABET5:
        assert abs(np.mean(drawn == symbol) - 0.2) < 0.01


def test_baseline_single_symbol_and_determinism():
    seq, tables = split_tables([4] * 20, (4,), 10, 1)
    res = resolve_fallback(tables, seq, 1)
    assert evaluate_one(res, ExperimentConfig(metric="abs"), *reference_run_generators(1)).e_rand == 0.0
    seq, tables = split_tables([-1, 0, 1, 1, 0] * 8, ALPHABET3, 20, 1)
    res = resolve_fallback(tables, seq, 1)
    a = [evaluate_one(res, ExperimentConfig(metric="abs"), *reference_run_generators(9, i)).e_rand
         for i in range(20)]
    b = [evaluate_one(res, ExperimentConfig(metric="abs"), *reference_run_generators(9, i)).e_rand
         for i in range(20)]
    assert a == b
    assert len(set(a)) > 1


# --- evaluate_run -------------------------------------------------------------


def test_evaluate_constant_sequence():
    seq = mk_seq([0] * 4000, ALPHABET5)
    n = 2000
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 3)
    res = resolve_fallback(tables, seq, 3)
    result = evaluate_one(res, ExperimentConfig(metric="abs"), *reference_run_generators(0, 1, 3))
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
        res = resolve_fallback(tables, seq, k)
        result = evaluate_one(res, ExperimentConfig(metric="abs"), *reference_run_generators(3, 1, k))
        assert result.e == 0.0


def test_evaluate_signed_metric():
    seq = mk_seq([0] * 1000, ALPHABET5)
    n = 500
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 1)
    res = resolve_fallback(tables, seq, 1)
    result = evaluate_one(res, ExperimentConfig(metric="signed"), *reference_run_generators(4, 1, 1))
    assert result.e == 0.0
    assert abs(result.e_rand) < 0.3  # uniform draws vs 0: signed mean near zero


def test_evaluate_marginal_baseline_constant():
    seq = mk_seq([0] * 400, ALPHABET5)
    n = 200
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 1)
    res = resolve_fallback(tables, seq, 1)
    result = evaluate_one(res, ExperimentConfig(metric="abs", baseline="marginal"), *reference_run_generators(4, 1, 1))
    assert result.e_rand == 0.0  # the marginal has all its mass on 0


def test_evaluate_argmax_mode_deterministic():
    rng = np.random.default_rng(31)
    symbols = [int(ALPHABET3[i]) for i in rng.integers(0, 3, 800)]
    seq = mk_seq(symbols, ALPHABET3)
    n = 400
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 2)
    res = resolve_fallback(tables, seq, 2)
    a = evaluate_one(res, ExperimentConfig(metric="abs", mode="argmax"), *reference_run_generators(1, 1, 2))
    b = evaluate_one(res, ExperimentConfig(metric="abs", mode="argmax"), *reference_run_generators(999, 7, 2))
    assert a.e == b.e  # model side ignores the stream entirely under argmax


def test_evaluate_split_too_small():
    seq = mk_seq([0, 1, 0, 1], ALPHABET3)
    tables = build_conditional_tables(dataclasses.replace(seq, indices=seq.indices[:4]), 1)
    with pytest.raises(SplitTooSmall):
        resolve_fallback(tables, seq, 1)


def test_resolve_fallback_rejects_another_alphabet():
    _, tables = split_tables([-1, 0, 1, 0, -1, 1], ALPHABET3, 4, 1)
    # index 4 of the five-symbol sequence has no meaning over three symbols
    with pytest.raises(ValueError, match="alphabet"):
        resolve_fallback(tables, mk_seq([-2, 0, 2, 0, -2, 2], ALPHABET5), 1)


def test_contexts_span_the_split_boundary():
    symbols = [1, 0, 1, 0, 1, 0]
    seq, tables = split_tables(symbols, ALPHABET3, 4, 3)
    res = resolve_fallback(tables, seq, 3)
    # the first test position, t = 4, has context (0, 1, 0): it reaches two
    # symbols back into the training half, where only (0, 1) was seen
    assert res.n_test == 2
    expected = brute_force_back_off(symbols, 4, 3, 3, ALPHABET3)
    orders = orders_of(res).tolist()
    assert orders == [order for order, _ in expected]
    assert orders[0] == 2
    np.testing.assert_array_equal(table_cum(tables, res.row_ids[0]), context_rows(tables, 2)[(0, 1)][1])


def test_vectorized_path_matches_sequential_predict_next():
    # one uniform per position, in order: the batched experiment path must
    # reproduce a scalar back-off and draw, position by position
    rng = np.random.default_rng(3)
    symbols = [int(ALPHABET5[i]) for i in rng.integers(0, 5, 400)]
    seq, tables = split_tables(symbols, ALPHABET5, 200, 3)
    res = resolve_fallback(tables, seq, 3)
    predicted = model_picks(res, reference_generator(5, 1, 3, "model"))
    gen = reference_generator(5, 1, 3, "model")
    expected, orders = brute_force_back_off(symbols, 200, 3, 3, ALPHABET5), orders_of(res)
    for i, (order, counts) in enumerate(expected):
        assert sample_index(sequential_cum(counts), float(gen.random())) == predicted[i]
        assert order == orders[i]
    assert len(expected) == len(predicted) == res.n_test == 200


def assert_matches_back_off(res, symbols, n, alphabet):
    """The resolution's orders and rows are the scalar back-off's at its order, position by position."""
    tables = res.tables
    expected = brute_force_back_off(symbols, n, res.order, tables.k_max, alphabet)
    assert res.row_ids.dtype == np.int32 and res.row_ids.shape == (len(symbols) - n,)
    assert orders_of(res).tolist() == [order for order, _ in expected]
    cum = table_cum(tables, res.row_ids)
    for i, (_, counts) in enumerate(expected):
        assert cum[:, i].tolist() == sequential_cum(counts)
        assert tables.counts[res.row_ids[i]].tolist() == list(counts)


@given(st.data())
@settings(deadline=None, max_examples=80)
def test_resolve_fallback_matches_scalar_back_off(data):
    # every order of one deepen chain, and the resolution at a drawn order k, against the scalar back-off
    alphabet = data.draw(st.sampled_from((ALPHABET3, ALPHABET5)))
    symbols = draw_symbols(data, alphabet, 3)
    n = data.draw(st.integers(2, len(symbols) - 1))
    k_max = data.draw(st.integers(1, min(deepest(alphabet), n - 1)))
    seq, tables = split_tables(symbols, alphabet, n, k_max)
    chain = list(deepen_chain(tables, seq))
    assert [res.order for res in chain] == list(range(1, k_max + 1))
    for res in chain:
        assert res.tables is tables and res.seq is seq
        assert_matches_back_off(res, symbols, n, alphabet)
    k = data.draw(st.integers(1, k_max))
    np.testing.assert_array_equal(resolve_fallback(tables, seq, k).row_ids, chain[k - 1].row_ids)
    # seen contexts are prefix-closed, so the order at k is the longest match capped at k
    longest = orders_of(chain[-1])
    for res in chain:
        np.testing.assert_array_equal(orders_of(res), np.minimum(longest, res.order))


@pytest.mark.parametrize("k_max", [9, 10, 11, 12])
def test_back_off_three_symbols_deep_orders(k_max):
    # a motif of period 7 with scattered changes: test contexts match at every
    # depth up to k_max, and many miss at one order only to extend a shorter seen
    # context at the next, which must not count as a hit
    rng = np.random.default_rng(k_max)
    symbols = [int(ALPHABET3[i]) for i in rng.integers(0, 3, 7)] * 90
    for i in rng.integers(0, len(symbols), 40):
        symbols[i] = int(ALPHABET3[rng.integers(0, 3)])
    n = 400
    seq, tables = split_tables(symbols, ALPHABET3, n, k_max)
    chain = list(deepen_chain(tables, seq))
    assert set(orders_of(chain[-1]).tolist()) >= {k_max, k_max - 1}
    for res in chain:
        assert_matches_back_off(res, symbols, n, ALPHABET3)


def test_deepen_past_k_max_raises():
    seq, tables = split_tables([1, 0, 1, 1, 0, -1, 0, 1, 1, 0], ALPHABET3, 6, 3)
    deepest_res = resolve_fallback(tables, seq, 3)
    with pytest.raises(ValueError, match="order 4"):
        deepest_res.deepen()
    with pytest.raises(ValueError, match="order 4"):
        resolve_fallback(tables, seq, 4)


def test_deepen_leaves_its_source_unchanged():
    rng = np.random.default_rng(8)
    symbols = [int(ALPHABET5[i]) for i in np.minimum(rng.geometric(0.45, 3_000) - 1, 4)]
    seq, tables = split_tables(symbols, ALPHABET5, 1_500, 4)
    indices_before = seq.indices.copy()
    source = resolve_fallback(tables, seq, 1)
    for k in (2, 3, 4):
        row_ids, before = source.row_ids, source.row_ids.copy()
        deeper = source.deepen()
        assert deeper.order == k and source.order == k - 1
        assert deeper.tables is tables and deeper.seq is seq
        assert not np.shares_memory(deeper.row_ids, row_ids)
        evaluate_one(source, ExperimentConfig(), *reference_run_generators(8, k))
        assert source.row_ids is row_ids
        np.testing.assert_array_equal(row_ids, before)
        source = deeper
    np.testing.assert_array_equal(seq.indices, indices_before)


class _FixedDraws:
    """Stands in for a generator whose next uniforms are known."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == len(self.u)
        return self.u


def _resolution_over(counts, row_ids, actual=None):
    """An order-1 resolution whose positions read the hand-made stacked rows ``row_ids``.

    Its table set holds the rows of ``counts``, as given, and no order's contexts: sampling
    derives its cum from them, and argmax reads them. Its series has no training half, and its
    test half is the ``actual`` alphabet indices, all 0 by default.
    """
    tables = ConditionalTableSet(
        alphabet=tuple(range(counts.shape[1])),
        k_max=1,
        tables={},
        n_train=0,
        counts=counts,
        parents=np.zeros(len(counts), dtype=np.int32),
    )
    actual = np.zeros(len(row_ids), dtype=np.uint8) if actual is None else actual
    return predict_mod.FallbackResolution(
        tables=tables,
        seq=SymbolSequence(actual, tables.alphabet),
        order=1,
        row_ids=np.asarray(row_ids, dtype=np.int32),
    )


def _sampled(counts, row_ids, u):
    """The model draws over hand-made count rows and uniforms, next to sample_index on each."""
    res = _resolution_over(counts, row_ids)
    got = model_picks(res, _FixedDraws(u)).tolist()
    return got, [sample_index(sequential_cum(counts[r].tolist()), x) for r, x in zip(row_ids, u)]


def test_model_indices_sampling_edges():
    short = np.nextafter(1.0, 0.0)
    counts = np.array([
        [0, 2, 0, 2, 0],  # cum 0, 0.5, 0.5, 1, 1: zero-count columns repeat cum
        [0, 1, 4, 1, 1],  # cum 0, 1/7, 5/7, 6/7 and a last entry two steps below 1.0
    ])
    cum = sequential_cum(counts[1].tolist())
    assert cum[-1] < short
    row_ids = [0, 0, 0, 0, 0, 1, 1, 1, 1]
    u = [0.0, 0.25, 0.5, np.nextafter(0.5, 0.0), short, 0.0, cum[3], 0.9, short]
    got, want = _sampled(counts, row_ids, u)
    assert got == want == [1, 1, 3, 1, 3, 1, 4, 4, 4]


def test_evaluate_run_crosses_a_head_equal_to_u():
    # u equal to a head crosses it, in the model's draw and in the marginal's, zero counts included
    counts = np.array([[1, 1, 2], [0, 3, 1]])  # stacked row 0 doubles as the training marginal
    row_ids, actual = [0, 0, 1, 1, 0], np.array([2, 0, 1, 0, 1])
    res = _resolution_over(counts, row_ids, actual)
    heads = heads_of(res)
    u = [0.0, heads[0, 1], heads[0, 2], heads[1, 3], heads[1, 4]]
    picks = [sample_index(sequential_cum(counts[r].tolist()), x) for r, x in zip(row_ids, u)]
    guesses = [sample_index(sequential_cum(counts[0].tolist()), x) for x in u]
    assert (picks, guesses) == ([0, 1, 1, 2, 2], [0, 1, 0, 2, 2])
    for metric in predict_mod.METRICS:
        got = evaluate_one(res, ExperimentConfig(metric=metric, baseline="marginal"), _FixedDraws(u), _FixedDraws(u))
        want = [picks - actual, guesses - actual]
        if metric == "abs":
            want = [np.abs(errors) for errors in want]
        assert (got.e, got.e_rand) == tuple(errors.sum() / 5 for errors in want)


def test_evaluate_run_counts_a_word_at_a_cut_as_crossing_it(monkeypatch):
    # a uniform baseline word equal to cut j draws above j, and one below it does not
    counts = np.array([[1, 1, 2]])
    actual = np.array([2, 0, 1, 0, 1, 2])
    res = _resolution_over(counts, [0] * 6, actual)
    (cut_1,), (cut_2,) = predict_mod._gap_runs(res.tables.alphabet)[1].tolist()
    words = np.array([0, cut_1 - 1, cut_1, cut_2 - 1, cut_2, 2**32 - 1], dtype=np.uint32)
    guesses = word_picks(words, 3)
    assert guesses.tolist() == [0, 0, 1, 1, 2, 2]
    monkeypatch.setattr(predict_mod, "_accepted_words", lambda bit_generator, a, n: words)
    for metric in predict_mod.METRICS:
        got = evaluate_one(res, ExperimentConfig(metric=metric, mode="argmax"), *reference_run_generators(4))
        errors = guesses - actual
        assert got.e_rand == (np.abs(errors) if metric == "abs" else errors).sum() / 6


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_model_indices_matches_sample_index(data):
    a = data.draw(st.sampled_from((len(ALPHABET3), len(ALPHABET5))))
    counts = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=a, max_size=a).filter(any), min_size=1, max_size=6
    )))
    # each row's cum, summed as scoring sums it, which may end a rounding step below 1.0
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
    got, want = _sampled(counts, row_ids, u)
    assert got == want


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_crossings_match_searchsorted(data):
    # one crossing rule serves a cum per position (the model) and one cum for every position (the
    # marginal), and the gap-weighted crossing counts sum the errors of the searchsorted picks
    a = data.draw(st.integers(2, 6))
    counts = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=a, max_size=a).filter(any), min_size=1, max_size=6
    )))
    cum = np.cumsum(counts.T / counts.sum(axis=1), axis=0)  # the package's layout and bits
    for r in data.draw(st.sets(st.integers(0, len(counts) - 1))):
        cum[cum[:, r] == cum[-1, r], r] = np.nextafter(cum[-1, r], 0.0)  # a last entry below 1.0
    row_ids = data.draw(st.lists(st.integers(0, len(counts) - 1), min_size=1, max_size=40))
    u = np.array([
        data.draw(st.one_of(
            st.sampled_from(cum[:, r].tolist()),  # u equal to a threshold, repeated by a zero count
            st.just(float(np.nextafter(cum[-1, r], 1.0))),  # above the last entry
            st.floats(0.0, 1.0, exclude_max=True),
        ))
        for r in row_ids
    ])
    gaps = data.draw(st.lists(st.integers(1, 3), min_size=a - 1, max_size=a - 1))  # equal and unequal runs
    alphabet = tuple(np.cumsum([data.draw(st.integers(-50, 50)), *gaps]).tolist())
    steps, _, runs = predict_mod._gap_runs(alphabet)
    actual = np.array(data.draw(st.lists(st.integers(0, a - 1), min_size=len(u), max_size=len(u))))
    above = actual > steps
    cases = (
        (cum[:-1, row_ids], [searchsorted_pick(cum[:, r], x) for r, x in zip(row_ids, u)]),
        (cum[:-1, row_ids[0]][:, None], searchsorted_pick(cum[:, row_ids[0]], u)),
    )
    for heads, picks in cases:
        picked = heads <= u
        np.testing.assert_array_equal(picked, np.array(picks) > steps)
        errors = np.array(alphabet)[picks] - np.array(alphabet)[actual]
        assert predict_mod._error_sum(picked.copy(), above, runs, "signed") == errors.sum()
        assert predict_mod._error_sum(picked, above, runs, "abs") == np.abs(errors).sum()


@given(
    st.integers(1, 6).flatmap(lambda a: st.lists(
        # zero counts repeat a head; int64 counts reach totals past int32
        st.lists(st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2**47)), min_size=a, max_size=a).filter(any),
        min_size=1,
        max_size=6,
    )),
    st.data(),
)
@settings(deadline=None, max_examples=200)
def test_pick_exceeds_j_exactly_when_head_j_is_at_most_u(rows, data):
    # the package's heads, per position and of the marginal, never fall: the inverse-CDF pick
    # exceeds j exactly when head j <= u, for every j, u equal to a head and u = 0 included
    counts = np.array(rows, dtype=np.int64)
    row_ids = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=30))
    res = _resolution_over(counts, row_ids)
    heads = heads_of(res)
    u = np.array([
        data.draw(st.one_of(
            st.sampled_from([0.0, *heads[:, i].tolist()]),
            st.floats(0.0, 1.0, exclude_max=True),
        ))
        for i in range(len(row_ids))
    ])
    steps = np.arange(counts.shape[1] - 1)[:, None]
    picks = [sample_index(sequential_cum(rows[r]), x) for r, x in zip(row_ids, u)]
    np.testing.assert_array_equal(heads <= u, np.array(picks) > steps)
    marginal = predict_mod._heads(counts[row_ids[0]][:, None])
    picks = searchsorted_pick(np.array(sequential_cum(rows[row_ids[0]])), u)
    np.testing.assert_array_equal(marginal <= u, picks > steps)


def test_cum_columns_gather_copies_no_table():
    # many rows, few test positions: a gather allocates about its result, not a copy of the counts
    rng = np.random.default_rng(11)
    seq = SymbolSequence(rng.integers(0, 5, 201_000), ALPHABET5)
    tables = build_conditional_tables(dataclasses.replace(seq, indices=seq.indices[:200_000]), 8)
    res = resolve_fallback(tables, seq, 7)
    deeper = res.deepen()
    assert tables.counts.dtype == np.int32 and tables.counts.nbytes > 4_000_000
    gens = [reference_run_generators(11, k) for k in (7, 8)]
    tracemalloc.start()
    try:
        evaluate_run(res, ExperimentConfig(), gens[:1])
        evaluate_run(deeper, ExperimentConfig(), gens[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tables.counts.nbytes / 25  # a float64 table's bytes / 50


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_cum_columns_are_the_sequential_cum_of_each_positions_counts(data):
    # derived from the counts a slice at a time, every position's heads are its row's
    # probabilities summed left to right, bit for bit, at every order and slice size
    alphabet = data.draw(st.sampled_from((ALPHABET3, ALPHABET5)))
    symbols = draw_symbols(data, alphabet, 3)
    n = data.draw(st.integers(2, len(symbols) - 1))
    k_max = data.draw(st.integers(1, min(deepest(alphabet), n - 1)))
    seq, tables = split_tables(symbols, alphabet, n, k_max)
    assert tables.counts.T.flags.c_contiguous
    marginal = predict_mod._heads(tables.counts[:1].T)  # what the marginal baseline draws by
    np.testing.assert_array_equal(_bits(marginal[:, 0]), _bits(sequential_cum(tables.counts[0].tolist())[:-1]))
    with mock.patch.object(coding_mod, "_SLICE", data.draw(st.sampled_from((1, 7, coding_mod._SLICE)))):
        for res in deepen_chain(tables, seq):
            want = [sequential_cum(tables.counts[r].tolist())[:-1] for r in res.row_ids.tolist()]
            heads = heads_of(res)
            np.testing.assert_array_equal(_bits(heads).T, _bits(want))
            # positions the marginal answers (row id 0) get the marginal baseline's very heads
            at_marginal = heads[:, res.row_ids == 0]
            np.testing.assert_array_equal(_bits(at_marginal), _bits(np.broadcast_to(marginal, at_marginal.shape)))


@given(
    st.integers(2, 6).flatmap(lambda a: st.lists(
        st.lists(st.integers(0, 2**47), min_size=a, max_size=a).filter(any), min_size=1, max_size=8
    )),
    st.data(),
)
@settings(deadline=None, max_examples=150)
def test_cum_columns_of_hand_built_int64_counts(rows, data):
    # int64 counts, row-major as given, with totals past int32: the same left-to-right sums
    counts = np.array(rows, dtype=np.int64)
    row_ids = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=40))
    res = _resolution_over(counts, row_ids)
    want = [sequential_cum(rows[r])[:-1] for r in row_ids]
    np.testing.assert_array_equal(_bits(heads_of(res)).T, _bits(want))
    for row in rows:
        np.testing.assert_array_equal(
            _bits(predict_mod._heads(np.array(row, dtype=np.int64)[:, None])[:, 0]), _bits(sequential_cum(row)[:-1])
        )


@given(
    st.integers(2, 6).flatmap(lambda a: st.lists(
        st.tuples(
            st.integers(0, 2**49 - 64),  # a base near which every entry lies: many ties, large totals
            st.lists(st.integers(0, 3), min_size=a, max_size=a),
        ).filter(lambda row: row[0] or any(row[1])),  # a seen context has a count
        min_size=1,
        max_size=30,
    ))
)
@settings(deadline=None, max_examples=200)
@example([(0, [3, 3, 1])])
@example([(2**49 - 64, [1, 0, 1, 0]), (2**49 - 64, [2, 2, 2, 2])])
def test_argmax_picks_from_counts_match_argmax_of_probs(rows):
    # dividing a row by its total keeps its order and its ties, so argmax picks the same first index:
    # over alphabet range(a) against actual index 0, a one-position run's signed error is its pick
    counts = np.array([[base + d for d in deltas] for base, deltas in rows], dtype=np.int64)
    probs = counts / counts.sum(axis=1, keepdims=True)
    config = ExperimentConfig(metric="signed", baseline="marginal", mode="argmax")
    picks = [evaluate_one(_resolution_over(counts, [r]), config, None, _FixedDraws([0.0])).e for r in range(len(rows))]
    np.testing.assert_array_equal(picks, np.argmax(probs, axis=1))


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
    seed = data.draw(st.integers(0, 2**64 - 1))
    seq, tables = split_tables(symbols, alphabet, n, k_max)
    # the resolution at k itself, then every order of one deepen chain,
    # each scored for two runs in one call, so the second reuses the gathered rows
    config = ExperimentConfig(metric=metric, baseline=baseline, mode=mode)
    for res in (resolve_fallback(tables, seq, k), *deepen_chain(tables, seq)):
        got = evaluate_run(res, config, [reference_run_generators(seed, j, res.order) for j in (run, run + 1)])
        want = [
            scalar_evaluate_run(
                symbols, n, res.order, k_max, alphabet, metric,
                *reference_run_generators(seed, j, res.order),
                baseline=baseline, mode=mode,
            )
            for j in (run, run + 1)
        ]
        assert list(zip(got.e.tolist(), got.e_rand.tolist())) == want
        assert got.n_predictions == 2 * (len(symbols) - n)


@pytest.mark.parametrize("slice_size", [1, 7, 89, 90, 91])  # 90 test positions: one slice each, to one more
def test_evaluate_run_slices_match_per_position_scorer(slice_size, monkeypatch):
    # drawing and counting a slice at a time gives every run's unsliced result
    rng = np.random.default_rng(41)
    symbols = [int(ALPHABET5[i]) for i in np.minimum(rng.geometric(0.45, 150) - 1, 4)]
    n, k_max = 60, 3
    monkeypatch.setattr(coding_mod, "_SLICE", slice_size)
    seq, tables = split_tables(symbols, ALPHABET5, n, k_max)
    below = resolve_fallback(tables, seq, 2)  # deepened in slices too
    for res in (below, below.deepen()):
        for metric in predict_mod.METRICS:
            for baseline in predict_mod.BASELINES:
                for mode in predict_mod.MODES:
                    gens = reference_run_generators(8, res.order)
                    got = evaluate_one(res, ExperimentConfig(metric=metric, baseline=baseline, mode=mode), *gens)
                    want = scalar_evaluate_run(
                        symbols, n, res.order, k_max, ALPHABET5, metric,
                        *reference_run_generators(8, res.order),
                        baseline=baseline, mode=mode,
                    )
                    assert (got.e, got.e_rand) == want


@pytest.fixture(scope="module")
def long_split():
    rng = np.random.default_rng(2024)
    symbols = [int(ALPHABET5[i]) for i in np.minimum(rng.geometric(0.45, 420_000) - 1, 4)]
    n = 210_000
    seq, tables = split_tables(symbols, ALPHABET5, n, 4)
    return seq, tables, n


@pytest.mark.parametrize("mode", predict_mod.MODES)
@pytest.mark.parametrize("baseline", predict_mod.BASELINES)
@pytest.mark.parametrize("metric", predict_mod.METRICS)
def test_evaluate_run_equals_per_position_mean(metric, baseline, mode, long_split):
    # crossing counts must give the very float that the mean of 200k+ per-position errors gives
    seq, tables, n = long_split
    res = resolve_fallback(tables, seq, 4)
    config = ExperimentConfig(metric=metric, baseline=baseline, mode=mode)
    got = evaluate_one(res, config, *reference_run_generators(23, 1, 4))

    alpha = np.asarray(tables.alphabet, dtype=np.int64)
    a = len(alpha)
    if mode == "sample":
        u = reference_generator(23, 1, 4, "model").random(res.n_test)
        predicted = (table_cum(tables, res.row_ids)[:-1] <= u).sum(axis=0)
    else:
        predicted = np.argmax((tables.counts / tables.counts.sum(axis=1, keepdims=True))[res.row_ids], axis=1)
    gen = reference_generator(23, 1, 4, "baseline")
    if baseline == "uniform":
        guessed = gen.integers(0, a, res.n_test)
    else:
        guessed = searchsorted_pick(table_cum(tables, 0), gen.random(res.n_test))
    means = []
    for picks in (predicted, guessed):
        errors = alpha[picks] - alpha[seq.indices[n:]]
        means.append(float((np.abs(errors) if metric == "abs" else errors).mean()))
    assert res.n_test >= 200_000
    assert (got.e, got.e_rand) == tuple(means)


@pytest.mark.parametrize("baseline", predict_mod.BASELINES)
def test_evaluate_run_memory_is_bounded_by_slices(baseline, long_split, monkeypatch):
    # 210,000 test positions in slices of 4096: the whole call, each slice's gather included, holds one
    # slice at a time, at most its counts (20 B a position), heads (32 B), crossings (4 B), row totals
    # (4 B) and the divisions' float buffers (16 B); the heads of every position would be 6.7 MB
    seq, tables, n = long_split
    monkeypatch.setattr(coding_mod, "_SLICE", 4096)
    res = resolve_fallback(tables, seq, 4)
    bound = 96 * coding_mod._SLICE
    assert 32 * res.n_test > 10 * bound
    pairs = [reference_run_generators(9, j, 4) for j in range(3)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evaluate_run(res, ExperimentConfig(metric="abs", baseline=baseline), pairs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


def test_no_predict_stage_peaks_above_scoring(tmp_path, monkeypatch):
    # stress scale in small: 200,000 epoch-stamped prices, with slices of 16,384 test positions, about
    # the share of the test half that 65,536 are at 1M returns. Each stage's figure is the heap in use
    # at its peak, and "between stages" the highest outside them, as at the fallback histogram.
    # Scoring holds the tables, the resolution and one slice's gathers; the loader's views, the series
    # dropped before the logs, int32 codes, and child links of one order with each step deeper taken a
    # slice at a time keep every other stage within 1 MiB of it, where int64 codes and a walk over the
    # whole test half took the build and the resolution 2.2 and 2.6 MiB above it
    n = 200_000
    rng = np.random.default_rng(43)  # also loads numpy.random before tracing: module code is no stage's data
    prices = (100 * np.exp(np.cumsum(0.003 * rng.standard_t(4, n)))).tolist()
    stamps = (1_600_000_000 + 3600 * np.arange(n)).tolist()
    path = tmp_path / "long.csv"
    path.write_text("timestamp,price\n" + "".join(map("{},{!r}\n".format, stamps, prices)))
    del prices, stamps
    monkeypatch.setattr(coding_mod, "_SLICE", 1 << 14)
    peaks = {}

    def stage(name, fn):
        def traced(*args, **kwargs):
            peaks["between stages"] = max(peaks.get("between stages", 0), tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return out

        return traced

    for name in ("encode_series", "build_conditional_tables", "resolve_fallback", "evaluate_run"):
        monkeypatch.setattr(predict_mod, name, stage(name, getattr(predict_mod, name)))
    deepen = predict_mod.FallbackResolution.deepen
    monkeypatch.setattr(predict_mod.FallbackResolution, "deepen", stage("deepen", deepen))
    tracemalloc.start()
    try:
        held = [load_price_csv(path)]
        peaks["load_price_csv"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = [compute_log_returns(held.pop())]  # from CPython 3.11 the callee alone holds the series
        peaks["compute_log_returns"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_experiment(ExperimentConfig(runs=5, master_seed=1), held.pop())
        peaks["between stages"] = max(peaks["between stages"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    if sys.version_info < (3, 11):  # the caller's frame keeps the series through the logs
        del peaks["compute_log_returns"]
    scoring = peaks.pop("evaluate_run")
    over = {name: round((peak - scoring) / 2**20, 2) for name, peak in peaks.items() if peak > scoring}
    assert max(over.values(), default=0) < 1, f"MiB above scoring's {scoring / 2**20:.2f} MiB: {over}"


@pytest.mark.parametrize("size", [16, 17])
def test_evaluate_run_wide_alphabet(size):
    # 16 and 17 evenly spaced symbols: 15 and 16 rows of crossings, each counted as one run of gaps
    alphabet = tuple(range(-(size // 2), size - size // 2))
    rng = np.random.default_rng(size)
    symbols = [alphabet[i] for i in rng.integers(0, size, 3000)]
    symbols[-50:] = [alphabet[-1]] * 50  # the last symbol, above every step, occurs
    n = 1500
    seq, tables = split_tables(symbols, alphabet, n, 2)
    res = resolve_fallback(tables, seq, 2)
    for metric in predict_mod.METRICS:
        for baseline in predict_mod.BASELINES:
            for mode in predict_mod.MODES:
                tags = (5, metric, baseline, mode)
                config = ExperimentConfig(metric=metric, baseline=baseline, mode=mode)
                got = evaluate_one(res, config, *reference_run_generators(*tags))
                want = scalar_evaluate_run(
                    symbols, n, 2, 2, alphabet, metric,
                    *reference_run_generators(*tags),
                    baseline=baseline, mode=mode,
                )
                assert (got.e, got.e_rand) == want


@pytest.mark.parametrize("alphabet", [(-40, 7, 1234), (0, 1, 3, 6, 10, 15), (5,)])
def test_evaluate_run_over_uneven_alphabets_matches_scalar_scorer(alphabet, monkeypatch):
    # unequal gaps count one run of equal gaps at a time, and a single symbol has no step to cross;
    # slices of 7 positions draw and count the 100 test positions in 15 slices
    rng = np.random.default_rng(len(alphabet))
    symbols = [alphabet[i] for i in np.minimum(rng.geometric(0.4, 260) - 1, len(alphabet) - 1)]
    n, k_max = 160, 3
    monkeypatch.setattr(coding_mod, "_SLICE", 7)
    seq, tables = split_tables(symbols, alphabet, n, k_max)
    for res in deepen_chain(tables, seq):
        for metric in predict_mod.METRICS:
            for baseline in predict_mod.BASELINES:
                for mode in predict_mod.MODES:
                    tags = (31, res.order, metric, baseline, mode)
                    config = ExperimentConfig(metric=metric, baseline=baseline, mode=mode)
                    got = evaluate_one(res, config, *reference_run_generators(*tags))
                    want = scalar_evaluate_run(
                        symbols, n, res.order, k_max, alphabet, metric,
                        *reference_run_generators(*tags),
                        baseline=baseline, mode=mode,
                    )
                    assert (got.e, got.e_rand) == want
                    assert type(got.e) is type(got.e_rand) is float  # no numpy scalar


class _Watched:
    """Stands in for a generator and calls ``on_use`` whenever scoring reads it."""

    def __init__(self, gen, on_use):
        self.gen, self.on_use = gen, on_use

    def __getattr__(self, name):
        self.on_use()
        return getattr(self.gen, name)


@pytest.mark.parametrize("alphabet", [ALPHABET5, (-40, 7, 1234, 1300)])
def test_evaluate_run_scores_runs_together_as_each_alone(alphabet, monkeypatch):
    # 7 runs in batches of 3 over 100 test positions in slices of 33, so each run's uniform baseline
    # carries a half across slices: one call over every run gives each run's one-pair call and the
    # scalar scorer, and draws no more than one batch of pairs ahead of the runs it scores
    rng = np.random.default_rng(len(alphabet))
    symbols = [alphabet[i] for i in np.minimum(rng.geometric(0.4, 260) - 1, len(alphabet) - 1)]
    n, k_max, n_runs = 160, 3, 7
    monkeypatch.setattr(coding_mod, "_SLICE", 33)
    monkeypatch.setattr(predict_mod, "_SEED_CHUNK", 3)
    seq, tables = split_tables(symbols, alphabet, n, k_max)
    res = resolve_fallback(tables, seq, 2)
    assert len(coding_mod._slices(res.n_test)) == 4
    for metric, baseline, mode in itertools.product(predict_mod.METRICS, predict_mod.BASELINES, predict_mod.MODES):
        config = ExperimentConfig(metric=metric, baseline=baseline, mode=mode)
        tags = [(43, j, metric, baseline, mode) for j in range(n_runs)]
        drawn, first_use = 0, {}

        def pairs():
            nonlocal drawn
            for j in range(n_runs):
                model_gen, baseline_gen = reference_run_generators(*tags[j])
                drawn += 1
                yield model_gen, _Watched(baseline_gen, lambda j=j: first_use.setdefault(j, drawn))

        together = evaluate_run(res, config, pairs())
        alone = [evaluate_one(res, config, *reference_run_generators(*tag)) for tag in tags]
        want = [
            scalar_evaluate_run(
                symbols, n, 2, k_max, alphabet, metric, *reference_run_generators(*tag), baseline=baseline, mode=mode
            )
            for tag in tags
        ]
        assert list(zip(together.e.tolist(), together.e_rand.tolist())) == [(r.e, r.e_rand) for r in alone] == want
        assert together.n_predictions == n_runs * res.n_test
        # pairs drawn when each run is first scored, beyond the runs before it
        assert [first_use[j] - j for j in range(n_runs)] == [3, 2, 1, 3, 2, 1, 1]


def test_fallback_orders_replay_against_tables():
    rng = np.random.default_rng(77)
    symbols = [int(ALPHABET5[i]) for i in rng.integers(0, 5, 500)]
    seq = mk_seq(symbols, ALPHABET5)
    n = 250
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 5)
    res = resolve_fallback(tables, seq, 5)
    rows = {j: context_rows(tables, j) for j in range(1, 6)}
    answered, orders = table_cum(tables, res.row_ids), orders_of(res)
    for i, t in enumerate(range(n, len(symbols))):
        context = tuple(reversed(symbols[t - 5 : t]))
        largest, cum = 0, table_cum(tables, 0)
        for j in range(5, 0, -1):
            if context[:j] in rows[j]:
                largest, (_, cum) = j, rows[j][context[:j]]
                break
        assert orders[i] == largest
        np.testing.assert_array_equal(answered[:, i], cum)


# --- run_experiment -----------------------------------------------------------


def small_returns(seed=19, n=800):
    rng = np.random.default_rng(seed)
    return mk_returns(rng.standard_t(4, n) * 0.01, instrument="demo")


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 keeps a temporary argument in the caller's frame until the call returns",
)
def test_run_experiment_frees_returns_after_coding(monkeypatch):
    # the caller holds no name for the returns, so after coding nothing keeps them
    refs = []

    def fresh_returns():
        returns = small_returns()
        refs.extend((weakref.ref(returns), weakref.ref(returns.values)))
        return returns

    alive = []
    build = predict_mod.build_conditional_tables

    def spy(train, k_max):
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        return build(train, k_max)

    monkeypatch.setattr(predict_mod, "build_conditional_tables", spy)
    run_experiment(ExperimentConfig(runs=1, k_max=3, stats_on="train"), fresh_returns())
    assert alive == [[False, False]]


def test_run_experiment_scores_each_order_in_one_call(monkeypatch):
    # one evaluate_run per order, from k_min up, handed that order's runs and no more
    calls = []
    evaluate = predict_mod.evaluate_run

    def spy(resolution, config, pairs):
        pairs = list(pairs)
        calls.append((resolution.order, len(pairs)))
        return evaluate(resolution, config, pairs)

    monkeypatch.setattr(predict_mod, "evaluate_run", spy)
    report = run_experiment(ExperimentConfig(runs=3, k_min=2, k_max=4), small_returns())
    assert calls == [(2, 3), (3, 3), (4, 3)]
    assert [len(report.per_run[k].e) for k in report.k_values] == [3, 3, 3]


@pytest.mark.parametrize("mode", predict_mod.MODES)
@pytest.mark.parametrize("baseline", predict_mod.BASELINES)
@pytest.mark.parametrize("metric", predict_mod.METRICS)
def test_run_experiment_orders_do_not_depend_on_k_min(metric, baseline, mode):
    # an order's runs and fallback counts are the same whichever order the walk starts from
    configs = [
        ExperimentConfig(runs=3, k_min=k_min, k_max=5, master_seed=13, metric=metric, baseline=baseline, mode=mode)
        for k_min in (1, 3)
    ]
    low, high = (run_experiment(cfg, small_returns()) for cfg in configs)
    assert high.k_values == (3, 4, 5)
    for k in high.k_values:
        assert low.per_run[k].e.tolist() == high.per_run[k].e.tolist()
        assert low.per_run[k].e_rand.tolist() == high.per_run[k].e_rand.tolist()
        assert low.fallback_histogram[k] == high.fallback_histogram[k]


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
    n_test = len(report.sequence) - report.tables.n_train
    assert report.tables.n_train == 400 and n_test == 400
    for k in report.k_values:
        hist = report.fallback_histogram[k]
        assert sum(hist.values()) == n_test
        assert all(0 <= order <= k for order in hist)
        assert len(report.per_run[k].e) == len(report.per_run[k].e_rand) == 4


def test_fallback_histogram_counts_each_order():
    # folded from the k_max counts: equal to counting the orders of each order's resolution
    cfg = ExperimentConfig(runs=1, k_min=2, k_max=7, master_seed=7)
    report = run_experiment(cfg, small_returns())
    assert list(report.fallback_histogram) == list(report.k_values)
    for k in report.k_values:
        counts = np.bincount(orders_of(resolve_fallback(report.tables, report.sequence, k)), minlength=k + 1)
        assert report.fallback_histogram[k] == {j: int(counts[j]) for j in range(k + 1)}
        assert list(report.fallback_histogram[k]) == list(range(k + 1))


def test_report_means_match_per_run():
    cfg = ExperimentConfig(runs=5, k_min=1, k_max=3, master_seed=11)
    report = run_experiment(cfg, small_returns())
    for i, k in enumerate(report.k_values):
        es = report.per_run[k].e.tolist()
        rs = report.per_run[k].e_rand.tolist()
        assert report.e_mean[i] == pytest.approx(float(np.mean(es)), abs=1e-12)
        assert report.rand_mean[i] == pytest.approx(float(np.mean(rs)), abs=1e-12)
        assert min(es) <= report.e_mean[i] <= max(es)


@pytest.mark.parametrize("mode", predict_mod.MODES)
@pytest.mark.parametrize("baseline", predict_mod.BASELINES)
@pytest.mark.parametrize("metric", predict_mod.METRICS)
def test_run_experiment_runs_match_reference_streams(metric, baseline, mode):
    # every (run, order) scores the draws of numpy's own SeedSequence -> PCG64 substreams
    cfg = ExperimentConfig(
        runs=3, k_min=2, k_max=5, master_seed=2**63 + 5, metric=metric, baseline=baseline, mode=mode
    )
    report = run_experiment(cfg, small_returns())
    for k in report.k_values:
        res = resolve_fallback(report.tables, report.sequence, k)
        want = [
            evaluate_one(
                res, ExperimentConfig(metric=metric, baseline=baseline, mode=mode),
                *reference_run_generators(cfg.master_seed, "demo", j, k),
            )
            for j in range(1, cfg.runs + 1)
        ]
        got = report.per_run[k]
        assert list(zip(got.e.tolist(), got.e_rand.tolist())) == [(run.e, run.e_rand) for run in want]
        assert got.n_predictions == sum(run.n_predictions for run in want)


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


@pytest.mark.parametrize(
    "bad",
    [
        {"runs": 0},
        {"runs": 2**32},
        {"k_min": 0},
        {"k_min": 5, "k_max": 4},
        {"k_max": 13},
        {"scheme": "seven"},
        {"metric": "squared"},
        {"baseline": "zero"},
        {"mode": "median"},
        {"stats_on": "test"},
        {"master_seed": -1},
        {"master_seed": 2**64},
        # only an int: a bool reaches the report as true, a float fails once the data has loaded,
        # and a numpy integer cannot be written to the report
        {"runs": True},
        {"master_seed": True},
        {"runs": 2.5},
        {"k_max": 2.0},
        {"runs": np.int64(2)},
    ],
    ids=lambda bad: "-".join(f"{field}={value}" for field, value in bad.items()),
)
def test_run_experiment_config_validation(bad):
    # the message names the field, so the check that fires is that field's own
    field = next(reversed(bad))
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**bad)
    with pytest.raises(ValueError, match=field):  # replace builds the config again
        dataclasses.replace(ExperimentConfig(), **bad)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_run_experiment_rejects_master_seed_before_any_work(monkeypatch, seed):
    # a seed run_generators cannot take fails when the config is built, not after the tables are
    def build(train, k_max):
        raise AssertionError("tables built for a config whose runs cannot be seeded")

    monkeypatch.setattr(predict_mod, "build_conditional_tables", build)
    with pytest.raises(ValueError, match="master_seed"):
        run_experiment(ExperimentConfig(runs=1, k_max=2, master_seed=seed), small_returns())


def test_order2_model_beats_order1_on_synthetic_chain():
    from oracles import generate_order2_symbols, make_order2_chain

    chain = make_order2_chain()
    symbols = generate_order2_symbols(chain, 20_000, seed=4)
    seq = mk_seq(symbols, ALPHABET3)
    n = 10_000
    train = dataclasses.replace(seq, indices=seq.indices[:n])
    tables = build_conditional_tables(train, 2)

    def mean_e(res):
        pairs = (reference_run_generators(99, "chain", j, res.order) for j in range(10))
        return evaluate_run(res, ExperimentConfig(metric="abs"), pairs).e.mean()

    e1, e2 = mean_e(resolve_fallback(tables, seq, 1)), mean_e(resolve_fallback(tables, seq, 2))
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
        rows_a, rows_b = context_rows(a, k), context_rows(b, k)
        assert set(rows_a) == set(rows_b)
        for ctx, (counts, _) in rows_a.items():
            np.testing.assert_array_equal(counts, rows_b[ctx][0])
