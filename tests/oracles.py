"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately written the slow, obvious way (sliding-window
enumeration, exact rational arithmetic, literal predicate chains, power
iteration) and shares no code with the package. Two accessors, ``context_rows``
and ``table_cum``, read a table set the package built, so that tests can hold
its rows against these oracles.
"""

from __future__ import annotations

import calendar
import csv
import io
import json
import math
import zlib
from collections import Counter
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import numpy as np

ALPHABET3 = (-1, 0, 1)
ALPHABET5 = (-2, -1, 0, 1, 2)


def brute_force_tables(symbols, k_max, alphabet):
    """Direct window enumeration. Returns {k: {context: (counts, probs)}} with
    contexts most-recent-first, counts as ints and probs as exact Fractions,
    plus the marginal counts over the whole sequence."""
    symbols = list(symbols)
    n = len(symbols)
    tables = {}
    for k in range(1, k_max + 1):
        rows: dict[tuple, Counter] = {}
        for t in range(k, n):
            ctx = tuple(reversed(symbols[t - k : t]))
            rows.setdefault(ctx, Counter())[symbols[t]] += 1
        table = {}
        for ctx, counter in rows.items():
            total = sum(counter.values())
            counts = [counter.get(s, 0) for s in alphabet]
            probs = [Fraction(c, total) for c in counts]
            table[ctx] = (counts, probs)
        tables[k] = table
    marginal = [symbols.count(s) for s in alphabet]
    return tables, marginal


def brute_force_back_off(symbols, n, k, k_max, alphabet):
    """Scalar longest-suffix back-off over tables of the training half.

    Tables come from brute_force_tables(symbols[:n], k_max). For every test
    position t = n .. len(symbols)-1 the context (symbols[t-1], ...,
    symbols[t-k]) is looked up at order k, then k-1, ... down to 1, and the
    first order with a row answers; with none the marginal answers at order
    0. Returns one (order, counts) pair per test position.
    """
    symbols = list(symbols)
    tables, marginal = brute_force_tables(symbols[:n], k_max, alphabet)
    out = []
    for t in range(n, len(symbols)):
        ctx = tuple(reversed(symbols[t - k : t]))
        for j in range(k, 0, -1):
            row = tables[j].get(ctx[:j])
            if row is not None:
                out.append((j, row[0]))
                break
        else:
            out.append((0, marginal))
    return out


def sequential_cum(counts):
    """Probabilities counts/total summed left to right, one float add a step."""
    total = sum(counts)
    cum, acc = [], 0.0
    for c in counts:
        acc += c / total
        cum.append(acc)
    return cum


def sample_index(cum, u):
    """Index of the first cumulative probability above u, the last if none."""
    for i, c in enumerate(cum):
        if c > u:
            return i
    return len(cum) - 1


def searchsorted_pick(cum, u):
    """sample_index by binary search, for one u or an array of them: the entries <= u, capped at the last index."""
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def scalar_evaluate_run(symbols, n, k, k_max, alphabet, metric, model_gen, baseline_gen, *, baseline, mode):
    """(e, e_rand) of one run, scored one test position at a time.

    Each test position t = n .. len(symbols)-1 answers with its row from
    brute_force_back_off. In "sample" mode the model predicts the symbol at
    sample_index(sequential_cum(row), u), u being the position's entry of
    model_gen.random(n_test); in "argmax" mode the row's first largest count,
    drawing nothing. The "uniform" baseline predicts the symbol at index
    baseline_gen.integers(0, |alphabet|, n_test); the "marginal" baseline
    samples the training half's symbol counts with baseline_gen.random(n_test).
    "abs" averages |predicted - actual| and "signed" predicted - actual.
    """
    symbols = list(symbols)
    rows = [counts for _, counts in brute_force_back_off(symbols, n, k, k_max, alphabet)]
    n_test = len(rows)
    if mode == "sample":
        draws = model_gen.random(n_test).tolist()
        predicted = [alphabet[sample_index(sequential_cum(c), u)] for c, u in zip(rows, draws)]
    else:
        predicted = [alphabet[c.index(max(c))] for c in rows]
    if baseline == "uniform":
        guessed = [alphabet[i] for i in baseline_gen.integers(0, len(alphabet), n_test).tolist()]
    else:
        marginal = sequential_cum([symbols[:n].count(s) for s in alphabet])
        guessed = [alphabet[sample_index(marginal, u)] for u in baseline_gen.random(n_test).tolist()]

    def mean_error(guesses):
        errors = [g - a for g, a in zip(guesses, symbols[n:], strict=True)]
        if metric == "abs":
            errors = [abs(x) for x in errors]
        return sum(errors) / n_test

    return mean_error(predicted), mean_error(guessed)


def reference_seed_sequence(seed, *tags):
    """numpy's own SeedSequence of ``seed`` with ``tags`` as its spawn key, a string tag as its crc32."""
    key = [zlib.crc32(t.encode("utf-8")) if isinstance(t, str) else t for t in tags]
    return np.random.SeedSequence(seed, spawn_key=key)


def reference_generator(seed, *tags):
    """numpy's own SeedSequence -> PCG64 generator of ``reference_seed_sequence(seed, *tags)``."""
    return np.random.Generator(np.random.PCG64(reference_seed_sequence(seed, *tags)))


def reference_run_generators(seed, *tags):
    """The (model, baseline) generators a run keyed by ``tags`` draws from, seeded by numpy."""
    return reference_generator(seed, *tags, "model"), reference_generator(seed, *tags, "baseline")


def _reference_instant(raw):
    text = raw.strip()
    try:
        epoch = float(text)
    except ValueError:
        epoch = None
    if epoch is not None:
        return datetime.fromtimestamp(epoch, tz=timezone.utc)
    if text[-1:] in ("Z", "z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def reference_isoformat(us):
    """``datetime.isoformat`` of each microsecond stamp, one aware UTC ``datetime`` per stamp."""
    return [(_EPOCH + timedelta(microseconds=int(u))).isoformat() for u in us]


def reference_returns_outputs(label, us, prices):
    """``{suffix: text}`` of the three files ``returns`` writes for a loaded series, a row at a
    time: one ``datetime`` and one ``repr`` per row, the pairs as a list of tuples through
    ``csv.writer``. ``label`` must be one that JSON writes as given."""
    values = np.diff(np.log(np.asarray(prices, dtype=np.float64))).tolist()
    stamps = reference_isoformat(us)
    lines = ["timestamp,log_return"]
    for stamp, value in zip(stamps[1:], values):
        lines.append(f"{stamp},{value!r}")
    stats = {
        "instrument": label,
        "count": len(values),
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
        "first_timestamp": stamps[0],
        "last_timestamp": stamps[-1],
    }
    pairs = list(zip(values[:-1], values[1:]))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["r_t", "r_t_plus_1"])
    writer.writerows([repr(a), repr(b)] for a, b in pairs)
    return {
        "returns.csv": "\n".join(lines) + "\n",
        "stats.json": json.dumps(stats, indent=2) + "\n",
        "phase_space.csv": buf.getvalue(),
    }


def reference_census_csv(census):
    """The text ``csv.writer`` gives a block census: a header, then one row per order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "distinct", "max_possible", "total_windows"])
    writer.writerows([c.order, c.distinct_count, c.max_possible, c.total_windows] for c in census)
    return buf.getvalue()


def reference_load_price_csv(path, ts_name="timestamp", price_name="price", lenient=False):
    """Row-at-a-time price loader: one (datetime, price, line) tuple per row,
    a sort on (datetime, line), a walk that drops repeated datetimes.

    Shares only the ``csv`` tokenizer and the file decoding (UTF-8, a leading
    byte-order mark dropped) with the package.
    Returns ``("ok", microseconds, prices, skipped_lines)`` with the skipped
    lines in warning order, or ``(error_name, line_no)`` with line_no None
    for a series that is too short.
    """
    rows, skipped = [], []
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader, [])]
            if ts_name not in header or price_name not in header:
                return ("MalformedRow", 1)
            ts_col, price_col = header.index(ts_name), header.index(price_name)
            for row in reader:
                line = reader.line_num
                if all(cell.strip() == "" for cell in row):
                    continue
                try:
                    ts = _reference_instant(row[ts_col])
                    price = float(row[price_col])
                except (IndexError, ValueError, OverflowError, OSError):
                    if lenient:
                        skipped.append(line)
                        continue
                    return ("MalformedRow", line)
                if not (price > 0 and math.isfinite(price)):
                    if lenient:
                        skipped.append(line)
                        continue
                    return ("NonPositivePrice", line)
                rows.append((ts, price, line))
        except csv.Error:
            return ("MalformedRow", reader.line_num)
    rows.sort(key=lambda r: (r[0], r[2]))
    kept = []
    for ts, price, line in rows:
        if kept and kept[-1][0] == ts:
            if not lenient:
                return ("DuplicateTimestamp", line)
            skipped.append(line)
            continue
        kept.append((ts, price))
    if len(kept) < 2:
        return ("SeriesTooShort", None)
    micros = [calendar.timegm(ts.utctimetuple()) * 10**6 + ts.microsecond for ts, _ in kept]
    return ("ok", micros, [price for _, price in kept], skipped)


def context_rows(tables, k):
    """{context tuple: (counts, cum)} of a table set's order-k contexts, in row order.

    Each context is read off the set's tree, one order at a time: a row's
    context is its parent's context plus its oldest symbol, so a context tuple
    reads most recent first. ``counts`` is the context's row of the set's
    counts and ``cum`` its ``table_cum``.
    """
    contexts = {0: ()}  # the marginal's empty context, the parent of every order-1 row
    for j in range(1, k + 1):
        table = tables.tables[j]
        parents = tables.parents[table.rows.start : table.rows.stop].tolist()
        contexts = {
            row: contexts[parent] + (tables.alphabet[oldest],)
            for row, parent, oldest in zip(table.rows, parents, table.oldest.tolist())
        }
        assert len(set(contexts.values())) == len(table.rows), f"order {j} holds a context twice"
    return {contexts[row]: (tables.counts[row], cum) for row, cum in zip(table.rows, table_cum(tables, table.rows).T)}


def table_cum(tables, rows):
    """The cum of stacked row ``rows`` as scoring reads it: (|alphabet|,), or one column per row of an array.

    The first |alphabet| - 1 entries are the heads ``evaluate_run`` derives for a position that
    row answers, with the package's own ``_heads``, so they are its bits. The last, which no draw
    reads, adds the row's last count over its total to them, as the left-to-right sum would.
    """
    from procrec.predict import _heads

    ids = np.atleast_1d(np.asarray(rows, dtype=np.int32))
    counts = tables.counts[ids]
    heads = _heads(counts.T)
    cum = np.vstack([heads, heads[-1] + counts[:, -1] / counts.sum(axis=1)])
    return cum if np.ndim(rows) else cum[:, 0]


def reference_tables_json(tables):
    """The ``_tables.json`` text of a table set: a nested payload of dicts and
    lists, built from ``context_rows``, through ``json.dumps(indent=2)``.

    Shares only the table set's attributes with the package's fixed-layout
    writer, ``procrec.markov.dump_tables_json``.
    """

    def distribution(counts):
        counts = counts.tolist()
        total = sum(counts)
        return {"counts": counts, "probs": [c / total for c in counts]}

    payload = {
        "alphabet": list(tables.alphabet),
        "k_max": tables.k_max,
        "n_train": tables.n_train,
        "marginal": distribution(tables.counts[0]),
        "tables": [
            {
                "k": k,
                "rows": {
                    ",".join(map(str, ctx)): distribution(counts)
                    for ctx, (counts, _) in context_rows(tables, k).items()
                },
            }
            for k in sorted(tables.tables)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def brute_force_distinct_blocks(symbols, k):
    symbols = list(symbols)
    return len({tuple(symbols[i : i + k]) for i in range(len(symbols) - k + 1)})


def five_band_matches(v, s):
    """Literal five-band predicate chain; all symbols whose band contains v."""
    matches = []
    if v > s:
        matches.append(2)
    if s >= v > s / 3:
        matches.append(1)
    if s / 3 >= v > -s / 3:
        matches.append(0)
    if -s / 3 >= v > -s:
        matches.append(-1)
    if -s >= v:
        matches.append(-2)
    return matches


def three_band_matches(v, s):
    matches = []
    if v > s:
        matches.append(1)
    if s >= v > -s:
        matches.append(0)
    if -s >= v:
        matches.append(-1)
    return matches


def coarsen_five_to_three(symbol):
    if symbol == 2:
        return 1
    if symbol == -2:
        return -1
    return 0


# --- hand-specified order-2 chain over three symbols ---------------------
#
# Next-symbol index is (recent + older) % 3 with probability FAVORED, the two
# other indices split the remainder evenly. Summing the favored rule over the
# older symbol shows the order-1 conditionals are exactly uniform, so an
# order-2 model genuinely beats an order-1 one on this process.

FAVORED = 0.8


def make_order2_chain(favored=FAVORED):
    rest = (1.0 - favored) / 2.0
    chain = {}
    for recent in range(3):
        for older in range(3):
            probs = [rest, rest, rest]
            probs[(recent + older) % 3] = favored
            chain[(recent, older)] = tuple(probs)
    return chain


def generate_order2_symbols(chain, n, seed, alphabet=ALPHABET3):
    """Simulate the chain; returns symbols (not indices)."""
    rng = np.random.default_rng(seed)
    cums = {ctx: np.cumsum(p) for ctx, p in chain.items()}
    idx = [int(rng.integers(0, 3)), int(rng.integers(0, 3))]
    draws = rng.random(n)
    for t in range(2, n):
        ctx = (idx[t - 1], idx[t - 2])
        idx.append(int(np.searchsorted(cums[ctx], draws[t], side="right")))
    return np.array([alphabet[i] for i in idx[:n]], dtype=np.int64)


def order2_stationary_pairs(chain):
    """Stationary distribution over (recent, older) index pairs via plain
    power iteration on the lifted 9x9 chain."""
    states = [(r, o) for r in range(3) for o in range(3)]
    pos = {s: i for i, s in enumerate(states)}
    m = np.zeros((9, 9))
    for (recent, older), probs in chain.items():
        for nxt, p in enumerate(probs):
            m[pos[(recent, older)], pos[(nxt, recent)]] = p
    v = np.full(9, 1.0 / 9.0)
    for _ in range(500):
        v = v @ m
    return {s: v[i] for s, i in pos.items()}


def expected_sampled_abs_error_order2(chain, alphabet=ALPHABET3):
    """Closed-form E|predicted - actual| when both are drawn from the true
    order-2 conditional, averaged over the stationary context distribution."""
    pi = order2_stationary_pairs(chain)
    total = 0.0
    for ctx, probs in chain.items():
        inner = 0.0
        for a, pa in enumerate(probs):
            for b, pb in enumerate(probs):
                inner += pa * pb * abs(alphabet[a] - alphabet[b])
        total += pi[ctx] * inner
    return total


def expected_uniform_vs_stationary_abs_error(chain, alphabet=ALPHABET3):
    """E|uniform draw - actual| under the chain's stationary symbol law."""
    pi = order2_stationary_pairs(chain)
    marg = np.zeros(3)
    for (recent, _), p in pi.items():
        marg[recent] += p
    total = 0.0
    for a in range(3):
        for b in range(3):
            total += (1.0 / 3.0) * marg[b] * abs(alphabet[a] - alphabet[b])
    return total
