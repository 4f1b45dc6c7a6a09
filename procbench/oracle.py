"""Expected outputs computed from the benchmark's own prices, sharing no code with procrec.

Each function codes the generated prices with the literal band predicates
(log returns in time order, mean, population std) and derives what a correct
command must write. ``check_*`` functions return a list of mismatch messages,
empty when the outputs are right.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

ALPHABET = (-2, -1, 0, 1, 2)  # the five-symbol scheme
STATS_RTOL = 1e-12
E_RAND_SIGMAS = 6.0


def code(prices: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Five-symbol codes, mean and population std of the log returns of a time-ordered path."""
    r = np.diff(np.log(prices))
    mean, s = float(np.mean(r)), float(np.std(r))
    v = r - mean
    sym = np.select([v > s, v > s / 3, v > -s / 3, v > -s], [2, 1, 0, -1], -2)
    return sym.astype(np.int64), mean, s


def count_tables(train: list[int], k_max: int) -> dict[int, dict[str, Counter]]:
    """Per order, context key 'most recent,...,oldest' -> Counter of next symbols."""
    tables = {}
    for k in range(1, k_max + 1):
        rows: dict[str, Counter] = {}
        for t in range(k, len(train)):
            key = ",".join(str(train[t - j]) for j in range(1, k + 1))
            rows.setdefault(key, Counter())[train[t]] += 1
        tables[k] = rows
    return tables


def fallback_histograms(sym: np.ndarray, n_train: int, k_max: int) -> dict[int, dict[int, int]]:
    """Back-off order histogram per k from the longest present context L_t.

    A context is present at order j when some training position t < n_train
    follows it. L_t is the largest present order of test position t's context;
    at order k the answer comes from order min(L_t, k).
    """
    digits = sym + 2
    total = len(sym)
    codes = np.zeros(total, dtype=np.int64)
    longest = np.zeros(total - n_train, dtype=np.int64)
    for j in range(1, k_max + 1):
        codes[j:] = codes[j:] * 8 + digits[: total - j]  # codes[t] = context of t at order j
        present = np.isin(codes[n_train:], np.unique(codes[j:n_train]))
        longest[present] = j
    return {
        k: {o: int(c) for o, c in enumerate(np.bincount(np.minimum(longest, k), minlength=k + 1))}
        for k in range(1, k_max + 1)
    }


def e_rand(test: np.ndarray, alphabet: tuple[int, ...], runs: int) -> tuple[float, float]:
    """Closed-form mean of E|uniform - actual| over the test half, and the tolerance
    (E_RAND_SIGMAS standard errors of a mean over runs x n_test draws)."""
    a = np.asarray(alphabet, dtype=np.float64)
    dist = np.abs(a[:, None] - test[None, :].astype(np.float64))  # (|A|, n_test)
    mean_t = dist.mean(axis=0)
    var_t = (dist**2).mean(axis=0) - mean_t**2
    n = len(test)
    return float(mean_t.mean()), E_RAND_SIGMAS * math.sqrt(var_t.sum() / runs) / n


def predict_expectation(prices: np.ndarray, k_max: int, runs: int, with_tables: bool) -> dict:
    sym, mean, std = code(prices)
    n_train = len(sym) // 2
    exp = {
        "n_returns": len(sym),
        "n_train": n_train,
        "mean": mean,
        "std": std,
        "histograms": fallback_histograms(sym, n_train, k_max),
        "e_rand": e_rand(sym[n_train:], ALPHABET, runs),
    }
    if with_tables:
        train = sym[:n_train].tolist()
        exp["tables"] = count_tables(train, k_max)
        exp["marginal"] = [train.count(s) for s in ALPHABET]
    return exp


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=STATS_RTOL)


def check_report(out: Path, label: str, exp: dict, k_max: int) -> list[str]:
    errs = []
    report = json.loads((out / f"{label}_report.json").read_text(encoding="utf-8"))
    series = report["series"]
    if (series["n_returns"], series["n_train"]) != (exp["n_returns"], exp["n_train"]):
        errs.append(f"{label}: series {series} vs n_returns={exp['n_returns']} n_train={exp['n_train']}")
    coding = report["coding"]
    if not (_close(coding["mean"], exp["mean"]) and _close(coding["std"], exp["std"])):
        errs.append(f"{label}: coding stats {coding['mean']}, {coding['std']} vs {exp['mean']}, {exp['std']}")
    results = {r["k"]: r for r in report["results"]}
    if sorted(results) != list(range(1, k_max + 1)):
        errs.append(f"{label}: results for k={sorted(results)}")
        return errs
    for k, hist in exp["histograms"].items():
        got = report["fallback_histogram"].get(str(k))
        want = {str(o): c for o, c in hist.items()}
        if got != want:
            errs.append(f"{label}: fallback_histogram k={k} {got} vs {want}")
    mu, tol = exp["e_rand"]
    for k, r in results.items():
        if abs(r["e_rand_mean"] - mu) > tol:
            errs.append(f"{label}: k={k} e_rand_mean {r['e_rand_mean']} outside {mu} +/- {tol}")
    if not results[1]["e_mean"] < results[1]["e_rand_mean"]:
        errs.append(f"{label}: k=1 e_mean {results[1]['e_mean']} not below e_rand_mean {results[1]['e_rand_mean']}")
    lines = (out / f"{label}_plot.csv").read_text(encoding="utf-8").splitlines()
    want_lines = ["k,e_k,eRand_k"]
    rows = [line.split(",") for line in lines[1:]]
    if lines[:1] != want_lines or len(rows) != k_max or any(
        (int(k), float(e), float(er)) != (k_i, results[k_i]["e_mean"], results[k_i]["e_rand_mean"])
        for k_i, (k, e, er) in zip(range(1, k_max + 1), rows)
    ):
        errs.append(f"{label}: plot CSV does not match the report")
    return errs


def check_tables(out: Path, label: str, exp: dict, k_max: int) -> list[str]:
    errs = []
    doc = json.loads((out / f"{label}_tables.json").read_text(encoding="utf-8"))
    alphabet = list(ALPHABET)
    if doc["alphabet"] != alphabet or doc["k_max"] != k_max or doc["n_train"] != exp["n_train"]:
        errs.append(f"{label}: tables header {doc['alphabet']} k_max={doc['k_max']} n_train={doc['n_train']}")
    if doc["marginal"]["counts"] != exp["marginal"]:
        errs.append(f"{label}: marginal counts {doc['marginal']['counts']} vs {exp['marginal']}")
    got_orders = [t["k"] for t in doc["tables"]]
    if got_orders != list(range(1, k_max + 1)):
        return errs + [f"{label}: table orders {got_orders}"]
    for table in doc["tables"]:
        k = table["k"]
        want = exp["tables"][k]
        rows = table["rows"]
        if rows.keys() != want.keys():
            errs.append(f"{label}: k={k} has {len(rows)} contexts, expected {len(want)}")
            continue
        for key, row in rows.items():
            counts = [want[key][s] for s in alphabet]
            total = sum(counts)
            if row["counts"] != counts or any(
                not math.isclose(p, c / total, rel_tol=1e-15) for p, c in zip(row["probs"], counts)
            ):
                errs.append(f"{label}: k={k} row {key} {row} vs counts {counts}")
                break
    return errs
