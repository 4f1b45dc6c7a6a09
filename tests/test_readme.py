"""README's Library and "experiment by hand" blocks run against the current API.

Each block is read out of README.md and executed on a small synthetic series,
so an API change that an example does not follow fails here instead of in a
reader's session. The Library block reads ``btc.csv`` from the working
directory and must print what the report holds; the hand-run scores must be
those of ``run_experiment``, which the README says they reproduce.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import synth

from procrec import PriceSeries, compute_log_returns, report_to_json_dict, run_experiment
from procrec.predict import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(after: str) -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(re.escape(after) + r"\n\n```python\n(.*?)```", text, re.S)
    assert match, f"README.md has no python block after {after!r}"
    return match.group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    synth.write_price_csv("btc.csv", synth.crypto_like_prices(401, seed=5))
    scope = {}
    exec(compile(_python_block("## Library"), str(README), "exec"), scope)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # each printed number, read back exactly, is the report's own
    want = [[r["k"], r["e_mean"], r["e_std"], r["e_rand_mean"], r["e_rand_std"]]
            for r in report_to_json_dict(scope["report"])["results"]]
    assert [[int(k), *map(float, rest)] for k, *rest in rows] == want
    assert [row[0] for row in want] == list(range(1, 9))


def test_readme_experiment_by_hand_runs(capsys):
    prices = synth.crypto_like_prices(401, seed=5)
    hours = np.arange(len(prices), dtype=np.int64) * 3_600_000_000
    returns = compute_log_returns(PriceSeries("demo", hours, prices))
    exec(compile(_python_block("The experiment by hand:"), str(README), "exec"), {"returns": returns})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(int(k), int(j)) for k, j, _, _ in rows] == [(k, j) for k in range(1, 9) for j in range(1, 51)]
    per_run = run_experiment(ExperimentConfig(runs=50, k_max=8, master_seed=42), returns).per_run
    # every printed score, read back exactly from its repr, is the experiment's own
    assert [(float(e), float(e_rand)) for _, _, e, e_rand in rows] == [
        score for k in range(1, 9) for score in zip(per_run[k].e.tolist(), per_run[k].e_rand.tolist())
    ]


def test_readme_bench_files_exist_and_parse():
    # every measurement file README.md cites is at the repository root, as JSON
    names = sorted(set(re.findall(r"BENCH_\d+\.json", README.read_text(encoding="utf-8"))))
    assert names
    for name in names:
        json.loads((README.parent / name).read_text(encoding="utf-8"))
